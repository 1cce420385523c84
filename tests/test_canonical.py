"""Canonical-sum tests: level densities, the universal profile, and both
spectral parts of Z.

Oracles: closed forms at n = 1 and 2, mpmath Whittaker values, brute-force
series summation and 40-digit Euler-Maclaurin references for Z_c,
quadrature cross-checks for the degeneracies, and the degeneracies in exact
rational arithmetic (``oracles.trapped_degeneracy_exact``).
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kg5d import canonical
from kg5d.canonical import (
    DensityCurve,
    brace_asymptote,
    _trapped_levels,
    dn_density,
    dn_scaled_grid,
    figure1_curves,
    partition,
    trapped_degeneracy_limit,
    universal_d,
    z_continuous,
    z_discrete,
)
from kg5d.errors import DomainError, NonConvergenceError, QuadratureError
from kg5d.numerics import Tolerance, integrate
from kg5d.specfun import erfcx_minus_one
from kg5d.spectrum import stat_energy
from oracles import dn_scaled_asymptotic, trapped_degeneracy_exact

mp.mp.dps = 40


def _zd(coupling=0.01, eta0=1.0, r_over_rho=50.0, tol=Tolerance(rel=1e-10)):
    """z_discrete at the coupling lambda*/Lambda, eta0 and R/rho."""
    return z_discrete(eta0, coupling, 2.0 * r_over_rho, tol)


def _zc_args(coupling=0.01, eta0=1.0, r_over_rho=50.0):
    """z_continuous's (eta0, eps, R/Lambda) at the coupling, eta0 and R/rho."""
    return eta0, coupling, r_over_rho / coupling


def _ideal_gas(eta0, r_over_lambda):
    return (4.0 * math.pi / 3.0 * r_over_lambda**3 * math.exp(-eta0)
            / (2.0 * math.pi * eta0) ** 1.5)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def test_d1_closed_form_physical_units():
    # D_1(r) = (4 r^2 / rho^3) e^{-2r/rho}; unit rho gives 4 r^2 e^{-2r}
    for r in (0.0, 0.3, 1.7, 6.0):
        assert dn_density(1, r, 1.0) == pytest.approx(
            4.0 * r * r * math.exp(-2.0 * r), rel=1e-12, abs=1e-300)


def test_dn_zero_at_origin():
    for n in (1, 2, 7, 40):
        assert dn_density(n, 0.0, 2.0) == 0.0
        assert dn_scaled_grid(n, np.array([0.0]))[0] == 0.0


def test_d2_normalization_various_rho():
    for rho in (0.7, 1.0, 2.0):
        val = integrate(lambda r: dn_density(2, r, rho), 0.0, 90.0 * rho, Tolerance(rel=1e-10))
        assert val == pytest.approx(4.0, rel=1e-8)


def test_dn_density_on_arrays():
    # one call over many radii, with one level or one level per radius, gives
    # each radius the bits of a call at that radius alone
    r = np.array([0.0, 0.4, 3.0, 17.0, 250.0])
    for n in (3, np.array([1, 2, 5, 9, 40])):
        got = dn_density(n, r, 1.7)
        assert got.shape == r.shape
        for i, ri in enumerate(r.tolist()):
            ni = n if np.ndim(n) == 0 else int(n[i])
            assert got[i].tobytes() == np.asarray(dn_density(ni, ri, 1.7)).tobytes()
    for args, message in (((0, r, 1.0), "need n >= 1"), ((2, r, 0.0), "need rho > 0"),
                          ((2, -r - 1.0, 1.0), "need r >= 0")):
        with pytest.raises(DomainError, match=message):
            dn_density(*args)


def test_d1_scaled_closed_form():
    # D_1(r) in rho/2 units: r^2 e^{-r} / 2, unit mass
    r = np.linspace(0.0, 30.0, 400)
    np.testing.assert_allclose(dn_scaled_grid(1, r), 0.5 * r * r * np.exp(-r),
                               rtol=1e-10, atol=1e-300)
    val = integrate(lambda x: dn_scaled_grid(1, x), 0.0, 60.0, Tolerance(rel=1e-11))
    assert val == pytest.approx(1.0, rel=1e-10)


def test_scaled_and_physical_densities_agree():
    # rho = 2 makes the cavity variable the physical one
    for (n, rhat) in [(3, 2.0), (8, 33.0), (15, 400.0)]:
        assert dn_density(n, rhat, 2.0) == pytest.approx(
            dn_scaled_grid(n, np.array([rhat / n**2]))[0], rel=1e-12)


def test_dn_scaled_normalization_sample():
    for n in (2, 5, 17, 30):
        val = integrate(lambda r: dn_scaled_grid(n, r), 0.0, 20.0 + 40.0 / n,
                        Tolerance(rel=1e-10))
        assert val == pytest.approx(1.0, rel=1e-8)


def test_dn_against_mpmath_high_n():
    # rescaled recurrence vs 40-digit Whittaker at a plain-overflow argument
    n, r = 1000, 3.5
    x = mp.mpf(r) * n
    f = lambda t: mp.whitm(n, mp.mpf(1) / 2, t)
    combo = mp.diff(f, x, 1) ** 2 - f(x) * mp.diff(f, x, 2)
    ref = float(mp.mpf(r) ** 2 * n / 2 * combo)
    assert dn_scaled_grid(n, np.array([r]))[0] == pytest.approx(ref, rel=1e-10)


def test_dn_scaled_asymptotic_path():
    # oscillatory branch reproduces the universal profile by construction,
    # and sits within O(1/n) of the recurrence
    for (n, r) in [(200, 1.0), (500, 2.5)]:
        assert dn_scaled_asymptotic(n, r) == pytest.approx(universal_d(r), rel=1e-12)
        assert dn_scaled_asymptotic(n, r) == pytest.approx(
            dn_scaled_grid(n, np.array([r]))[0], rel=5.0 / n)
    # exponential branch: exponentially small, matching the recurrence scale
    assert dn_scaled_asymptotic(300, 5.0) == pytest.approx(
        dn_scaled_grid(300, np.array([5.0]))[0], rel=5e-2)


# ---------------------------------------------------------------------------
# Universal profile
# ---------------------------------------------------------------------------

def test_universal_point_values():
    assert universal_d(2.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert universal_d(0.0) == 0.0
    assert universal_d(4.0) == 0.0
    assert universal_d(17.3) == 0.0


def test_universal_norm():
    val = integrate(universal_d, 0.0, 4.0,
                    Tolerance(rel=0.0, abs=1e-12, max_iter=100000))
    assert abs(val - 1.0) < 1e-10


def test_universal_rejects_negative():
    with pytest.raises(DomainError):
        universal_d(-0.5)


def test_universal_limit_supnorm_trend():
    r = np.arange(0.1, 3.8001, 0.01)
    dists = [float(np.max(np.abs(dn_scaled_grid(n, r) - universal_d(r))))
             for n in (10, 100, 1000)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.01


# ---------------------------------------------------------------------------
# Trapped degeneracy
# ---------------------------------------------------------------------------

def test_trapped_degeneracy_full_mass():
    tol = Tolerance(rel=1e-10)
    got = _trapped_levels([1, 2, 6], math.inf, tol)[0]
    for n, g in zip((1, 2, 6), got.tolist()):
        assert g == pytest.approx(n * n, rel=1e-8)


def test_trapped_degeneracy_monotone_in_radius():
    tol = Tolerance(rel=1e-10)
    vals = [_trapped_levels([4], rh, tol)[0][0] for rh in (5.0, 20.0, 64.0, 200.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 16.0 + 1e-9 for v in vals)


def test_trapped_degeneracy_tail_formula():
    # n >> sqrt(R): degeneracy -> R^{5/2} / (5 pi n^3)
    rhat = 49.0
    tol = Tolerance(rel=1e-11)
    for n, got in zip((70, 140), _trapped_levels([70, 140], rhat, tol)[0].tolist()):
        ref = rhat**2.5 / (5.0 * math.pi * n**3)
        assert got == pytest.approx(ref, rel=5e-3)


def _lone_level(n, rhat, tol):
    """Level n's trapped degeneracy as one adaptive integral of its density in r_hat."""
    cut = max(min(rhat, n * (20.0 * n + 40.0)), 0.0)
    return integrate(lambda rh: dn_density(n, rh, 2.0), 0.0, cut, tol)


def _check_against_lone_levels(ns, rhat, picked=slice(None)):
    # Each level of the shared pass lands within its own error estimate of a
    # lone adaptive integration (plus rounding), whatever else is in the pass.
    tol = Tolerance(rel=1e-12, abs=1e-280)
    got, err = _trapped_levels(ns, rhat, tol)
    assert np.all(err <= tol.rel * np.abs(got))
    ns, got, err = np.asarray(ns)[picked], got[picked], err[picked]
    # rel 1e-10 keeps the lone integrations quick; their 15/7 estimates are
    # pessimistic, and they land within 3e-15 of the pass here.
    lone = np.array([_lone_level(n, rhat, Tolerance(rel=1e-10, abs=1e-280))
                     for n in ns.tolist()])
    assert np.all(np.abs(got - lone) <= err + 1e-14 * np.abs(lone))


def test_trapped_degeneracies_match_single_levels():
    _check_against_lone_levels([140, 1, 65, 7, 64, 2], 150.0)
    tol = Tolerance(rel=1e-11, abs=1e-280)
    assert _trapped_levels([3, 4], 0.0, tol)[0].tolist() == [0.0, 0.0]


def test_trapped_degeneracies_match_single_levels_large_cavity():
    # Z_d's 344 exact levels at r/rho 1000 in one pass; every 7th level and
    # the last are checked (lone integrations of all 344 take 5-6 s).
    _check_against_lone_levels(list(range(1, 345)), 2000.0, np.r_[0:344:7, 343])


def test_trapped_degeneracies_refuse_an_unmet_tolerance():
    # rel 1e-17 is below what the 15/7 estimate of any level can show.
    with pytest.raises(QuadratureError, match=r"^level \d+: error estimate") as info:
        _trapped_levels([5, 30], 150.0, Tolerance(rel=1e-17, abs=0.0))
    assert info.value.error_bound > 1e-17 * abs(info.value.estimate) > 0
    with pytest.raises(QuadratureError, match="over the limit of 10"):
        _trapped_levels([30], 150.0, Tolerance(rel=1e-12, max_iter=10))


def test_split_levels_match_single_levels():
    # figure1's curves share one pass; each keeps the bits of a pass of its own.
    ns = [140, 1, 65, 7, 64, 2]
    r = np.linspace(0.0, 5.0, 301)
    for curve, n in zip(figure1_curves(ns, r), ns):
        assert curve.n == n and np.array_equal(curve.values, dn_scaled_grid(n, r))


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=1, max_value=2000))
def test_trapped_degeneracy_normalisation_random_level(n):
    # A cavity far beyond the level's support traps all of it: D_n integrates to n^2.
    got = _trapped_levels([n], 1e12, Tolerance(rel=1e-11, abs=0.0, max_iter=10000))[0][0]
    assert got == pytest.approx(n * n, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("rhat", [100.0, 300.0, 2000.0])
def test_trapped_levels_match_exact_oracle(rhat):
    # Exact rational parts with e^{-X} at 40 + 4n digits, at the pass's own
    # cut X = min(r_hat/n, 20n + 40): the full mass A is n^2 exactly, and
    # each level lands within its error of the exact value, the 15/7
    # estimate plus the bound on the panel sums' rounding (at n = 1 the
    # level is 1 ulp off with an estimate below 1 ulp).
    ns = [1, 2, 3, 5, 10, 20, 40, 60]
    got, err = _trapped_levels(ns, rhat, Tolerance(rel=1e-12, abs=1e-280))
    for n, g, e in zip(ns, got.tolist(), err.tolist()):
        cut = min(rhat / n, 20.0 * n + 40.0)
        full, exact = trapped_degeneracy_exact(n, cut)
        assert full == n * n
        assert abs(g - exact) <= e, n


# ---------------------------------------------------------------------------
# Z_c
# ---------------------------------------------------------------------------

def test_zc_uncoupled_is_ideal_gas_exactly():
    zc, rep = z_continuous(1.0, 0.0, 25.0)
    assert zc == _ideal_gas(1.0, 25.0)  # bitwise: the correction is skipped, not just small
    assert rep.value == 0.0 and rep.converged


def test_brace_factor_asymptote_ratio():
    s0 = 0.01 * math.sqrt(0.5)
    ratios = [erfcx_minus_one(s0 / n) / brace_asymptote(s0 / n) for n in (1, 10, 100, 1000)]
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b - 1.0) < abs(a - 1.0)
    assert abs(ratios[-1] - 1.0) < 1e-2


def test_zc_against_bruteforce_oracle():
    eta0, eps, r_over_lambda = _zc_args()
    zc, rep = z_continuous(eta0, eps, r_over_lambda, Tolerance(rel=1e-13))
    # brute-force summation of the displayed series, vectorized to 2e5 terms;
    # gamma = pi^{4/3} u c Lambda / (2 V^{2/3}) with u c Lambda = eta0 Lambda^2
    gamma = math.pi ** (4.0 / 3.0) * eta0 / (
        2.0 * (4.0 * math.pi / 3.0 * r_over_lambda**3) ** (2.0 / 3.0))
    n = np.arange(1, 200_001, dtype=float)
    sval = eps * math.sqrt(0.5 * eta0) / n
    brace = canonical.erfcx_minus_one(sval[:40_000])
    terms = n[:40_000] ** 2 * np.exp(-gamma * n[:40_000] ** 2) * brace
    brute = float(np.sum(terms))
    ref = _ideal_gas(eta0, r_over_lambda) - 0.5 * math.exp(-eta0) * brute
    assert zc == pytest.approx(ref, rel=1e-12)
    assert rep.converged
    assert rep.tail_bound < 1e-12 * abs(rep.value)


@pytest.mark.parametrize("r_over_rho, coupling, eta0", [
    (50.0, 0.01, 1.0), (1000.0, 0.0099, 1.05), (5000.0, 0.01, 1.0), (50.0, 1.0, 1.0),
    (50.0, 1.0, 2000.0)])
def test_zc_sum_within_its_bound(r_over_rho, coupling, eta0):
    # Reference: Euler-Maclaurin at 40 digits on the same gamma and s0, with
    # K - 1 exact terms, int_K^inf f + f(K)/2 and five Bernoulli corrections
    # from mpmath's numerical derivatives.  At eta0 2000, s0 = 31.6, so
    # K = ceil(64 s0) = 2024 and f(1)'s e^{s0^2} is far past overflow.
    args = _zc_args(coupling, eta0, r_over_rho)
    _, rep = z_continuous(*args, Tolerance(rel=1e-12))
    gamma = mp.mpf(canonical._zc_damping(eta0, args[2]))
    s0 = mp.mpf(coupling * math.sqrt(0.5 * eta0))
    k = max(64, math.ceil(64 * s0))

    def f(n):
        z = s0 / n
        return n * n * mp.exp(-gamma * n * n) * (mp.exp(z * z) * mp.erfc(z) - 1)

    width = 1 / mp.sqrt(gamma)  # of the Gaussian
    head = mp.fsum(f(n) for n in range(1, k))
    integral = mp.quad(f, [k] + [k + t * width for t in (0.25, 0.5, 1, 2, 3, 4, 6, 8)]
                       + [mp.inf])
    corrections = mp.fsum(mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, k, 2 * j - 1)
                          for j in range(1, 6))
    reference = head + integral + f(k) / 2 - corrections
    assert rep.converged and rep.terms_used == k
    assert abs(rep.value - reference) <= rep.tail_bound <= 1e-12 * abs(rep.value)


def test_zc_refuses_a_head_over_max_iter():
    # the exact head f(1), ..., f(K-1) is refused with one line naming K
    # when K = ceil(64 s0) exceeds the tolerance's work budget
    args = _zc_args(coupling=1.0, eta0=2000.0)
    with pytest.raises(NonConvergenceError,
                       match=r"^Z_c's exact head needs K = 2024 terms, over the limit of 2000$"):
        z_continuous(*args, Tolerance(rel=1e-12, max_iter=2000))
    assert z_continuous(*args, Tolerance(rel=1e-12, max_iter=2024))[1].terms_used == 2024


def test_zc_requires_positive_scales():
    for eta0, eps, r_over_lambda in ((1.0, 0.01, -1.0), (1.0, 0.01, 0.0), (0.0, 0.01, 5000.0),
                                     (-1.0, 0.01, 5000.0), (1.0, -0.01, 5000.0),
                                     (math.nan, 0.01, 5000.0), (1.0, 0.01, math.nan)):
        with pytest.raises(DomainError, match="z_continuous needs eta0 > 0"):
            z_continuous(eta0, eps, r_over_lambda)


# ---------------------------------------------------------------------------
# Z_d
# ---------------------------------------------------------------------------

def test_zd_report_and_tail():
    zd, rep, levels = _zd()
    assert rep.converged
    assert rep.tail_bound < 1e-10 * zd
    assert zd > 0
    # per-level degeneracies live in [0, n^2]
    g = levels.trapped_degeneracy
    assert levels.n.tolist() == list(range(1, len(levels) + 1))
    assert np.all((0.0 <= g) & (g <= levels.n**2 * (1.0 + 1e-9)))
    assert np.all((0.0 < levels.weight) & (levels.weight < 1.0))
    # small-n levels fit almost entirely (n=3 keeps ~2e-7 of its mass
    # beyond the r_hat = 100 cavity; that deficit is physical)
    assert g[0] == pytest.approx(1.0, rel=1e-9)
    assert g[2] == pytest.approx(9.0, rel=1e-6)


def test_zd_pinned_reference_within_tail_bound():
    # Independent reference for coupling 0.01, eta0 = 1, r/rho = 50, built
    # from 1600 exact levels plus a fitted tail.
    zd, rep, _ = _zd()
    assert abs(zd - 51.98303420490789) <= rep.tail_bound


# Independent references for coupling 0.01, eta0 = 1: every level up to 1600
# or 2000 by exact quadrature, plus a tail fitted as B_inf + C/n^2 + D/n^4 +
# E/n^6.  The r/rho 1000 value moves by 2e-12 between 1600 and 2400 exact
# levels.
@pytest.mark.parametrize("r_over_rho, reference", [
    (150.0, 270.3674414955647),
    (1000.0, 4654.744102270005),
    (5000.0, 52043.796250636515),
])
def test_zd_large_cavity_reference_within_tail_bound(r_over_rho, reference):
    # The free (B, C) tail fit missed r/rho 1000 by 4.3 times its own bound.
    zd, rep, _ = _zd(r_over_rho=r_over_rho)
    assert rep.converged
    assert abs(zd - reference) <= rep.tail_bound


def test_zd_bound_includes_the_quadrature_errors(monkeypatch):
    # terms_d.tail_bound = the tail model's bound + sum_n w_n err_n over the
    # exact levels' 15/7 error estimates.
    levels_pass, errors = canonical._trapped_levels, []

    def recorded(*args):
        g, err = levels_pass(*args)
        errors.append(err)
        return g, err

    monkeypatch.setattr(canonical, "_trapped_levels", recorded)
    _, rep, levels = _zd(r_over_rho=150.0)
    err = np.concatenate(errors)
    a = 0.5 * 1.0 * 0.01 * 0.01  # eta0 eps^2 / 2
    _, model = canonical._zd_tail(levels.trapped_degeneracy, trapped_degeneracy_limit(300.0),
                                  1.0, a)
    quad = float(levels.weight @ err)
    assert len(err) == len(levels) and quad > 0
    assert rep.tail_bound == model + quad


@pytest.mark.parametrize("n_top", [104, 134, 344, 815])
@pytest.mark.parametrize("terms", [2, 3])
def test_zd_tail_least_squares_matches_lstsq(n_top, terms):
    # the tail fit's Householder solve against LAPACK's, on the (N/n)^{2k}
    # basis over the last 64 levels below N; the data carry an (N/n)^8 term
    # that no basis column fits
    ns = np.arange(n_top - canonical._TAIL_WINDOW + 1, n_top + 1, dtype=float)
    basis = (n_top / ns)[:, None] ** (2 * np.arange(1, canonical._TAIL_TERMS + 1))
    y = basis @ np.array([-3.1, 0.7, 0.2]) + 1e-3 * (n_top / ns) ** 8
    want = np.linalg.lstsq(basis[:, :terms], y, rcond=None)[0]
    got = canonical._least_squares(basis[:, :terms], y)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_zd_exact_levels_grow_with_the_cavity():
    # The exact-level count starts from a smooth function of r_hat and is
    # extended only while the tail bound misses the tolerance.
    counts = [len(_zd(r_over_rho=r)[2]) for r in (50.0, 100.0, 150.0, 155.4, 200.0, 300.0, 1000.0)]
    assert counts[0] <= 112 and counts[2] <= 160 and counts[-1] <= 360
    assert counts[1:] == sorted(counts[1:])


def test_trapped_degeneracy_limit():
    # Closed form against the Mehler-Heine integral, and n^3 g_n -> B_inf
    def integral(rhat):
        f = lambda s: s**5 * (mp.besselj(0, s) ** 2 + mp.besselj(1, s) ** 2) / 64
        with mp.workdps(20):
            top = 2 * mp.sqrt(rhat)
            return float(mp.quad(f, mp.linspace(0, top, int(top) + 2)))

    for rhat in (0.01, 1.0, 49.0, 1000.0):
        assert trapped_degeneracy_limit(rhat) == pytest.approx(integral(rhat), rel=1e-12)
    assert trapped_degeneracy_limit(1e4) == pytest.approx(636640081.12524, rel=1e-13)
    assert trapped_degeneracy_limit(0.0) == 0.0
    g = _trapped_levels([400], 49.0, Tolerance(rel=1e-12, abs=1e-280))[0][0]
    assert 400**3 * g == pytest.approx(trapped_degeneracy_limit(49.0), rel=1e-4)
    with pytest.raises(DomainError):
        trapped_degeneracy_limit(-1.0)


def test_zd_peak_memory():
    # The level pass must not hold much more than its shared panels' nodes:
    # the one-level-at-a-time sum peaked at 2.02 MiB here.
    tracemalloc.start()
    try:
        _zd(r_over_rho=150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_zd_weights_use_level_energies():
    _, _, levels = _zd(eta0=2.0, tol=Tolerance(rel=1e-6))
    for n, w in zip(levels.n[:5].tolist(), levels.weight[:5].tolist()):
        assert w == pytest.approx(math.exp(-2.0 * (1.0 - 0.5 * 0.01**2 / (n * n))), rel=1e-12)
    # each weight has the bits of the scalar expression on its level
    assert levels.weight.tolist() == [math.exp(-2.0 * stat_energy(n, 0.01))
                                      for n in levels.n.tolist()]


def test_zd_monotone_in_radius():
    zs = []
    for r_over_rho in (10.0, 25.0, 50.0):
        zd, _, _ = _zd(r_over_rho=r_over_rho, tol=Tolerance(rel=1e-8))
        zs.append(zd)
    assert zs[0] < zs[1] < zs[2]


def test_zd_term_decay_exponent():
    # past the geometric cutoff the terms fall off like 1/n^3
    _, _, levels = _zd()
    lo = int(math.ceil(2.0 * math.sqrt(100.0)))  # r_hat = 2 R/rho
    keep = levels.n >= lo
    ns = levels.n[keep].astype(float)
    terms = levels.weight[keep] * levels.trapped_degeneracy[keep]
    slope = np.polyfit(np.log(ns), np.log(terms), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.1)


def test_zd_needs_coupling():
    with pytest.raises(DomainError, match="z_discrete needs a positive coupling"):
        z_discrete(1.0, 0.0, 20.0)


@pytest.mark.parametrize("eta0, eps, rhat, message", [
    (1.0, -0.01, 100.0, "positive coupling"), (1.0, math.nan, 100.0, "positive coupling"),
    (1.0, 0.01, 0.0, "need r_hat > 0"), (1.0, 0.01, math.nan, "need r_hat > 0"),
    (0.0, 0.01, 100.0, "eta0 > 0"), (1.0, 1.5, 100.0, "too large")])
def test_zd_refuses_ratios_outside_its_domain(eta0, eps, rhat, message):
    with pytest.raises(DomainError, match=message):
        z_discrete(eta0, eps, rhat)


def test_partition_assembles_both_parts():
    result = partition(1.0, 0.01, 10.0, Tolerance(rel=1e-8))
    assert result.z_total == result.z_c + result.z_d
    assert result.terms_c.converged and result.terms_d.converged
    assert result.per_level_d


def test_partition_runs_in_one_process(forbid_fork):
    result = partition(1.0, 0.01, 1000.0)
    assert result.terms_c.converged and result.terms_d.converged


# ---------------------------------------------------------------------------
# figure curves
# ---------------------------------------------------------------------------

def test_figure1_n1_closed_form():
    r = np.linspace(0.0, 5.0, 101)
    curves = figure1_curves([1, 10], r)
    assert isinstance(curves[0], DensityCurve)
    np.testing.assert_allclose(curves[0].values, 0.5 * r * r * np.exp(-r),
                               rtol=1e-10, atol=1e-300)


def test_figure1_nonnegative_and_zero_at_origin():
    r = np.linspace(0.0, 5.0, 64)
    for curve in figure1_curves([1, 10, 100, 1000], r):
        assert curve.values.min() >= 0.0
        assert curve.values[0] == 0.0


def _whole_array_figure1(ns, r):
    """Reference: every curve's points in one array with a degree per point,
    one recurrence pass over all of them."""
    ns = np.array(ns, dtype=np.int64)
    return dn_scaled_grid(np.repeat(ns, r.size), np.tile(r, len(ns))).reshape(-1, r.size)


@pytest.mark.parametrize("ns, points", [
    ([4964, 37, 1200, 3801, 2500, 2501, 1, 5000, 1, 10], 401),
    ([1, 10, 100, 1000], 251),
    ([3, 3, 1, 7, 3], 7),
    ([1], 1),
], ids=["benchmark-like", "default", "duplicates", "one-point"])
def test_figure1_curves_match_whole_array_pass(ns, points):
    # each curve is read off the ladder at its own degree, with the bits of
    # the pass with a degree per point
    r = np.linspace(0.0, 5.0, points)
    curves = figure1_curves(ns, r)
    assert [c.n for c in curves] == ns
    for curve, want in zip(curves, _whole_array_figure1(ns, r)):
        assert curve.values.tobytes() == want.tobytes()


def test_figure1_curves_peak_memory():
    # 10 levels x 4001 points: the ladder's arrays of the points and one
    # curve's temporaries, measured at 6.4 arrays of the 40,010 points (a
    # degree per point, with 3 x N copies in and out of the ladder, took 16)
    levels = [m for n in (7, 300, 1100, 1900, 2450) for m in (n, 5001 - n)]
    r = np.linspace(0.0, 5.0, 4001)
    figure1_curves([1, 2], r)
    tracemalloc.start()
    try:
        figure1_curves(levels, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 8 * len(levels) * r.size, f"{peak / (8 * len(levels) * r.size):.1f}"


def test_figure1_domain_guard():
    with pytest.raises(DomainError):
        figure1_curves([1], np.array([0.0, 5.5]))
    with pytest.raises(DomainError, match=r"need n >= 1, got 0$"):
        figure1_curves([3, 0, -1], np.linspace(0.0, 5.0, 11))
