"""Canonical-sum tests: level densities, the universal profile, and both
spectral parts of Z.

Oracles: closed forms at n = 1 and 2, mpmath Whittaker values, brute-force
series summation for Z_c, and quadrature cross-checks for the degeneracies.
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
    dn_density,
    dn_scaled_asymptotic,
    dn_scaled_grid,
    figure1_curves,
    partition,
    trapped_degeneracies,
    trapped_degeneracy_limit,
    universal_d,
    z_continuous,
    z_discrete,
)
from kg5d.errors import DomainError
from kg5d.numerics import Tolerance, integrate
from kg5d.specfun import erfcx_minus_one
from kg5d.spectrum import ScaleSet

mp.mp.dps = 40


def _scales(coupling=0.01, eta0=1.0, r_over_rho=50.0):
    return ScaleSet.build(Z=1, lambda_star_over_Lambda=coupling, eta0=eta0,
                          R_over_rho=r_over_rho)


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
        val = integrate(lambda r: np.array([dn_density(2, float(x), rho) for x in r]),
                        0.0, 90.0 * rho, Tolerance(rel=1e-10))
        assert val == pytest.approx(4.0, rel=1e-8)


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
    got = trapped_degeneracies([1, 2, 6], math.inf, tol)
    for n, g in zip((1, 2, 6), got.tolist()):
        assert g == pytest.approx(n * n, rel=1e-8)


def test_trapped_degeneracy_monotone_in_radius():
    tol = Tolerance(rel=1e-10)
    vals = [trapped_degeneracies([4], rh, tol)[0] for rh in (5.0, 20.0, 64.0, 200.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 16.0 + 1e-9 for v in vals)


def test_trapped_degeneracy_tail_formula():
    # n >> sqrt(R): degeneracy -> R^{5/2} / (5 pi n^3)
    rhat = 49.0
    tol = Tolerance(rel=1e-11)
    for n, got in zip((70, 140), trapped_degeneracies([70, 140], rhat, tol).tolist()):
        ref = rhat**2.5 / (5.0 * math.pi * n**3)
        assert got == pytest.approx(ref, rel=5e-3)


def test_trapped_degeneracies_match_single_levels():
    # The batched levels carry the bits of one-level integrations.
    tol = Tolerance(rel=1e-11, abs=1e-280)
    ns = list(range(1, 30)) + [64, 65, 140]
    got = trapped_degeneracies(ns, 150.0, tol)
    assert got.tolist() == [trapped_degeneracies([n], 150.0, tol)[0] for n in ns]
    assert trapped_degeneracies([3, 4], 0.0, tol).tolist() == [0.0, 0.0]


def test_split_levels_match_single_levels(always_fork):
    # Half of the levels are computed in a forked worker; each keeps its bits.
    tol = Tolerance(rel=1e-11, abs=1e-280)
    ns = [140, 1, 65, 7, 64, 2]
    got = trapped_degeneracies(ns, 150.0, tol)
    assert got.tolist() == [trapped_degeneracies([n], 150.0, tol)[0] for n in ns]
    r = np.linspace(0.0, 5.0, 301)
    for curve, n in zip(figure1_curves(ns, r), ns):
        assert curve.n == n and np.array_equal(curve.values, dn_scaled_grid(n, r))


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=1, max_value=2000))
def test_trapped_degeneracy_normalisation_random_level(n):
    # A cavity far beyond the level's support traps all of it: D_n integrates to n^2.
    got = trapped_degeneracies([n], 1e12, Tolerance(rel=1e-11, abs=0.0, max_iter=10000))[0]
    assert got == pytest.approx(n * n, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# Z_c
# ---------------------------------------------------------------------------

def test_zc_uncoupled_is_ideal_gas_exactly():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=25.0)
    zc, rep = z_continuous(s)
    ideal = s.V * math.exp(-s.eta0) / (s.Lambda**3 * (2.0 * math.pi * s.eta0) ** 1.5)
    assert zc == ideal  # bitwise: the correction is skipped, not just small
    assert rep.value == 0.0 and rep.converged


def test_brace_factor_asymptote_ratio():
    s0 = 0.01 * math.sqrt(0.5)
    ratios = [erfcx_minus_one(s0 / n) / brace_asymptote(s0 / n) for n in (1, 10, 100, 1000)]
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b - 1.0) < abs(a - 1.0)
    assert abs(ratios[-1] - 1.0) < 1e-2


def test_zc_against_bruteforce_oracle():
    s = _scales()
    zc, rep = z_continuous(s, Tolerance(rel=1e-13))
    # brute-force summation of the displayed series, vectorized to 2e5 terms
    gamma = math.pi ** (4.0 / 3.0) * s.u * s.c * s.Lambda / (2.0 * s.V ** (2.0 / 3.0))
    eps = s.coupling_stat
    n = np.arange(1, 200_001, dtype=float)
    sval = eps * math.sqrt(0.5 * s.eta0) / n
    brace = np.array([canonical.erfcx_minus_one(v) for v in sval[:40_000]])
    terms = n[:40_000] ** 2 * np.exp(-gamma * n[:40_000] ** 2) * brace
    brute = float(np.sum(terms))
    ideal = s.V * math.exp(-s.eta0) / (s.Lambda**3 * (2.0 * math.pi * s.eta0) ** 1.5)
    ref = ideal - 0.5 * math.exp(-s.eta0) * brute
    assert zc == pytest.approx(ref, rel=1e-12)
    assert rep.converged
    assert rep.tail_bound < 1e-12 * abs(rep.value)


def test_zc_requires_positive_scales():
    s = _scales()
    bad = ScaleSet(c=s.c, hbar=s.hbar, m=s.m, M=s.M, q=s.q, Z=s.Z, alpha=s.alpha,
                   beta=s.beta, zeta=s.zeta, u=s.u, R=-1.0)
    with pytest.raises(DomainError):
        z_continuous(bad)


# ---------------------------------------------------------------------------
# Z_d
# ---------------------------------------------------------------------------

def test_zd_report_and_tail():
    s = _scales()
    zd, rep, levels = z_discrete(s, tol=Tolerance(rel=1e-10))
    assert rep.converged
    assert rep.tail_bound < 1e-10 * zd
    assert zd > 0
    # per-level degeneracies live in [0, n^2]
    for n, w, g in levels:
        assert 0.0 <= g <= n * n * (1.0 + 1e-9)
        assert 0.0 < w < 1.0
    # small-n levels fit almost entirely (n=3 keeps ~2e-7 of its mass
    # beyond the r_hat = 100 cavity; that deficit is physical)
    assert levels[0][2] == pytest.approx(1.0, rel=1e-9)
    assert levels[2][2] == pytest.approx(9.0, rel=1e-6)


def test_zd_pinned_reference_within_tail_bound():
    # Independent reference for coupling 0.01, eta0 = 1, r/rho = 50, built
    # from 1600 exact levels plus a fitted tail.
    zd, rep, _ = z_discrete(_scales(), tol=Tolerance(rel=1e-10))
    assert abs(zd - 51.98303420490789) <= rep.tail_bound


# Independent references for coupling 0.01, eta0 = 1: every level up to 1600
# or 2000 by exact quadrature, plus a tail fitted as B_inf + C/n^2 + D/n^4 +
# E/n^6.  The r/rho 1000 value moves by 2e-12 between 1600 and 2400 exact
# levels.
@pytest.mark.parametrize("r_over_rho, reference", [
    (150.0, 270.3674414955647),
    (1000.0, 4654.744102270005),
    pytest.param(5000.0, 52043.796250636515, marks=pytest.mark.slow),
])
def test_zd_large_cavity_reference_within_tail_bound(r_over_rho, reference):
    # The free (B, C) tail fit missed r/rho 1000 by 4.3 times its own bound.
    zd, rep, _ = z_discrete(_scales(r_over_rho=r_over_rho), tol=Tolerance(rel=1e-10))
    assert rep.converged
    assert abs(zd - reference) <= rep.tail_bound


def test_zd_exact_levels_grow_with_the_cavity():
    # The exact-level count starts from a smooth function of r_hat and is
    # extended only while the tail bound misses the tolerance.
    counts = [len(z_discrete(_scales(r_over_rho=r), tol=Tolerance(rel=1e-10))[2])
              for r in (50.0, 100.0, 150.0, 155.4, 200.0, 300.0, 1000.0)]
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
    g = trapped_degeneracies([400], 49.0, Tolerance(rel=1e-12, abs=1e-280))[0]
    assert 400**3 * g == pytest.approx(trapped_degeneracy_limit(49.0), rel=1e-4)
    with pytest.raises(DomainError):
        trapped_degeneracy_limit(-1.0)


def test_zd_peak_memory(never_fork):
    # Batched levels must not hold more than a capped integrand call's worth
    # of points: the one-level-at-a-time sum peaked at 2.02 MiB here.  Inline,
    # so the traced process integrates every level.
    s = _scales(r_over_rho=150.0)
    tracemalloc.start()
    try:
        z_discrete(s, tol=Tolerance(rel=1e-10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_zd_weights_use_level_energies():
    s = _scales(eta0=2.0)
    _, _, levels = z_discrete(s, tol=Tolerance(rel=1e-6))
    eps = s.coupling_stat
    for n, w, _ in levels[:5]:
        assert w == pytest.approx(
            math.exp(-s.eta0 * (1.0 - 0.5 * eps * eps / (n * n))), rel=1e-12)


def test_zd_monotone_in_radius():
    zs = []
    for r_over_rho in (10.0, 25.0, 50.0):
        s = _scales(r_over_rho=r_over_rho)
        zd, _, _ = z_discrete(s, tol=Tolerance(rel=1e-8))
        zs.append(zd)
    assert zs[0] < zs[1] < zs[2]


def test_zd_term_decay_exponent():
    # past the geometric cutoff the terms fall off like 1/n^3
    s = _scales()
    rhat = 2.0 * s.R / s.rho
    _, _, levels = z_discrete(s, tol=Tolerance(rel=1e-10))
    lo = int(math.ceil(2.0 * math.sqrt(rhat)))
    ns = np.array([n for n, _, _ in levels if n >= lo], dtype=float)
    terms = np.array([w * g for n, w, g in levels if n >= lo])
    slope = np.polyfit(np.log(ns), np.log(terms), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.1)


def test_zd_needs_coupling():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    with pytest.raises(DomainError):
        z_discrete(s)


def test_partition_assembles_both_parts():
    s = _scales(r_over_rho=10.0)
    result = partition(s, Tolerance(rel=1e-8))
    assert result.z_total == result.z_c + result.z_d
    assert result.terms_c.converged and result.terms_d.converged
    assert result.per_level_d


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


def test_figure1_domain_guard():
    with pytest.raises(DomainError):
        figure1_curves([1], np.array([0.0, 5.5]))
    with pytest.raises(DomainError, match=r"need n >= 1, got 0$"):
        figure1_curves([3, 0, -1], np.linspace(0.0, 5.0, 11))
