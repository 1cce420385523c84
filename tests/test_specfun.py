"""Special-function tests.

Oracles: scipy.special.eval_genlaguerre for the recurrence, mpmath.whitm at
40 digits for the Whittaker combination, the two-branch large-degree
asymptotics (``oracles``), and a three-regime erfc oracle (power series /
self-quadrature / asymptotic series) independent of the C library.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from kg5d.canonical import dn_scaled_grid, figure1_curves
from kg5d.errors import DomainError, LaguerreOverflowError
from kg5d.numerics import Tolerance, fd_derivative, integrate
from kg5d.specfun import (
    bessel_j01,
    erfcx_minus_one,
    hurwitz_zeta,
    _combo_arrays,
    _combo_terms,
    _scaled_laguerre_pair,
)
from oracles import (
    AsymptoticBranch,
    TurningPointError,
    _varrho_prime,
    asymptotic_branch,
    asymptotic_combo,
    laguerre_asymptotic,
    varrho,
    varsigma,
)

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# Laguerre recurrence
# ---------------------------------------------------------------------------

def test_laguerre_base_cases():
    # L_{-1} = 0, L_0 = 1 and L_1^{(1)} = 2 - x exactly, with no rescaling
    x = np.array([0.0, 0.3, 2.0, 17.5])
    la, lb, ls = _scaled_laguerre_pair(1, x)
    assert la.tolist() == [1.0] * 4 and lb.tolist() == [0.0] * 4 and ls.tolist() == [0.0] * 4
    la, lb, ls = _scaled_laguerre_pair(2, x)
    assert la.tolist() == (2.0 - x).tolist() and lb.tolist() == [1.0] * 4
    assert ls.tolist() == [0.0] * 4


def test_laguerre_quadratic_value():
    # L_2^{(1)}(x) = 3 - 3x + x^2/2, so L_2^{(1)}(2) = -1, L_1^{(1)}(2) = 0
    # and x L_2^{(1)}'(2) = 2 (x - 3) = -2.
    x = np.array([2.0])
    la, lb, ls = _scaled_laguerre_pair(3, x)
    assert la[0] * math.exp(ls[0]) == pytest.approx(-1.0, abs=1e-14)
    assert lb[0] * math.exp(ls[0]) == pytest.approx(0.0, abs=1e-14)
    w = _combo_terms(3, x, la, lb, ls)[0]
    assert w[0] * math.exp(ls[0]) == pytest.approx(-2.0, abs=1e-14)


def test_laguerre_against_scipy():
    # both values of the pair, out to x = 8n, past the turning point 4n
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 61))
        x = rng.uniform(0.0, 8.0 * n, size=3)
        la, lb, ls = _scaled_laguerre_pair(n, x)
        for values, degree in ((la, n - 1), (lb, n - 2)):
            ref = eval_genlaguerre(degree, 1, x) if degree >= 0 else np.zeros_like(x)
            np.testing.assert_allclose(values * np.exp(ls), ref, rtol=1e-9, atol=1e-9)


def test_laguerre_derivative_vs_stencil():
    # w = x L' = (n-1) L_{n-1} - n L_{n-2}, the form the combination uses,
    # against differencing L_{n-1}^{(1)} itself
    h = 1e-3
    for (n, x) in [(8, 2.6), (13, 9.1), (21, 30.0)]:
        xs = x + h * np.arange(-2, 3)
        la, lb, ls = _scaled_laguerre_pair(n, xs)
        vals = la * np.exp(ls)
        w = _combo_terms(n, xs, la, lb, ls)[0] * np.exp(ls)
        d1_fd = fd_derivative(vals, 0, 1, h)[2]
        assert w[2] / x == pytest.approx(d1_fd, rel=1e-5, abs=1e-6 * abs(vals[2]))


def test_scaled_pair_matches_plain():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        x = rng.uniform(0.01, 6.0 * n, size=4)
        la, lb, ls = _scaled_laguerre_pair(n, x)
        ref_a = np.array([eval_genlaguerre(n - 1, 1, xx) for xx in x])
        np.testing.assert_allclose(la * np.exp(ls), ref_a, rtol=1e-9, atol=1e-9)


def test_scaled_pair_survives_plain_overflow():
    # x/2 ~ 2500: e^{x/2} overflows doubles, the scaled pair must not.
    la, lb, ls = _scaled_laguerre_pair(2000, np.array([5000.0]))
    assert np.isfinite(la).all() and np.isfinite(ls).all()
    assert ls[0] > 700.0  # the carried exponent holds the growth


def _reference_pair(n, x):
    # The one-degree recurrence as a plain loop, rescaling included: the
    # arithmetic the in-place, shared pass must reproduce bit for bit.
    log_scale = np.zeros_like(x)
    if n == 1:
        return np.ones_like(x), np.zeros_like(x), log_scale
    prev, cur = np.ones_like(x), 2.0 - x
    for k in range(1, n - 1):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
        big = np.abs(cur) > 1e130
        if big.any():
            f = np.where(big, 2.0 ** -466, 1.0)
            cur, prev = cur * f, prev * f
            log_scale = log_scale + np.where(big, 466.0 * math.log(2.0), 0.0)
    return cur, prev, log_scale


def test_per_point_degrees_match_per_degree_calls():
    # One pass over mixed degrees must give every point the bits a pass at
    # its own degree gives: degrees 1 and 2 (no recurrence step), a spread
    # up to 300, and arguments large enough to trigger rescaling.
    rng = np.random.default_rng(13)
    deg = np.concatenate([[1, 2, 1, 2, 300, 300], rng.integers(1, 301, size=400)])
    x = rng.uniform(0.0, 6.0, size=deg.size) * deg
    x[:6] = [0.5, 3.0, 0.0, 1e-9, 2500.0, 1200.0]
    x[6::37] = 2000.0
    pair = _scaled_laguerre_pair(deg, x)
    combo = _combo_arrays(deg, x)
    assert pair[2].max() > 0.0  # some points were rescaled
    for n in np.unique(deg):
        at = deg == n
        one = _scaled_laguerre_pair(int(n), x[at])
        for got, alone, ref in zip(pair, one, _reference_pair(int(n), x[at])):
            np.testing.assert_array_equal(alone, ref)
            np.testing.assert_array_equal(got[at], ref)
        np.testing.assert_array_equal(combo[at], _combo_arrays(int(n), x[at]))


# ---------------------------------------------------------------------------
# Whittaker M_{n,1/2}
# ---------------------------------------------------------------------------

def test_whittaker_n1_closed_form():
    # M_{1,1/2}(x) = x e^{-x/2}, so M'^2 - M M'' = e^{-x}.
    x = np.geomspace(0.01, 40.0, 25)
    np.testing.assert_allclose(_combo_arrays(1, x), np.exp(-x), rtol=1e-12)


def test_whittaker_small_argument_limit():
    # M'^2 - M M'' -> 1 as x -> 0, at every degree
    assert _combo_arrays(3, np.array([1e-12]))[0] == pytest.approx(1.0, abs=1e-11)


def test_whittaker_arrays_match_single_points_bitwise():
    # one call over many points, with one degree or one degree per point,
    # gives each point the bits of a call at that point alone
    x = np.array([0.01, 0.7, 3.0, 27.0, 110.0, 2500.0])
    degrees = np.array([1, 2, 5, 9, 30, 1000])
    for n in (7, degrees):
        got = _combo_arrays(n, x)
        assert got.shape == x.shape
        for i, xi in enumerate(x.tolist()):
            ni = n if np.ndim(n) == 0 else int(n[i])
            assert got[i].tobytes() == _combo_arrays(ni, np.array([xi]))[0].tobytes()


def test_whittaker_against_mpmath():
    # M'^2 - M M'' is the density that Z_d and figure1 integrate
    cases = [(2, 3.1), (5, 3.0), (5, 27.0), (9, 0.4), (17, 60.0), (30, 110.0)]
    for n, x in cases:
        combo = _combo_arrays(n, np.array([x]))[0]
        f = lambda t: mp.whitm(n, mp.mpf(1) / 2, t)
        combo_ref = float(mp.diff(f, mp.mpf(x), 1) ** 2
                          - f(mp.mpf(x)) * mp.diff(f, mp.mpf(x), 2))
        assert combo == pytest.approx(combo_ref, rel=1e-9, abs=1e-280)


def test_wronskian_combo_positive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        x = float(rng.uniform(1e-3, 8.0 * n))
        assert float(_combo_arrays(n, np.array([x]))[0]) >= 0.0


def test_whittaker_combo_n5_positive_and_normalized():
    # combo(5, 3) > 0, and the degeneracy built from it integrates to 25.
    assert _combo_arrays(5, np.array([3.0]))[0] > 0.0
    val = integrate(lambda x: 0.5 * x * x * _combo_arrays(5, x), 0.0, 140.0,
                    Tolerance(rel=1e-11))
    assert val == pytest.approx(25.0, rel=1e-8)


# ---------------------------------------------------------------------------
# Large-degree asymptotics
# ---------------------------------------------------------------------------

def test_phase_function_values():
    assert varrho(1.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert varsigma(1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        varrho(1.2)
    with pytest.raises(DomainError):
        varsigma(0.8)


def test_asymptotic_branch_classification():
    b = asymptotic_branch(2.0)
    assert b.region == "oscillatory" and b.varsigma is None
    assert b.varrho == pytest.approx(varrho(0.5))
    b = asymptotic_branch(6.0)
    assert b.region == "exponential" and b.varrho is None
    assert isinstance(b, AsymptoticBranch)


def _exact_laguerre_scaled(n, x):
    la, _, ls = _scaled_laguerre_pair(n, np.array([x]))
    return float(la[0]), float(ls[0])


def test_asymptotic_vs_recurrence_oscillatory():
    # The documented relative accuracy holds pointwise away from the cosine
    # zeros; near them the honest statement is agreement within an O(1/n)
    # fraction of the oscillation envelope.
    assert abs(laguerre_asymptotic(200, 1.0) / _exact_product(200, 200.0) - 1.0) < 1e-2
    for (n, r) in [(200, 1.0), (100, 2.0), (150, 3.0), (400, 0.5)]:
        exact = _exact_product(n, r * n)
        asym = laguerre_asymptotic(n, r)
        envelope = math.exp(r * n / 2.0) / (r * math.sqrt(math.pi * n * _varrho_prime(r / 4.0)))
        assert abs(asym - exact) < 0.02 * envelope


def _exact_product(n, x):
    mant, ls = _exact_laguerre_scaled(n, x)
    return mant * math.exp(ls)


def test_asymptotic_vs_recurrence_exponential():
    for (n, r) in [(100, 6.0), (60, 5.0), (200, 4.5)]:
        mant, ls = _exact_laguerre_scaled(n, r * n)
        exact = mant * math.exp(ls)
        asym = laguerre_asymptotic(n, r)
        assert abs(asym - exact) / abs(exact) < 2e-2
        # fixed sign (-1)^{n-1} on this branch
        assert math.copysign(1.0, asym) == (1.0 if (n - 1) % 2 == 0 else -1.0)


def test_oscillatory_branch_changes_sign():
    n = 120
    vals = [laguerre_asymptotic(n, r) for r in np.linspace(0.5, 3.0, 40)]
    signs = np.sign(vals)
    assert np.any(signs[1:] != signs[:-1])


def test_turning_point_exclusion_and_floor():
    with pytest.raises(TurningPointError):
        laguerre_asymptotic(200, 3.95)
    with pytest.raises(TurningPointError):
        asymptotic_combo(200, 4.1)
    with pytest.raises(DomainError):
        laguerre_asymptotic(10, 1.0)


def test_asymptotic_overflow_is_reported():
    with pytest.raises(LaguerreOverflowError):
        laguerre_asymptotic(1000, 3.0)


def test_asymptotic_combo_matches_recurrence():
    for (n, r) in [(150, 2.0), (300, 1.0), (100, 6.0), (200, 5.0)]:
        exact = float(_combo_arrays(n, np.array([r * n]))[0])
        asym = asymptotic_combo(n, r)
        assert asym == pytest.approx(exact, rel=3e-2)


# ---------------------------------------------------------------------------
# erfc / erfcx
# ---------------------------------------------------------------------------

def _erfc_oracle(x: float) -> float:
    """Independent erfc: Maclaurin series, self-quadrature, or asymptotics."""
    if x < 0:
        return 2.0 - _erfc_oracle(-x)
    if x < 2.5:
        # erf power series, converges to full precision at this range
        term = x
        acc = x
        for k in range(1, 200):
            term *= -x * x / k
            acc += term / (2 * k + 1)
            if abs(term) < 1e-20 * abs(acc):
                break
        return 1.0 - 2.0 / math.sqrt(math.pi) * acc
    if x < 6.0:
        val = integrate(lambda t: np.exp(-t * t), x, x + 30.0,
                        Tolerance(rel=1e-14, abs=1e-300, max_iter=100000))
        return 2.0 / math.sqrt(math.pi) * val
    # asymptotic series, truncated at its smallest term
    s = 1.0
    term = 1.0
    for k in range(1, 60):
        new = term * -(2 * k - 1) / (2.0 * x * x)
        if abs(new) >= abs(term):
            break
        term = new
        s += term
    return math.exp(-x * x) / (x * math.sqrt(math.pi)) * s


def test_erfc_basics():
    assert math.erfc(0.0) == 1.0
    vals = [math.erfc(x) for x in np.linspace(0.0, 12.0, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # monotone to zero
    assert math.erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)


def test_erfc_symmetry():
    for x in np.linspace(-6.0, 6.0, 25):
        assert math.erfc(x) + math.erfc(-x) == pytest.approx(2.0, abs=1e-12)


def test_erfc_against_independent_oracle():
    # Relative accuracy over the representable part of [0, 30]; beyond ~26.5
    # the true value sinks under the double-precision floor.
    for x in [0.0, 0.3, 1.0, 2.0, 2.6, 4.0, 5.9, 6.5, 10.0, 18.0, 26.0]:
        ref = _erfc_oracle(x)
        assert math.erfc(x) == pytest.approx(ref, rel=1e-12)


def test_erfcx_minus_one_small_s():
    # mpmath oracle: e^{s^2} erfc(s) - 1
    for s in (1e-8, 1e-5, 1e-3, 0.05, 0.3, 0.49, 0.7, 2.0):
        ref = float(mp.exp(mp.mpf(s) ** 2) * mp.erfc(mp.mpf(s)) - 1)
        assert erfcx_minus_one(s) == pytest.approx(ref, rel=1e-12)


def test_erfcx_minus_one_array_matches_scalar_loop():
    # Reference: the series as a scalar loop with its per-value early exit.
    def loop(s):
        if abs(s) >= 0.5:
            return math.exp(s * s) * math.erfc(s) - 1.0
        odd_term = 2.0 * s / math.sqrt(math.pi)
        acc, even_term, s2 = -odd_term, 1.0, s * s
        for k in range(1, 60):
            even_term *= s2 / k
            odd_term *= 2.0 * s2 / (2 * k + 1)
            acc += even_term - odd_term
            if max(abs(even_term), abs(odd_term)) < 1e-18 * (1.0 + abs(acc)):
                break
        return acc

    s = np.concatenate([np.geomspace(1e-12, 3.0, 300), -np.geomspace(1e-9, 0.7, 40),
                        [0.0, 0.5, -0.5]]).reshape(7, 49)
    got = erfcx_minus_one(s)
    assert got.shape == s.shape
    assert got.ravel().tolist() == [loop(v) for v in s.ravel().tolist()]
    assert type(erfcx_minus_one(0.25)) is float and erfcx_minus_one(0.25) == loop(0.25)


def test_erfcx_minus_one_asymptote():
    # -> -2s/sqrt(pi) as s -> 0
    for s in (1e-4, 1e-6, 1e-8):
        assert erfcx_minus_one(s) / (-2.0 * s / math.sqrt(math.pi)) == pytest.approx(
            1.0, abs=2.0 * s)


def test_erfcx_minus_one_large_s_against_mpmath():
    # past s ~ 26.64 e^{s^2} overflows; the asymptotic series keeps the
    # value finite (it used to raise a bare OverflowError)
    s = [27.0, 100.0, 1e4, 1e8]
    refs = [float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v)) - 1) for v in s]
    for v, ref in zip(s, refs):
        assert erfcx_minus_one(v) == pytest.approx(ref, rel=1e-15)
    assert erfcx_minus_one(np.array(s)).tolist() == [erfcx_minus_one(v) for v in s]
    assert erfcx_minus_one(math.inf) == -1.0


def test_erfcx_minus_one_keeps_the_product_below_overflow():
    # the asymptotic branch takes only arguments whose e^{s^2} overflows
    for v in (0.5, 3.0, 26.6, 26.64, -3.0, -26.6, -26.62):
        assert erfcx_minus_one(v) == math.exp(v * v) * math.erfc(v) - 1.0


@pytest.mark.parametrize("s", [-26.64, -26.65, -1e4, np.array([1.0, -27.0])])
def test_erfcx_minus_one_refuses_overflowing_negative_s(s):
    # e^{s^2} erfc(s) itself exceeds a double there, at -26.64 while e^{s^2}
    # alone is still finite: one line, not an OverflowError or an inf
    with pytest.raises(DomainError) as info:
        erfcx_minus_one(s)
    assert "\n" not in str(info.value) and "overflows" in str(info.value)


def test_scaled_exponent_overflow_raises_instead_of_clamping():
    # e^{-x} L^2 at x = -800 is e^{800}: the exponent used to be clipped to
    # 700, which returned a finite, wrong combination.
    x = np.array([1.0, -800.0, 2.0])
    with pytest.raises(LaguerreOverflowError) as info:
        _combo_arrays(np.array([3, 1, 2]), x)
    assert (info.value.n, info.value.x) == (1, -800.0)
    with pytest.raises(LaguerreOverflowError):
        _combo_arrays(2, np.array([-1500.0]))
    # the underflow side neither raises nor clips: e^{-2000} is 0 in doubles
    # (it used to be raised to e^{-745}, the smallest subnormal)
    assert _combo_arrays(1, np.array([2000.0]))[0] == 0.0


# Tolerance, fixed before the points were run: the recurrence keeps about
# 1e-12 relative on normal doubles, so 1e-10 is allowed; a combination below
# the normal range is rounded to a multiple of the smallest subnormal
# 2^-1074, so D_n may further miss by half of that times its factor r^2 n / 2.
UNDERFLOW_RTOL = 1e-10


@pytest.mark.parametrize("n, r", [(2332, 5.0), (1200, 5.0), (1000, 4.62125)])
def test_densities_past_the_exponent_floor_against_mpmath(n, r):
    # e^{2 log_scale - x} is below e^{-745} at these points while the
    # bracket is up to 1e263: clipping the exponent to -745 returned
    # 4.4e-68, 2.0e-128 and 1.8e-71 here
    x = mp.mpf(r) * n
    la, lb = mp.laguerre(n - 1, 1, x), mp.laguerre(n - 2, 1, x)
    w = (n - 1) * la - n * lb
    bracket = (1 + (n - 1) * x) * la * la - (x - 2) * la * w + w * w
    want = float(r * r * n / 2 * mp.exp(-x) * bracket / (n * n))
    slack = UNDERFLOW_RTOL * want + r * r * n / 4 * 2.0**-1074
    got = dn_scaled_grid(n, np.array([r]))[0]
    assert abs(got - want) <= slack, (got, want)
    assert figure1_curves([n], np.array([r]))[0].values[0] == got
    assert dn_scaled_grid(np.array([3, n]), np.array([1.0, r]))[1] == got  # a degree per point


# ---------------------------------------------------------------------------
# Bessel J0/J1 and the Hurwitz zeta function
# ---------------------------------------------------------------------------

def test_bessel_j01_against_mpmath():
    for s in (0.0, 1e-3, 0.5, 2.404825557695773, 7.0, 63.5, 200.0, 1999.0):
        j0, j1 = bessel_j01(s)
        assert abs(j0 - float(mp.besselj(0, s))) < 1e-14
        assert abs(j1 - float(mp.besselj(1, s))) < 1e-14
    with pytest.raises(DomainError):
        bessel_j01(-1.0)


@settings(max_examples=150, deadline=None)
@given(s=st.sampled_from([3, 5, 7, 9, 11, 13, 15]),
       q=st.one_of(st.integers(2, 10**6), st.floats(2.0, 1e6)))
def test_hurwitz_zeta_against_mpmath(s, q):
    # mpmath sums zeta(s) - sum_{k<q} k^{-s} for integer q, which cancels
    # to about q^{1-s}: the working precision must cover that.
    with mp.workdps(30 + int(s * math.log10(q))):
        ref = mp.zeta(s, mp.mpf(q))
        assert abs(hurwitz_zeta(s, q) - ref) <= 1e-14 * ref


def test_hurwitz_zeta_domain():
    assert hurwitz_zeta(2, 1) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    for s, q in ((1.0, 2.0), (3.0, 0.0), (3.0, -1.0)):
        with pytest.raises(DomainError):
            hurwitz_zeta(s, q)
