"""Special-function tests.

Oracles: scipy.special.eval_genlaguerre for the recurrences, mpmath.whitm at
40 digits for the Whittaker assembly, and a three-regime erfc oracle (power
series / self-quadrature / asymptotic series) independent of the C library.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from kg5d.errors import DomainError, LaguerreOverflowError, TurningPointError
from kg5d.numerics import Tolerance, fd_derivative, integrate
from kg5d.specfun import (
    AsymptoticBranch,
    asymptotic_branch,
    asymptotic_combo,
    bessel_j01,
    erfcx_minus_one,
    hurwitz_zeta,
    laguerre,
    laguerre_asymptotic,
    varrho,
    varsigma,
    whittaker_m_half,
    _combo_arrays,
    _scaled_laguerre_pair,
)

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# Laguerre recurrence
# ---------------------------------------------------------------------------

def test_laguerre_base_cases():
    for x in (0.0, 0.3, 2.0, 17.5):
        v, d1, d2 = laguerre(0, 1, x)
        assert (v, d1, d2) == (1.0, 0.0, 0.0)


def test_laguerre_quadratic_value():
    # L_2^{(1)}(x) = 3 - 3x + x^2/2, so L_2^{(1)}(2) = -1.
    v, d1, d2 = laguerre(2, 1, 2.0)
    assert v == pytest.approx(-1.0, abs=1e-14)
    assert d1 == pytest.approx(-3.0 + 2.0, abs=1e-14)
    assert d2 == pytest.approx(1.0, abs=1e-14)


def test_laguerre_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(0, 60))
        alpha = int(rng.integers(0, 4))
        x = float(rng.uniform(0.0, 8.0 * max(n, 1)))
        v, d1, d2 = laguerre(n, alpha, x)
        assert v == pytest.approx(float(eval_genlaguerre(n, alpha, x)),
                                  rel=1e-9, abs=1e-9)
        if n >= 1:
            assert d1 == pytest.approx(-float(eval_genlaguerre(n - 1, alpha + 1, x)),
                                       rel=1e-9, abs=1e-9)


def test_laguerre_derivative_vs_stencil():
    h = 1e-3
    for (n, alpha, x) in [(7, 1, 2.6), (12, 2, 9.1), (20, 1, 30.0)]:
        xs = x + h * np.arange(-2, 3)
        vals = np.array([laguerre(n, alpha, xx)[0] for xx in xs])
        d1_fd = fd_derivative(vals, 0, 1, h)[2]
        d2_fd = fd_derivative(vals, 0, 2, h)[2]
        v, d1, d2 = laguerre(n, alpha, x)
        assert d1 == pytest.approx(d1_fd, rel=1e-5, abs=1e-6 * abs(v))
        assert d2 == pytest.approx(d2_fd, rel=1e-4, abs=1e-4 * abs(v))


def test_laguerre_ode_consistency():
    # x y'' + (alpha + 1 - x) y' + n y = 0
    for (n, alpha, x) in [(5, 1, 3.0), (15, 2, 22.0), (40, 1, 100.0)]:
        v, d1, d2 = laguerre(n, alpha, x)
        resid = x * d2 + (alpha + 1 - x) * d1 + n * v
        assert abs(resid) < 1e-9 * max(abs(v), abs(x * d2))


def test_laguerre_overflow_raises():
    # oscillatory range carries e^{x/2}: past x ~ 1419 plain doubles overflow
    with pytest.raises(LaguerreOverflowError) as info:
        laguerre(400, 1, 1500.0)
    assert info.value.n == 400 and info.value.x == 1500.0


def test_laguerre_domain():
    with pytest.raises(DomainError):
        laguerre(-1, 1, 0.5)
    with pytest.raises(DomainError):
        laguerre(3, -1, 0.5)


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
    # M_{1,1/2}(x) = x e^{-x/2}; derivatives and combo in closed form.
    for x in np.geomspace(0.01, 40.0, 25):
        m, m1, m2, combo = whittaker_m_half(1, float(x))
        e = math.exp(-x / 2.0)
        assert m == pytest.approx(x * e, rel=1e-12)
        assert m1 == pytest.approx(e * (1.0 - x / 2.0), rel=1e-12, abs=1e-300)
        assert m2 == pytest.approx(e * (x / 4.0 - 1.0), rel=1e-12)
        assert combo == pytest.approx(math.exp(-x), rel=1e-12)


def test_whittaker_small_argument_limit():
    assert whittaker_m_half(3, 1e-12)[0] == pytest.approx(0.0, abs=1e-11)


def test_whittaker_arrays_match_single_points_bitwise():
    # one call over many points, with one degree or one degree per point,
    # gives each point the bits of a call at that point alone
    x = np.array([0.01, 0.7, 3.0, 27.0, 110.0, 2500.0])
    degrees = np.array([1, 2, 5, 9, 30, 1000])
    for n in (7, degrees):
        got = whittaker_m_half(n, x)
        assert all(part.shape == x.shape for part in got)
        for i, xi in enumerate(x.tolist()):
            ni = n if np.ndim(n) == 0 else int(n[i])
            alone = whittaker_m_half(ni, xi)
            for part, one in zip(got, alone):
                assert part[i].tobytes() == one.tobytes()


def test_whittaker_against_mpmath():
    cases = [(2, 3.1), (5, 3.0), (5, 27.0), (9, 0.4), (17, 60.0), (30, 110.0)]
    for n, x in cases:
        m, m1, m2, combo = whittaker_m_half(n, x)
        f = lambda t: mp.whitm(n, mp.mpf(1) / 2, t)
        m_ref = float(f(mp.mpf(x)))
        m1_ref = float(mp.diff(f, mp.mpf(x), 1))
        m2_ref = float(mp.diff(f, mp.mpf(x), 2))
        combo_ref = float(mp.diff(f, mp.mpf(x), 1) ** 2
                          - f(mp.mpf(x)) * mp.diff(f, mp.mpf(x), 2))
        assert m == pytest.approx(m_ref, rel=1e-11, abs=1e-280)
        assert m1 == pytest.approx(m1_ref, rel=1e-10, abs=1e-280)
        assert m2 == pytest.approx(m2_ref, rel=1e-10, abs=1e-280)
        assert combo == pytest.approx(combo_ref, rel=1e-9, abs=1e-280)


def test_whittaker_identity_and_stencil_consistency():
    # Assembly must match (x/n) e^{-x/2} L_{n-1}^{(1)}(x) by construction and
    # the derivative fields must agree with differencing the value field.
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 11, 23, 30):
        x = float(rng.uniform(0.05, 7.9 * n))
        m, m1, m2, _ = whittaker_m_half(n, x)
        direct = (x / n) * math.exp(-x / 2.0) * eval_genlaguerre(n - 1, 1, x)
        assert m == pytest.approx(direct, rel=1e-10, abs=1e-250)
        h = 1e-3  # truncation ~ h^2/6, roundoff ~ 1e-15/h: both << tolerances
        xs = x + h * np.arange(-2, 3)
        vals = whittaker_m_half(n, xs)[0]
        scale = max(abs(m), abs(m1), 1e-30)
        assert fd_derivative(vals, 0, 1, h)[2] == pytest.approx(
            m1, rel=2e-6, abs=1e-6 * scale)
        assert fd_derivative(vals, 0, 2, h)[2] == pytest.approx(
            m2, rel=1e-4, abs=1e-4 * scale)


def test_wronskian_combo_positive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        x = float(rng.uniform(1e-3, 8.0 * n))
        assert float(_combo_arrays(n, np.array([x]))[0]) >= 0.0


def test_whittaker_combo_n5_positive_and_normalized():
    # combo(5, 3) > 0, and the degeneracy built from it integrates to 25.
    assert whittaker_m_half(5, 3.0)[3] > 0.0
    val = integrate(lambda x: 0.5 * x * x * _combo_arrays(5, x), 0.0, 140.0,
                    Tolerance(rel=1e-11))
    assert val == pytest.approx(25.0, rel=1e-8)


def test_whittaker_domain():
    with pytest.raises(DomainError):
        whittaker_m_half(0, 1.0)
    with pytest.raises(DomainError):
        whittaker_m_half(2, 0.0)
    # on arrays, the first bad degree or point is named
    with pytest.raises(DomainError, match="need integer n >= 1, got -1"):
        whittaker_m_half(np.array([3, -1, 0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError, match="need x > 0, got nan"):
        whittaker_m_half(2, np.array([1.0, np.nan, -1.0]))


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
    from kg5d.specfun import _varrho_prime

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
    # the underflow side still clips, at e^{-745}, and does not raise
    assert 0.0 < _combo_arrays(1, np.array([2000.0]))[0] < 1e-320


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
