"""Numerical kernel tests: quadrature, series, roots, stencils.

Oracles: closed forms, brute-force summation, and scipy.integrate.quad as an
independent quadrature implementation.
"""

import math
import os
import signal
import time

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from kg5d.errors import (
    BracketingError,
    ConfigurationError,
    GridSizeError,
    IntegrandError,
    IntervalError,
    DomainError,
    Kg5dError,
    NonConvergenceError,
    OrderFitError,
    QuadratureError,
    SeriesBoundError,
    StencilError,
    WorkerError,
)
from kg5d.numerics import (
    SeriesReport,
    Tolerance,
    beside,
    fd_derivative,
    find_roots,
    fit_convergence_order,
    integrate,
    integrate_batch,
    sum_series,
)


# ---------------------------------------------------------------------------
# Tolerance / SeriesReport plumbing
# ---------------------------------------------------------------------------

def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0, abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel=-1e-3)
    with pytest.raises(ValueError):
        Tolerance(max_iter=0)
    # also a configuration error, so the CLI exits 2 with one line
    with pytest.raises(ConfigurationError):
        Tolerance(rel=0.0, abs=0.0)
    assert Tolerance(rel=1e-8).threshold(2.0) == 2e-8
    assert Tolerance(rel=1e-8, abs=1e-3).threshold(2.0) == 1e-3


def test_series_report_invariant():
    rep = SeriesReport(value=1.0, terms_used=3, tail_bound=1e-12, converged=True)
    assert rep.converged and rep.tail_bound <= 1e-10 * abs(rep.value) + 1e-11


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_polynomial_exact():
    assert integrate(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_integrate_exponential():
    val = integrate(lambda x: np.exp(-x), 0.0, 40.0, Tolerance(rel=1e-13))
    assert abs(val - (1.0 - math.exp(-40.0))) < 1e-12


def test_integrate_d1_density():
    # D_1 at unit Bohr-like radius: 4 r^2 e^{-2r}; full mass is 1, the tail
    # beyond 60 is ~5e-49.
    val = integrate(lambda r: 4.0 * r * r * np.exp(-2.0 * r), 0.0, 60.0,
                    Tolerance(rel=1e-12))
    assert abs(val - 1.0) < 1e-10


def test_integrate_high_degree_polynomial_to_rounding():
    # The embedded GL15 rule is exact through degree 29 on a single panel.
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(21)

    def poly(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    exact = np.polynomial.polynomial.polyval(
        1.0, np.concatenate([[0.0], coeffs / np.arange(1, 22)]))
    assert integrate(poly, 0.0, 1.0) == pytest.approx(exact, rel=1e-14)


def test_integrate_against_scipy_oracle():
    f = lambda x: np.sin(3.0 * x) * np.exp(-0.5 * x) + 0.1 * x
    mine = integrate(f, 0.0, 7.5, Tolerance(rel=1e-12))
    ref, err = scipy.integrate.quad(lambda x: f(np.array([x]))[0], 0.0, 7.5,
                                    epsabs=1e-13, epsrel=1e-13)
    assert mine == pytest.approx(ref, abs=max(1e-12, 10 * err))


def test_integrate_sqrt_singularity():
    val = integrate(lambda x: np.sqrt(np.maximum(4.0 - x, 0.0)), 0.0, 4.0,
                    Tolerance(rel=0.0, abs=1e-11, max_iter=50_000))
    assert abs(val - 16.0 / 3.0) < 1e-10


def test_integrate_budget_error_carries_estimate():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0,
                  Tolerance(rel=0.0, abs=1e-300, max_iter=8))
    assert info.value.estimate == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert info.value.error_bound > 0


def test_integrate_empty_and_invalid():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_integrate_refinement_consistency():
    # Tightening the tolerance must not move the result by more than the
    # looser tolerance's error allowance.
    f = lambda x: np.cos(5.0 * x) * np.exp(-x * x)
    loose = integrate(f, 0.0, 3.0, Tolerance(rel=1e-6))
    tight = integrate(f, 0.0, 3.0, Tolerance(rel=1e-13))
    assert abs(loose - tight) <= 1e-6 * abs(tight) + 1e-15


def _reference_integrate(f, a, b, tol):
    # One integral refined by itself: its panels kept, then the left and the
    # right halves of the panels it splits, each round in one integrand call.
    def estimates(s, w):
        half = 0.5 * w
        x = (s + half)[:, None] + half[:, None] * np.concatenate([xs15, xs7])[None, :]
        fx = f(x.ravel()).reshape(x.shape)
        i15 = half * (fx[:, :15] @ w15)
        return i15, np.abs(i15 - half * (fx[:, 15:] @ w7))

    xs7, w7 = np.polynomial.legendre.leggauss(7)
    xs15, w15 = np.polynomial.legendre.leggauss(15)
    if a == b:
        return 0.0
    starts, widths = np.array([a]), np.array([b - a])
    vals, errs = estimates(starts, widths)
    while True:
        total = float(vals.sum())
        if float(errs.sum()) <= tol.threshold(total):
            return total
        split = errs > np.maximum(tol.threshold(total) * (widths / (b - a)), 1e-300)
        if not split.any():
            split = errs == errs.max()
        hw = 0.5 * widths[split]
        new_s = np.concatenate([starts[split], starts[split] + hw])
        new_v, new_e = estimates(new_s, np.concatenate([hw, hw]))
        starts = np.concatenate([starts[~split], new_s])
        widths = np.concatenate([widths[~split], hw, hw])
        vals = np.concatenate([vals[~split], new_v])
        errs = np.concatenate([errs[~split], new_e])


def test_integrate_batch_matches_lone_integrals_bitwise():
    # Each integral refines exactly as it does alone, whatever else is in
    # the batch: a zero-width interval, a kink that forces deep bisection,
    # and smooth integrands that converge after one round.
    a = np.array([0.0, 0.0, 2.0, -1.0, 0.3, 0.0])
    b = np.array([4.0, 40.0, 2.0, 3.0, 9.7, 1e-3])
    freq = np.array([1.0, 0.2, 5.0, 3.0, 7.0, 1.0])

    def f(x, owner):
        k = freq[owner]
        return np.sqrt(np.abs(x - 1.3)) * np.cos(k * x) + np.exp(-k * x * x)

    tol = Tolerance(rel=1e-11, max_iter=5000)
    got = integrate_batch(f, a, b, tol)
    for i in range(len(a)):
        alone = lambda x: f(x, np.full(x.shape, i))
        assert got[i] == integrate(alone, a[i], b[i], tol)
        assert got[i] == _reference_integrate(alone, a[i], b[i], tol)
    assert got[2] == 0.0


def _upper_gamma_poly(k, x):
    """int_x^inf t^k e^{-t} dt = k! e^{-x} sum_{j<=k} x^j / j!."""
    return math.factorial(k) * math.exp(-x) * math.fsum(x**j / math.factorial(j)
                                                        for j in range(k + 1))


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(st.tuples(st.integers(0, 6), st.floats(0.0, 20.0), st.floats(1e-3, 30.0),
                                st.booleans()), min_size=1, max_size=6))
def test_integrate_batch_closed_forms(cases):
    # x^k e^{-x} and sin x over random intervals, all in one batch; each
    # integral must land within its tolerance of the closed form.
    k = np.array([c[0] for c in cases])
    a = np.array([c[1] for c in cases])
    b = a + np.array([c[2] for c in cases])
    is_sin = np.array([c[3] for c in cases])
    tol = Tolerance(rel=1e-10, abs=1e-13)

    def f(x, owner):
        return np.where(is_sin[owner], np.sin(x), x ** k[owner] * np.exp(-x))

    got = integrate_batch(f, a, b, tol)
    for i, (ki, ai, bi, si) in enumerate(zip(k.tolist(), a.tolist(), b.tolist(), is_sin)):
        exact = (math.cos(ai) - math.cos(bi) if si
                 else _upper_gamma_poly(ki, ai) - _upper_gamma_poly(ki, bi))
        assert abs(got[i] - exact) <= tol.threshold(exact) + 1e-15 * (bi - ai + abs(exact))


def test_integrate_batch_budget_error():
    f = lambda x, owner: np.sqrt(np.abs(x - 0.3 * owner))
    with pytest.raises(QuadratureError) as info:
        integrate_batch(f, [0.0, 0.0], [1.0, 1.0], Tolerance(rel=0.0, abs=1e-300, max_iter=8))
    assert info.value.estimate == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert info.value.error_bound > 0


def test_integrate_batch_non_finite_integrand():
    # A package error (exit code 2 from the CLI) that is still a ValueError;
    # the message names the abscissa and the integral.
    f = lambda x, owner: np.where((owner == 1) & (x == 0.5), np.nan, x)
    with pytest.raises(IntegrandError, match=r"x=0\.5 in integral 1") as info:
        integrate_batch(f, [0.0, 0.0], [1.0, 1.0])
    assert isinstance(info.value, Kg5dError) and isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# sum_series
# ---------------------------------------------------------------------------

def test_sum_series_zeta3():
    # Oracle: brute-force partial sum of 1/n^3 to 1e6 terms (plus its own
    # integral-test tail bound, ~5e-13).
    brute = float(np.sum(1.0 / np.arange(1, 1_000_001, dtype=float) ** 3))
    rep = sum_series(lambda n: 1.0 / n**3, lambda n: 0.5 / n**2,
                     Tolerance(rel=0.0, abs=1e-9, max_iter=10**6))
    assert rep.converged
    assert abs(rep.value - brute) < 1e-6


def test_sum_series_zero_terms():
    rep = sum_series(lambda n: np.zeros(n.shape), lambda n: np.zeros(n.shape),
                     Tolerance(rel=1e-10))
    assert rep.value == 0.0 and rep.terms_used == 1 and rep.converged


def test_sum_series_ratio_bounded():
    # term n^2 e^{-n}; oracle by direct summation (equals x(1+x)/(1-x)^3).
    x = math.exp(-1.0)
    closed = x * (1.0 + x) / (1.0 - x) ** 3
    brute = sum(k * k * math.exp(-k) for k in range(1, 400))
    assert abs(brute - closed) < 1e-12

    def tail(n):
        # for k > n: k^2 e^{-k} <= (n+1)^2 e^{-(n+1)} * sum of e-ratio decay
        t = (n + 1) ** 2 * np.exp(-(n + 1.0))
        ratio = math.exp(-1.0) * ((n + 2) / (n + 1)) ** 2
        return t / (1.0 - ratio)

    rep = sum_series(lambda n: n * n * np.exp(-n.astype(float)), tail,
                     Tolerance(rel=0.0, abs=1e-9))
    assert rep.converged
    assert abs(rep.value - closed) < 1e-6


def test_sum_series_budget_exhaustion():
    rep = sum_series(lambda n: 1.0 / n**3, lambda n: 0.5 / n**2,
                     Tolerance(rel=0.0, abs=1e-12, max_iter=50))
    assert not rep.converged
    assert rep.terms_used == 50
    assert rep.tail_bound > 1e-12


def test_sum_series_monotone_refinement():
    # Tightening the tolerance never moves the value by more than the
    # previously reported tail bound.
    term = lambda n: 1.0 / n**4
    tail = lambda n: 1.0 / (3.0 * n**3)
    loose = sum_series(term, tail, Tolerance(rel=0.0, abs=1e-4))
    tight = sum_series(term, tail, Tolerance(rel=0.0, abs=1e-12))
    assert abs(tight.value - loose.value) <= loose.tail_bound


@pytest.mark.parametrize("tol", [Tolerance(rel=1e-3), Tolerance(rel=1e-9),
                                 Tolerance(rel=0.0, abs=1e-10, max_iter=100_000),
                                 Tolerance(rel=1e-14, max_iter=70)])
def test_sum_series_is_the_running_sum(tol):
    # Oracle: the term-by-term loop the stop rule describes.  Block
    # evaluation must give the same partial sum, bit for bit, and stop at
    # the same first n.
    term = lambda n: ((n % 7) - 3.0) / (n * n)
    tail = lambda n: 3.0 / n.astype(float)
    s, n, bound = 0.0, 0, math.inf
    while n < tol.max_iter:
        n += 1
        s += ((n % 7) - 3.0) / (n * n)
        bound = 3.0 / n
        if bound <= tol.threshold(s):
            break
    rep = sum_series(term, tail, tol)
    assert (rep.value, rep.terms_used, rep.tail_bound) == (s, n, bound)
    assert rep.converged == (bound <= tol.threshold(s))


# (term, tail bound by the integral test, exact sum, tightest rel tried)
_KNOWN_SERIES = {
    "1/n^2": (lambda n: 1.0 / n**2, lambda n: 1.0 / n, math.pi**2 / 6, 1e-4),
    "1/n^4": (lambda n: 1.0 / n**4, lambda n: 1.0 / (3.0 * n**3), math.pi**4 / 90, 1e-10),
}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_KNOWN_SERIES)), scale=st.floats(0.0, 1.0))
def test_sum_series_bound_covers_remainder_power_series(name, scale):
    # The reported bound is at least the true remainder of the reported
    # partial sum; the oracle sums the same terms exactly rounded.
    term, tail, exact, tightest = _KNOWN_SERIES[name]
    rel = tightest ** (1.0 - scale) * 1e-1 ** scale
    rep = sum_series(term, tail, Tolerance(rel=rel, max_iter=100_000))
    assert rep.converged
    n = np.arange(1, rep.terms_used + 1, dtype=float)
    partial = math.fsum(term(n).tolist())
    assert abs(rep.value - partial) <= rep.terms_used * 2**-52 * partial
    assert exact - partial <= rep.tail_bound


@settings(max_examples=80, deadline=None)
@given(ratio=st.floats(0.01, 0.95), rel=st.floats(1e-14, 1e-2))
def test_sum_series_bound_covers_remainder_geometric(ratio, rel):
    rep = sum_series(lambda n: ratio ** n.astype(float),
                     lambda n: ratio ** (n + 1.0) / (1.0 - ratio),
                     Tolerance(rel=rel, max_iter=100_000))
    assert rep.converged
    # the bound is the remainder itself, so allow the oracle's own rounding
    exact = ratio / (1.0 - ratio)
    partial = math.fsum(ratio**k for k in range(1, rep.terms_used + 1))
    assert exact - partial <= rep.tail_bound + 4 * math.ulp(exact)


def test_sum_series_rejects_invalid_bound():
    tail = lambda n: np.where(n < 100, 1.0 / n.astype(float), np.nan)
    with pytest.raises(ValueError, match=r"tail_bound\(100\)"):
        sum_series(lambda n: np.zeros(n.shape), tail, Tolerance(rel=0.0, abs=1e-6))


# ---------------------------------------------------------------------------
# find_roots
# ---------------------------------------------------------------------------

def test_find_root_linear():
    assert find_roots(lambda x, owner: x - 2.0, [0.0], [5.0])[0] == pytest.approx(2.0, abs=1e-12)


def test_find_root_sqrt2():
    root = find_roots(lambda x, owner: x * x - 2.0, [1.0], [2.0])[0]
    assert abs(root - math.sqrt(2.0)) < 1e-8


def test_find_root_stays_in_bracket():
    rng = np.random.default_rng(11)
    a, b, c = np.empty(25), np.empty(25), np.empty(25)
    for i in range(25):
        a[i] = rng.uniform(-3.0, 0.0)
        b[i] = rng.uniform(0.5, 4.0)
        c[i] = rng.uniform(a[i] + 0.1, b[i] - 0.1)
    roots = find_roots(lambda x, owner: np.tanh(x - c[owner]), a, b)
    assert np.all((a <= roots) & (roots <= b))
    assert np.max(np.abs(roots - c)) < 1e-10


def test_find_root_no_sign_change():
    with pytest.raises(BracketingError):
        find_roots(lambda x, owner: x * x + 1.0, [-1.0], [1.0])


def _reference_find_root(f, lo, hi, tol):
    """The scalar bisection-plus-secant loop find_roots must reproduce per root."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketingError(f"no sign change on [{lo}, {hi}]")
    for _ in range(tol.max_iter):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if width <= tol.threshold(mid) or width <= 4 * math.ulp(mid):
            return mid
        x = mid
        if fhi != flo:
            sec = hi - fhi * (hi - lo) / (fhi - flo)
            if lo + 0.1 * width < sec < hi - 0.1 * width:
                x = sec
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    raise NonConvergenceError("not localized", estimate=0.5 * (lo + hi), error_bound=hi - lo)


def _batched(fs):
    """f(x, owner) from one scalar function per root."""
    return lambda x, owner: np.array([fs[o](float(xi)) for xi, o in zip(x, owner)])


# Mixed brackets, one per exit of the loop: f(lo) == 0, f(hi) == 0, a secant
# step landing exactly on the root (f(x) == 0), increasing and decreasing
# functions, a negative bracket, and roots near zero where the ulp stop or
# the absolute tolerance decides.
_MIXED = [
    (lambda x: x, 0.0, 1.0),
    (lambda x: x - 1.0, 0.0, 1.0),
    (lambda x: x - 2.0, 0.0, 5.0),
    (lambda x: math.tanh(x - 0.3), -2.0, 3.0),
    (lambda x: -math.tanh(3.0 * (x + 1.7)), -4.0, 0.5),
    (lambda x: x * x * x - 2.0, 1.0, 2.0),
    (lambda x: math.tanh(x - 1e-9), -1.0, 1.0),
    (lambda x: x * x * x + x - 1e-200, -1.0, 1.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 50.0),
]


@pytest.mark.parametrize("tol", [Tolerance(rel=1e-14), Tolerance(rel=1e-300),
                                 Tolerance(rel=0.0, abs=1e-6), Tolerance(rel=1e-4)],
                         ids=["default", "ulp-stop", "abs", "coarse"])
def test_find_roots_matches_lone_scalar_loop_bitwise(tol):
    fs = [f for f, _, _ in _MIXED]
    lo = [a for _, a, _ in _MIXED]
    hi = [b for _, _, b in _MIXED]
    got = find_roots(_batched(fs), lo, hi, tol)
    for i, (f, a, b) in enumerate(_MIXED):
        want = _reference_find_root(f, a, b, tol)
        assert got[i] == want
        assert find_roots(_batched([f]), [a], [b], tol)[0] == want
    assert got[0] == 0.0 and got[1] == 1.0 and got[2] == 2.0


def test_find_roots_ulp_stop_at_tiny_tolerance():
    # rel=1e-300 cannot be met, so only the four-ulp stop ends the loop: the
    # root of x - 1/3 comes back within four ulps of the double nearest 1/3.
    root = find_roots(lambda x, owner: x - 1.0 / 3.0, [0.0], [1.0], Tolerance(rel=1e-300))[0]
    assert abs(root - 1.0 / 3.0) <= 4 * math.ulp(1.0 / 3.0)
    assert root == _reference_find_root(lambda x: x - 1.0 / 3.0, 0.0, 1.0, Tolerance(rel=1e-300))


def test_find_roots_non_convergence_names_first_open_root():
    # Root 0 exits at once (f(lo) == 0); root 1 is the first still open after
    # three steps, and its error carries the lone loop's estimate and width.
    fs = [lambda x: x, lambda x: math.tanh(x - 0.3), lambda x: x * x * x - 2.0]
    tol = Tolerance(rel=1e-14, max_iter=3)
    with pytest.raises(NonConvergenceError, match=r"in root 1") as info:
        find_roots(_batched(fs), [0.0, -2.0, 1.0], [1.0, 3.0, 2.0], tol)
    with pytest.raises(NonConvergenceError) as lone:
        _reference_find_root(fs[1], -2.0, 3.0, tol)
    assert info.value.estimate == lone.value.estimate
    assert info.value.error_bound == lone.value.error_bound


def test_find_roots_refuses_bad_brackets():
    with pytest.raises(BracketingError, match=r"in root 1"):
        find_roots(lambda x, owner: x * x - owner, [0.0, 2.0], [2.0, 3.0])
    with pytest.raises(ValueError, match=r"in root 1"):
        find_roots(lambda x, owner: x, [0.0, 1.0], [1.0, 1.0])


# Property tests: random brackets around the roots of monotone functions whose
# floating-point evaluation is itself monotone (shifted tanh, shifted cubics
# with a positive linear term), increasing or decreasing.

_finite = dict(allow_nan=False, allow_infinity=False)
_root_case = st.tuples(
    st.sampled_from(["tanh", "cubic"]),
    st.sampled_from([1.0, -1.0]),
    st.floats(-5.0, 5.0, **_finite),          # root c
    st.floats(1e-6, 4.0, **_finite),          # bracket reach below c
    st.floats(1e-6, 4.0, **_finite),          # bracket reach above c
    st.floats(0.0, 3.0, **_finite),           # cubic linear coefficient
)


def _monotone(kind, sign, c, k):
    if kind == "tanh":
        return lambda x: sign * math.tanh(x - c)
    return lambda x: sign * ((x - c) * (x - c) * (x - c) + k * (x - c))


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(_root_case, min_size=1, max_size=8),
       tol=st.sampled_from([Tolerance(rel=1e-14), Tolerance(rel=1e-300),
                            Tolerance(rel=1e-6, abs=1e-9)]))
def test_find_roots_bracket_invariants(cases, tol):
    fs = [_monotone(kind, sign, c, k) for kind, sign, c, _, _, k in cases]
    lo = [c - below for _, _, c, below, _, _ in cases]
    hi = [c + above for _, _, c, _, above, _ in cases]
    roots = find_roots(_batched(fs), lo, hi, tol)
    for f, a, b, root in zip(fs, lo, hi, roots.tolist()):
        assert a <= root <= b
        # The final bracket was at most the stop width wide and held the root.
        w = max(tol.threshold(root), 4 * math.ulp(root))
        left, right = f(max(root - w, a)), f(min(root + w, b))
        assert left == 0.0 or right == 0.0 or math.copysign(1.0, left) != math.copysign(1.0, right)
        assert root == find_roots(_batched([f]), [a], [b], tol)[0]


# ---------------------------------------------------------------------------
# fd_derivative
# ---------------------------------------------------------------------------

def test_fd_second_derivative_exact_on_quadratic():
    x = np.linspace(0.0, 2.0, 21)
    d2 = fd_derivative(x**2, 0, 2, x[1] - x[0])
    assert np.max(np.abs(d2 - 2.0)) < 1e-11


def test_fd_first_derivative_convergence_order():
    errs, hs = [], []
    for h in (0.1, 0.05, 0.025):
        x = np.arange(0.0, 3.0 + h / 2, h)
        d1 = fd_derivative(np.sin(x), 0, 1, h)
        errs.append(float(np.max(np.abs(d1 - np.cos(x)))))
        hs.append(h)
    assert fit_convergence_order(hs, errs) >= 1.9


def test_fd_constant_field():
    v = np.full((8, 8), 3.25)
    assert np.all(fd_derivative(v, 1, 1, 0.1) == 0.0)
    assert np.all(fd_derivative(v, 0, 2, 0.1) == 0.0)


def test_fd_axis_handling_multidim():
    x = np.linspace(0.0, 1.0, 17)
    y = np.linspace(0.0, 1.0, 9)
    f = np.sin(x)[:, None] * np.cos(2.0 * y)[None, :]
    dfdy = fd_derivative(f, 1, 1, y[1] - y[0])
    exact = np.sin(x)[:, None] * (-2.0 * np.sin(2.0 * y))[None, :]
    # one-sided boundary error ~ (h^2/3) f''' with f''' = 8 cos(2y)
    assert np.max(np.abs(dfdy - exact)) < 4.0 * (y[1] - y[0]) ** 2


def test_fd_too_small():
    with pytest.raises(GridSizeError):
        fd_derivative(np.zeros(4), 0, 1, 0.1)


def _fd_reference(values, axis, order, step):
    """The stencils as plain slice expressions along the moved axis."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * step)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * step)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * step)
    else:
        out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / step**2
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / step**2
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / step**2
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("order", [1, 2])
def test_fd_flat_stencil_bitwise(order):
    # the flattened one-pass stencil gives every point the bits of the
    # per-axis slice expressions: any axis, negative axes, strided views,
    # complex values and axes of exactly 5 points
    rng = np.random.default_rng(3)
    real = rng.standard_normal((5, 6, 7, 9, 5))
    cases = [real, real[:, :, 1:6, ::2], real.transpose(3, 0, 2, 1, 4),
             real + 1j * rng.standard_normal(real.shape), rng.standard_normal(11)]
    for v in cases:
        for axis in range(-v.ndim, v.ndim):
            got = fd_derivative(v, axis, order, 0.13)
            want = _fd_reference(v, axis, order, 0.13)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_argument_errors_are_package_errors():
    # each is a ValueError (the library contract) and a Kg5dError (the CLI
    # exits 2 with one line)
    one = lambda x, owner: np.ones_like(x)
    cases = [
        (StencilError, lambda: fd_derivative(np.zeros(6), 0, 3, 0.1)),
        (StencilError, lambda: fd_derivative(np.zeros(6), 0, 1, 0.0)),
        (StencilError, lambda: fd_derivative(np.zeros(6), 0, 1, math.nan)),
        (OrderFitError, lambda: fit_convergence_order([0.1], [1e-3])),
        (IntervalError, lambda: integrate_batch(one, [1.0], [0.0])),
        (IntervalError, lambda: integrate_batch(one, [0.0, 0.0], [1.0])),
        (IntervalError, lambda: find_roots(lambda x, owner: x, [1.0], [1.0])),
        (IntervalError, lambda: find_roots(lambda x, owner: x, [0.0], [1.0, 2.0])),
        (SeriesBoundError, lambda: sum_series(lambda n: np.zeros(n.shape),
                                              lambda n: np.full(n.shape, np.inf))),
    ]
    for kind, call in cases:
        with pytest.raises(kind) as info:
            call()
        assert isinstance(info.value, Kg5dError) and isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# Work beside the caller
# ---------------------------------------------------------------------------

_TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


@pytest.mark.skipif(not _TWO_CPUS, reason="a worker is forked only with two CPUs")
def test_beside_runs_in_another_process():
    with beside(os.getpid, seconds=1.0) as collect:
        here = os.getpid()
        there = collect()
    assert there != here


def test_beside_runs_inline_below_the_floor_and_inside_a_worker():
    with beside(os.getpid, seconds=0.0) as collect:
        assert collect() == os.getpid()

    def nested():
        with beside(os.getpid, seconds=1.0) as inner:
            return os.getpid(), inner()

    with beside(nested, seconds=1.0) as collect:
        outer, inner = collect()
    assert outer == inner


@pytest.mark.parametrize("seconds", [0.0, 1.0], ids=["inline", "forked"])
def test_beside_returns_bits_and_raises_the_workers_exception(seconds):
    values = np.random.default_rng(5).standard_normal(100_000)  # beyond one pipe buffer
    with beside(np.cumsum, values, seconds=seconds) as collect:
        assert np.array_equal(collect(), np.cumsum(values))

    def fail():
        raise NonConvergenceError("worker half", estimate=1.5, error_bound=0.25)

    with pytest.raises(NonConvergenceError) as info:
        with beside(fail, seconds=seconds) as collect:
            collect()
    assert str(info.value) == "worker half"
    assert (info.value.estimate, info.value.error_bound) == (1.5, 0.25)


@pytest.mark.parametrize("exc", [DomainError("this half"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_beside_kills_the_worker_when_this_half_fails(exc):
    # The worker would sleep for a minute; leaving the block kills and reaps
    # it at once (the autouse fixture checks that no child is left).
    start = time.perf_counter()
    with pytest.raises(type(exc)):
        with beside(time.sleep, 60.0, seconds=1.0):
            raise exc
    assert time.perf_counter() - start < 10.0


def test_beside_kills_the_worker_on_an_interrupt_while_collecting():
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            with beside(time.sleep, 60.0, seconds=1.0) as collect:
                collect()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 10.0


@pytest.mark.skipif(not _TWO_CPUS, reason="a worker is forked only with two CPUs")
def test_beside_reports_a_worker_that_dies():
    caller = os.getpid()

    def die():
        if os.getpid() != caller:
            os._exit(7)

    with pytest.raises(WorkerError, match=r"without a result \(exit code 7\)"):
        with beside(die, seconds=1.0) as collect:
            collect()


@pytest.mark.skipif(not _TWO_CPUS, reason="a worker is forked only with two CPUs")
@pytest.mark.parametrize("refused", ["pipe", "fork"])
def test_beside_runs_inline_when_the_system_refuses_a_worker(monkeypatch, refused):
    def refuse(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, refused, refuse)
    with beside(os.getpid, seconds=1.0) as collect:
        assert collect() == os.getpid()
    assert len(os.listdir("/proc/self/fd")) == open_fds


class _NeedsTwoArgs(Exception):
    """Pickles by its args, so it cannot be rebuilt from them."""

    def __init__(self, message, code):
        super().__init__(f"{message} [{code}]")


@pytest.mark.skipif(not _TWO_CPUS, reason="a worker is forked only with two CPUs")
def test_beside_names_an_outcome_that_cannot_be_sent_back():
    def generator():
        return (k for k in range(3))

    def odd_error():
        raise _NeedsTwoArgs("lost half", 4)

    with pytest.raises(WorkerError, match=r"^worker could not send back its result \("):
        with beside(generator, seconds=1.0) as collect:
            collect()
    with pytest.raises(WorkerError,
                       match=r"^worker could not send back _NeedsTwoArgs: lost half \[4\] \("):
        with beside(odd_error, seconds=1.0) as collect:
            collect()
