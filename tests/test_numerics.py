"""Numerical kernel tests: quadrature, roots and stencils.

Oracles: closed forms, mpmath's incomplete gamma, and scipy.integrate.quad
as an independent quadrature implementation.
"""

import fractions
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kg5d import canonical, numerics
from kg5d.errors import (
    BracketingError,
    ConfigurationError,
    GridSizeError,
    IntegrandError,
    IntervalError,
    Kg5dError,
    NonConvergenceError,
    OrderFitError,
    QuadratureError,
    StencilError,
)
from kg5d.numerics import (
    SeriesReport,
    Tolerance,
    fd_derivative,
    fd_plane,
    find_roots,
    fit_convergence_order,
    integrate,
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


@pytest.mark.parametrize("points, nodes, weights", [
    (15, numerics._X15, numerics._W15),
    (7, numerics._X7, numerics._W7),
], ids=["15", "7"])
def test_gauss_legendre_literals(points, nodes, weights):
    # the literal rule is leggauss's output bit for bit, exactly symmetric,
    # and integrates x^k exactly on [-1, 1] for k < 2 * points
    want_nodes, want_weights = np.polynomial.legendre.leggauss(points)
    assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    for k in range(2 * points):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(weights @ nodes**k) - exact) <= 1e-15
    assert np.array_equal(numerics._NODES, np.concatenate([numerics._X15, numerics._X7]))


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
    # A package error (exit code 2 from the CLI) that is still a ValueError;
    # the message names the abscissa.
    with pytest.raises(IntegrandError, match=r"^integrand not finite at x=0\.5$") as info:
        integrate(lambda x: np.where(x == 0.5, np.nan, x), 0.0, 1.0)
    assert isinstance(info.value, Kg5dError) and isinstance(info.value, ValueError)


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


def test_integrate_matches_reference_refinement_bitwise():
    # integrate refines exactly as the reference loop: a kink that forces
    # deep bisection, and smooth integrands that converge after one round.
    tol = Tolerance(rel=1e-11, max_iter=5000)
    for a, b, k in [(0.0, 4.0, 1.0), (0.0, 40.0, 0.2), (-1.0, 3.0, 3.0), (0.3, 9.7, 7.0),
                    (0.0, 1e-3, 1.0)]:
        f = lambda x: np.sqrt(np.abs(x - 1.3)) * np.cos(k * x) + np.exp(-k * x * x)
        assert integrate(f, a, b, tol) == _reference_integrate(f, a, b, tol)


def _gamma_integral(k, a, b):
    """int_a^b t^k e^{-t} dt at 50 digits: no cancellation on short intervals."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(k + 1, a, b))


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(st.tuples(st.integers(0, 6), st.floats(0.0, 20.0), st.floats(1e-3, 30.0),
                                st.booleans()), min_size=1, max_size=6))
@example(cases=[(6, 0.0, 0.00390625, False)])
def test_integrate_closed_forms(cases):
    # x^k e^{-x} and sin x over random intervals; each integral must land
    # within its tolerance of the closed form.  The example is an integral of
    # 2e-18 over [0, 1/256]: a difference of two upper incomplete gammas
    # would cancel to an error of 1e-13 there.
    tol = Tolerance(rel=1e-10, abs=1e-13)
    for k, a, width, is_sin in cases:
        b = a + width
        f = np.sin if is_sin else (lambda x: x**k * np.exp(-x))
        got = integrate(f, a, b, tol)
        exact = math.cos(a) - math.cos(b) if is_sin else _gamma_integral(k, a, b)
        assert abs(got - exact) <= tol.threshold(exact) + 1e-15 * (b - a + abs(exact))


# Batched integration: Z_d's levels are integrals on one set of shared panels
# (canonical._trapped_levels), each with its own estimate and refusal.

def test_integrate_batch_budget_error():
    # The refusal carries the failing integral's estimate (level 1: n^2 = 1).
    with pytest.raises(QuadratureError, match=r"^level 1: error estimate") as info:
        canonical._trapped_levels([1, 2], 150.0, Tolerance(rel=0.0, abs=1e-300))
    assert info.value.estimate == pytest.approx(1.0, abs=1e-12)
    assert info.value.error_bound > 0


def test_integrate_batch_non_finite_integrand(monkeypatch):
    # A package error (exit code 2 from the CLI) that is still a ValueError;
    # the message names the abscissa and the integral.
    bad = {}
    real = canonical._combo_terms

    def poisoned(n, x, *pair):
        w, combo = real(n, x, *pair)
        if n == 2:
            bad["x"] = float(x[5])
            combo = np.where(np.arange(x.size) == 5, np.nan, combo)
        return w, combo

    monkeypatch.setattr(canonical, "_combo_terms", poisoned)
    with pytest.raises(IntegrandError, match=r" in level 2$") as info:
        canonical._trapped_levels([1, 2], 150.0, Tolerance(rel=1e-12))
    assert str(info.value) == f"integrand not finite at x={bad['x']!r} in level 2"
    assert isinstance(info.value, Kg5dError) and isinstance(info.value, ValueError)


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


class _Planes:
    """The planes of an array along axis 0, recording which are read."""

    def __init__(self, values):
        self.values, self.read = values, []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.read.append(i)
        return self.values[i]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [5, 9])
def test_fd_plane_matches_fd_derivative_bitwise(order, n):
    # every row, the two end rows included, gets fd_derivative's bits, from
    # an array or from planes read on demand, and reads only its stencil
    rng = np.random.default_rng(5)
    real = rng.standard_normal((n, 4, 3))
    for v in (real, real + 1j * rng.standard_normal(real.shape)):
        want = fd_derivative(v, 0, order, 0.13)
        for row in range(n):
            assert np.array_equal(fd_plane(v, row, order, 0.13), want[row])
            planes = _Planes(v)
            assert np.array_equal(fd_plane(planes, row, order, 0.13), want[row])
            ends = {0: range(order + 2), n - 1: range(n - order - 2, n)}
            reads = ends.get(row, range(row - 1, row + 2) if order == 2 else (row - 1, row + 1))
            assert sorted(planes.read) == list(reads)


def test_fd_plane_errors():
    with pytest.raises(GridSizeError):
        fd_plane(np.zeros((4, 3)), 1, 1, 0.1)
    for row in (-1, 6):
        with pytest.raises(StencilError):
            fd_plane(np.zeros((6, 3)), row, 1, 0.1)
    with pytest.raises(StencilError):
        fd_plane(np.zeros((6, 3)), 2, 3, 0.1)


@pytest.mark.parametrize("steps, residuals", [
    ([1 / 8, 1 / 16, 1 / 32], [3.1e-3, 7.9e-4, 1.97e-4]),
    ([0.1, 0.05], [2e-3, 4.4e-4]),
    ([0.2, 0.1, 0.05, 0.025], [1e-2, 3e-3, 6e-4, 1.6e-4]),
])
def test_fit_convergence_order_runs_no_lapack(monkeypatch, steps, residuals):
    # the closed-form slope against polyfit's; neither polyfit nor lstsq
    # (LAPACK, whose first call maps a 32 MB BLAS buffer) may run
    h = np.log(steps)
    want = float(np.polyfit(h, np.log(np.maximum(residuals, 1e-300)), 1)[0])

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np, "polyfit", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    assert fit_convergence_order(steps, residuals) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_fit_convergence_order_clamps_zero_residual():
    # a zero residual enters as log(1e-300); against the slope of the same
    # logarithms in exact rational arithmetic (polyfit is 1.5e-13 off here)
    steps, residuals = [1 / 12, 1 / 24, 1 / 48], [5e-5, 0.0, 3e-6]
    h = [fractions.Fraction(float(x)) for x in np.log(steps)]
    r = [fractions.Fraction(float(x)) for x in np.log(np.maximum(residuals, 1e-300))]
    hm, rm = sum(h) / len(h), sum(r) / len(r)
    want = float(sum((a - hm) * (b - rm) for a, b in zip(h, r)) / sum((a - hm) ** 2 for a in h))
    assert fit_convergence_order(steps, residuals) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_argument_errors_are_package_errors():
    # each is a ValueError (the library contract) and a Kg5dError (the CLI
    # exits 2 with one line)
    cases = [
        (StencilError, lambda: fd_derivative(np.zeros(6), 0, 3, 0.1)),
        (StencilError, lambda: fd_derivative(np.zeros(6), 0, 1, 0.0)),
        (StencilError, lambda: fd_derivative(np.zeros(6), 0, 1, math.nan)),
        (OrderFitError, lambda: fit_convergence_order([0.1], [1e-3])),
        (OrderFitError, lambda: fit_convergence_order([0.1, 0.1], [1e-3, 2e-3])),
        (IntervalError, lambda: integrate(np.ones_like, 1.0, 0.0)),
        (IntervalError, lambda: integrate(np.ones_like, 0.0, math.nan)),
        (IntervalError, lambda: find_roots(lambda x, owner: x, [1.0], [1.0])),
        (IntervalError, lambda: find_roots(lambda x, owner: x, [0.0], [1.0, 2.0])),
    ]
    for kind, call in cases:
        with pytest.raises(kind) as info:
            call()
        assert isinstance(info.value, Kg5dError) and isinstance(info.value, ValueError)
