"""Shared numerical kernels: quadrature, root finding and stencils.

All functions here but the memory guard are pure and hold no module state
beyond cached quadrature nodes, so they are safe to call concurrently.

Quadrature (``integrate``) uses an embedded Gauss-Legendre 7/15 pair on
adaptively bisected panels of one integral.

Stencils: ``fd_derivative`` differentiates a whole array, and ``fd_plane``
gives one plane of that result from the planes its stencil reads; both run
the same stencil code, so a plane has the bits of the whole-array result.

Root finding is bisection with secant steps on sign-changing brackets.
``find_roots`` solves many brackets in lockstep: ``f(x, owner)`` receives
the abscissae of all roots still open together with the index of the root
each belongs to, a root drops out once its bracket is narrow enough, and
each root takes exactly the steps, and gets the bits, it gets alone.  One
root is a batch of one.

The memory guard (``check_memory``) refuses a run whose projected peak
exceeds what the process or the host may still allocate; the verification
commands call it before they allocate anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketingError,
    ConfigurationError,
    GridSizeError,
    IntegrandError,
    IntervalError,
    NonConvergenceError,
    OrderFitError,
    QuadratureError,
    StencilError,
    ToleranceError,
)


@dataclass(frozen=True)
class Tolerance:
    """Stopping control for iterative kernels.

    At least one of ``rel``/``abs`` must be positive; a result is accepted
    once the estimated error drops below ``max(abs, rel * |value|)``.
    ``max_iter`` bounds the work: quadrature panels (also those Z_d's levels
    share), root iterations or the terms of Z_c's exact head, depending on
    the consumer.
    """

    rel: float = 1e-10
    abs: float = 0.0
    max_iter: int = 10_000

    def __post_init__(self):
        if self.rel < 0 or self.abs < 0:
            raise ToleranceError(
                f"tolerances must be non-negative, got rel={self.rel}, abs={self.abs}")
        if self.rel == 0 and self.abs == 0:
            raise ToleranceError("at least one of rel, abs tolerances must be positive")
        if self.max_iter < 1:
            raise ToleranceError(f"max_iter must be >= 1, got {self.max_iter}")

    def threshold(self, value: float) -> float:
        return max(self.abs, self.rel * abs(value))


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of a tail-bounded series summation."""

    value: float
    terms_used: int
    tail_bound: float
    converged: bool


# Embedded Gauss-Legendre pair.  leggauss is exact, no hand-typed constants.
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate([_X15, _X7])  # 22 evaluations per panel

# Most abscissae handed to one integrand call.  Bounds the integrand's
# temporaries (the Laguerre recurrence keeps several arrays of this length)
# however many panels a refinement round evaluates.
_MAX_POINTS = 8192
_PANELS_PER_CALL = _MAX_POINTS // len(_NODES)


def integrate(f: Callable, a: float, b: float, tol: Tolerance = Tolerance()) -> float:
    """Adaptive panel quadrature of a vectorized integrand ``f(x)`` over [a, b].

    ``f`` takes a 1-D array of at most ``_MAX_POINTS`` abscissae and returns
    an array of the same shape.  Panels whose error |I15 - I7| exceeds their
    width-proportional share of the budget are bisected (the largest-error
    panels when none does) until the summed error passes ``tol``.  Needing
    more than ``tol.max_iter`` panels raises :class:`QuadratureError`
    carrying the best estimate and its error bound; a non-finite integrand
    value raises :class:`IntegrandError`.
    """
    if not a <= b:
        raise IntervalError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    span = b - a
    panels = np.empty((4, 0))  # start, width, I15, |I15 - I7|; kept ones first
    new = np.array([[a], [span]], dtype=float)  # start, width of panels to evaluate
    while True:
        half = 0.5 * new[1]
        fx = np.empty((new.shape[1], len(_NODES)))
        for lo in range(0, new.shape[1], _PANELS_PER_CALL):
            hi = lo + _PANELS_PER_CALL
            x = ((new[0, lo:hi] + half[lo:hi])[:, None] + half[lo:hi, None] * _NODES).ravel()
            fx[lo:hi] = np.asarray(f(x), dtype=float).reshape(-1, len(_NODES))
            bad = ~np.isfinite(fx[lo:hi].ravel())
            if bad.any():
                raise IntegrandError(f"integrand not finite at x={float(x[np.argmax(bad)])!r}")
        i15 = half * (fx[:, :15] @ _W15)
        panels = np.hstack([panels, [*new, i15, np.abs(i15 - half * (fx[:, 15:] @ _W7))]])
        starts, widths, vals, errs = panels
        total, total_err = vals.sum(), errs.sum()
        threshold = tol.threshold(total)
        if total_err <= threshold:
            return float(total)
        split = errs > np.maximum(threshold * (widths / span), 1e-300)
        if not split.any():
            split = errs == errs.max()
        if panels.shape[1] + np.count_nonzero(split) > tol.max_iter:
            raise QuadratureError(
                f"quadrature did not converge within {tol.max_iter} panels",
                estimate=float(total), error_bound=float(total_err))
        hw = 0.5 * widths[split]
        new = np.array([np.concatenate([starts[split], starts[split] + hw]),
                        np.concatenate([hw, hw])])
        panels = panels[:, ~split]


def find_roots(
    f: Callable,
    lo,
    hi,
    tol: Tolerance = Tolerance(rel=1e-14, abs=0.0),
) -> np.ndarray:
    """Bracketed roots of many functions at once: bisection with secant acceleration.

    ``f(x, owner)`` receives a 1-D array of abscissae and, for each, the index
    i of the root it belongs to; it returns an array of the same shape.  Root
    i needs f(lo[i]) and f(hi[i]) of opposite signs (``BracketingError``
    otherwise) and comes back as a point inside its initial bracket once the
    bracket is narrower than ``max(tol.abs, tol.rel*|mid|)`` or four ulps of
    the midpoint.  The secant step is taken only when it lands at least a
    tenth of the width inside the bracket, so the bisection guarantee is never
    lost.  All roots step in lockstep and each drops out when it is done; each
    takes exactly the steps, and gets the bits, it gets alone.  A root not
    localized within ``tol.max_iter`` steps raises ``NonConvergenceError``
    carrying its index and the midpoint and width of its bracket.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise IntervalError("lo and hi must be 1-D arrays of one shape")
    wrong = ~(lo < hi)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise IntervalError(f"need lo < hi, got [{lo[i]}, {hi[i]}] in root {i}")
    live = np.arange(len(lo))
    flo = np.asarray(f(lo, live), dtype=float)
    fhi = np.asarray(f(hi, live), dtype=float)
    out = np.where(flo == 0.0, lo, hi)
    going = (flo != 0.0) & (fhi != 0.0)
    same = going & (np.signbit(flo) == np.signbit(fhi))
    if same.any():
        i = int(np.argmax(same))
        raise BracketingError(
            f"no sign change on [{lo[i]}, {hi[i]}]: f={flo[i]}, {fhi[i]} in root {i}")
    live, lo, hi, flo, fhi = live[going], lo[going], hi[going], flo[going], fhi[going]
    if not len(live):
        return out

    for _ in range(tol.max_iter):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        size = np.abs(mid)
        done = width <= np.maximum(np.maximum(tol.abs, tol.rel * size), 4 * np.spacing(size))
        if done.any():
            out[live[done]] = mid[done]
            go = ~done
            live, lo, hi, flo, fhi = live[go], lo[go], hi[go], flo[go], fhi[go]
            width, mid = width[go], mid[go]
            if not len(live):
                return out
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sec = hi - fhi * width / (fhi - flo)
        tenth = 0.1 * width
        x = np.where((fhi != flo) & (lo + tenth < sec) & (sec < hi - tenth), sec, mid)
        fx = np.asarray(f(x, live), dtype=float)
        left = np.signbit(fx) == np.signbit(flo)
        lo, flo = np.where(left, x, lo), np.where(left, fx, flo)
        hi, fhi = np.where(left, hi, x), np.where(left, fhi, fx)
        hit = fx == 0.0
        if hit.any():
            out[live[hit]] = x[hit]
            go = ~hit
            live, lo, hi, flo, fhi = live[go], lo[go], hi[go], flo[go], fhi[go]
            if not len(live):
                return out
    raise NonConvergenceError(
        f"root not localized within {tol.max_iter} iterations in root {live[0]}",
        estimate=float(0.5 * (lo[0] + hi[0])),
        error_bound=float(hi[0] - lo[0]),
        index=int(live[0]),
    )


def _check_stencil(n: int, axis: int, order: int, step: float) -> None:
    if n < 5:
        raise GridSizeError(f"need >= 5 points along axis {axis}, got {n}")
    if order not in (1, 2):
        raise StencilError(f"order must be 1 or 2, got {order!r}")
    if not step > 0:
        raise StencilError(f"step must be positive, got {step!r}")


def _central(below, at, above, order: int, step: float, out: np.ndarray) -> np.ndarray:
    """The central second-order stencil into ``out``, from the samples one
    step below, at and one step above each point (``at`` unused for order 1)."""
    if order == 1:
        np.subtract(above, below, out=out)
        out /= 2 * step
    else:
        np.multiply(at, 2, out=out)
        np.subtract(above, out, out=out)
        out += below
        out /= step**2
    return out


def _one_sided(v, first: bool, order: int, step: float) -> np.ndarray:
    """The one-sided second-order stencil at a grid end.  ``v`` holds the end
    sample and the next ones inward, end sample first; ``first`` is true at
    the first sample of the axis and false at the last."""
    if order == 2:
        return (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / step**2
    if first:
        return (-3 * v[0] + 4 * v[1] - v[2]) / (2 * step)
    return (3 * v[0] - 4 * v[1] + v[2]) / (2 * step)


def fd_derivative(values: np.ndarray, axis: int, order: int, step: float) -> np.ndarray:
    """Second-order finite-difference derivative of a uniformly sampled field.

    Central stencils in the interior, one-sided second-order stencils at the
    two boundary layers.  ``order`` is 1 or 2.  Needs at least 5 samples along
    ``axis``.  Returns a new C-contiguous array; a non-contiguous input is
    copied once.
    """
    v = np.asarray(values)
    n = v.shape[axis]
    _check_stencil(n, axis, order, step)
    axis %= v.ndim

    # One pass over the flattened array: along ``axis`` the neighbours of a
    # point sit ``stride`` elements away, and every point the flat stencil
    # gets wrong lies on one of the two boundary layers rewritten below.
    v = np.ascontiguousarray(v)
    out = np.empty(v.shape, dtype=np.result_type(v.dtype, float))
    stride = math.prod(v.shape[axis + 1:])
    flat = v.reshape(-1)
    _central(flat[:-2 * stride], flat[stride:-stride], flat[2 * stride:], order, step,
             out.reshape(-1)[stride:-stride])
    v, edge = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    edge[0] = _one_sided(v[:4], True, order, step)
    edge[-1] = _one_sided(v[:-5:-1], False, order, step)
    return out


def fd_plane(values, row: int, order: int, step: float) -> np.ndarray:
    """Plane ``row`` of ``fd_derivative(values, 0, order, step)``.

    ``values`` is anything with a length that gives plane i as ``values[i]``:
    an array, or a sequence that builds its planes on demand.  Only the planes
    the stencil at ``row`` reads are taken: row - 1 and row + 1 (and row
    itself for order 2) inside, the three (order 2: four) end planes at a
    grid end.  The operations are fd_derivative's, so the plane has its
    bits.
    """
    n = len(values)
    _check_stencil(n, 0, order, step)
    if not 0 <= row < n:
        raise StencilError(f"row {row} outside the {n} planes")
    if row in (0, n - 1):
        first = row == 0
        ends = range(order + 2) if first else range(n - 1, n - 3 - order, -1)
        return _one_sided([values[i] for i in ends], first, order, step)
    below = values[row - 1]
    at = values[row] if order == 2 else None
    above = values[row + 1]
    out = np.empty(np.shape(above), dtype=np.result_type(above.dtype, float))
    return _central(below, at, above, order, step, out)


def fit_convergence_order(steps, residuals) -> float:
    """Least-squares slope of log(residual) against log(step).

    Used by the verification harnesses to report an observed order of
    accuracy from runs at a few grid resolutions.  The slope is taken in
    closed form, sum (h - mean h)(r - mean r) / sum (h - mean h)^2, so no
    LAPACK routine runs (its first call maps a 32 MB BLAS buffer).
    """
    h = np.log(np.asarray(steps, dtype=float))
    r = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    if len(h) < 2:
        raise OrderFitError(f"need at least two resolutions, got {len(h)}")
    h -= h.mean()
    if not np.any(h):
        raise OrderFitError("need at least two different steps")
    return float(np.sum(h * (r - r.mean())) / np.sum(h * h))


def _proc_bytes(path: str, key: str):
    """A ``key: N kB`` field of a /proc file in bytes, or None if unreadable."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return 1024.0 * int(line.split()[1])
    except OSError:
        pass
    return None


def _available_bytes():
    """What this process may still map, its address-space limit less what
    it has already mapped, and what the host may still allocate,
    MemAvailable.

    The values are only read; one that cannot be read is infinite.
    """
    space = math.inf
    try:
        import resource
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            space = soft - (_proc_bytes("/proc/self/status", "VmSize") or 0.0)
    except ImportError:
        pass
    free = _proc_bytes("/proc/meminfo", "MemAvailable")
    return space, math.inf if free is None else free


def _size_text(nbytes: float) -> str:
    """A byte count in GiB to one decimal, or in MiB below 1 GiB."""
    if abs(nbytes) < 2**30:
        return f"{nbytes / 2**20:,.1f} MiB"
    return f"{nbytes / 2**30:,.1f} GiB"


def check_memory(command: str, need: float, detail: str) -> None:
    """Refuse a run of ``command`` projected to need ``need`` bytes at its
    peak when that exceeds either value of ``_available_bytes``: raises
    ``ConfigurationError`` with a one-line reason that names ``detail``,
    the size that sets the peak."""
    have = min(_available_bytes())
    if need > have:
        raise ConfigurationError(
            f"{command} needs about {_size_text(need)} at its peak ({detail}),"
            f" more than the {_size_text(have)} available")
