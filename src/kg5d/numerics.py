"""Shared numerical kernels: quadrature, series summation, root finding, stencils.

All functions here are pure and hold no module state beyond cached quadrature
nodes, so they are safe to call concurrently.

Quadrature uses an embedded Gauss-Legendre 7/15 pair on adaptively bisected
panels.  ``integrate_batch`` runs many integrals through one refinement loop:
``f(x, owner)`` receives a 1-D ndarray of abscissae together with the index
of the integral each belongs to, and returns an ndarray of the same shape.
Every round evaluates the new panels of all integrals still refining in a
few capped calls, and each integral gets the bits it gets alone.
``integrate`` is its one-integral case, with a one-argument integrand.

``sum_series`` evaluates terms and tail bounds in blocks of indices and adds
the terms one at a time in index order.

Root finding is bisection with secant steps on sign-changing brackets.
``find_roots`` solves many brackets in lockstep: ``f(x, owner)`` receives
the abscissae of all roots still open together with the index of the root
each belongs to, a root drops out once its bracket is narrow enough, and
each root takes exactly the steps, and gets the bits, it gets alone.  One
root is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketingError,
    GridSizeError,
    IntegrandError,
    IntervalError,
    NonConvergenceError,
    OrderFitError,
    QuadratureError,
    SeriesBoundError,
    StencilError,
    ToleranceError,
)


@dataclass(frozen=True)
class Tolerance:
    """Stopping control for iterative kernels.

    At least one of ``rel``/``abs`` must be positive; a result is accepted
    once the estimated error drops below ``max(abs, rel * |value|)``.
    ``max_iter`` bounds the work: quadrature panels, series terms, or root
    iterations depending on the consumer.
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
# however many integrals are in flight.
_MAX_POINTS = 8192
_PANELS_PER_CALL = _MAX_POINTS // len(_NODES)

# Terms per block in sum_series: the first block, and the largest.
_SERIES_BLOCK = (64, 16384)


def _panel_estimates(f, starts, widths, owner, bounds):
    """Evaluate the GL7/GL15 pair on panels grouped by integral.

    ``bounds[j]:bounds[j+1]`` is the run of panels of one integral, whose
    index is ``owner``.  Returns (I15, err) arrays, one entry per panel, with
    err = |I15 - I7|.  The weight dot products are taken one run at a time:
    BLAS rounds a row differently depending on where it sits in the matrix,
    and each integral must get the bits it gets when integrated alone.
    """
    half = 0.5 * widths
    mid = starts + half
    fx = np.empty((len(starts), len(_NODES)))
    for lo in range(0, len(starts), _PANELS_PER_CALL):
        hi = lo + _PANELS_PER_CALL
        x = (mid[lo:hi, None] + half[lo:hi, None] * _NODES[None, :]).ravel()
        who = np.repeat(owner[lo:hi], len(_NODES))
        fx[lo:hi] = np.asarray(f(x, who), dtype=float).reshape(-1, len(_NODES))
        bad = ~np.isfinite(fx[lo:hi].ravel())
        if bad.any():
            i = int(np.argmax(bad))
            raise IntegrandError(
                f"integrand not finite at x={float(x[i])!r} in integral {who[i]}")
    s15 = np.empty(len(starts))
    s7 = np.empty(len(starts))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        s15[lo:hi] = fx[lo:hi, :15] @ _W15
        s7[lo:hi] = fx[lo:hi, 15:] @ _W7
    i15 = half * s15
    return i15, np.abs(i15 - half * s7)


def integrate_batch(f: Callable, a, b, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Adaptive panel quadrature of many integrals over [a[i], b[i]] at once.

    ``f(x, owner)`` receives a 1-D array of abscissae and, for each, the index
    i of the integral it belongs to; it returns an array of the same shape.
    Each integral refines exactly as it would alone: panels whose error
    exceeds their width-proportional share of the budget are bisected until
    the integral's summed error estimate passes ``tol``.  All integrals still
    refining share each round's integrand calls, at most ``_MAX_POINTS``
    points per call.  An integral needing more than ``tol.max_iter`` panels
    raises :class:`QuadratureError` carrying its best estimate and error
    bound; a non-finite integrand value raises :class:`IntegrandError`.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise IntervalError("a and b must be 1-D arrays of one shape")
    wrong = ~(a <= b)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise IntervalError(f"need a <= b, got [{a[i]}, {b[i]}] in integral {i}")
    out = np.zeros(len(a))
    span = b - a

    # Panels of the integrals still refining, grouped by integral in
    # ascending order, each group in the order a lone integration keeps.
    owner = np.flatnonzero(a < b)
    starts, widths = a[owner], span[owner]
    counts = np.ones(len(owner), dtype=np.intp)
    bounds = np.arange(len(owner) + 1)
    vals, errs = _panel_estimates(f, starts, widths, owner, bounds)
    live = owner

    while len(live):
        runs = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        total = np.array([vals[lo:hi].sum() for lo, hi in runs])
        total_err = np.array([errs[lo:hi].sum() for lo, hi in runs])
        threshold = np.maximum(tol.abs, tol.rel * np.abs(total))
        done = total_err <= threshold
        out[live[done]] = total[done]
        # Split every panel holding more than its width-share of the budget;
        # an integral with no such panel splits its largest-error panels.
        share = np.repeat(threshold, counts) * (widths / span[owner])
        split = errs > np.maximum(share, 1e-300)
        n_split = np.add.reduceat(split.astype(np.intp), bounds[:-1])
        if (n_split == 0).any():
            worst = np.maximum.reduceat(errs, bounds[:-1])
            split |= np.repeat(n_split == 0, counts) & (errs == np.repeat(worst, counts))
            n_split = np.add.reduceat(split.astype(np.intp), bounds[:-1])
        over = ~done & (counts + n_split > tol.max_iter)
        if over.any():
            j = int(np.argmax(over))
            raise QuadratureError(
                f"quadrature did not converge within {tol.max_iter} panels"
                f" in integral {live[j]}",
                estimate=float(total[j]),
                error_bound=float(total_err[j]),
            )

        going = np.repeat(~done, counts)
        kept, halved = going & ~split, going & split
        hw = 0.5 * widths[halved]
        new_s = np.concatenate([starts[halved], starts[halved] + hw])
        new_o = np.concatenate([owner[halved], owner[halved]])
        order = np.argsort(new_o, kind="stable")  # per integral: left halves, right halves
        new_s, new_w, new_o = new_s[order], np.concatenate([hw, hw])[order], new_o[order]
        live, n_split = live[~done], n_split[~done]
        new_bounds = np.concatenate([[0], np.cumsum(2 * n_split)])
        new_v, new_e = _panel_estimates(f, new_s, new_w, new_o, new_bounds)

        order = np.argsort(np.concatenate([owner[kept], new_o]), kind="stable")
        starts = np.concatenate([starts[kept], new_s])[order]
        widths = np.concatenate([widths[kept], new_w])[order]
        vals = np.concatenate([vals[kept], new_v])[order]
        errs = np.concatenate([errs[kept], new_e])[order]
        owner = np.concatenate([owner[kept], new_o])[order]
        counts = counts[~done] + n_split
        bounds = np.concatenate([[0], np.cumsum(counts)])
    return out


def integrate(f: Callable, a: float, b: float, tol: Tolerance = Tolerance()) -> float:
    """Adaptive panel quadrature of a vectorized integrand ``f(x)`` over [a, b].

    The one-integral case of :func:`integrate_batch`.
    """
    return float(integrate_batch(lambda x, owner: f(x), a, b, tol)[0])


def sum_series(
    term: Callable[[np.ndarray], np.ndarray],
    tail_bound: Callable[[np.ndarray], np.ndarray],
    tol: Tolerance = Tolerance(),
) -> SeriesReport:
    """Sum ``term(1) + term(2) + ...`` until the caller's tail bound passes tol.

    ``term(ns)`` and ``tail_bound(ns)`` take an integer array of indices and
    return one value per index.  ``tail_bound(n)`` must bound
    ``|sum_{k>n} term(k)|``; the caller owns its validity (integral test,
    geometric ratio, ...).  The summation stops at the first n whose tail
    bound is below ``max(tol.abs, tol.rel*|partial|)``.  Terms are evaluated
    in blocks of growing length, but added one at a time in index order, so
    the result is the running sum's.  If ``tol.max_iter`` terms do not
    suffice the report carries the partial sum with ``converged=False``
    rather than raising.
    """
    s = 0.0
    bound = math.inf
    n = 0
    size = _SERIES_BLOCK[0]
    while n < tol.max_iter:
        ns = np.arange(n + 1, min(n + size, tol.max_iter) + 1)
        partial = np.cumsum(np.concatenate([[s], term(ns)]))[1:]
        bounds = np.asarray(tail_bound(ns), dtype=float)
        invalid = (bounds < 0) | ~np.isfinite(bounds)
        stop = invalid | (bounds <= np.maximum(tol.abs, tol.rel * np.abs(partial)))
        if stop.any():
            i = int(np.argmax(stop))
            if invalid[i]:
                raise SeriesBoundError(f"tail_bound({ns[i]}) = {bounds[i]} is not a finite bound")
            return SeriesReport(value=float(partial[i]), terms_used=int(ns[i]),
                                tail_bound=float(bounds[i]), converged=True)
        s, bound, n = float(partial[-1]), float(bounds[-1]), int(ns[-1])
        size = min(2 * size, _SERIES_BLOCK[1])
    return SeriesReport(value=s, terms_used=n, tail_bound=bound, converged=False)


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
    carrying the midpoint and width of its bracket.
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
    )


def fd_derivative(values: np.ndarray, axis: int, order: int, step: float) -> np.ndarray:
    """Second-order finite-difference derivative of a uniformly sampled field.

    Central stencils in the interior, one-sided second-order stencils at the
    two boundary layers.  ``order`` is 1 or 2.  Needs at least 5 samples along
    ``axis``.  Returns a new C-contiguous array; a non-contiguous input is
    copied once.
    """
    v = np.asarray(values)
    n = v.shape[axis]
    if n < 5:
        raise GridSizeError(f"need >= 5 points along axis {axis}, got {n}")
    if order not in (1, 2):
        raise StencilError(f"order must be 1 or 2, got {order!r}")
    if not step > 0:
        raise StencilError(f"step must be positive, got {step!r}")
    axis %= v.ndim

    # One pass over the flattened array: along ``axis`` the neighbours of a
    # point sit ``stride`` elements away, and every point the flat stencil
    # gets wrong lies on one of the two boundary layers rewritten below.
    v = np.ascontiguousarray(v)
    out = np.empty(v.shape, dtype=np.result_type(v.dtype, float))
    stride = math.prod(v.shape[axis + 1:])
    flat, inner = v.reshape(-1), out.reshape(-1)[stride:-stride]
    if order == 1:
        np.subtract(flat[2 * stride:], flat[:-2 * stride], out=inner)
        inner /= 2 * step
    else:
        np.multiply(flat[stride:-stride], 2, out=inner)
        np.subtract(flat[2 * stride:], inner, out=inner)
        inner += flat[:-2 * stride]
        inner /= step**2
    v, edge = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    if order == 1:
        edge[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * step)
        edge[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * step)
    else:
        edge[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / step**2
        edge[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / step**2
    return out


def fit_convergence_order(steps, residuals) -> float:
    """Least-squares slope of log(residual) against log(step).

    Used by the verification harnesses to report an observed order of
    accuracy from runs at a few grid resolutions.
    """
    h = np.log(np.asarray(steps, dtype=float))
    r = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    if len(h) < 2:
        raise OrderFitError(f"need at least two resolutions, got {len(h)}")
    slope = np.polyfit(h, r, 1)[0]
    return float(slope)
