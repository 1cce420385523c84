"""Foliated 5D metric, Christoffel symbols, and operator-identity checks.

The metric embeds a 4D electromagnetic potential in its off-diagonal row.
With N_mu = -(q/c^2) A_mu and eta = diag(-1,1,1,1),

    h_{mu nu} = eta_{mu nu} + N_mu N_nu,   h_{mu 5} = -N_mu,   h_55 = 1,
    h^{mu nu} = eta^{mu nu},               h^{mu 5} =  N^mu,   h^55 = 1 + N_mu N^mu,

an exact inverse pair for any potential.  The metric never depends on x^5,
so all Christoffel symbols live on the 4D base.

Four contractions of the Christoffel symbols collapse to compact identities:

    eta^{mu nu} Gamma^rho_{mu nu} = N^mu (d_mu N^rho - d^rho N_mu)
    eta^{mu nu} Gamma^5_{mu nu}   = -(d_mu N^mu)
    2 N^mu Gamma^rho_{mu 5}       = -eta^{mu nu} Gamma^rho_{mu nu}
    2 N^mu Gamma^5_{mu 5}         = 0

With Gamma^C_{55} = 0 they sum to h^{AB} Gamma^mu_{AB} = 0 and
h^{AB} Gamma^5_{AB} = -(d_mu N^mu).  The scalar covariant (Laplace-Beltrami)
operator h^{AB}(d_A d_B - Gamma^C_{AB} d_C) therefore equals the expansion

    eta^{mu nu} d_mu d_nu + 2 N^mu d_mu d_5 + (1 + N^2) d_5^2 + (d_mu N^mu) d_5,

which in Lorentz gauge is the plain contraction h^{AB} d_A d_B, the
minimally-coupled wave operator produced by the non-holonomic elimination of
dy^5.  The harnesses check, with finite differences: the four contractions at
a point; the two summed ones on a 5D grid, as the first-order defect between
the two operators (their second-order terms are the same and are not
evaluated); and, for the d_5 -> i/lambda substitution, that the one term
2 b (d_mu A^mu) psi separating it from the form with an extra divergence term
vanishes on the grid.  Max-norm residuals fall off at second order in the
grid step.

Christoffels are built two ways (from an analytic dA table, and from finite
differences of the metric) as a guard against transcription errors in the
closed forms.

The metric never depends on x^5, and the 5D test fields are products
g(x^0..x^3) p(x^5), so a 5D field is held as a ``SeparatedField``: a short
sum of 4D base arrays times 1-D x^5 profiles.  A base derivative acts on the
g's and an x^5 derivative on the p's, so every defect is a sum
sum_q C_q(x) q(x^5) of a few base coefficient arrays C_q times a few x^5
profiles q (p and its finite-difference derivatives) -- the paper's own
single-mode reduction, applied to the harness.  All finite-difference
passes run on 4D base arrays; no n^5 array of the whole grid is formed.

Every grid check is reduced by one walk, ``_defect_maxima``, which builds
one x^0 plane at a time and only the planes whose points it keeps, reading
the potential from a window of three sampled planes (``_PotentialPlanes``)
and the x^0 derivatives from ``fd_plane``, so its maxima are bit for bit
those of the whole-grid evaluation.

All evaluations are pure; residual norms do not depend on how grid work is
partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, GaugeError
from .numerics import check_memory, fd_derivative, fd_plane, fit_convergence_order

# ``reduction`` (GridField and its derivative) is imported in the functions
# that build or differentiate a grid field, so verify-geometry's Laplacian
# ladder, which uses none of it, runs before that module is compiled.

_ETA4 = np.diag([-1.0, 1.0, 1.0, 1.0])
_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Potential:
    """Electromagnetic 4-potential A_mu(x^0..x^3) with optional derivatives.

    ``func(x0, x1, x2, x3)`` returns the four covariant components, each
    broadcasting over array inputs.  ``dfunc`` (same call signature) returns
    the 4x4 nested table dA[mu][nu] = d_nu A_mu; a potential without it has
    no derivative table or divergence, and asking for one raises
    ``DomainError``.  ``gauge`` declares which condition the potential
    satisfies: 'lorentz', 'coulomb', or 'none'.
    """

    func: Callable
    dfunc: Optional[Callable] = None
    gauge: str = "none"

    def components(self, coords) -> np.ndarray:
        """A_mu stacked over a broadcast grid: shape (4,) + grid."""
        return np.stack(np.broadcast_arrays(*self.func(*coords))).astype(float, copy=False)

    def derivative_table(self, coords) -> np.ndarray:
        """dA[mu, nu] = d_nu A_mu at the given coordinates, from ``dfunc``."""
        if self.dfunc is None:
            raise DomainError("the potential has no derivative table (dfunc)")
        rows = self.dfunc(*coords)
        flat = [entry for row in rows for entry in row]
        stacked = np.stack(np.broadcast_arrays(*flat)).astype(float, copy=False)
        return stacked.reshape((4, 4) + stacked.shape[1:])

    def divergence(self, coords) -> np.ndarray:
        """Four-divergence d_mu A^mu."""
        tab = self.derivative_table(coords)
        return sum(_ETA_DIAG[mu] * tab[mu, mu] for mu in range(4))


def zero_potential() -> Potential:
    def f(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        return z, z, z, z

    def df(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        return [[z] * 4 for _ in range(4)]

    return Potential(func=f, dfunc=df, gauge="lorentz")


def coulomb_potential(z_e: float, softening: float = 0.0) -> Potential:
    """Static A_0 = z_e / |x| (satisfies the Coulomb and Lorentz conditions).

    ``softening`` replaces |x| by sqrt(x.x + softening^2) to keep grid
    samples finite near the origin; residual checks excise that region.
    """
    def f(x0, x1, x2, x3):
        r = np.sqrt(x1**2 + x2**2 + x3**2 + softening**2)
        a0 = z_e / r
        z = np.zeros_like(a0)
        return a0, z, z, z

    def df(x0, x1, x2, x3):
        r2 = x1**2 + x2**2 + x3**2 + softening**2
        r3 = r2 * np.sqrt(r2)
        z = np.zeros_like(r3)
        row0 = [z, -z_e * x1 / r3, -z_e * x2 / r3, -z_e * x3 / r3]
        return [row0, [z] * 4, [z] * 4, [z] * 4]

    return Potential(func=f, dfunc=df, gauge="coulomb")


@dataclass(frozen=True)
class MetricPatch:
    """Metric data at one space-time point: h, its inverse, Christoffels, N."""

    point: np.ndarray    # 5 coordinates
    h: np.ndarray        # (5, 5)
    h_inv: np.ndarray    # (5, 5)
    gamma: np.ndarray    # (5, 5, 5), gamma[C, A, B] = Gamma^C_{AB}
    N: np.ndarray        # (4,) covariant N_mu


@dataclass(frozen=True)
class ChristoffelContractions:
    """The four contracted Christoffel objects as d_rho / d_5 coefficients."""

    eta_gamma_rho: np.ndarray    # eta^{mu nu} Gamma^rho_{mu nu}, shape (4,)
    eta_gamma_5: float           # eta^{mu nu} Gamma^5_{mu nu}
    cross_gamma_rho: np.ndarray  # 2 N^mu Gamma^rho_{mu 5}, shape (4,)
    cross_gamma_5: float         # 2 N^mu Gamma^5_{mu 5}


# The 15 entries a <= b of a symmetric 5x5 array, row-major, and the entry
# that holds (a, b) in either order.
_PAIRS = [(a, b) for a in range(5) for b in range(a, 5)]
_ENTRY = np.array([[_PAIRS.index((min(a, b), max(a, b))) for b in range(5)] for a in range(5)])


def _metric_entry(n_cov: np.ndarray, k: int) -> np.ndarray:
    """Closed-form h_{ab}, (a, b) = ``_PAIRS[k]``, from covariant N_mu of
    shape (4,) + base: an array of shape base.

    ``base`` is () at a single point and a grid shape on a grid.
    """
    a, b = _PAIRS[k]
    if b < 4:
        return _ETA4[a, b] + n_cov[a] * n_cov[b]
    if a < 4:
        return -n_cov[a]
    return np.ones(n_cov.shape[1:])


def _metric_entries(n_cov: np.ndarray) -> np.ndarray:
    """The 15 entries of ``_metric_entry`` stacked: shape (15,) + base."""
    h = np.empty((15,) + n_cov.shape[1:])
    for k in range(15):
        h[k] = _metric_entry(n_cov, k)
    return h


def _inverse_entries(n_cov: np.ndarray) -> list:
    """Closed-form h^{ab}, a <= b, from covariant N_mu, ordered as ``_PAIRS``:
    the ten h^{mu nu} = eta^{mu nu} as floats, h^{mu 5} = N^mu and
    h^55 = 1 + N_mu N^mu as arrays of shape base."""
    n_up = _ETA_DIAG.reshape((4,) + (1,) * (n_cov.ndim - 1)) * n_cov
    h_inv = []
    for a, b in _PAIRS:
        if b < 4:
            h_inv.append(float(_ETA4[a, b]))
        elif a < 4:
            h_inv.append(n_up[a])
        else:
            h_inv.append(1.0 + np.vecdot(n_cov, n_up, axis=0))
    return h_inv


def _metric_pair(n_cov: np.ndarray):
    """Closed-form (h, h_inv) from covariant N_mu of shape (4,) + base, each
    of shape (5, 5) + base."""
    h_inv = np.stack(np.broadcast_arrays(*_inverse_entries(n_cov)))
    return _metric_entries(n_cov)[_ENTRY], h_inv[_ENTRY]


def _metric_gradient_from_dn(n_cov: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """dh[rho, A, B] = d_rho h_{AB} from dN[mu, nu] = d_nu N_mu (point version)."""
    dh = np.zeros((4, 5, 5))
    for rho in range(4):
        dh[rho, :4, :4] = np.outer(dn[:, rho], n_cov) + np.outer(n_cov, dn[:, rho])
        dh[rho, :4, 4] = -dn[:, rho]
        dh[rho, 4, :4] = -dn[:, rho]
    return dh


def _christoffels(h_inv: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Gamma^C_{AB} = h^{CD}(d_A h_{DB} + d_B h_{DA} - d_D h_{AB})/2 with d_5 = 0."""
    dh5 = np.zeros((5, 5, 5))
    dh5[:4] = dh
    brackets = (np.einsum("adb->dab", dh5) + np.einsum("bda->dab", dh5) - dh5)
    return 0.5 * np.einsum("cd,dab->cab", h_inv, brackets)


def build_metric(
    A: Potential, q_over_c2: float, point, *, mode: str = "analytic", fd_step: float = 1e-4,
) -> MetricPatch:
    """Metric patch at a point: closed-form h and h_inv plus Christoffels.

    ``mode='analytic'`` differentiates through the potential's derivative
    table; ``mode='fd'`` central-differences the closed-form metric itself
    with step ``fd_step``.  The two paths agree to O(fd_step^2) and are
    cross-checked in the test suite.
    """
    pt = np.asarray(point, dtype=float)
    if pt.shape == (4,):
        pt = np.append(pt, 0.0)
    if pt.shape != (5,):
        raise DomainError("point needs 4 or 5 coordinates")
    coords = tuple(pt[:4])
    n_cov = -q_over_c2 * _point_components(A, coords)
    h, h_inv = _metric_pair(n_cov)

    if mode == "analytic":
        dn = -q_over_c2 * np.asarray(A.derivative_table(coords), dtype=float).reshape(4, 4)
        dh = _metric_gradient_from_dn(n_cov, dn)
    elif mode == "fd":
        dh = np.zeros((4, 5, 5))
        for rho in range(4):
            for sgn in (+1.0, -1.0):
                shifted = list(coords)
                shifted[rho] += sgn * fd_step
                n_s = -q_over_c2 * _point_components(A, tuple(shifted))
                h_s, _ = _metric_pair(n_s)
                dh[rho] += sgn * h_s / (2.0 * fd_step)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    gamma = _christoffels(h_inv, dh)
    if not np.all(np.isfinite(h)):
        raise DomainError(f"metric not finite at point {pt}")
    return MetricPatch(point=pt, h=h, h_inv=h_inv, gamma=gamma, N=n_cov)


def _point_components(A: Potential, coords) -> np.ndarray:
    """A_mu at a single point as a flat length-4 vector."""
    return np.asarray(A.components(tuple(np.asarray(c) for c in coords)), dtype=float).reshape(4)


def christoffel_contractions(patch: MetricPatch) -> ChristoffelContractions:
    """The four contracted objects from a patch's Christoffel table."""
    g = patch.gamma
    n_up = _ETA_DIAG * patch.N
    eta_rho = np.einsum("m,rmm->r", _ETA_DIAG, g[:4, :4, :4])
    eta_5 = float(np.einsum("m,mm->", _ETA_DIAG, g[4, :4, :4]))
    cross_rho = 2.0 * np.einsum("m,rm->r", n_up, g[:4, :4, 4])
    cross_5 = float(2.0 * n_up @ g[4, :4, 4])
    return ChristoffelContractions(eta_rho, eta_5, cross_rho, cross_5)


def expected_contractions(A: Potential, q_over_c2: float, point) -> ChristoffelContractions:
    """Right-hand sides of the four contraction identities, from N and dN."""
    pt = np.asarray(point, dtype=float)[:4]
    coords = tuple(pt)
    n_cov = -q_over_c2 * _point_components(A, coords)
    dn = -q_over_c2 * np.asarray(A.derivative_table(coords), dtype=float).reshape(4, 4)
    n_up = _ETA_DIAG * n_cov
    c1 = np.zeros(4)
    for nu in range(4):
        c1[nu] = _ETA_DIAG[nu] * float(np.sum(n_up * (dn[nu, :] - dn[:, nu])))
    div = float(np.sum(_ETA_DIAG * np.diag(dn)))
    return ChristoffelContractions(c1, -div, -c1, 0.0)


# ---------------------------------------------------------------------------
# Grid-level operator identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatedField:
    """A 5D field held as sum_k g_k(x^0..x^3) p_k(x^5), never as n^5 values.

    ``bases`` stacks the 4D base arrays g_k, shape (K, n0, n1, n2, n3);
    ``profiles`` stacks the x^5 profiles p_k, shape (K, n5).  ``step`` has
    five entries, x^5 last; every axis starts at 0.  A derivative along
    x^0..x^3 acts on the g_k alone, one along x^5 on the p_k alone, with
    fd_derivative's one-sided stencils at the grid ends.
    """

    bases: np.ndarray
    profiles: np.ndarray
    step: tuple

    def __post_init__(self):
        bases, profiles = np.asarray(self.bases), np.asarray(self.profiles)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "profiles", profiles)
        if bases.ndim != 5 or profiles.ndim != 2 or len(bases) != len(profiles) or not len(bases):
            raise ConfigurationError(
                "a separated field needs bases (K, n0, n1, n2, n3) and profiles (K, n5), K >= 1")
        step = tuple(float(h) for h in np.atleast_1d(self.step))
        object.__setattr__(self, "step", step)
        if len(step) != 5 or not all(h > 0 for h in step):
            raise ConfigurationError("a separated field needs five positive steps")
        if not (np.all(np.isfinite(bases)) and np.all(np.isfinite(profiles))):
            raise ConfigurationError("field values must be finite")

    @property
    def shape(self) -> tuple:
        """The 5D grid shape (n0, n1, n2, n3, n5)."""
        return self.bases.shape[1:] + self.profiles.shape[1:]

    def coords(self, axis: int) -> np.ndarray:
        return self.step[axis] * np.arange(self.shape[axis])


def _grid_coords(field, plane=None):
    """Sparse broadcastable coordinate arrays for the four base axes of a
    ``GridField`` or ``SeparatedField``, with x^0 cut to the one ``plane``
    when it is given."""
    coords = []
    for ax in range(4):
        c = field.coords(ax)
        if ax == 0 and plane is not None:
            c = c[plane:plane + 1]
        shape = [1] * 4
        shape[ax] = -1
        coords.append(c.reshape(shape))
    return tuple(coords)


def _combined(pairs) -> np.ndarray:
    """|sum_q C_q (x) q| from (base array, x^5 profile) pairs, x^5 last.

    This is where the 5D defect of one x^0 plane is formed: one array of the
    plane's size, to which the pairs after the first are added in the given
    order, one x^1 row at a time through a temporary of one row.
    """
    (c, q), *rest = pairs
    out = np.multiply(c[..., None], q)
    tmp = np.empty_like(out[0])
    for c, q in rest:
        for row, c_row in zip(out, c):
            row += np.multiply(c_row[..., None], q, out=tmp)
    return np.abs(out, out=out)


def _defect_maxima(defect: Callable, n0: int, index_sets) -> list:
    """Max of a defect field over each index set, one x^0 plane at a time.

    ``defect(r)`` returns the defect on the x^0 plane r of ``n0``, without
    its x^0 axis.  Each index set is a tuple of slices over the whole grid,
    as ``defect_field[index]`` would take it: a plane r is kept when r is in
    ``range(n0)[index[0]]`` and read through ``index[1:]``, a view.  Only
    the planes some set keeps are built, in increasing order, and only one
    plane's defect is held: the previous plane and its view are dropped
    before the next is built.  An index set that selects no grid point
    raises ``DomainError``; when no set keeps a plane, no plane is built.
    """
    kept = [range(n0)[index[0]] for index in index_sets]
    best = [None] * len(index_sets)
    for r in sorted(set().union(*kept)):
        plane = part = None  # a view keeps its plane alive
        plane = defect(r)
        for k, index in enumerate(index_sets):
            if r in kept[k]:
                part = plane[index[1:]]
                if part.size:
                    m = np.max(part)
                    best[k] = m if best[k] is None else np.maximum(best[k], m)
    if any(b is None for b in best):
        raise DomainError("an index set selects no grid point")
    return [float(b) for b in best]


def _sum_of_products(x, y, pairs, out, tmp):
    """out = sum_k x[i_k] y[j_k] over the (i_k, j_k) ``pairs``, added in order.

    A pair whose x[i_k] is the float 0 is skipped: adding its +-0 would leave
    every non-zero sum's bits alone and could flip only the sign of a zero.
    """
    (i, j), *rest = [(i, j) for i, j in pairs if not isinstance(x[i], float) or x[i]]
    np.multiply(x[i], y[j], out=out)
    for i, j in rest:
        out += np.multiply(x[i], y[j], out=tmp)
    return out


def _sample_plane(field, A: Potential, scale: float, i: int, components, out) -> np.ndarray:
    """scale * A_mu for each mu of ``components`` on the x^0 plane i of a
    field's base grid, sampled from ``A.components`` on that plane alone
    and written into ``out``, of shape (len(components), n1, n2, n3).  A
    sample that is not finite raises ``ConfigurationError``."""
    coords = _grid_coords(field, i)
    sample = np.broadcast_to(A.components(coords), (4,) + np.broadcast(*coords).shape)[:, 0]
    for plane, mu in zip(out, components):
        np.multiply(scale, sample[mu], out=plane)
    if not np.all(np.isfinite(out)):
        raise ConfigurationError("potential values must be finite")
    return out


class _PotentialPlanes:
    """scale * A_mu on the x^0 planes of a field's base grid: a sequence
    whose plane i, of shape (len(components), n1, n2, n3), holds the
    ``components`` of A, sampled on first use (:func:`_sample_plane`).  With
    scale -q/c^2 the planes hold N_mu, from which every metric entry is
    formed where it is read.

    The planes are held in three slots, allocated once: plane i goes into
    slot i % 3, over the plane three rows from it that the slot held, so a
    walk over the rows in order samples each plane once and holds three: the
    row, its two x^0 neighbours, or the three end planes of a one-sided
    stencil.  A plane returned stays valid until a plane three rows from it
    is sampled.
    """

    def __init__(self, field, A: Potential, scale: float, components=(0, 1, 2, 3)):
        self._field, self._A, self._scale = field, A, scale
        self._components = components
        self._slots, self._held = None, [None] * 3

    def __len__(self) -> int:
        return self._field.coords(0).size

    def __getitem__(self, i: int) -> np.ndarray:
        slot = i % 3
        if self._held[slot] != i:
            if self._slots is None:
                plane = np.broadcast(*_grid_coords(self._field, 0)).shape[1:]
                self._slots = np.empty((3, len(self._components)) + plane)
            self._held[slot] = None
            _sample_plane(self._field, self._A, self._scale, i, self._components,
                          self._slots[slot])
            self._held[slot] = i
        return self._slots[slot]


class _Planes:
    """The sequence of ``n`` planes whose plane i is ``f(i)``, formed when it
    is read: what ``fd_plane`` differentiates when a quantity is built on
    the planes its stencil reads."""

    def __init__(self, n: int, f: Callable):
        self._n, self._f = n, f

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> np.ndarray:
        return self._f(i)


def _christoffel_contraction_field(field, n_planes: _PotentialPlanes, r: int) -> np.ndarray:
    """h^{AB} Gamma^C_{AB} on the x^0 plane r of the 4D base grid, shape
    (5, n1, n2, n3).

    ``field`` supplies the base grid alone: a ``SeparatedField`` or a 4D
    ``GridField``.  ``n_planes`` is the field's ``_PotentialPlanes`` of
    N_mu; a caller walking the grid plane by plane passes the same one to
    every call, so each plane's potential is sampled once.

    Contracting Gamma^C_{AB} = h^{CD}(d_A h_{DB} + d_B h_{DA} - d_D h_{AB})/2
    with the symmetric h^{AB} leaves h^{CD} v_D, where

        v_D = h^{AB} d_A h_{DB} - (1/2) h^{AB} d_D h_{AB}.

    h is held as its 15 entries a <= b, h^{-1} as its five non-constant
    entries beside the floats eta^{mu nu}, and the gradient is taken by
    finite differences of the entries of h, one direction rho at a time
    (d_5 = 0), so neither a (5, 5) metric array nor the Christoffel table is
    formed.  d_0 h on the plane is ``fd_plane`` entry by entry, each entry
    formed from the N planes its stencil reads; h on the plane is built once,
    for d_1..d_3.  Each sum runs over the full indices in the order of the
    dense einsums (b in v_D, (a, b) row-major in the trace, D in h^{CD} v_D),
    skipping the zero entries of h^{-1}, so the result is bit for bit the
    dense contraction up to the sign of a zero.
    """
    trace = [(k, k) for k in _ENTRY.ravel()]
    n_cov = n_planes[r]
    dh = np.empty((15,) + n_cov.shape[1:])
    for k in range(15):
        dh[k] = fd_plane(_Planes(len(n_planes), lambda i, k=k: _metric_entry(n_planes[i], k)),
                         r, 1, field.step[0])
    h = _metric_entries(n_cov)
    h_inv = _inverse_entries(n_cov)
    v = np.zeros((5,) + h.shape[1:])
    term, tmp = np.empty_like(v[0]), np.empty_like(v[0])
    for rho in range(4):
        if rho:
            del dh  # the previous direction's goes before the next is built
            dh = fd_derivative(h, rho, 1, field.step[rho])
        for d in range(5):
            v[d] += _sum_of_products(h_inv, dh, [(_ENTRY[rho, b], _ENTRY[d, b])
                                                 for b in range(5)], term, tmp)
        v[rho] -= np.multiply(0.5, _sum_of_products(h_inv, dh, trace, term, tmp), out=term)
    del dh, h  # before the coefficients are allocated
    out = np.empty_like(v)
    for c in range(5):
        _sum_of_products(h_inv, v, [(_ENTRY[c, d], d) for d in range(5)], out[c], tmp)
    return out


# Relative size of max|d_mu A^mu| that the Lorentz-gauge guard accepts.
_GAUGE_TOL = 1e-8


def _lorentz_guard(field: SeparatedField, A: Potential) -> None:
    """Refuse a field that is not a ``SeparatedField``, and a potential that
    does not declare Lorentz gauge or whose divergence is not zero on the
    field's grid.

    The test is max|d_mu A^mu| <= _GAUGE_TOL * max(max|A|, 1) over every
    plane of the base grid, the edge planes that the defect walks skip
    included.  Each maximum is a ``_defect_maxima`` walk over the whole
    grid, one x^0 plane at a time: for the divergence, its derivative table,
    16 planes of n^3 doubles, and a few planes beside it.
    """
    if not isinstance(field, SeparatedField):
        raise DomainError("covariant Laplacian check needs a 5D SeparatedField")
    if A.gauge != "lorentz":
        raise GaugeError(f"Lorentz gauge required, potential declares {A.gauge!r}")
    every = [(slice(None),)]
    [div_max] = _defect_maxima(lambda r: np.abs(A.divergence(_grid_coords(field, r))),
                               field.shape[0], every)
    [a_max] = _defect_maxima(lambda r: np.abs(A.components(_grid_coords(field, r))),
                             field.shape[0], every)
    if div_max > _GAUGE_TOL * max(a_max, 1.0):
        raise GaugeError("potential violates the Lorentz gauge numerically")


def _laplacian_defect_field(field: SeparatedField, A: Potential, q_over_c2: float,
                            n_planes: _PotentialPlanes, r: int) -> np.ndarray:
    """|-h^{AB} Gamma^C_{AB} d_C f - (d_mu N^mu) d_5 f| on the x^0 plane r.

    ``n_planes`` is passed on to ``_christoffel_contraction_field``.  This
    is the Laplace-Beltrami operator h^{AB}(d_A d_B - Gamma^C_{AB} d_C) f
    minus the expanded operator of ``covariant_laplacian_residual``: the
    second-order parts of the two are the same terms and cancel exactly, so
    only the first-order parts are evaluated.  For each term g p of the
    field that is (sum_mu c_mu d_mu g) (x) p + (c_5 g) (x) d_5 p, with c the
    coefficients above: d_0 g is the plane of ``fd_plane`` over the whole
    base array, the other derivatives are taken on the plane alone.  The
    input checks and the numerical Lorentz-gauge test, which needs the
    whole grid, are left to the callers (``_lorentz_guard``).
    """
    coef = _christoffel_contraction_field(field, n_planes, r)
    # h^{AB} Gamma^5_{AB} + d_mu N^mu, with the analytic divergence; the
    # coordinates keep x^0 as an axis of length 1
    coef[4, None] += -q_over_c2 * np.asarray(A.divergence(_grid_coords(field, r)))
    h = field.step
    pairs = []
    for g, p in zip(field.bases, field.profiles):
        base = fd_plane(g, r, 1, h[0])
        base *= coef[0]
        for mu in range(1, 4):
            d = fd_derivative(g[r], mu - 1, 1, h[mu])
            d *= coef[mu]
            base += d
        pairs += [(base, p), (coef[4] * g[r], fd_derivative(p, 0, 1, h[4]))]
    del coef
    return _combined(pairs)


def _laplacian_defect_maxima(field: SeparatedField, A: Potential, q_over_c2: float,
                             index_sets) -> list:
    """Gauge-guarded maxima of the Laplacian defect over each index set, one
    x^0 plane at a time, each plane's potential sampled once."""
    _lorentz_guard(field, A)
    n_planes = _PotentialPlanes(field, A, -q_over_c2)
    return _defect_maxima(lambda r: _laplacian_defect_field(field, A, q_over_c2, n_planes, r),
                          field.shape[0], index_sets)


def covariant_laplacian_residual(
    field: SeparatedField, A: Potential, q_over_c2: float,
    *, margin: int = 2,
) -> float:
    """Max-norm defect between the covariant Laplacian and the expanded operator.

    The scalar covariant (Laplace-Beltrami) operator
    h^{AB} d_A d_B f - (h^{AB} Gamma^C_{AB}) d_C f is compared with the
    eliminated-coordinate expansion
    eta^{mu nu} d_mu d_nu + 2 N^mu d_mu d_5 + (1 + N^2) d_5 d_5 + (d_mu N^mu) d_5.
    Their second-order terms coincide, so the statements checked are
    h^{AB} Gamma^mu_{AB} = 0 and h^{AB} Gamma^5_{AB} = -(d_mu N^mu), with the
    Christoffel contraction built from finite differences of the metric on
    the grid and d_mu N^mu from the potential's derivative table.  Requires
    Lorentz gauge (declared and checked numerically).  Interior points only;
    the pointwise defect decays at second order in the step.  The defect is
    computed and reduced one x^0 plane at a time.
    """
    inner = tuple(slice(margin, -margin) for _ in range(5))
    return _laplacian_defect_maxima(field, A, q_over_c2, [inner])[0]


# ---------------------------------------------------------------------------
# Fourier-reduced operator (single x^5 mode)
# ---------------------------------------------------------------------------

def _sampled_potential(psi: GridField, A: Potential):
    """A_mu on the field's grid, shape (4,) + grid, and its divergence d_mu A^mu
    taken as the field is differentiated (``field_derivative``)."""
    from .reduction import field_derivative

    coords = _grid_coords(psi)
    shape = np.broadcast(*coords).shape
    a = np.ascontiguousarray(np.broadcast_to(A.components(coords), (4,) + shape))
    div = np.zeros(shape)
    for mu in range(4):
        div += _ETA_DIAG[mu] * np.real(field_derivative(psi.with_values(a[mu]), mu, 1))
    return a, div


def kg_operator(psi: GridField, A: Potential, q_over_c2: float, inv_lambda: float) -> np.ndarray:
    """Minimally-coupled wave operator applied to a 4D field.

    (d^mu - i b A^mu)(d_mu - i b A_mu) psi - inv_lambda^2 psi

    with b = q_over_c2 * inv_lambda: the d_5 -> i/lambda substitution of the
    single-mode ansatz into the 5D expanded operator.  Every derivative,
    the divergence of the sampled potential included, follows the field's
    boundary: spectral on a periodic field, finite differences on an
    absorbing one, so the operator is an honest single-grid evaluation.
    With a constant potential it is multiplicative on plane waves (exactly
    so on a periodic field).
    """
    from .reduction import field_derivative

    if psi.values.ndim != 4:
        raise DomainError("kg_operator needs a 4D field")
    b = q_over_c2 * inv_lambda
    a, div = _sampled_potential(psi, A)
    f = psi.values
    out = np.zeros(f.shape, dtype=complex)
    a2 = np.zeros_like(div)
    for mu in range(4):
        d2 = field_derivative(psi, mu, 2)
        d1 = field_derivative(psi, mu, 1)
        out += _ETA_DIAG[mu] * (d2 - 2j * b * a[mu] * d1)
        a2 = a2 + _ETA_DIAG[mu] * a[mu]**2
    out += (-1j * b * div - b * b * a2 - inv_lambda**2) * f
    return out


def kg_fourier_residual(
    psi: GridField, A: Potential, q_over_c2: float, inv_lambda: float,
    *, margin: int = 2,
) -> float:
    """Max-norm of 2 b (d_mu A^mu) psi, with b = q_over_c2 * inv_lambda.

    This is the term by which the operator carrying an extra divergence term,
    (d - i b A)^2 psi - 2 i b (d_mu A^mu) psi - inv_lambda^2 psi, differs
    from the substituted operator ``kg_operator``.  The divergence is that of
    the sampled potential under the finite differences ``kg_operator`` takes
    on an absorbing field, so the statement checked is that the Lorentz
    condition (required) holds on the grid and the two operators agree.

    The maximum is over the points at least ``margin`` from every end, taken
    by ``_defect_maxima`` on the x^0 planes that interior keeps: d_0 A_0 by
    ``fd_plane`` over a window of three sampled planes of A_0
    (``_PotentialPlanes``), and the other derivatives from A_1..A_3 sampled
    on the plane alone, so a few planes of n^3 values are held beside the
    field and every point gets the bits of the whole-grid evaluation.  A
    field that is not 4D, or a margin that leaves no interior point, raises
    ``DomainError``.
    """
    if psi.values.ndim != 4:
        raise DomainError("kg_fourier_residual needs a 4D field")
    if A.gauge != "lorentz":
        raise GaugeError(f"Lorentz gauge required, potential declares {A.gauge!r}")
    b2 = 2.0 * q_over_c2 * inv_lambda
    window = _PotentialPlanes(psi, A, 1.0, components=(0,))
    a0 = _Planes(len(window), lambda i: window[i][0])
    a = np.empty((3,) + psi.values.shape[1:])  # A_1, A_2, A_3 on the plane

    def defect(r):
        div = np.zeros(psi.values.shape[1:])
        div += _ETA_DIAG[0] * fd_plane(a0, r, 1, psi.step[0])
        _sample_plane(psi, A, 1.0, r, (1, 2, 3), a)
        for mu in range(1, 4):
            div += _ETA_DIAG[mu] * fd_derivative(a[mu - 1], mu - 1, 1, psi.step[mu])
        return np.abs(b2 * div * psi.values[r])

    inner = tuple(slice(margin, -margin) for _ in range(4))
    return _defect_maxima(defect, psi.values.shape[0], [inner])[0]


# ---------------------------------------------------------------------------
# Light-cone expansion with electromagnetic terms
# ---------------------------------------------------------------------------

def lightcone_em_expansion_residual(
    field: SeparatedField, A: Potential, q_over_c2: float,
    *, gauge: str = "coulomb", margin: int = 2,
) -> float:
    """Factored operator versus its light-cone expansion, max-norm defect.

    LHS composes -(d_0 - a_0 d_5)^2 + d_5^2 + sum_j (d_j - a_j d_5)^2 by
    applying the factors twice (a = (q/c^2) A).  RHS evaluates the expanded
    form, whose leading piece 2 d^2/(dy^0 dy^5) equals d_5^2 - d_0^2 by the
    light-cone chain rule:

        (d_5^2 - d_0^2) + 2 a_0 d_0 d_5 - a_0^2 d_5^2 + lap
        - 2 a_j d_j d_5 + a_j^2 d_5^2 - (d_mu a^mu) d_5.

    The two sides differ by the finite-difference product-rule commutator, so
    the interior max-norm defect decays at second order under refinement.
    The potential must declare the requested gauge.  The defect is computed
    and reduced one x^0 plane at a time, each plane's a sampled once into a
    window of three planes.
    """
    if not isinstance(field, SeparatedField):
        raise DomainError("light-cone expansion check needs a 5D SeparatedField")
    if A.gauge != gauge:
        raise GaugeError(f"potential declares gauge {A.gauge!r}, expected {gauge!r}")
    a_planes = _PotentialPlanes(field, A, q_over_c2)
    inner = tuple(slice(margin, -margin) for _ in range(5))
    return _defect_maxima(lambda r: _lightcone_defect_field(field, a_planes, r),
                          field.shape[0], [inner])[0]


def _lightcone_defect_field(field: SeparatedField, a_planes: _PotentialPlanes,
                            r: int) -> np.ndarray:
    """|composition - expansion| of the light-cone operator on the x^0 plane r.

    ``a_planes`` is the field's ``_PotentialPlanes`` of a_mu = (q/c^2) A_mu.
    For a term g p of the field, with D the first-order, D2 the second-order
    stencil and a2 = eta^{mu nu} a_mu a_nu, the second-order terms of the
    two sides cancel exactly and the difference is

        [sum_mu eta^{mu mu} (D_mu D_mu g - D2_mu g)] (x) p
        + [sum_mu eta^{mu mu} (a_mu D_mu g - D_mu(a_mu g)) + (D_mu a^mu) g] (x) D_5 p
        + (a2 g) (x) (D_5 D_5 p - D2_5 p),

    three product-rule commutators: composed against direct second
    derivatives, and D a g against a D g.  Every x^0 derivative is
    ``fd_plane`` at r over the planes its stencil reads: of a_0, of a_0 g
    and of g, and for D_0 D_0 g of D_0 g, itself ``fd_plane`` of g on each
    plane read.  Only order-1 stencils read a, so the window's three planes
    cover them.  The derivatives along x^1..x^3 run on the plane alone.
    """
    n0, h = len(a_planes), field.step
    a = a_planes[r]

    def d0(planes, order=1):
        return fd_plane(planes, r, order, h[0])

    def d(values, ax, order=1):  # along x^ax, 1 <= ax <= 3: axis ax - 1 of a plane
        return fd_derivative(values, ax - 1, order, h[ax])

    div = d0(_Planes(n0, lambda i: a_planes[i][0]))
    np.negative(div, out=div)
    a2 = -a[0] ** 2
    for j in range(1, 4):
        div += d(a[j], j)
        a2 += a[j] ** 2
    pairs = []
    for g, p in zip(field.bases, field.profiles):
        d0g = d0(g)
        c_p = d0(g, 2)
        c_p -= d0(_Planes(n0, lambda i: fd_plane(g, i, 1, h[0])))
        c_1 = d0(_Planes(n0, lambda i: a_planes[i][0] * g[i]))
        c_1 -= a[0] * d0g
        c_1 += div * g[r]
        for j in range(1, 4):
            dj = d(g[r], j)
            c_p += d(dj, j)
            c_p -= d(g[r], j, 2)
            c_1 += a[j] * dj
            c_1 -= d(a[j] * g[r], j)
        p1 = fd_derivative(p, 0, 1, h[4])
        pairs += [(c_p, p), (c_1, p1),
                  (a2 * g[r], fd_derivative(p1, 0, 1, h[4]) - fd_derivative(p, 0, 2, h[4]))]
    return _combined(pairs)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def smooth_lorentz_potential(amplitude: float = 0.8) -> Potential:
    """Curved (not pure-gauge) test potential with d_mu A^mu = 0 exactly.

    Each component is independent of its own coordinate, so the divergence
    vanishes identically, analytically and under central differences alike.
    """
    def f(x0, x1, x2, x3):
        a0 = amplitude * np.sin(x1) * np.cos(0.5 * x2)
        a1 = amplitude * np.cos(x0) * np.sin(0.7 * x3)
        a2 = amplitude * np.sin(0.6 * x0 + 0.4 * x3) + 0.0 * x1
        a3 = amplitude * np.cos(0.8 * x1 - 0.3 * x2) + 0.0 * x0
        return np.broadcast_arrays(a0, a1, a2, a3)

    def df(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        c, s = np.cos, np.sin
        am = amplitude
        row0 = [z, am * c(x1) * c(0.5 * x2) + z, -0.5 * am * s(x1) * s(0.5 * x2) + z, z]
        row1 = [-am * s(x0) * s(0.7 * x3) + z, z, z, 0.7 * am * c(x0) * c(0.7 * x3) + z]
        row2 = [0.6 * am * c(0.6 * x0 + 0.4 * x3) + z, z, z, 0.4 * am * c(0.6 * x0 + 0.4 * x3) + z]
        row3 = [z, -0.8 * am * s(0.8 * x1 - 0.3 * x2) + z, 0.3 * am * s(0.8 * x1 - 0.3 * x2) + z, z]
        return [row0, row1, row2, row3]

    return Potential(func=f, dfunc=df, gauge="lorentz")


# The geometry suite's fixed settings: the side of every grid's coordinate box,
# the coupling q/c^2, and the pass thresholds.
_EXTENT = 1.0
_Q_OVER_C2 = 0.3
_ORDER_FLOOR = 1.9
_FLAT_TOL = 1e-12
_IDENTITY_TOL = 1e-8


def _test_field_5d(size: int) -> SeparatedField:
    """Smooth 5D field on [0, _EXTENT]^5 for the operator checks: one term,
    a product of 1-D factors in x^0..x^3 times the x^5 profile."""
    step = _EXTENT / (size - 1)
    x = np.arange(size) * step
    x0, x1, x2, x3 = np.meshgrid(x, x, x, x, indexing="ij", sparse=True)
    base = (np.sin(1.3 * x0 + 0.2) * np.cos(0.9 * x1 - 0.4) * np.sin(1.1 * x2)
            * np.cos(0.7 * x3 + 0.1))
    profile = 1.0 + 0.5 * np.sin(1.7 * x)
    return SeparatedField(bases=base[None], profiles=profile[None], step=(step,) * 5)


def _laplacian_sizes(sizes) -> list:
    """The nested Laplacian ladder: the largest size rounded down to 4k+1,
    at least 17 so the quarter grid keeps the 5 points a stencil needs, with
    its half and quarter grids."""
    top = max(int(sizes[-1]), 17)
    top = 4 * ((top - 1) // 4) + 1
    return [(top - 1) // 4 + 1, (top - 1) // 2 + 1, top]


def _laplacian_ladder(lap_sizes, A: Potential):
    """Laplacian defects on the nested ladder, and the flat-space residual.

    Returns the steps, the maxima at the coarse grid's interior points, the
    margin-2 interior maxima, and the zero-potential residual on the half
    grid's field.  With A = 0 the metric is constant, its entries 0 and +-1,
    so every stencil of that defect returns exactly 0 at any grid size; the
    half grid costs under a tenth of the finest, and the quarter grid's margin-2
    interior can be a single point.  Each rung builds its separated field
    in turn and drops it before the next, and each defect is streamed one
    x^0 plane at a time, built only on the planes the probe or the interior
    keeps: n - 4 of n, or n - 2 on the coarse grid, whose probe points sit
    one plane from its ends.
    """
    steps, resid, interior = [], [], []
    coarse_n, half = lap_sizes[0], lap_sizes[1]
    inner = tuple(slice(2, -2) for _ in range(5))
    for size in lap_sizes:
        steps.append(_EXTENT / (size - 1))
        field = _test_field_5d(size)
        stride = (size - 1) // (coarse_n - 1)
        probe = tuple(slice(stride, (coarse_n - 2) * stride + 1, stride) for _ in range(5))
        at_probe, at_inner = _laplacian_defect_maxima(field, A, _Q_OVER_C2, [probe, inner])
        resid.append(at_probe)
        interior.append(at_inner)
        if size == half:
            flat = covariant_laplacian_residual(field, zero_potential(), _Q_OVER_C2)
        del field
    return steps, resid, interior, flat


def projected_peak_bytes(sizes) -> int:
    """Bytes ``verify_geometry(sizes)`` allocates at its peak, in closed form.

    The Laplacian ladder holds one field at a time, the finest last: its 4D
    base array, n^4 doubles on an n^5 grid, and an x^5 profile.  While its
    defect is streamed (on the half grid, the flat-space residual too), one
    x^0 plane's arrays are live at a time, counted in base planes of n^3
    doubles.  Throughout, the potential window holds three planes' N_mu, 12
    planes.  The Christoffel phase adds 42: the kept plane's 15 entries of h,
    one direction's derivative of them (15), the five arrays of h^-1 and v_D
    with two work arrays (7); the plane's five coefficients are allocated
    after h and its derivative are dropped.  The defect phase holds the
    plane's 5D combination, n planes, with a temporary of one plane and the
    field term's two coefficient planes, n + 15 with the window; the maxima
    read the combination through a view.  The formula rounds the two phases
    up to 64 and n + 24 planes for the small arrays beside them.  No term
    grows as n^5.  The Fourier check afterwards holds
    the first size's 4D field, complex values with a real product written
    into their real parts, 16 bytes a point, and while the field is checked
    finite a byte a point more; beside it are a few planes of that grid: 17
    bytes a point and 16 planes of s^3 doubles on an s^4 grid.  The test
    suite checks the bound against tracemalloc.
    """
    n = _laplacian_sizes(sizes)[-1]
    ladder = 8 * n**3 * (n + max(64, n + 24))
    s = int(sizes[0])
    fourier = s**3 * (17 * s + 8 * 16)
    return max(ladder, fourier)


def verify_geometry(sizes=(9, 13, 17)) -> dict:
    """Run the geometry identity suite over a ladder of grid resolutions.

    Point-level contraction identities use finite-difference Christoffels at
    the listed steps.  The grid-level Laplacian identity runs on a nested
    halving ladder ending at the largest requested size, with the residual
    probed at the physical points shared by all three grids so the order fit
    is free of max-location drift.  The 'passed' flag applies the module's
    thresholds.  Before allocating anything, a run whose
    ``projected_peak_bytes`` exceeds what may still be allocated is refused
    (``numerics.check_memory``).
    """
    check_memory("verify-geometry", projected_peak_bytes(sizes),
                 f"finest Laplacian grid {_laplacian_sizes(sizes)[-1]}^5")
    A = smooth_lorentz_potential()
    steps = []
    contraction_resid = {f.name: [] for f in fields(ChristoffelContractions)}
    point = (0.35, 0.55, 0.45, 0.65)

    for size in sizes:
        hstep = _EXTENT / (size - 1)
        steps.append(hstep)
        patch = build_metric(A, _Q_OVER_C2, point, mode="fd", fd_step=hstep)
        got = christoffel_contractions(patch)
        want = expected_contractions(A, _Q_OVER_C2, point)
        for name, resid in contraction_resid.items():
            resid.append(float(np.max(np.abs(getattr(got, name) - getattr(want, name)))))

    orders = {}
    for key, resid in contraction_resid.items():
        if max(resid) < 1e-13:  # identically satisfied, order fit meaningless
            orders[key] = math.inf
        else:
            orders[key] = fit_convergence_order(steps, resid)

    # Nested halving ladder for the 5D operator identity: the finest grid is
    # the largest requested size (rounded so the point sets nest), residuals
    # are compared at the coarse grid's interior points.
    lap_sizes = _laplacian_sizes(sizes)
    lap_steps, lap_resid, lap_interior, flat = _laplacian_ladder(lap_sizes, A)
    lap_order = fit_convergence_order(lap_steps, lap_resid)

    # exact checks at a point
    patch = build_metric(A, _Q_OVER_C2, point, mode="analytic")
    inverse_defect = float(np.max(np.abs(patch.h @ patch.h_inv - np.eye(5))))
    cross5 = abs(christoffel_contractions(patch).cross_gamma_5)

    from .reduction import GridField

    size = sizes[0]
    hstep = _EXTENT / (size - 1)
    axes4 = [np.arange(size) * hstep for _ in range(4)]
    x = np.meshgrid(*axes4, indexing="ij", sparse=True)
    # the real product is written into the complex field's real part, so no
    # real copy of the field is held beside it
    values = np.zeros((size,) * 4, dtype=complex)
    np.multiply(np.sin(1.2 * x[0]) * np.cos(0.8 * x[1]) * np.sin(x[2]), np.cos(x[3]),
                out=values.real)
    psi = GridField(values=values, step=(hstep,) * 4, boundary="absorbing")
    kg_defect = kg_fourier_residual(psi, A, _Q_OVER_C2, inv_lambda=1.0)

    passed = (
        all(o >= _ORDER_FLOOR for o in orders.values())
        and lap_order >= _ORDER_FLOOR
        and flat <= _FLAT_TOL
        and inverse_defect <= 1e-12
        and cross5 <= 1e-10
        and kg_defect <= _IDENTITY_TOL
    )
    return {
        "steps": steps,
        "contraction_residuals": contraction_resid,
        "contraction_orders": orders,
        "laplacian_steps": lap_steps,
        "laplacian_residuals": lap_resid,
        "laplacian_interior_max": lap_interior,
        "laplacian_order": lap_order,
        "flat_residual": flat,
        "metric_inverse_defect": inverse_defect,
        "cross_gamma_5": cross5,
        "kg_fourier_defect": kg_defect,
        "passed": bool(passed),
    }
