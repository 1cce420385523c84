"""Foliated-metric tests: closed-form inverse pair, Christoffel contractions
against their identities, and the grid-level operator equivalences.

Oracles: the algebraic identities themselves (with analytic dA tables),
dual-path Christoffels (analytic vs finite-difference), and convergence-order
fits on nested grids.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kg5d import geometry, numerics
from kg5d.errors import ConfigurationError, DomainError, GaugeError
from kg5d.geometry import (
    Potential,
    SeparatedField,
    build_metric,
    christoffel_contractions,
    coulomb_potential,
    covariant_laplacian_residual,
    expected_contractions,
    kg_fourier_residual,
    lightcone_em_expansion_residual,
    smooth_lorentz_potential,
    verify_geometry,
    zero_potential,
    _test_field_5d,
)
from kg5d.geometry import (
    _ETA_DIAG,
    _christoffel_contraction_field,
    _defect_maxima,
    _grid_coords,
    _laplacian_defect_field,
    _laplacian_defect_maxima,
    _laplacian_sizes,
    _lightcone_defect_field,
    _metric_pair,
    _PotentialPlanes,
    projected_peak_bytes,
)
from kg5d.numerics import fd_derivative, fit_convergence_order
from kg5d.reduction import GridField
from oracles import kg_operator

Q_C2 = 0.3
POINT = (0.45, 0.8, -0.3, 0.55)

NESTED_SIZES = (7, 13, 25)  # 6, 12, 24 intervals: shared physical points


def _nested_probe(size):
    """The 7-grid's interior points (margin 1) as an index set of a size-grid."""
    stride = (size - 1) // (NESTED_SIZES[0] - 1)
    return (slice(stride, 5 * stride + 1, stride),) * 5


def _nested_orders(planes_fn, field_fn):
    """Steps and probe maxima on the nested grids of the defect whose plane r
    is ``planes_fn(field)(r)``, reduced plane by plane."""
    hs, rs = [], []
    for size in NESTED_SIZES:
        f = field_fn(size)
        hs.append(f.step[0])
        rs.append(_defect_maxima(planes_fn(f), size, [_nested_probe(size)])[0])
    return hs, rs


def _base_array(g):
    """A 4D base's x^0 planes stacked: its whole n^4 array."""
    return np.stack([g[i] for i in range(len(g))])


def _stacked(plane, n0, axis=0):
    """The planes ``plane(0)``..``plane(n0 - 1)`` stacked along ``axis``: the
    whole grid's array of a plane-walk function."""
    return np.stack([plane(r) for r in range(n0)], axis=axis)


def _contraction_planes(field, A):
    """r -> h^{AB} Gamma^C_{AB} on the x^0 plane r, one window of N for the walk."""
    n_planes = _PotentialPlanes(field, A, -Q_C2)
    return lambda r: _christoffel_contraction_field(field, n_planes, r)


def _laplacian_planes(field, A):
    """r -> the Laplacian defect on the x^0 plane r, one window of N for the walk."""
    n_planes = _PotentialPlanes(field, A, -Q_C2)
    return lambda r: _laplacian_defect_field(field, A, Q_C2, n_planes, r)


def _lightcone_planes(field, A):
    """r -> the light-cone defect on the x^0 plane r, one window of a for the walk."""
    a_planes = _PotentialPlanes(field, A, Q_C2)
    return lambda r: _lightcone_defect_field(field, a_planes, r)


def _random_polynomial_potential(seed=0) -> Potential:
    """Smooth quadratic potential with an analytic derivative table."""
    rng = np.random.default_rng(seed)
    lin = rng.uniform(-0.5, 0.5, size=(4, 4))
    quad = rng.uniform(-0.2, 0.2, size=(4, 4, 4))
    quad = 0.5 * (quad + quad.transpose(0, 2, 1))

    def f(x0, x1, x2, x3):
        xs = [x0, x1, x2, x3]
        comps = []
        for mu in range(4):
            val = sum(lin[mu, nu] * xs[nu] for nu in range(4))
            val = val + sum(quad[mu, a, b] * xs[a] * xs[b]
                            for a in range(4) for b in range(4))
            comps.append(val)
        return comps

    def df(x0, x1, x2, x3):
        xs = [x0, x1, x2, x3]
        rows = []
        for mu in range(4):
            row = []
            for nu in range(4):
                val = lin[mu, nu] + 2.0 * sum(quad[mu, nu, b] * xs[b] for b in range(4))
                row.append(val + 0.0 * xs[0])
            rows.append(row)
        return rows

    return Potential(func=f, dfunc=df, gauge="none")


def _pure_gauge_potential() -> Potential:
    """A_mu = d_mu chi with box chi = 0: pure gauge and Lorentz at once.

    chi = 0.4 cosh(x0) e^{x1} solves the wave equation; being non-polynomial
    it leaves a genuine O(h^2) footprint in the finite-difference metric
    gradients (polynomial or plane-wave chi cancels identically there).
    """
    amp = 0.4

    def f(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        e = np.exp(x1)
        return amp * np.sinh(x0) * e + z, amp * np.cosh(x0) * e + z, z, z

    def df(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        e = np.exp(x1)
        row0 = [amp * np.cosh(x0) * e + z, amp * np.sinh(x0) * e + z, z, z]
        row1 = [amp * np.sinh(x0) * e + z, amp * np.cosh(x0) * e + z, z, z]
        return [row0, row1, [z] * 4, [z] * 4]

    return Potential(func=f, dfunc=df, gauge="lorentz")


# ---------------------------------------------------------------------------
# Metric pair
# ---------------------------------------------------------------------------

def test_flat_metric():
    patch = build_metric(zero_potential(), Q_C2, POINT)
    assert np.array_equal(patch.h, np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]))
    assert np.max(np.abs(patch.gamma)) == 0.0


def test_metric_inverse_identity_random():
    rng = np.random.default_rng(21)
    for seed in range(8):
        A = _random_polynomial_potential(seed)
        pt = rng.uniform(-1.0, 1.0, size=4)
        patch = build_metric(A, Q_C2, pt)
        assert np.max(np.abs(patch.h @ patch.h_inv - np.eye(5))) < 1e-12
        assert np.max(np.abs(patch.h - patch.h.T)) == 0.0


def test_metric_signature():
    A = _random_polynomial_potential(3)
    patch = build_metric(A, Q_C2, POINT)
    eig = np.linalg.eigvalsh(patch.h)
    assert np.sum(eig < 0) == 1 and np.sum(eig > 0) == 4


def test_coulomb_patch_values():
    # A_0 = Ze/|x| sampled at |x| = 1: N_0 = -(q/c^2) Ze
    ze = 1.4
    patch = build_metric(coulomb_potential(ze), Q_C2, (0.0, 1.0, 0.0, 0.0, 0.7))
    assert np.isfinite(patch.h).all()
    assert patch.N[0] == pytest.approx(-Q_C2 * ze, rel=1e-14)
    assert patch.h[0, 4] == pytest.approx(Q_C2 * ze, rel=1e-14)


def test_gamma_symmetric_lower_indices():
    A = _random_polynomial_potential(5)
    patch = build_metric(A, Q_C2, POINT)
    assert np.max(np.abs(patch.gamma - patch.gamma.transpose(0, 2, 1))) < 1e-14


def test_build_metric_modes_agree():
    A = _random_polynomial_potential(7)
    exact = build_metric(A, Q_C2, POINT, mode="analytic")
    for h in (1e-2, 5e-3):
        fd = build_metric(A, Q_C2, POINT, mode="fd", fd_step=h)
        assert np.max(np.abs(fd.gamma - exact.gamma)) < 2.0 * h * h * 10.0


# ---------------------------------------------------------------------------
# Contraction identities
# ---------------------------------------------------------------------------

def test_contractions_vanish_flat():
    got = christoffel_contractions(build_metric(zero_potential(), Q_C2, POINT))
    assert np.max(np.abs(got.eta_gamma_rho)) == 0.0
    assert got.eta_gamma_5 == 0.0
    assert np.max(np.abs(got.cross_gamma_rho)) == 0.0
    assert got.cross_gamma_5 == 0.0


def test_contraction_identities_analytic_gammas():
    # with analytic Christoffels the four identities hold to rounding
    for seed in range(5):
        A = _random_polynomial_potential(seed)
        patch = build_metric(A, Q_C2, POINT, mode="analytic")
        got = christoffel_contractions(patch)
        want = expected_contractions(A, Q_C2, POINT)
        assert np.max(np.abs(got.eta_gamma_rho - want.eta_gamma_rho)) < 1e-12
        assert abs(got.eta_gamma_5 - want.eta_gamma_5) < 1e-12
        assert np.max(np.abs(got.cross_gamma_rho - want.cross_gamma_rho)) < 1e-12
        assert abs(got.cross_gamma_5) < 1e-13


def test_cross_gamma_5_vanishes_random():
    rng = np.random.default_rng(17)
    for seed in range(6):
        A = _random_polynomial_potential(seed + 40)
        pt = rng.uniform(-0.8, 0.8, size=4)
        got = christoffel_contractions(build_metric(A, Q_C2, pt))
        assert abs(got.cross_gamma_5) < 1e-10


def test_contraction_identities_fd_gammas_second_order():
    A = _random_polynomial_potential(11)
    want = expected_contractions(A, Q_C2, POINT)
    hs, errs = [], []
    for h in (0.08, 0.04, 0.02):
        got = christoffel_contractions(build_metric(A, Q_C2, POINT, mode="fd", fd_step=h))
        err = max(
            float(np.max(np.abs(got.eta_gamma_rho - want.eta_gamma_rho))),
            abs(got.eta_gamma_5 - want.eta_gamma_5),
            float(np.max(np.abs(got.cross_gamma_rho - want.cross_gamma_rho))),
        )
        hs.append(h)
        errs.append(err)
    assert fit_convergence_order(hs, errs) >= 1.9


def test_opposite_contractions_cancel():
    # eta Gamma^rho + 2 N Gamma^rho_{.5} = 0: the d_rho pieces of the trace
    A = _random_polynomial_potential(13)
    got = christoffel_contractions(build_metric(A, Q_C2, POINT))
    assert np.max(np.abs(got.eta_gamma_rho + got.cross_gamma_rho)) < 1e-12


# ---------------------------------------------------------------------------
# Covariant Laplacian vs expanded operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [5, 9, 17])
def test_laplacian_flat_residual_zero(size):
    # A = 0 makes the metric constant (entries 0 and +-1), so every stencil
    # of the defect cancels exactly at any grid size
    f = _test_field_5d(size)
    assert covariant_laplacian_residual(f, zero_potential(), Q_C2) == 0.0


def test_laplacian_residual_converges():
    A = smooth_lorentz_potential()
    hs, rs = _nested_orders(lambda f: _laplacian_planes(f, A), _test_field_5d)
    assert rs[0] > rs[1] > rs[2]
    assert fit_convergence_order(hs, rs) >= 1.9


def test_laplacian_pure_gauge_small_residual():
    # pure-gauge A keeps space-time flat; the identity residual stays below
    # an O(h^2) envelope (and decays at second order when it is nonzero)
    A = _pure_gauge_potential()
    hs, rs = _nested_orders(lambda f: _laplacian_planes(f, A), _test_field_5d)
    assert all(r <= 10.0 * h * h for r, h in zip(rs, hs))
    if rs[0] > 1e-12:
        assert fit_convergence_order(hs, rs) >= 1.9


def _base_grid(size, origin=-0.4):
    """4D base grid on a unit box (the contraction field never reads the values)."""
    h = 1.0 / (size - 1)
    return GridField(values=np.zeros((size,) * 4), step=(h,) * 4,
                     origin=(origin,) * 4, boundary="absorbing")


@pytest.mark.parametrize("potential", [smooth_lorentz_potential(),
                                       _random_polynomial_potential(4)],
                         ids=["lorentz", "gauge_none"])
def test_contraction_field_matches_point_christoffels(potential):
    # contracted formula h^{CD} v_D against the full FD Christoffel table
    grid = _base_grid(9)
    field = _stacked(_contraction_planes(grid, potential), 9, axis=1)
    h = grid.step[0]
    for idx in itertools.product((1, 4, 7), repeat=4):
        point = [grid.coords(ax)[i] for ax, i in enumerate(idx)]
        patch = build_metric(potential, Q_C2, point, mode="fd", fd_step=h)
        want = np.einsum("ab,cab->c", patch.h_inv, patch.gamma)
        assert np.max(np.abs(field[(slice(None),) + idx] - want)) <= 1e-12


def _contraction_plane_stacked(field, n_planes, r):
    """The Christoffel plane with the 15 entries of h stacked and each
    direction's derivative of all of them taken by one stencil call, the
    sums as in ``_christoffel_contraction_field`` (test reference)."""
    h_of = [np.stack([geometry._metric_entry(n_planes[i], k) for k in range(15)])
            for i in range(len(n_planes))]
    h_inv = geometry._inverse_entries(n_planes[r])
    entry = geometry._ENTRY
    v = np.zeros((5,) + h_of[r].shape[1:])
    term, tmp = np.empty_like(v[0]), np.empty_like(v[0])
    for rho in range(4):
        dh = (numerics.fd_plane(h_of, r, 1, field.step[0]) if rho == 0
              else fd_derivative(h_of[r], rho, 1, field.step[rho]))
        for d in range(5):
            v[d] += geometry._sum_of_products(
                h_inv, dh, [(entry[rho, b], entry[d, b]) for b in range(5)], term, tmp)
        v[rho] -= 0.5 * geometry._sum_of_products(
            h_inv, dh, [(k, k) for k in entry.ravel()], term, tmp)
    out = np.empty_like(v)
    for c in range(5):
        geometry._sum_of_products(h_inv, v, [(entry[c, d], d) for d in range(5)], out[c], tmp)
    return out


@pytest.mark.parametrize("potential", [smooth_lorentz_potential(),
                                       _random_polynomial_potential(4)],
                         ids=["lorentz", "gauge_none"])
def test_contraction_field_is_the_stacked_derivative_bitwise(potential):
    # each entry of h formed where its derivative is taken, the unread
    # entries and the constant h_55 not differentiated: every plane, the two
    # ends included, has the bits of the stacked derivative's contraction
    grid = _base_grid(9)
    n_planes = _PotentialPlanes(grid, potential, -Q_C2)
    for r in range(9):
        got = _christoffel_contraction_field(grid, n_planes, r)
        assert np.array_equal(got, _contraction_plane_stacked(grid, n_planes, r))


def test_contraction_field_gamma5_is_minus_divergence():
    # off Lorentz gauge h^{AB} Gamma^5_{AB} -> -(d_mu N^mu): pins the sign
    A = _random_polynomial_potential(4)
    hs, errs = [], []
    for size in NESTED_SIZES:
        grid = _base_grid(size)
        coords = np.meshgrid(*[grid.coords(ax) for ax in range(4)], indexing="ij", sparse=True)
        div_n = -Q_C2 * A.divergence(coords)
        stride = (size - 1) // (NESTED_SIZES[0] - 1)
        probe = (slice(stride, 5 * stride + 1, stride),) * 4
        gamma5 = _stacked(_contraction_planes(grid, A), size, axis=1)[4]
        hs.append(grid.step[0])
        errs.append(float(np.max(np.abs(gamma5 + div_n)[probe])))
    assert np.max(np.abs(div_n)) > 0.1
    assert fit_convergence_order(hs, errs) >= 1.9


def test_laplacian_defect_peak_memory():
    # no (5, 5, 5) Christoffel table is held over the base grid
    field = _test_field_5d(13)
    A = smooth_lorentz_potential()
    tracemalloc.start()
    try:
        _stacked(_laplacian_planes(field, A), 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * 8 * 13**4


def test_christoffel_plane_peak_memory():
    # the Christoffel phase runs one x^0 plane at a time from a window of
    # three planes of N_mu, each entry of h formed where its derivative is
    # taken: 41.3 base planes of n^3 doubles and the one-sided stencils' edge
    # arrays, where the plane's 15 entries of h held beside their derivative
    # took 56, a window of three planes' 15 metric entries 87, a 3-plane slab
    # 261 and one plane of it, widened to a haloed slab, 202
    field = _test_field_5d(21)
    A = smooth_lorentz_potential()
    bound = 48 * 8 * 21**3
    for plane in [0, 9, 20]:
        tracemalloc.start()
        try:
            _christoffel_contraction_field(field, _PotentialPlanes(field, A, -Q_C2), plane)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, plane
    metric = _PotentialPlanes(field, A, -Q_C2)
    tracemalloc.start()
    try:
        for r in range(21):
            _christoffel_contraction_field(field, metric, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_laplacian_ladder_holds_no_base_array():
    # the 21^5 ladder, its fields' base planes formed as they are read and
    # each entry of h where its derivative is taken: 42.2 planes of n^3
    # doubles at its peak, where the field's n^4 base and the plane's 15
    # entries of h took it to 78
    tracemalloc.start()
    try:
        geometry._laplacian_ladder(_laplacian_sizes((17, 21)), smooth_lorentz_potential())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 8 * 21**3, f"{peak / (8 * 21**3):.1f} planes"


@pytest.mark.parametrize("size", [5, 9, 21])
def test_field_base_planes_are_the_meshgrid_product(size):
    # plane i of the test field's base, formed from its four factors, has
    # the bits of plane i of the sparse-meshgrid product
    field = _test_field_5d(size)
    x = field.coords(0)
    x0, x1, x2, x3 = np.meshgrid(x, x, x, x, indexing="ij", sparse=True)
    want = (np.sin(1.3 * x0 + 0.2) * np.cos(0.9 * x1 - 0.4) * np.sin(1.1 * x2)
            * np.cos(0.7 * x3 + 0.1))
    (g,) = field.bases
    assert field.shape == (size,) * 5 and np.shape(g) == (size,) * 4
    for i in range(size):
        assert np.array_equal(g[i], want[i])


def test_product_base_refuses_a_plane_that_is_not_finite():
    # each plane is checked where it is formed: plane 2, whose x^0 factor is
    # NaN, refuses, and its neighbours are formed
    f0 = np.ones(7)
    f0[2] = np.nan
    g = geometry.ProductBase(f0, np.full(7, 3.0), np.ones(7), np.ones(7))
    field = SeparatedField(bases=(g,), profiles=np.ones((1, 7)), step=(0.1,) * 5)
    assert field.shape == (7,) * 5
    assert np.all(g[1] == 3.0) and np.all(g[3] == 3.0)
    with pytest.raises(ConfigurationError, match="finite"):
        g[2]
    with pytest.raises(ConfigurationError):
        covariant_laplacian_residual(field, zero_potential(), Q_C2)


def test_lorentz_guard_peak_memory():
    # the gauge guard samples one x^0 plane at a time: the divergence's
    # derivative table (16 planes of n^3 doubles) and a few beside it, where
    # 3-plane slabs took 75 planes
    field = _test_field_5d(21)
    tracemalloc.start()
    try:
        geometry._lorentz_guard(field, smooth_lorentz_potential())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 8 * 21**3


def _terms(field, *terms):
    """``field``'s grid with the given (``ProductBase``, x^5 profile) terms."""
    bases, profiles = zip(*terms)
    return dataclasses.replace(field, bases=bases, profiles=np.stack(profiles))


def _factors(g):
    """The four 1-D factors of a ``ProductBase``."""
    return [np.ravel(f) for f in g._factors]


def test_laplacian_residual_linearity():
    # g = f rolled by 2 along x^1, plus 0.3: the roll acts on the base's x^1
    # factor, the constant is a term of its own, a product of constants
    A = smooth_lorentz_potential()
    f = _test_field_5d(9)
    (f0, f1, f2, f3), profile = _factors(f.bases[0]), f.profiles[0]
    ones = np.ones_like(profile)

    def constant(c):
        return geometry.ProductBase(np.full_like(f0, c), ones, ones, ones)

    rolled = geometry.ProductBase(f0, np.roll(f1, 2), f2, f3)
    g = _terms(f, (rolled, profile), (constant(0.3), ones))
    ra = covariant_laplacian_residual(f, A, Q_C2)
    rb = covariant_laplacian_residual(g, A, Q_C2)
    combo = _terms(f, (geometry.ProductBase(2.0 * f0, f1, f2, f3), profile),
                   (geometry.ProductBase(0.5 * f0, np.roll(f1, 2), f2, f3), profile),
                   (constant(0.15), ones))
    rc = covariant_laplacian_residual(combo, A, Q_C2)
    assert rc <= 2.0 * ra + 0.5 * rb + 1e-12


def test_laplacian_gauge_guard():
    f = _test_field_5d(7)
    bad = _random_polynomial_potential(2)  # declares gauge='none'
    with pytest.raises(GaugeError):
        covariant_laplacian_residual(f, bad, Q_C2)


_ONES = geometry.ProductBase(*[np.ones(5)] * 4)


@pytest.mark.parametrize("bases, profiles, step", [
    (np.zeros((1, 5, 5, 5)), np.zeros((1, 5)), (0.1,) * 5),
    ((_ONES, _ONES), np.zeros((1, 5)), (0.1,) * 5),
    ((), np.zeros((0, 5)), (0.1,) * 5),
    ((_ONES,), np.zeros((1, 5)), (0.1,) * 4),
    ((_ONES,), np.zeros((1, 5)), (0.1, 0.1, 0.1, 0.1, 0.0)),
    ((_ONES,), np.full((1, 5), np.nan), (0.1,) * 5),
    ((_ONES,), np.zeros((2, 5)), (0.1,) * 5),
    ((np.zeros((5, 5, 5, 5)),), np.zeros((1, 5)), (0.1,) * 5),
    (np.zeros((1, 5, 5, 5, 5)), np.zeros((1, 5)), (0.1,) * 5),
    ((_ONES, geometry.ProductBase(*[np.ones(6)] * 4)), np.zeros((2, 5)), (0.1,) * 5),
], ids=["3d-base", "term-counts-differ", "no-term", "four-steps", "zero-step", "nan",
        "product-base-term-counts-differ", "no-product-base", "array-base", "shapes-differ"])
def test_separated_field_refuses_bad_grids(bases, profiles, step):
    with pytest.raises(ConfigurationError):
        SeparatedField(bases=bases, profiles=profiles, step=step)


def _edge_plane_off_gauge() -> Potential:
    """smooth_lorentz_potential plus A_0 = 1e-3 max(x0 - 0.95, 0), declared
    Lorentz: on [0, 1] grids its divergence, -1e-3, is non-zero on the last
    x^0 plane alone."""
    base = smooth_lorentz_potential()

    def f(x0, x1, x2, x3):
        a0, a1, a2, a3 = base.func(x0, x1, x2, x3)
        return a0 + 1e-3 * np.maximum(x0 - 0.95, 0.0), a1, a2, a3

    def df(x0, x1, x2, x3):
        rows = base.dfunc(x0, x1, x2, x3)
        rows[0][0] = rows[0][0] + 1e-3 * (x0 > 0.95)
        return rows

    return Potential(func=f, dfunc=df, gauge="lorentz")


@pytest.mark.parametrize("potential, off_planes", [
    (lambda: dataclasses.replace(_random_polynomial_potential(4), gauge="lorentz"), range(7)),
    (_edge_plane_off_gauge, [6]),
], ids=["off_gauge", "last_plane"])
def test_laplacian_numerical_gauge_guard(potential, off_planes):
    # declared Lorentz, divergence above the tolerance: O(1) on every plane,
    # or only on the plane n - 1 that the margin-2 defect walk never builds
    A = potential()
    f = _test_field_5d(7)
    div = np.broadcast_to(A.divergence(_grid_coords(f)), (7,) * 4)
    assert [r for r in range(7) if np.max(np.abs(div[r])) > 1e-6] == list(off_planes)
    with pytest.raises(GaugeError, match="numerically"):
        covariant_laplacian_residual(f, A, Q_C2)


def test_potential_without_dfunc_refuses_derivatives():
    A = Potential(func=smooth_lorentz_potential().func, gauge="lorentz")
    coords = (0.1, 0.2, 0.3, 0.4)
    for call in (A.derivative_table, A.divergence):
        with pytest.raises(DomainError):
            call(coords)
    with pytest.raises(DomainError):
        covariant_laplacian_residual(_test_field_5d(7), A, Q_C2)


def test_laplacian_needs_5d():
    with pytest.raises(DomainError):
        covariant_laplacian_residual(
            GridField(values=np.zeros((8, 8)), step=(0.1, 0.1)),
            zero_potential(), Q_C2)


# ---------------------------------------------------------------------------
# Fourier-reduced operator
# ---------------------------------------------------------------------------

def _plane_wave_4d(n, kvec, h):
    axes = [h * np.arange(n) for _ in range(4)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    phase = sum(k * xi for k, xi in zip(kvec, x))
    return GridField(values=np.exp(1j * phase), step=(h,) * 4, boundary="periodic")


def test_kg_operator_free_plane_wave_dispersion():
    # on-shell: eta^{mu nu} p_mu p_nu + 1/lambda^2 = 0 -> operator annihilates
    n, box = 32, 2.0 * math.pi
    h = box / n
    k = 2.0 * math.pi / box
    p = (3.0 * k, 2.0 * k, 2.0 * k, 1.0 * k)  # p0^2 = 9, |p|^2 = 9 -> inv_lambda = 0
    psi = _plane_wave_4d(n, p, h)
    out = kg_operator(psi, zero_potential(), Q_C2, inv_lambda=0.0)
    assert np.max(np.abs(out)) < 1e-10


def test_kg_operator_off_shell_multiplicative():
    n, box = 32, 2.0 * math.pi
    h = box / n
    k = 2.0 * math.pi / box
    p = (2.0 * k, 1.0 * k, 0.0, 0.0)
    inv_lambda = 0.7
    psi = _plane_wave_4d(n, p, h)
    out = kg_operator(psi, zero_potential(), Q_C2, inv_lambda=inv_lambda)
    expect = abs(-p[0] ** 2 + p[1] ** 2 + inv_lambda**2)
    np.testing.assert_allclose(np.abs(out), expect, rtol=1e-9)


def test_kg_operator_absorbing_field_is_fd_bitwise():
    # on an absorbing field every derivative, the sampled potential's
    # divergence included, is fd_derivative's: the operator assembled from
    # them term by term has the same bits
    A = smooth_lorentz_potential()
    n, h, inv_lambda = 8, 0.1, 0.7
    b = Q_C2 * inv_lambda
    axes = [h * np.arange(n) for _ in range(4)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    values = np.sin(1.1 * x[0]) * np.cos(0.9 * x[1]) * np.exp(0.3j * (x[2] - x[3]))
    psi = GridField(values=values, step=(h,) * 4, boundary="absorbing")
    a = np.broadcast_to(A.components(_grid_coords(psi)), (4,) + values.shape)
    div = sum(_ETA_DIAG[mu] * fd_derivative(a[mu], mu, 1, h) for mu in range(4))
    want = np.zeros(values.shape, dtype=complex)
    a2 = np.zeros(values.shape)
    for mu in range(4):
        d2, d1 = fd_derivative(values, mu, 2, h), fd_derivative(values, mu, 1, h)
        want += _ETA_DIAG[mu] * (d2 - 2j * b * a[mu] * d1)
        a2 = a2 + _ETA_DIAG[mu] * a[mu] ** 2
    want += (-1j * b * div - b * b * a2 - inv_lambda**2) * values
    assert kg_operator(psi, A, Q_C2, inv_lambda).tobytes() == want.tobytes()


def test_kg_fourier_residual_crossed_potential():
    # component-wise x_mu-independent potential: discrete divergence is zero
    # exactly, so the identity defect is pure rounding
    A = smooth_lorentz_potential()
    n = 12
    h = 1.0 / (n - 1)
    axes = [h * np.arange(n) for _ in range(4)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    psi = GridField(values=np.sin(1.1 * x[0]) * np.cos(0.9 * x[1]) * np.sin(x[2] + 0.2)
                    * np.cos(0.6 * x[3]) + 0j, step=(h,) * 4, boundary="absorbing")
    assert kg_fourier_residual(psi, A, Q_C2, inv_lambda=1.3) < 1e-10


def test_kg_fourier_residual_coulomb():
    # static Coulomb potential: time-independence makes the discrete
    # divergence vanish identically as well
    A = coulomb_potential(1.0, softening=0.4)
    object.__setattr__(A, "gauge", "lorentz")  # static: both gauges hold
    n = 10
    h = 1.0 / (n - 1)
    axes = [0.3 + h * np.arange(n) for _ in range(4)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    psi = GridField(values=np.exp(-(x[1] + x[2] + x[3])) * np.cos(x[0]) + 0j,
                    step=(h,) * 4, boundary="absorbing")
    assert kg_fourier_residual(psi, A, Q_C2, inv_lambda=1.0) < 1e-10


def test_kg_fourier_residual_is_divergence_term():
    # A_0 = 0.5 x0 declared Lorentz: the FD divergence is exactly -0.5, so the
    # residual is 2 b * 0.5 * max|psi| over the interior
    def f(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        return 0.5 * x0 + z, z, z, z

    A = Potential(func=f, gauge="lorentz")
    n, inv_lambda = 9, 1.3
    h = 1.0 / (n - 1)
    axes = [h * np.arange(n) for _ in range(4)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    psi = GridField(values=np.cos(x[0]) * np.exp(x[1] - x[2]) * (1.0 + x[3]) + 0j,
                    step=(h,) * 4, boundary="absorbing")
    inner = np.abs(psi.values[(slice(2, -2),) * 4])
    expect = 2.0 * Q_C2 * inv_lambda * 0.5 * float(np.max(inner))
    assert kg_fourier_residual(psi, A, Q_C2, inv_lambda) == pytest.approx(expect, rel=1e-12)


def test_kg_fourier_residual_needs_4d():
    psi = GridField(values=np.zeros((9, 9, 9)) + 0j, step=(0.1,) * 3)
    with pytest.raises(DomainError):
        kg_fourier_residual(psi, smooth_lorentz_potential(), Q_C2, inv_lambda=1.0)


def test_kg_fourier_requires_lorentz():
    A = coulomb_potential(1.0, softening=0.3)  # declares 'coulomb'
    psi = GridField(values=np.zeros((8, 8, 8, 8)) + 0j, step=(0.1,) * 4)
    with pytest.raises(GaugeError):
        kg_fourier_residual(psi, A, Q_C2, inv_lambda=1.0)


# ---------------------------------------------------------------------------
# Light-cone expansion
# ---------------------------------------------------------------------------

def _field_5d(size):
    h = 1.0 / (size - 1)
    axis = h * np.arange(size)
    base = geometry.ProductBase(np.sin(1.2 * axis + 0.1), np.cos(0.8 * axis),
                                np.sin(axis - 0.2), np.cos(0.9 * axis))
    return SeparatedField(bases=(base,), profiles=(1.0 + 0.4 * np.sin(1.3 * axis))[None],
                          step=(h,) * 5)


def test_lightcone_flat_second_order():
    A = zero_potential()
    object.__setattr__(A, "gauge", "coulomb")  # zero satisfies either gauge
    hs, rs = _nested_orders(lambda f: _lightcone_planes(f, A), _field_5d)
    assert rs[0] > rs[1] > rs[2]
    assert fit_convergence_order(hs, rs) >= 1.9


def test_lightcone_constant_a0():
    def f(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        return 0.8 + z, z, z, z

    A = Potential(func=f, gauge="coulomb")
    hs, rs = _nested_orders(lambda f: _lightcone_planes(f, A), _field_5d)
    assert fit_convergence_order(hs, rs) >= 1.9


def test_lightcone_smooth_coulomb_gauge_converges():
    # A with d_j A^j = 0: transverse-wave style components
    def f(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        a0 = 0.5 * np.sin(x1 + x2) + z
        a1 = 0.6 * np.sin(x2 - 0.3 * x0) + z
        a2 = 0.4 * np.cos(x3) + z
        a3 = 0.7 * np.sin(x1) + z
        return a0, a1, a2, a3

    A = Potential(func=f, gauge="coulomb")
    hs, rs = _nested_orders(lambda f: _lightcone_planes(f, A), _field_5d)
    assert fit_convergence_order(hs, rs) >= 1.9


def test_lightcone_gauge_flag_mismatch():
    A = smooth_lorentz_potential()
    with pytest.raises(GaugeError):
        lightcone_em_expansion_residual(_field_5d(7), A, Q_C2, gauge="coulomb")


# ---------------------------------------------------------------------------
# x^0 plane walks against the whole-grid evaluation
# ---------------------------------------------------------------------------

def _whole_grid_contraction(field, A, q_over_c2):
    """Reference: h^{AB} Gamma^C_{AB} with the metric on the whole base grid."""
    coords = _grid_coords(field)
    base = np.broadcast(*coords).shape
    h, h_inv = _metric_pair(-q_over_c2 * np.broadcast_to(A.components(coords), (4,) + base))
    v = np.zeros((5,) + base)
    for rho in range(4):
        dh = fd_derivative(h, 2 + rho, 1, field.step[rho])
        v += np.einsum("b...,db...->d...", h_inv[rho], dh)
        v[rho] -= 0.5 * np.einsum("ab...,ab...->...", h_inv, dh)
    return np.einsum("cd...,d...->c...", h_inv, v)


def _outer_sum(pairs):
    """|sum_q C_q (x) q| as the plain expression, x^5 last."""
    return np.abs(sum(c[..., None] * q for c, q in pairs))


def _whole_grid_laplacian_coefficients(field, A, q_over_c2):
    """Reference: the d_C coefficients of the Laplacian defect on the whole
    base grid, h^{AB} Gamma^C_{AB} plus d_mu N^mu in the d_5 row."""
    coef = _whole_grid_contraction(field, A, q_over_c2)
    coef[4] += -q_over_c2 * np.asarray(A.divergence(_grid_coords(field)))
    return coef


def _whole_grid_laplacian_defect(field, A, q_over_c2):
    """Reference: the separated Laplacian defect with every array on the
    whole grid."""
    coef = _whole_grid_laplacian_coefficients(field, A, q_over_c2)
    h = field.step
    pairs = []
    for g, p in zip(map(_base_array, field.bases), field.profiles):
        d = [coef[mu] * fd_derivative(g, mu, 1, h[mu]) for mu in range(4)]
        pairs += [(d[0] + d[1] + d[2] + d[3], p), (coef[4] * g, fd_derivative(p, 0, 1, h[4]))]
    return _outer_sum(pairs)


def _whole_grid_lightcone_defect(field, A, q_over_c2):
    """Reference: the separated light-cone defect as the plain expression,
    every FD pass on the whole grid."""
    coords = _grid_coords(field)
    base = np.broadcast(*coords).shape
    a = np.ascontiguousarray(np.broadcast_to(q_over_c2 * A.components(coords), (4,) + base))
    h = field.step

    def d(values, ax, order=1):
        return fd_derivative(values, ax, order, h[ax])

    def d5(p, order=1):
        return fd_derivative(p, 0, order, h[4])

    div = -d(a[0], 0) + d(a[1], 1) + d(a[2], 2) + d(a[3], 3)
    a2 = -a[0] ** 2 + a[1] ** 2 + a[2] ** 2 + a[3] ** 2
    pairs = []
    for g, p in zip(map(_base_array, field.bases), field.profiles):
        c_p = d(g, 0, 2) - d(d(g, 0), 0)
        c_1 = d(a[0] * g, 0) - a[0] * d(g, 0) + div * g
        for j in range(1, 4):
            c_p = c_p + d(d(g, j), j) - d(g, j, 2)
            c_1 = c_1 + a[j] * d(g, j) - d(a[j] * g, j)
        pairs += [(c_p, p), (c_1, d5(p)), (a2 * g, d5(d5(p)) - d5(p, 2))]
    return _outer_sum(pairs)


def _dense(field):
    """The field's n^5 values as a GridField (test oracles only)."""
    values = sum(_base_array(g)[..., None] * p for g, p in zip(field.bases, field.profiles))
    return GridField(values=values, step=field.step)


def _dense_laplacian_defect(field, A, q_over_c2):
    """Oracle: the Laplacian defect from 5D finite differences of the dense
    values of ``field``, as a ``GridField``."""
    coef = _whole_grid_laplacian_coefficients(field, A, q_over_c2)
    f = field.values
    defect = np.zeros(f.shape, dtype=np.result_type(f.dtype, float))
    for cc in range(5):
        defect -= coef[cc][..., None] * fd_derivative(f, cc, 1, field.step[cc])
    return np.abs(defect)


def _dense_lightcone_defect(field, A, q_over_c2):
    """Oracle: the light-cone defect as the composed operator less its
    expansion, every FD pass on the dense 5D values of ``field``, as a
    ``GridField``, and repeated where the expression repeats it."""
    coords = _grid_coords(field)
    base = np.broadcast(*coords).shape
    a = np.ascontiguousarray(np.broadcast_to(q_over_c2 * A.components(coords), (4,) + base))
    f = field.values
    h = field.step

    def up(x):
        return np.asarray(x)[..., None]

    def d(values, ax, order=1):
        return fd_derivative(values, ax, order, h[ax])

    g0 = d(f, 0) - up(a[0]) * d(f, 4)
    lhs = -(d(g0, 0) - up(a[0]) * d(g0, 4)) + d(f, 4, 2)
    for j in range(1, 4):
        gj = d(f, j) - up(a[j]) * d(f, 4)
        lhs = lhs + d(gj, j) - up(a[j]) * d(gj, 4)
    d5 = d(f, 4)
    d55 = d(f, 4, 2)
    rhs = (d55 - d(f, 0, 2)) + 2.0 * up(a[0]) * d(d(f, 0), 4) - up(a[0] ** 2) * d55
    div = np.zeros(base)
    for j in range(1, 4):
        rhs = rhs + d(f, j, 2) - 2.0 * up(a[j]) * d(d(f, j), 4) + up(a[j] ** 2) * d55
    for mu in range(4):
        div = div + _ETA_DIAG[mu] * fd_derivative(a[mu], mu, 1, h[mu])
    rhs = rhs - up(div) * d5
    return np.abs(lhs - rhs)


_STREAM_POTENTIALS = {
    "smooth_lorentz": smooth_lorentz_potential,
    "zero": zero_potential,
    "pure_gauge": _pure_gauge_potential,
}


def _index_sets(size):
    """A strided probe skipping planes, the margin-2 interior, the full grid."""
    return [(slice(2, size - 2, 2),) * 5, (slice(2, -2),) * 5, (slice(None),) * 5]


@pytest.mark.parametrize("potential", sorted(_STREAM_POTENTIALS))
@pytest.mark.parametrize("size", [7, 9, 11])
def test_laplacian_slabs_match_whole_grid(size, potential):
    # 7, 9 and 11 x^0 planes, walked one plane at a time through one metric
    # window: the two end planes take the one-sided stencils, and a plane
    # computed on its own, with a window of its own, gets the same bits
    A = _STREAM_POTENTIALS[potential]()
    field = _test_field_5d(size)
    defect = _whole_grid_laplacian_defect(field, A, Q_C2)
    sets = _index_sets(size)
    got = _laplacian_defect_maxima(field, A, Q_C2, sets)
    assert got == [float(np.max(defect[index])) for index in sets]
    assert np.array_equal(_stacked(_laplacian_planes(field, A), size), defect)
    coef = _whole_grid_contraction(field, A, Q_C2)
    assert np.array_equal(_stacked(_contraction_planes(field, A), size, axis=1), coef)
    for r in range(size):
        assert np.array_equal(_contraction_planes(field, A)(r), coef[:, r])


@pytest.mark.parametrize("size", [7, 11])
def test_laplacian_builds_each_metric_plane_once(monkeypatch, size):
    # the potential is sampled one plane a call: the gauge guard on all n0
    # planes, the margin-2 defect walk, whose metric entries are all formed
    # from its planes of N, on the n0 - 2 planes 1..n0 - 2 that the stencils
    # of its kept planes 2..n0 - 3 read; rebuilding a halo around every kept
    # plane would sample about 3 n0 in the walk
    planes = []
    components = Potential.components

    def counted(self, coords):
        planes.append(np.shape(coords[0])[0])
        return components(self, coords)

    monkeypatch.setattr(Potential, "components", counted)
    field, A = _test_field_5d(size), smooth_lorentz_potential()
    geometry._lorentz_guard(field, A)
    assert planes == [1] * size
    covariant_laplacian_residual(field, A, Q_C2)
    assert planes == [1] * (3 * size - 2)


def _kg_psi(size, origin=0.0):
    h = 1.0 / (size - 1)
    x = np.meshgrid(*[origin + h * np.arange(size)] * 4, indexing="ij", sparse=True)
    return GridField(values=np.sin(1.2 * x[0]) * np.cos(0.8 * x[1]) * np.sin(x[2] + 0.3)
                     * np.cos(x[3]) + 0.5j * np.cos(x[1] - x[0]), step=(h,) * 4,
                     origin=(origin,) * 4, boundary="absorbing")


def _whole_grid_kg_fourier(psi, A, q_over_c2, inv_lambda, margin):
    """Reference: the finite-difference Fourier residual with the potential
    and its divergence on the whole grid."""
    coords = _grid_coords(psi)
    shape = np.broadcast(*coords).shape
    a = np.ascontiguousarray(np.broadcast_to(A.components(coords), (4,) + shape))
    div = np.zeros(shape)
    for mu in range(4):
        div += _ETA_DIAG[mu] * fd_derivative(a[mu], mu, 1, psi.step[mu])
    diff = np.abs(2.0 * q_over_c2 * inv_lambda * div * psi.values)
    return float(np.max(diff[(slice(margin, -margin),) * 4]))


# the streamed potentials, and one declared Lorentz whose discrete
# divergence is far from zero, so the maxima compared are O(1)
_FOURIER_POTENTIALS = dict(
    _STREAM_POTENTIALS,
    off_gauge=lambda: dataclasses.replace(_random_polynomial_potential(4), gauge="lorentz"))


@pytest.mark.parametrize("margin", [2, 3])
@pytest.mark.parametrize("potential", sorted(_FOURIER_POTENTIALS))
@pytest.mark.parametrize("size", [7, 9, 13])
def test_kg_fourier_planes_match_whole_grid(size, potential, margin):
    # one x^0 plane at a time, d_0 A_0 from the sampled planes: the same bits
    A = _FOURIER_POTENTIALS[potential]()
    for psi in (_kg_psi(size), _kg_psi(size, origin=0.3)):
        want = _whole_grid_kg_fourier(psi, A, Q_C2, 1.3, margin)
        assert kg_fourier_residual(psi, A, Q_C2, 1.3, margin=margin) == want
        assert want > 0.1 or potential != "off_gauge"


def test_kg_fourier_residual_peak_memory():
    # the fd check holds a few planes of n^3 values beside the field, under
    # 16 bytes a point of the 17^4 grid; whole-grid arrays took about 65
    psi = _kg_psi(17)
    tracemalloc.start()
    try:
        kg_fourier_residual(psi, smooth_lorentz_potential(), Q_C2, inv_lambda=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 17**4


def test_kg_fourier_residual_refuses_non_finite_potential():
    # a NaN sample on the plane x^1 = 0.5 of a 9^4 grid
    def f(x0, x1, x2, x3):
        z = np.zeros(np.broadcast(x0, x1, x2, x3).shape)
        return np.where(x1 == 0.5, np.nan, 0.0) + z, z, z, z

    with pytest.raises(ConfigurationError):
        kg_fourier_residual(_kg_psi(9), Potential(func=f, gauge="lorentz"), Q_C2, 1.0)


def test_kg_fourier_residual_refuses_empty_interior():
    with pytest.raises(DomainError):
        kg_fourier_residual(_kg_psi(7), smooth_lorentz_potential(), Q_C2, 1.0, margin=4)


@pytest.mark.parametrize("potential", sorted(_STREAM_POTENTIALS))
@pytest.mark.parametrize("size", [7, 9, 11])
def test_lightcone_slabs_match_whole_grid(size, potential):
    # one window of a walked in order, and a plane computed on its own with
    # a window of its own: the bits of the whole-grid evaluation
    A = _STREAM_POTENTIALS[potential]()
    field = _field_5d(size)
    defect = _whole_grid_lightcone_defect(field, A, Q_C2)
    sets = _index_sets(size)
    got = _defect_maxima(_lightcone_planes(field, A), size, sets)
    assert got == [float(np.max(defect[index])) for index in sets]
    assert np.array_equal(_stacked(_lightcone_planes(field, A), size), defect)
    for r in range(size):
        assert np.array_equal(_lightcone_planes(field, A)(r), defect[r])
    assert got[1] == lightcone_em_expansion_residual(field, A, Q_C2, gauge="lorentz")


def test_laplacian_residual_streams():
    # no 5D array of the whole grid is formed: the peak stays within the
    # bytes of two dense 21^5 fields (a whole-grid defect beside a dense
    # field took 6.1 dense fields)
    field = _test_field_5d(21)
    A = smooth_lorentz_potential()
    tracemalloc.start()
    try:
        covariant_laplacian_residual(field, A, Q_C2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 21**5


def test_laplacian_maxima_read_each_plane_through_a_view():
    # from n = 33 the plane's 5D combination sets the ladder's peak: the
    # maxima read it through a view, 55.6 planes of n^3 doubles beside the
    # field, where a copy of its interior took 64.9
    field = _test_field_5d(33)
    tracemalloc.start()
    try:
        covariant_laplacian_residual(field, smooth_lorentz_potential(), Q_C2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 8 * 33**3, f"{peak / (8 * 33**3):.1f} planes"


def test_lightcone_residual_walks_one_plane():
    # one plane's combination (n planes) beside a window of three planes of
    # a and a few planes of coefficients: 43.8 planes of n^3 doubles beside
    # the field, where 3-plane slabs with two halo planes a side took 131
    field = _test_field_5d(21)
    tracemalloc.start()
    try:
        lightcone_em_expansion_residual(field, smooth_lorentz_potential(), Q_C2, gauge="lorentz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 8 * 21**3, f"{peak / (8 * 21**3):.1f} planes"


def _two_terms(field):
    """``field`` plus a second smooth term with its own base and x^5 profile."""
    x = [field.coords(ax) for ax in range(4)]
    base = geometry.ProductBase(np.cos(0.6 * x[0] - 0.3), np.sin(0.8 * x[1] + 0.5),
                                np.cos(1.2 * x[2]), np.sin(0.5 * x[3] + 0.7))
    return _terms(field, (field.bases[0], field.profiles[0]),
                  (base, np.cos(2.1 * field.coords(4) - 0.3)))


@pytest.mark.parametrize("terms", [1, 2])
@pytest.mark.parametrize("potential", sorted(_STREAM_POTENTIALS))
@pytest.mark.parametrize("size", [7, 9, 11])
def test_separated_laplacian_matches_dense_5d(size, potential, terms):
    # the separated defect against 5D finite differences of the dense values
    A = _STREAM_POTENTIALS[potential]()
    field = _test_field_5d(size)
    if terms == 2:
        field = _two_terms(field)
    got = _stacked(_laplacian_planes(field, A), size)
    want = _dense_laplacian_defect(_dense(field), A, Q_C2)
    for index in _index_sets(size):
        assert float(np.max(got[index])) == pytest.approx(
            float(np.max(want[index])), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("terms", [1, 2])
@pytest.mark.parametrize("potential", sorted(_STREAM_POTENTIALS))
@pytest.mark.parametrize("size", [7, 9, 11])
def test_separated_lightcone_matches_dense_5d(size, potential, terms):
    # The light-cone defect is the O(h^2) remainder of second-difference
    # terms of size max|f|/h^2, about 1e7 times its maxima, so the dense
    # evaluation rounds at up to 9e-10 of them (the separated one is 10-100x
    # closer to an 80-bit evaluation); 1e-8 sits just above that noise.
    # Dropping the div g term alone moves the pure-gauge maxima by 1e-4.
    A = _STREAM_POTENTIALS[potential]()
    field = _field_5d(size)
    if terms == 2:
        field = _two_terms(field)
    got = _stacked(_lightcone_planes(field, A), size)
    want = _dense_lightcone_defect(_dense(field), A, Q_C2)
    for index in _index_sets(size):
        assert float(np.max(got[index])) == pytest.approx(
            float(np.max(want[index])), rel=1e-8, abs=0.0)


def test_defect_maxima_builds_only_kept_planes():
    # a strided set and a narrow one on 11 planes: only the sorted union of
    # their planes is built, and an empty set refuses before any plane
    built = []

    def defect(r):
        built.append(r)
        return np.full((3, 3), float(r))

    sets = [(slice(2, 9, 3), slice(None)), (slice(4, 6), slice(1, 2))]
    assert _defect_maxima(defect, 11, sets) == [8.0, 5.0]
    assert built == [2, 4, 5, 8]
    built.clear()
    with pytest.raises(DomainError):
        _defect_maxima(defect, 11, [(slice(5, 5),)])
    assert built == []


def test_defect_maxima_refuses_empty_index_set():
    field = _test_field_5d(7)
    with pytest.raises(DomainError):
        covariant_laplacian_residual(field, zero_potential(), Q_C2, margin=4)
    with pytest.raises(DomainError):
        lightcone_em_expansion_residual(field, zero_potential(), Q_C2, gauge="lorentz", margin=4)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(9, 13), (17, 21), (21, 25)], ids=["17^5", "21^5", "25^5"])
def test_projected_peak_bounds_tracemalloc_peak(sizes):
    # the closed form that refuses oversized runs must cover the real peak
    # without refusing runs that would fit by more than a factor of two
    tracemalloc.start()
    try:
        verify_geometry(sizes=sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= projected_peak_bytes(sizes) <= 2 * peak


class _Started(Exception):
    """Raised in place of the Laplacian ladder: the memory guard let a run start."""


def _refused(monkeypatch, sizes, space, free) -> bool:
    """Whether verify_geometry(sizes) refuses, given ``space`` bytes per
    process and ``free`` on the host; a run it lets start stops before the
    ladder allocates anything."""
    def start(*args):
        raise _Started

    monkeypatch.setattr(numerics, "_available_bytes", lambda: (space, free))
    monkeypatch.setattr(geometry, "_laplacian_ladder", start)
    try:
        verify_geometry(sizes=sizes)
    except ConfigurationError as exc:
        assert f"{_laplacian_sizes(sizes)[-1]}^5" in str(exc)
        return True
    except _Started:
        return False
    raise AssertionError("verify_geometry returned without running the ladder")


def test_memory_guard_budgets_each_process_and_the_host(monkeypatch):
    # the projection meets both the address space left to the process and
    # the host's MemAvailable
    sizes = (29, 33)
    need = projected_peak_bytes(sizes)
    assert _refused(monkeypatch, sizes, space=need - 1, free=math.inf)
    assert not _refused(monkeypatch, sizes, space=need, free=math.inf)
    assert _refused(monkeypatch, sizes, space=math.inf, free=need - 1)
    assert not _refused(monkeypatch, sizes, space=need, free=need)


@pytest.mark.parametrize("sizes, space, unit", [
    ((29, 33), projected_peak_bytes((29, 33)) - 2**21, "MiB"),
    ((9, 121), 1.5 * 2**30, "GiB"),
], ids=["MiB", "GiB"])
def test_memory_guard_names_sizes_in_mib_below_one_gib(monkeypatch, sizes, space, unit):
    # at (29, 33) the refusal used to read "needs about 0.0 GiB ... more
    # than the 0.0 GiB available"
    need = projected_peak_bytes(sizes)
    monkeypatch.setattr(numerics, "_available_bytes", lambda: (space, math.inf))
    with pytest.raises(ConfigurationError) as info:
        verify_geometry(sizes=sizes)
    scale = 2**20 if unit == "MiB" else 2**30
    assert str(info.value) == (
        f"verify-geometry needs about {need / scale:,.1f} {unit} at its peak"
        f" (finest Laplacian grid {_laplacian_sizes(sizes)[-1]}^5),"
        f" more than the {space / scale:,.1f} {unit} available")
    assert f" 0.0 {unit}" not in str(info.value)


# Imports the geometry module, caps its own address space at what it has
# mapped plus the projection, with no margin, and runs the suite; a refusal
# exits 2, and a MemoryError would end it with a traceback.
_CAPPED_CHILD = """
import resource, sys
from kg5d import geometry, numerics
from kg5d.errors import ConfigurationError
sizes = tuple(int(a) for a in sys.argv[1:])
cap = int(numerics._proc_bytes("/proc/self/status", "VmSize")
          + geometry.projected_peak_bytes(sizes))
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    geometry.verify_geometry(sizes=sizes)
except ConfigurationError:
    sys.exit(2)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize")
@pytest.mark.parametrize("sizes", [(9, 13), (17, 21), (21, 25)], ids=["17^5", "21^5", "25^5"])
def test_projection_as_address_space_cap_never_runs_out(sizes):
    # a run the guard lets start fits in what it projects: capped at its
    # mapped size plus the projection, it finishes or is refused (exit 2),
    # and never stops with a MemoryError
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *map(str, sizes)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 2), proc.stderr
    assert "MemoryError" not in proc.stderr


def test_fourier_check_field_takes_16_bytes_a_point():
    # a first size beyond the Laplacian ladder's top (17 here) sets the peak:
    # the Fourier check's complex field, its real product written into its
    # real parts, and a few planes beside it.  Measured at 19.3 bytes a point
    # of 29^4; a real product with 0j added took 24.3.
    tracemalloc.start()
    try:
        verify_geometry(sizes=(29, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 29**4, f"{peak / 29**4:.2f} bytes a point"


def test_laplacian_ladder_runs_before_the_reduction_module_loads():
    # verify-geometry's ladder, its peak, uses no grid field: the light-cone
    # module is compiled only for the Fourier check after it
    code = ("import sys; from kg5d import geometry; "
            "geometry._laplacian_ladder(geometry._laplacian_sizes((9, 13)),"
            " geometry.smooth_lorentz_potential()); "
            "print('kg5d.reduction' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_verify_geometry_runs_in_one_process(forbid_fork):
    assert verify_geometry(sizes=(9, 13))["passed"]


def test_verify_geometry_passes():
    report = verify_geometry(sizes=(9, 13, 17))
    assert report["passed"]
    assert report["flat_residual"] == 0.0
    assert report["laplacian_order"] >= 1.9
    for key, order in report["contraction_orders"].items():
        assert order >= 1.9, key
