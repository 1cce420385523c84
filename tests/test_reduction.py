"""Light-cone reduction tests: unitary/diffusive evolution, currents,
weak-field residuals, and the exact coordinate/dispersion checks.

Oracles: closed-form free-packet evolution, heat kernels, and plane-wave
dispersion; the spectral evolver itself is validated against those, and the
Crank-Nicolson companion against a sparse-LU solve of the same scheme.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kg5d import reduction
from kg5d.errors import ConfigurationError
from kg5d.numerics import fit_convergence_order
from kg5d.reduction import (
    CurrentField,
    GridField,
    continuity_residual,
    current_and_divergence,
    evolve_fokker_planck,
    evolve_schrodinger,
    field_variance,
    gaussian_packet,
    lightcone_jacobian,
    lightcone_transform,
    null_dispersion_check,
    propagator_composition_check,
    schrodinger_evolver,
    verify_reduction,
    weakfield_dropped_term_ratio,
    weakfield_schrodinger_residual,
)
from kg5d.spectrum import ScaleSet

LHAT, C = 0.7, 1.3


# ---------------------------------------------------------------------------
# GridField plumbing
# ---------------------------------------------------------------------------

def test_gridfield_validation():
    with pytest.raises(ConfigurationError):
        GridField(values=np.zeros(8), step=(0.0,))
    with pytest.raises(ConfigurationError):
        GridField(values=np.zeros(8), step=(0.1, 0.1))
    with pytest.raises(ConfigurationError):
        GridField(values=np.array([1.0, np.inf]), step=(0.1,))
    with pytest.raises(ConfigurationError):
        GridField(values=np.zeros(8), step=(0.1,), boundary="open")
    with pytest.raises(ConfigurationError):
        gaussian_packet(0, 20.0, 1.0)


def test_gridfield_norm_and_coords():
    f = gaussian_packet(256, 40.0, 1.0)
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)  # normalized packet
    assert f.coords(0)[0] == -20.0
    assert f.cell_volume == pytest.approx(40.0 / 256)


# ---------------------------------------------------------------------------
# Schroedinger evolution
# ---------------------------------------------------------------------------

def test_plane_wave_phase_spectral():
    n, box = 128, 20.0
    k = 2.0 * math.pi / box * 9
    x = -0.5 * box + box / n * np.arange(n)
    psi0 = GridField(values=np.exp(1j * k * x), step=(box / n,), origin=(-0.5 * box,))
    tau = 0.83
    *_, last = evolve_schrodinger(psi0, tau, LHAT, 7, c=C)
    omega = C * LHAT * k * k / 2.0
    expected = psi0.values * np.exp(-1j * omega * tau)
    assert np.max(np.abs(last.values - expected)) < 1e-12


def test_constant_field_stationary():
    psi0 = GridField(values=np.full(64, 0.7 + 0.1j), step=(0.25,))
    *_, last = evolve_schrodinger(psi0, 2.0, LHAT, 10, c=C)
    assert np.max(np.abs(last.values - psi0.values)) < 1e-13


def test_gaussian_packet_spread_closed_form():
    # |psi|^2 variance: sigma0^2 + (c lhat tau)^2 / (4 sigma0^2)
    sigma0, box, n = 1.0, 60.0, 1024
    psi0 = gaussian_packet(n, box, sigma0)
    tau = 2.5
    *_, last = evolve_schrodinger(psi0, tau, LHAT, 25, c=C)
    got = field_variance(last)
    want = sigma0**2 + (C * LHAT * tau) ** 2 / (4.0 * sigma0**2)
    assert got == pytest.approx(want, abs=1e-6)


def test_norm_conserved_both_schemes():
    psi0 = gaussian_packet(128, 30.0, 1.2, k0=1.0)
    for method in ("spectral", "cn"):
        norms = [s.l2_norm() for s in evolve_schrodinger(psi0, 1.5, LHAT, 40, c=C, method=method)]
        assert len(norms) == 41
        assert max(abs(v - norms[0]) for v in norms) < 1e-10


def test_cn_converges_at_second_order_in_time():
    # reference: the same spatial operator driven with a very fine step, so
    # only the time error is measured
    psi0 = gaussian_packet(128, 30.0, 1.0)
    tau = 0.8
    *_, ref = evolve_schrodinger(psi0, tau, LHAT, 2560, c=C, method="cn")
    errs, dts = [], []
    for steps in (40, 80, 160):
        *_, got = evolve_schrodinger(psi0, tau, LHAT, steps, c=C, method="cn")
        errs.append(float(np.max(np.abs(got.values - ref.values))))
        dts.append(tau / steps)
    assert fit_convergence_order(dts, errs) >= 1.9


def test_evolve_configuration_errors():
    psi0 = gaussian_packet(64, 20.0, 1.0)
    with pytest.raises(ConfigurationError):
        evolve_schrodinger(psi0, 1.0, LHAT, 0)
    with pytest.raises(ConfigurationError):
        evolve_schrodinger(psi0, -1.0, LHAT, 4)
    bad = GridField(values=psi0.values, step=psi0.step, boundary="absorbing")
    with pytest.raises(ConfigurationError):
        evolve_schrodinger(bad, 1.0, LHAT, 4)
    # Crank-Nicolson is not limited to one axis: Cayley-unitary on 64^2 too
    x = np.linspace(-5.0, 5.0, 64, endpoint=False)
    two_d = GridField(values=np.exp(-x[:, None] ** 2 - 0.5 * x[None, :] ** 2 + 1j * x[:, None]),
                      step=(x[1] - x[0],) * 2, origin=(x[0],) * 2)
    norms = [s.l2_norm() for s in evolve_schrodinger(two_d, 1.0, LHAT, 16, c=C, method="cn")]
    assert max(abs(v - norms[0]) for v in norms) < 1e-12


def _sparse_lu_cn(psi0, span, coeff, steps):
    """Reference: Crank-Nicolson on the 1-D periodic three-point Laplacian,
    each step a sparse LU solve (scipy.sparse)."""
    import scipy.sparse
    import scipy.sparse.linalg

    n, h = psi0.values.size, psi0.step[0]
    lap = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                             [-1, 0, 1], format="lil")
    lap[0, -1] = lap[-1, 0] = 1.0
    lap = scipy.sparse.csc_matrix(lap / h**2)
    eye = scipy.sparse.identity(n, format="csc")
    half = 0.5 * (span / steps) * coeff
    lhs = scipy.sparse.linalg.splu((eye - half * lap).tocsc())
    rhs = (eye + half * lap).tocsc()
    cur = np.asarray(psi0.values, dtype=complex)
    for _ in range(steps):
        cur = lhs.solve(rhs @ cur)
    return cur


@pytest.mark.parametrize("points, steps", [(128, 40), (4096, 256)])
def test_cn_matches_sparse_lu_reference(points, steps):
    psi0 = gaussian_packet(points, 30.0, 1.0, k0=1.0)
    *_, got = evolve_schrodinger(psi0, 0.8, LHAT, steps, c=C, method="cn")
    want = _sparse_lu_cn(psi0, 0.8, 1j * C * LHAT / 2.0, steps)
    assert np.max(np.abs(got.values - want)) < 1e-12


# ---------------------------------------------------------------------------
# Currents and continuity
# ---------------------------------------------------------------------------

def test_current_real_field_has_no_flux():
    x = np.linspace(-10.0, 10.0, 128, endpoint=False)
    psi0 = GridField(values=np.exp(-x * x) + 0.0j, step=(x[1] - x[0],), origin=(x[0],))
    first = next(evolve_schrodinger(psi0, 1e-9, LHAT, 2, c=C))
    current, _ = current_and_divergence(first, C * LHAT, "spectral")
    assert isinstance(current, CurrentField)
    assert np.max(np.abs(current.j_k[0])) < 1e-12


def test_current_plane_wave_values():
    n, box, amp = 64, 16.0, 1.7
    k = 2.0 * math.pi / box * 3
    x = box / n * np.arange(n)
    psi0 = GridField(values=amp * np.exp(1j * k * x), step=(box / n,))
    fields = [current_and_divergence(s, C * LHAT, "spectral")
              for s in evolve_schrodinger(psi0, 0.1, LHAT, 2, c=C)]
    resid = continuity_residual(fields, 0.1 / 2)
    current = fields[0][0]
    np.testing.assert_allclose(current.j_tau, amp * amp, rtol=1e-12)
    np.testing.assert_allclose(current.j_k[0], C * LHAT * k * amp * amp, rtol=1e-11)
    assert resid < 1e-10  # uniform currents: continuity is exact


def test_continuity_residual_converges_in_time():
    psi0 = gaussian_packet(256, 40.0, 1.0, k0=0.8)
    resids, dts = [], []
    for steps in (8, 16, 32):
        fields = (current_and_divergence(s, C * LHAT, "spectral")
                  for s in evolve_schrodinger(psi0, 1.0, LHAT, steps, c=C))
        resids.append(continuity_residual(fields, 1.0 / steps))
        dts.append(1.0 / steps)
    assert fit_convergence_order(dts, resids) >= 1.9


# ---------------------------------------------------------------------------
# Fokker-Planck evolution
# ---------------------------------------------------------------------------

def test_fp_mass_conservation_and_positivity():
    rho0 = gaussian_packet(512, 40.0, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    first, *rest = evolve_fokker_planck(rho0, 2.0, 1.0, 20, c=C)
    mass0 = float(np.sum(first.values))
    assert len(rest) == 20
    for snap in rest:
        assert abs(float(np.sum(snap.values)) - mass0) * first.cell_volume < 1e-10
        assert snap.values.min() > -1e-12


def test_fp_variance_growth():
    rho0 = gaussian_packet(512, 40.0, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    u, lam = 1.7, 0.9
    *_, last = evolve_fokker_planck(rho0, u, lam, 16, c=C)
    got = field_variance(last, density=True)
    want = field_variance(rho0, density=True) + C * lam * u
    assert got == pytest.approx(want, abs=1e-6)


def test_fp_cn_conserves_mass_and_grows_variance():
    # the diffusion setup of verify_reduction, at its thresholds, by CN
    rho0 = gaussian_packet(512, 40.0, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    *_, last = evolve_fokker_planck(rho0, 2.0, 1.0, 32, c=C, method="cn")
    assert np.isrealobj(last.values)
    mass_err = abs(float(np.sum(last.values)) - float(np.sum(rho0.values))) * rho0.cell_volume
    assert mass_err <= 1e-10
    var_err = abs(field_variance(last, density=True)
                  - (field_variance(rho0, density=True) + C * 1.0 * 2.0))
    assert var_err <= reduction._VARIANCE_TOL


def test_fp_point_source_matches_heat_kernel():
    n, box = 512, 40.0
    h = box / n
    vals = np.zeros(n)
    vals[n // 2] = 1.0 / h  # discrete delta
    rho0 = GridField(values=vals, step=(h,), origin=(-box / 2,))
    u, lam = 1.2, 1.0
    *_, last = evolve_fokker_planck(rho0, u, lam, 8, c=C)
    x = rho0.coords(0)
    d = C * lam / 2.0
    kernel = np.exp(-x * x / (4.0 * d * u)) / math.sqrt(4.0 * math.pi * d * u)
    # spectral evolution of the band-limited delta: agreement away from the
    # Nyquist ringing floor
    assert np.max(np.abs(last.values - kernel)) < 1e-6


def test_fp_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        evolve_fokker_planck(gaussian_packet(64, 20.0, 1.0, k0=1.0), 1.0, 1.0, 4)
    neg = GridField(values=np.linspace(-1.0, 1.0, 64), step=(0.1,))
    with pytest.raises(ConfigurationError):
        evolve_fokker_planck(neg, 1.0, 1.0, 4)


# ---------------------------------------------------------------------------
# Weak-field Schroedinger residual
# ---------------------------------------------------------------------------

def test_weakfield_plane_wave_on_shell():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    n, box = 32, 2.0 * math.pi * 4
    h = box / n
    k = 2.0 * math.pi / box * 3
    axes = [h * np.arange(n) for _ in range(3)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    psi = GridField(values=np.exp(1j * k * x[0]), step=(h,) * 3)
    energy = s.hbar**2 * k * k / (2.0 * s.m)
    resid = weakfield_schrodinger_residual(psi, np.zeros(psi.values.shape), s,
                                           energy, engine="spectral")
    assert resid < 1e-12


def test_weakfield_hydrogen_ground_state():
    # psi = e^{-r/a} with a the Bohr-like radius and the 1s eigenvalue:
    # interior residual is pure discretization error, falling ~h^2
    s = ScaleSet.build(Z=1, alpha=0.05, M_over_m=1.0, R_over_Lambda=10.0)
    a0 = s.lambda_c / (s.Z * s.alpha)
    energy = -0.5 * s.mc2 * (s.Z * s.alpha) ** 2
    resids, hs = [], []
    for n in (48, 96):
        box = 16.0 * a0
        h = box / n
        ax = -box / 2.0 + h * (np.arange(n) + 0.5)  # cell-centered, avoids r = 0
        x = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r = np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        psi = GridField(values=np.exp(-r / a0) + 0j, step=(h,) * 3,
                        origin=(float(ax[0]),) * 3, boundary="absorbing")
        a0_field = -s.Z * s.e_charge / r
        # fixed physical excision radius (3 coarse cells) so refinement
        # measures the smooth-region discretization error
        resids.append(weakfield_schrodinger_residual(psi, a0_field, s, energy,
                                                     excise_steps=3 * (n // 48)))
        hs.append(h)
    scale = abs(energy)  # residual in energy units times |psi| <= 1
    assert resids[1] < 0.05 * scale
    assert resids[1] < resids[0] / 2.0


def test_weakfield_dropped_term_ratio():
    s = ScaleSet.build(Z=1, alpha=0.01, M_over_m=1.0, R_over_Lambda=10.0)
    a0 = np.array([0.5, 1.0, 2.0])
    got = weakfield_dropped_term_ratio(a0, s)
    assert got == pytest.approx(abs(s.q * s.m) * 2.0 / (2.0 * s.m * s.c**2), rel=1e-12)


# ---------------------------------------------------------------------------
# Exact checks
# ---------------------------------------------------------------------------

def test_null_dispersion_values():
    assert null_dispersion_check([2.0, 0.0, 0.0, 0.0, 2.0]) == 0.0
    k, mu = 1.3, 0.7
    assert null_dispersion_check([math.hypot(k, mu), k, 0.0, 0.0, mu]) == pytest.approx(
        0.0, abs=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.standard_normal(5)
        want = -p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + p[3] ** 2 + p[4] ** 2
        assert null_dispersion_check(p) == pytest.approx(want, rel=1e-14)


def test_lightcone_roundtrip_and_jacobian():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(5)
        back = lightcone_transform(lightcone_transform(x), "inverse")
        assert np.max(np.abs(back - x)) < 1e-14
    jac = lightcone_jacobian()
    assert abs(np.linalg.det(jac)) == pytest.approx(1.0, abs=1e-15)
    # gradient of y^0 is 5D-null
    g = jac[0]
    eta = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
    assert g @ eta @ g == 0.0


def test_lightcone_forward_values():
    y = lightcone_transform(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    np.testing.assert_allclose(y, [4.0, 2.0, 3.0, 4.0, 3.0])


def test_semigroup_spectral_exact():
    psi0 = gaussian_packet(128, 30.0, 1.0, k0=0.5)
    run = schrodinger_evolver(LHAT, c=C)
    assert propagator_composition_check(run, 0.7, 1.1, psi0) < 1e-12
    assert propagator_composition_check(run, 0.0, 0.9, psi0) < 1e-15


def test_semigroup_cn_defect_shrinks_with_step():
    psi0 = gaussian_packet(128, 30.0, 1.0)
    defects = []
    for steps in (8, 16, 32):
        run = schrodinger_evolver(LHAT, c=C, steps=steps, method="cn")
        defects.append(propagator_composition_check(run, 0.6, 0.6, psi0))
    assert defects[0] > defects[1] > defects[2]


def test_verify_reduction_passes():
    report = verify_reduction()
    assert report["passed"]
    assert report["norm_drift_per_step"] <= 1e-8
    assert report["dispersion_error"] <= 1e-10
    assert report["semigroup_defect"] <= 1e-12
    assert report["fp_variance_error"] <= 1e-6


# ---------------------------------------------------------------------------
# Streaming harness: same numbers as the materialised trajectory, flat memory
# ---------------------------------------------------------------------------

def _materialised_states(psi0, span, lambda_hat, steps, c):
    """Reference: the spectral stepping loop keeping every Fourier state."""
    coeff = 1j * c * lambda_hat / 2.0
    mult = np.exp(-coeff * reduction._k_squared(psi0) * (span / steps))
    states = [np.fft.fftn(np.asarray(psi0.values, dtype=complex))]
    for _ in range(steps):
        states.append(states[-1] * mult)
    return states


def _materialised_snapshots(psi0, span, lambda_hat, steps, c):
    """Reference: the snapshots of every materialised Fourier state."""
    states = _materialised_states(psi0, span, lambda_hat, steps, c)
    snaps = [psi0] + [psi0.with_values(np.fft.ifftn(state)) for state in states[1:]]
    return np.linspace(0.0, span, steps + 1), snaps


def _parseval_norm(state, psi0):
    """||psi|| = sqrt(h/N sum_k |Psi_k|^2) from the unnormalised FFT of N points."""
    return float(np.sqrt(np.sum(np.abs(state) ** 2) * (psi0.cell_volume / psi0.values.size)))


def _materialised_continuity(times, snaps, lambda_hat, c):
    """Reference: all currents and divergences first, then the residual."""
    a = c * lambda_hat
    j_tau, divs = [], []
    for s in snaps:
        psi = s.values
        jk = a * np.imag(np.conj(psi) * reduction.field_derivative(s, 0, 1, "spectral"))
        j_tau.append(np.abs(psi) ** 2)
        divs.append(np.zeros(psi.shape)
                    + np.real(reduction.field_derivative(s.with_values(jk), 0, 1, "spectral")))
    dt = float(times[1] - times[0])
    residual = 0.0
    for i in range(1, len(snaps) - 1):
        djdt = (j_tau[i + 1] - j_tau[i - 1]) / (2.0 * dt)
        residual = max(residual, float(np.max(np.abs(djdt + divs[i]))))
    return residual


@pytest.mark.parametrize("points, steps", [(256, 64), (4096, 1024)])
def test_verify_reduction_streams_bitwise(points, steps):
    lhat, c, box = 0.7, 1.3, 40.0
    psi0 = gaussian_packet(points, box, 1.0, k0=2.0 * math.pi / box * 5)
    norms = [_parseval_norm(state, psi0)
             for state in _materialised_states(psi0, 2.0, lhat, steps, c)]
    want_table = [(i, n, abs(n - norms[0])) for i, n in enumerate(norms)]
    want_resids = [_materialised_continuity(*_materialised_snapshots(psi0, 1.0, lhat, n, c),
                                            lhat, c)
                   for n in (16, 32, 64)]

    report = verify_reduction(points=points, steps=steps)
    assert list(zip(*(c.tolist() for c in report["step_table"]))) == want_table
    assert report["continuity_residuals"] == want_resids
    assert report["norm_drift_per_step"] == max(r for _, _, r in want_table[1:]) / steps
    # the public stream API is the path the harness takes
    fields = (current_and_divergence(s, c * lhat, "spectral")
              for s in evolve_schrodinger(psi0, 1.0, lhat, 16, c=c))
    assert continuity_residual(fields, 1.0 / 16) == want_resids[0]


def test_verify_reduction_memory_flat_in_steps():
    points = 4096
    verify_reduction(points=points, steps=4)  # FFT set-up and imports, untraced
    peaks = []
    for steps in (256, 2048):
        tracemalloc.start()
        try:
            verify_reduction(points=points, steps=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Measured: 16.2x and 16.4x the bytes of one complex snapshot (the step
    # table's rows make the difference); keeping every snapshot is 460x and
    # 2270x.
    assert max(peaks) <= 1.25 * min(peaks), peaks
    assert max(peaks) <= 24 * 16 * points, peaks


def test_verify_reduction_peak_memory():
    # the benchmark's size: the continuity check holds j_tau of the middle
    # snapshot's two neighbours and its div j, and drops each j_k once its
    # term of div j is added.  Measured at 2.15 MiB; three CurrentFields and
    # a div per snapshot of the window took 3.65 MiB.
    verify_reduction(points=16384, steps=4)  # FFT set-up and imports, untraced
    tracemalloc.start()
    try:
        verify_reduction(points=16384, steps=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_fourier_states_advance_in_place():
    # each yielded state is the one array, valid until the next step
    psi0 = gaussian_packet(64, 20.0, 1.0, k0=1.0)
    mult = reduction._multiplier(psi0, 1.0, 0.35j, 3, "spectral")
    states = reduction._fourier_states(psi0, mult, 3)
    first = next(states)
    want = first * mult
    assert next(states) is first
    assert first.tobytes() == want.tobytes()


@pytest.mark.parametrize("points, steps", [(256, 64), (16384, 1024)])
def test_parseval_norms_match_x_space_norms(points, steps):
    # verify-reduction reads its norms from the Fourier states; each is
    # within 4 ulp of the snapshot's own l2_norm
    lhat, c, box = 0.7, 1.3, 40.0
    psi0 = gaussian_packet(points, box, 1.0, k0=2.0 * math.pi / box * 5)
    got = reduction._norms(psi0, lhat, c, steps)
    want = np.array([s.l2_norm() for s in evolve_schrodinger(psi0, 2.0, lhat, steps, c=c)])
    assert got.shape == want.shape == (steps + 1,)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), np.max(np.abs(got - want))


def test_evolve_stream_validates_at_call():
    psi0 = gaussian_packet(64, 20.0, 1.0)
    with pytest.raises(ConfigurationError):
        reduction._evolve(psi0, 1.0, 0.5j, 0, "spectral")
    with pytest.raises(ConfigurationError):
        reduction._evolve(psi0, -1.0, 0.5j, 4, "spectral")
    absorbing = GridField(values=psi0.values, step=psi0.step, boundary="absorbing")
    with pytest.raises(ConfigurationError):
        reduction._evolve(absorbing, 1.0, 0.5j, 4, "spectral")
    with pytest.raises(ConfigurationError):
        reduction._evolve(psi0, 1.0, 0.5j, 4, "euler")


def test_spectral_derivative_cached_symbol_bitwise():
    # field_derivative's spectral engine takes (i k)^order from a per-grid
    # cache; on every axis and order, and on a repeated call, it returns the
    # bits of the multiplier built afresh for the call.
    rng = np.random.default_rng(7)
    f = GridField(values=rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10)),
                  step=(0.3, 0.7))
    for axis in (0, 1):
        shape = [1, 1]
        shape[axis] = -1
        k = 2.0 * math.pi * np.fft.fftfreq(f.values.shape[axis], d=f.step[axis])
        for order in (1, 2):
            want = np.fft.ifft((1j * k.reshape(shape)) ** order
                               * np.fft.fft(f.values, axis=axis), axis=axis)
            for _ in range(2):
                got = reduction.field_derivative(f, axis, order, "spectral")
                assert got.tobytes() == want.tobytes()
    assert not reduction._spectral_symbol(12, 0.3, 1).flags.writeable
