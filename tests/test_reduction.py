"""Light-cone reduction tests: unitary/diffusive evolution, currents,
weak-field residuals, and the exact coordinate/dispersion checks.

Oracles: closed-form free-packet evolution, heat kernels, and plane-wave
dispersion; the spectral evolver itself is validated against those.  A
field's derivatives follow its boundary, so an absorbing field is checked
against the bits of ``fd_derivative``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kg5d import numerics, reduction
from kg5d.errors import ConfigurationError, DomainError
from kg5d.numerics import fd_derivative, fit_convergence_order
from kg5d.reduction import (
    GridField,
    continuity_residual,
    evolve_fokker_planck,
    evolve_schrodinger,
    field_variance,
    gaussian_packet,
    lightcone_jacobian,
    lightcone_transform,
    null_dispersion_check,
    projected_peak_bytes,
    propagator_composition_check,
    verify_reduction,
    weakfield_dropped_term_ratio,
    weakfield_schrodinger_residual,
)
from oracles import continuity_residual_from_currents, snapshots

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
    last = evolve_schrodinger(psi0, tau, LHAT, 7, c=C)
    omega = C * LHAT * k * k / 2.0
    expected = psi0.values * np.exp(-1j * omega * tau)
    assert np.max(np.abs(last.values - expected)) < 1e-12


def test_constant_field_stationary():
    psi0 = GridField(values=np.full(64, 0.7 + 0.1j), step=(0.25,))
    last = evolve_schrodinger(psi0, 2.0, LHAT, 10, c=C)
    assert np.max(np.abs(last.values - psi0.values)) < 1e-13


def test_gaussian_packet_spread_closed_form():
    # |psi|^2 variance: sigma0^2 + (c lhat tau)^2 / (4 sigma0^2)
    sigma0, box, n = 1.0, 60.0, 1024
    psi0 = gaussian_packet(n, box, sigma0)
    tau = 2.5
    last = evolve_schrodinger(psi0, tau, LHAT, 25, c=C)
    got = field_variance(last)
    want = sigma0**2 + (C * LHAT * tau) ** 2 / (4.0 * sigma0**2)
    assert got == pytest.approx(want, abs=1e-6)


def test_norm_conserved_both_schemes():
    psi0 = gaussian_packet(128, 30.0, 1.2, k0=1.0)
    norms = [s.l2_norm() for s in snapshots(psi0, 1.5, 0.5j * C * LHAT, 40)]
    assert len(norms) == 41
    assert max(abs(v - norms[0]) for v in norms) < 1e-10


def test_evolve_configuration_errors():
    psi0 = gaussian_packet(64, 20.0, 1.0)
    with pytest.raises(ConfigurationError):
        evolve_schrodinger(psi0, 1.0, LHAT, 0)
    with pytest.raises(ConfigurationError):
        evolve_schrodinger(psi0, -1.0, LHAT, 4)
    bad = GridField(values=psi0.values, step=psi0.step, boundary="absorbing")
    with pytest.raises(ConfigurationError):
        evolve_schrodinger(bad, 1.0, LHAT, 4)
    # evolution is not limited to one axis: unitary on 64^2 too
    x = np.linspace(-5.0, 5.0, 64, endpoint=False)
    two_d = GridField(values=np.exp(-x[:, None] ** 2 - 0.5 * x[None, :] ** 2 + 1j * x[:, None]),
                      step=(x[1] - x[0],) * 2, origin=(x[0],) * 2)
    norms = [s.l2_norm() for s in snapshots(two_d, 1.0, 0.5j * C * LHAT, 16)]
    assert max(abs(v - norms[0]) for v in norms) < 1e-12


# ---------------------------------------------------------------------------
# Currents and continuity
# ---------------------------------------------------------------------------

def test_current_real_field_has_no_flux():
    # a real standing wave cos(kx) keeps its profile up to a phase: |psi|^2
    # is stationary and div j = a Im(psi* lap psi) = -a k^2 Im|psi|^2 = 0,
    # so both terms of the residual are rounding
    n, box = 128, 20.0
    k = 2.0 * math.pi / box * 4
    x = -0.5 * box + box / n * np.arange(n)
    psi0 = GridField(values=np.cos(k * x), step=(box / n,), origin=(-0.5 * box,))
    assert continuity_residual(psi0, LHAT, 0.3, 6, c=C) < 1e-12


def test_current_plane_wave_values():
    n, box, amp = 64, 16.0, 1.7
    k = 2.0 * math.pi / box * 3
    x = box / n * np.arange(n)
    psi0 = GridField(values=amp * np.exp(1j * k * x), step=(box / n,))
    resid = continuity_residual(psi0, LHAT, 0.1, 2, c=C)
    np.testing.assert_allclose(np.abs(psi0.values) ** 2, amp * amp, rtol=1e-12)
    assert resid < 1e-10  # uniform currents: continuity is exact


def test_continuity_residual_converges_in_time():
    psi0 = gaussian_packet(256, 40.0, 1.0, k0=0.8)
    resids, dts = [], []
    for steps in (8, 16, 32):
        resids.append(continuity_residual(psi0, LHAT, 1.0, steps, c=C))
        dts.append(1.0 / steps)
    assert fit_convergence_order(dts, resids) >= 1.9


def test_continuity_residual_needs_three_snapshots():
    # the central difference needs a snapshot on each side of the middle
    psi0 = gaussian_packet(64, 20.0, 1.0, k0=1.0)
    with pytest.raises(ConfigurationError):
        continuity_residual(psi0, LHAT, 0.1, 1, c=C)
    assert continuity_residual(psi0, LHAT, 0.1, 2, c=C) >= 0


@pytest.mark.parametrize("shape", [(64,), (16, 12)], ids=["1d", "2d"])
def test_continuity_residual_transform_count(monkeypatch, shape):
    # S steps: one forward transform (psi0's state), S inverse ones for psi
    # (the first snapshot's psi is psi0) and S - 1 for lap psi (no
    # difference is centred on the first or last snapshot); the residual
    # has the bits of every central difference taken over the whole stream
    steps, span = 6, 0.3
    dt = span / steps
    x = [np.linspace(-6.0, 6.0, n, endpoint=False) for n in shape]
    grid = np.meshgrid(*x, indexing="ij")
    psi0 = GridField(values=np.exp(-sum(g * g for g in grid) + 0.7j * grid[0]),
                     step=tuple(v[1] - v[0] for v in x), origin=tuple(v[0] for v in x))
    k_squared = reduction._k_squared(psi0)
    states = _materialised_states(psi0, span, LHAT, steps, C)
    psi = [psi0.values] + [np.fft.ifftn(state) for state in states[1:]]
    j = [np.abs(p) ** 2 for p in psi]
    div = [(-C * LHAT) * np.imag(np.conj(p) * np.fft.ifftn(state * k_squared))
           for p, state in zip(psi, states)]
    want = max(float(np.max(np.abs((j[k + 1] - j[k - 1]) / (2.0 * dt) + div[k])))
               for k in range(1, steps))

    calls = _counted_transforms(monkeypatch)
    assert continuity_residual(psi0, LHAT, span, steps, c=C) == want
    assert sorted(calls) == ["fftn"] + ["ifftn"] * (2 * steps - 1)


def _counted_transforms(monkeypatch) -> list:
    """The names of the FFTs ``reduction`` calls from here on, in order."""
    calls = []
    for name in ("fft", "fftn", "ifft", "ifftn"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)
        monkeypatch.setattr(reduction.np.fft, name, counted)
    return calls


@pytest.mark.parametrize("points, steps", [(256, 64), (16384, 1024)])
def test_verify_reduction_transform_count(monkeypatch, points, steps):
    # whatever the size: the norms take one forward transform, the
    # continuity runs of 16, 32 and 64 steps 2S each, the dispersion step 2,
    # the diffusion run 2 (its end state alone is transformed back) and the
    # semigroup check 6
    calls = _counted_transforms(monkeypatch)
    verify_reduction(points=points, steps=steps)
    assert len(calls) == 235
    assert sum(name.startswith("i") for name in calls) == 226


@pytest.mark.parametrize("coeff", [0.5j * C * LHAT, 0.5 * C * 0.9], ids=["schrodinger", "fp"])
def test_evolvers_return_the_last_snapshot(monkeypatch, coeff):
    # the end state of the stepping loop, transformed back once: the bits of
    # the last of every snapshot (real for Fokker-Planck), from one forward
    # and one inverse transform whatever the number of steps
    rho0 = gaussian_packet(256, 40.0, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    want = snapshots(rho0, 1.7, coeff, 24)[-1].values
    calls = _counted_transforms(monkeypatch)
    if isinstance(coeff, complex):
        got = evolve_schrodinger(rho0, 1.7, LHAT, 24, c=C)
    else:
        got = evolve_fokker_planck(rho0, 1.7, 0.9, 24, c=C)
        want = np.real(want)
    assert calls == ["fftn", "ifftn"]
    assert got.values.dtype == want.dtype
    assert got.values.tobytes() == want.tobytes()
    assert (got.step, got.origin, got.boundary) == (rho0.step, rho0.origin, rho0.boundary)


# ---------------------------------------------------------------------------
# Fokker-Planck evolution
# ---------------------------------------------------------------------------

def test_fp_mass_conservation_and_positivity():
    rho0 = gaussian_packet(512, 40.0, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    first, *rest = [s.with_values(np.real(s.values)) for s in snapshots(rho0, 2.0, 0.5 * C, 20)]
    mass0 = float(np.sum(first.values))
    assert len(rest) == 20
    for snap in rest:
        assert abs(float(np.sum(snap.values)) - mass0) * first.cell_volume < 1e-10
        assert snap.values.min() > -1e-12


def test_fp_variance_growth():
    rho0 = gaussian_packet(512, 40.0, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    u, lam = 1.7, 0.9
    last = evolve_fokker_planck(rho0, u, lam, 16, c=C)
    got = field_variance(last, density=True)
    want = field_variance(rho0, density=True) + C * lam * u
    assert got == pytest.approx(want, abs=1e-6)


def test_fp_point_source_matches_heat_kernel():
    n, box = 512, 40.0
    h = box / n
    vals = np.zeros(n)
    vals[n // 2] = 1.0 / h  # discrete delta
    rho0 = GridField(values=vals, step=(h,), origin=(-box / 2,))
    u, lam = 1.2, 1.0
    last = evolve_fokker_planck(rho0, u, lam, 8, c=C)
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
    n, box = 32, 2.0 * math.pi * 4
    h = box / n
    k = 2.0 * math.pi / box * 3
    axes = [h * np.arange(n) for _ in range(3)]
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    psi = GridField(values=np.exp(1j * k * x[0]), step=(h,) * 3)
    energy = k * k / 2.0  # hbar = m = 1
    resid = weakfield_schrodinger_residual(psi, np.zeros(psi.values.shape), 0.0, energy)
    assert resid < 1e-12


def test_weakfield_hydrogen_ground_state():
    # psi = e^{-r/a} with a the Bohr-like radius and the 1s eigenvalue:
    # interior residual is pure discretization error, falling ~h^2.  Z = 1,
    # alpha = 0.05, hbar = m = c = 1: the charge e = sqrt(alpha) = q m.
    alpha = 0.05
    a0 = 1.0 / alpha
    energy = -0.5 * alpha**2
    e = math.sqrt(alpha)
    resids, hs = [], []
    for n in (48, 96):
        box = 16.0 * a0
        h = box / n
        ax = -box / 2.0 + h * (np.arange(n) + 0.5)  # cell-centered, avoids r = 0
        x = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r = np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        psi = GridField(values=np.exp(-r / a0) + 0j, step=(h,) * 3,
                        origin=(float(ax[0]),) * 3, boundary="absorbing")
        a0_field = -e / r
        # fixed physical excision radius (3 coarse cells) so refinement
        # measures the smooth-region discretization error
        resids.append(weakfield_schrodinger_residual(psi, a0_field, e, energy,
                                                     excise_steps=3 * (n // 48)))
        hs.append(h)
    scale = abs(energy)  # residual in energy units times |psi| <= 1
    assert resids[1] < 0.05 * scale
    assert resids[1] < resids[0] / 2.0


def test_weakfield_refuses_grid_with_no_point_left():
    # a 5^3 absorbing grid centred on the origin: the 2-cell edge margin
    # leaves only the centre, and the excision ball takes it
    h = 0.1
    psi = GridField(values=np.ones((5, 5, 5)) + 0j, step=(h,) * 3, origin=(-2 * h,) * 3,
                    boundary="absorbing")
    with pytest.raises(DomainError, match="no grid point"):
        weakfield_schrodinger_residual(psi, np.zeros(psi.values.shape), math.sqrt(0.05), -1.0)


def test_weakfield_dropped_term_ratio():
    a0 = np.array([0.5, 1.0, 2.0])
    qm = math.sqrt(0.01)  # e/m at alpha = 0.01, hbar = m = c = 1
    assert weakfield_dropped_term_ratio(a0, qm) == pytest.approx(qm * 2.0 / 2.0, rel=1e-12)
    assert weakfield_dropped_term_ratio(a0, -qm) == weakfield_dropped_term_ratio(a0, qm)


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
    assert propagator_composition_check(LHAT, 0.7, 1.1, psi0, c=C) < 1e-12
    assert propagator_composition_check(LHAT, 0.0, 0.9, psi0, c=C) < 1e-15


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


def _parseval_norm(state, psi0):
    """||psi|| = sqrt(h/N sum_k |Psi_k|^2) from the unnormalised FFT of N points."""
    return float(np.sqrt(np.sum(np.abs(state) ** 2) * (psi0.cell_volume / psi0.values.size)))


@pytest.mark.parametrize("points, steps", [(256, 64), (4096, 1024)])
def test_verify_reduction_streams_bitwise(points, steps):
    lhat, c, box = 0.7, 1.3, 40.0
    psi0 = gaussian_packet(points, box, 1.0, k0=2.0 * math.pi / box * 5)
    norms = [_parseval_norm(state, psi0)
             for state in _materialised_states(psi0, 2.0, lhat, steps, c)]
    want_table = [(i, n, abs(n - norms[0])) for i, n in enumerate(norms)]

    report = verify_reduction(points=points, steps=steps)
    assert list(zip(*(c.tolist() for c in report["step_table"]))) == want_table
    assert report["norm_drift_per_step"] == max(r for _, _, r in want_table[1:]) / steps


# div j = a Im(psi* lap psi) and the derivative of the currents j_k differ
# only by rounding and aliasing of the products; measured at most 4e-7
# relative at 16384 points and 2e-11 at 256.
CONTINUITY_ORACLE_RTOL = 1e-5


@pytest.mark.parametrize("points", [256, 16384])
def test_continuity_residuals_match_current_oracle(points):
    lhat, c, box = 0.7, 1.3, 40.0
    psi0 = gaussian_packet(points, box, 1.0, k0=2.0 * math.pi / box * 5)
    want = [continuity_residual_from_currents(psi0, lhat, 1.0, n, c=c) for n in (16, 32, 64)]
    got = verify_reduction(points=points, steps=4)["continuity_residuals"]
    np.testing.assert_allclose(got, want, rtol=CONTINUITY_ORACLE_RTOL, atol=0.0)


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
    # snapshot's two neighbours and its div j, formed from psi and lap psi
    # without any j_k.  Measured at 2.01 MiB; div j from the spectral
    # derivatives of the currents took 2.15 MiB, and a three-snapshot
    # window of whole currents (j_tau and every j_k) and their divs 3.65 MiB.
    verify_reduction(points=16384, steps=4)  # FFT set-up and imports, untraced
    tracemalloc.start()
    try:
        verify_reduction(points=16384, steps=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("coeff", [0.65, 0.455j])
def test_multiplier_formed_in_place(coeff):
    # one array of the result's size: the bits and dtype of the allocating
    # expression (real for Fokker-Planck's real coefficient), at a tracemalloc
    # peak of 1.0x the result where that expression's was 2.0x.  numpy casts
    # k^2 to complex through a fixed buffer of 8192 values (128 KiB), 1/16
    # of the result at 2^17 points.
    psi0 = gaussian_packet(2**17, 40.0, 1.0)
    k_squared = reduction._k_squared(psi0)
    want = np.exp(-coeff * k_squared * (1.0 / 64))
    tracemalloc.start()
    try:
        got = reduction._multiplier(k_squared, 1.0, coeff, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == want.dtype == (complex if isinstance(coeff, complex) else float)
    assert got.tobytes() == want.tobytes()
    assert peak <= 1.1 * got.nbytes, peak / got.nbytes


def test_in_place_packet_and_k_squared_keep_their_bits():
    # the allocating expressions they replaced, on a 2-D grid for k^2
    n, box, sigma, k0 = 1000, 40.0, 1.3, 0.9
    h = box / n
    x = -0.5 * box + h * np.arange(n)
    real = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-x * x / (4.0 * sigma**2))
    assert gaussian_packet(n, box, sigma).values.tobytes() == real.tobytes()
    assert (gaussian_packet(n, box, sigma, k0).values.tobytes()
            == (real * np.exp(1j * k0 * x)).tobytes())
    f = GridField(values=np.zeros((12, 10)), step=(0.3, 0.7))
    kx, ky = (2.0 * math.pi * np.fft.fftfreq(m, d=d) for m, d in ((12, 0.3), (10, 0.7)))
    want = np.zeros((12, 10)) + kx.reshape(-1, 1) ** 2 + ky.reshape(1, -1) ** 2
    assert reduction._k_squared(f).tobytes() == want.tobytes()


def test_fourier_states_advance_in_place():
    # each yielded state is the one array, valid until the next step
    psi0 = gaussian_packet(64, 20.0, 1.0, k0=1.0)
    mult = reduction._multiplier(reduction._k_squared(psi0), 1.0, 0.35j, 3)
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
    want = np.array([s.l2_norm() for s in snapshots(psi0, 2.0, 0.5j * c * lhat, steps)])
    assert got.shape == want.shape == (steps + 1,)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), np.max(np.abs(got - want))


def test_evolve_stream_validates_at_call():
    psi0 = gaussian_packet(64, 20.0, 1.0)
    with pytest.raises(ConfigurationError):
        reduction._evolve(psi0, 1.0, 0.5j, 0)
    with pytest.raises(ConfigurationError):
        reduction._evolve(psi0, -1.0, 0.5j, 4)
    absorbing = GridField(values=psi0.values, step=psi0.step, boundary="absorbing")
    with pytest.raises(ConfigurationError):
        reduction._evolve(absorbing, 1.0, 0.5j, 4)


def test_spectral_derivative_bitwise():
    # _derivative on a periodic field multiplies by (i k)^order: on every
    # axis and order, and on a repeated call, the bits of that multiplier
    # applied to the field's FFT.
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
                got = reduction._derivative(f, f.values, axis, order)
                assert got.tobytes() == want.tobytes()


def test_absorbing_field_derivative_is_fd_bitwise():
    # an absorbing field is differentiated by finite differences with
    # one-sided edges: the bits of fd_derivative on every axis and order
    rng = np.random.default_rng(11)
    values = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    f = GridField(values=values, step=(0.3, 0.7), boundary="absorbing")
    for axis in (0, 1):
        for order in (1, 2):
            got = reduction._derivative(f, f.values, axis, order)
            assert got.tobytes() == fd_derivative(values, axis, order, f.step[axis]).tobytes()


# ---------------------------------------------------------------------------
# Memory guard
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("points, steps", [(4096, 4), (16384, 1024), (65536, 4), (256, 65536)])
def test_projected_peak_bounds_tracemalloc_peak(points, steps):
    # the closed form that refuses oversized runs must cover the real peak
    # without refusing runs that would fit by more than a factor of two
    tracemalloc.start()
    try:
        verify_reduction(points=points, steps=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= projected_peak_bytes(points, steps) <= 2 * peak


class _Started(Exception):
    """Raised in place of the first allocation: the memory guard let a run start."""


def test_memory_guard_refuses_before_allocating(monkeypatch):
    points, steps = 100_000, 1000
    need = projected_peak_bytes(points, steps)

    def start(*args, **kwargs):
        raise _Started

    monkeypatch.setattr(reduction, "gaussian_packet", start)
    monkeypatch.setattr(numerics, "_available_bytes", lambda: (need - 1, math.inf))
    with pytest.raises(ConfigurationError) as info:
        verify_reduction(points=points, steps=steps)
    assert str(info.value) == (
        f"verify-reduction needs about {need / 2**20:,.1f} MiB at its peak"
        f" (points {points}, steps {steps}), more than the {(need - 1) / 2**20:,.1f} MiB available")
    monkeypatch.setattr(numerics, "_available_bytes", lambda: (math.inf, need - 1))
    with pytest.raises(ConfigurationError):
        verify_reduction(points=points, steps=steps)
    monkeypatch.setattr(numerics, "_available_bytes", lambda: (need, need))
    with pytest.raises(_Started):
        verify_reduction(points=points, steps=steps)
