"""Light-cone reductions of the 5D wave equation, checked at desk scale.

The operator -d0^2 + lap + d5^2 factorizes in the light-cone coordinates
y0 = x5 - x0 (= c*tau), y5 = (x0 + x5)/2 into a first-order-in-tau equation.
A Fourier transform along y5 gives free Schroedinger evolution

    i d/dtau psi = -(c*lhat/2) lap psi,

a Laplace transform along tau gives the diffusion (Fokker-Planck) equation

    d/du psi = (c*Lambda/2) lap psi.

This module evolves both on periodic grids of any dimension with the exact
Fourier propagator, one multiplier per step, checks the continuity of the
Schroedinger stream's current density, and carries the small exact checks:
5D null dispersion, the light-cone coordinate map, semigroup composition,
and the weak-field Schroedinger residual with a Coulomb potential.  A
field's boundary fixes how it is differentiated: spectrally when it is
periodic, by central finite differences with one-sided edges when it is
absorbing.

Evolutions are sequential in the evolution parameter; grid fields are
immutable once produced.  The evolvers check their arguments when called and
return the ``steps + 1`` snapshots as a stream, each produced only when asked
for; the Fourier state behind the stream is advanced in place.
``continuity_residual`` reads those Fourier states directly, into buffers
allocated once, so it runs in O(points) memory whatever the number of steps.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .numerics import check_memory, fd_derivative, fit_convergence_order
from .spectrum import ScaleSet


@dataclass(frozen=True)
class GridField:
    """Field sampled on a uniform grid with per-axis step and origin.

    ``boundary`` fixes the derivative: a 'periodic' field is differentiated
    spectrally and evolves with wrap-around; an 'absorbing' one is
    differentiated by finite differences with one-sided edges and does not
    evolve.
    """

    values: np.ndarray
    step: tuple
    origin: tuple = ()
    boundary: str = "periodic"

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        step = tuple(float(s) for s in np.atleast_1d(self.step))
        object.__setattr__(self, "step", step)
        origin = tuple(float(o) for o in np.atleast_1d(self.origin)) if self.origin else (0.0,) * v.ndim
        object.__setattr__(self, "origin", origin)
        if len(step) != v.ndim or len(origin) != v.ndim:
            raise ConfigurationError("step/origin must have one entry per axis")
        if any(s <= 0 for s in step):
            raise ConfigurationError("grid steps must be positive")
        if self.boundary not in ("periodic", "absorbing"):
            raise ConfigurationError(f"unknown boundary {self.boundary!r}")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("field values must be finite")

    def coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.step[axis] * np.arange(self.values.shape[axis])

    def wavenumbers(self, axis: int) -> np.ndarray:
        return _wavenumbers(self.values.shape[axis], self.step[axis])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.step))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell_volume))

    def with_values(self, values: np.ndarray) -> "GridField":
        return replace(self, values=values)


def _derivative(grid: GridField, values: np.ndarray, axis: int, order: int) -> np.ndarray:
    """Derivative along ``axis`` of ``values`` sampled on the grid of ``grid``:
    the exact Fourier multiplier on a periodic grid, central finite
    differences on an absorbing one."""
    if grid.boundary == "absorbing":
        return fd_derivative(values, axis, order, grid.step[axis])
    shape = [1] * values.ndim
    shape[axis] = -1
    mult = (1j * _wavenumbers(values.shape[axis], grid.step[axis])) ** order
    transform = np.fft.fft(values, axis=axis)
    np.multiply(mult.reshape(shape), transform, out=transform)
    return np.fft.ifft(transform, axis=axis, out=transform)


def _wavenumbers(points: int, step: float) -> np.ndarray:
    """Angular wavenumbers of the FFT grid of ``points`` samples ``step`` apart."""
    return 2.0 * math.pi * np.fft.fftfreq(points, d=step)


def _k_squared(f: GridField) -> np.ndarray:
    """Symbol of -lap on the FFT grid of ``f``: the sum over axes of k^2.
    A field that is not periodic raises ``ConfigurationError``."""
    if f.boundary != "periodic":
        raise ConfigurationError("evolution needs periodic boundaries")
    total = np.zeros(f.values.shape)
    for ax in range(f.values.ndim):
        shape = [1] * f.values.ndim
        shape[ax] = -1
        total += f.wavenumbers(ax).reshape(shape) ** 2
    return total


def _evolve(psi0: GridField, span: float, coeff: complex, steps: int) -> Iterator[GridField]:
    """Shared core: d/dt psi = coeff * lap psi, periodic, any dimension.

    Checks the arguments at call time (:func:`_k_squared`,
    :func:`_multiplier`) and returns a generator of the ``steps + 1``
    snapshots, psi0 first, each produced only when asked for, so a consumer
    that keeps none of them needs O(points) memory.
    """
    mult = _multiplier(_k_squared(psi0), span, coeff, steps)
    return (psi0.with_values(np.fft.ifftn(state)) if i else psi0
            for i, state in enumerate(_fourier_states(psi0, mult, steps)))


def _multiplier(k_squared: np.ndarray, span: float, coeff: complex, steps: int) -> np.ndarray:
    """The Fourier factor exp(-coeff k^2 dt) by which one step of ``_evolve``
    multiplies every mode, formed in place (real for a real ``coeff``),
    after checking the arguments."""
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    if not span >= 0:
        raise ConfigurationError("evolution span must be non-negative")
    mult = np.multiply(-coeff, k_squared)
    mult *= span / steps
    return np.exp(mult, out=mult)


def _fourier_states(psi0: GridField, mult: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """The one stepping loop: psi0's FFT, then that state advanced by ``mult``
    in place, ``steps`` times.  Each yielded state is the one array, valid
    until the next step."""
    state = np.fft.fftn(np.asarray(psi0.values, dtype=complex))
    yield state
    for _ in range(steps):
        np.multiply(state, mult, out=state)
        yield state


def evolve_schrodinger(
    psi0: GridField, tau_span: float, lambda_hat: float, steps: int, *, c: float = 1.0,
) -> Iterator[GridField]:
    """Unitary free evolution i d/dtau psi = -(c lhat / 2) lap psi.

    Each step applies the exact Fourier multiplier exp(-i c lhat k^2 dt / 2)
    (plane-wave dispersion omega = c lhat k^2 / 2 to rounding).  Returns the
    stream of ``steps + 1`` snapshots at tau = 0, dt, ..., tau_span.
    """
    return _evolve(psi0, tau_span, 1j * c * lambda_hat / 2.0, steps)


def evolve_fokker_planck(
    psi0: GridField, u_span: float, Lambda: float, steps: int, *, c: float = 1.0,
) -> Iterator[GridField]:
    """Mass-conserving diffusion d/du psi = (c Lambda / 2) lap psi.

    Initial data must be real and non-negative; snapshots stay real.  The
    k = 0 mode is multiplied by exactly 1, so the total mass is conserved to
    rounding.  Returns the stream of ``steps + 1`` real snapshots at
    u = 0, du, ..., u_span.
    """
    v = np.asarray(psi0.values)
    if np.iscomplexobj(v):
        raise ConfigurationError("Fokker-Planck initial data must be real")
    if v.min() < 0:
        raise ConfigurationError("Fokker-Planck initial data must be non-negative")
    snaps = _evolve(psi0, u_span, c * Lambda / 2.0, steps)
    return (s.with_values(np.real(s.values)) for s in snaps)


def _last(snapshots: Iterable[GridField]) -> GridField:
    """The final snapshot of a stream, holding one snapshot at a time."""
    return collections.deque(snapshots, maxlen=1)[0]


def continuity_residual(
    psi0: GridField, lambda_hat: float, span: float, steps: int, *, c: float = 1.0,
) -> float:
    """max|d j_tau/dtau + div j| over the interior of the Schroedinger
    evolution of psi0 over ``span`` in ``steps`` steps.

    The current of a snapshot is j_tau = |psi|^2 >= 0 and
    j_k = a Im(psi* d_k psi), with a = c lhat.  (j_tau, j_k) is tied to the
    light-cone slicing and is not a four-vector; no Lorentz transformation
    of it is defined here.  Since |grad psi|^2 is real, div j is
    a Im(psi* lap psi) for any psi, so no j_k is formed: each snapshot's psi
    and lap psi are inverse transforms of the evolver's Fourier state and of
    -k^2 times it.  d j_tau/dtau is the central difference over snapshots
    span/steps apart.  The spectral flow keeps d|psi|^2/dtau + div j = 0 at
    every tau, so the residual is that difference's O(dt^2) error.

    The states are read once, through buffers allocated before the first
    (psi, lap psi, div j and three j_tau arrays that take turns), by the
    ufuncs of an allocating loop in its order; the difference reads div j
    before the next is formed.  psi0 is the first psi, and neither end
    snapshot's div j is formed: S steps take one forward and 2S - 1 inverse
    transforms.  Fewer than two steps raise ``ConfigurationError``.
    """
    if steps < 2:
        raise ConfigurationError("the continuity check needs steps >= 2 (three snapshots)")
    k_squared = _k_squared(psi0)
    mult = _multiplier(k_squared, span, 1j * c * lambda_hat / 2.0, steps)
    dt = span / steps
    psi, lap = np.empty_like(mult), np.empty_like(mult)
    older, old, new, div = (np.empty_like(k_squared) for _ in range(4))
    residual = 0.0
    for i, state in enumerate(_fourier_states(psi0, mult, steps)):
        src = np.fft.ifftn(state, out=psi) if i else psi0.values
        np.square(np.abs(src, out=new), out=new)
        if i >= 2:  # the middle snapshot i - 1: older is not read again
            djdt = np.subtract(new, older, out=older)
            djdt /= 2.0 * dt
            djdt += div
            residual = max(residual, float(np.max(np.abs(djdt, out=djdt))))
        if 0 < i < steps:  # a middle snapshot: div j = -a Im(psi* ifft(k^2 state))
            np.multiply(state, k_squared, out=lap)
            np.fft.ifftn(lap, out=lap)  # -lap psi
            np.multiply(np.conj(psi, out=psi), lap, out=lap)
            np.multiply(-c * lambda_hat, lap.imag, out=div)
        older, old, new = old, new, older
    return residual


# ---------------------------------------------------------------------------
# Weak-field Schroedinger limit
# ---------------------------------------------------------------------------

def weakfield_schrodinger_residual(
    psi: GridField, a0: np.ndarray, scales: ScaleSet, energy: float,
    *, excise_steps: int = 2,
) -> float:
    """Residual of the weak-field stationary Schroedinger operator on psi.

    Applies  -(hbar^2 / 2m) lap + (q m) a0 - E  and reports the max-norm over
    the grid, excluding, on an absorbing field, a 2-cell boundary margin
    (the one-sided FD edges), and a ball of ``excise_steps`` grid steps
    around the coordinate origin where a Coulomb a0 is singular.  A grid
    that these leave no point of raises ``DomainError``.  The attractive
    sign convention is carried by the caller through a0 (a0 = -Z e / r binds
    a positive q m).
    """
    v = psi.values
    kin = np.zeros(v.shape, dtype=complex)
    for ax in range(v.ndim):
        kin = kin + _derivative(psi, v, ax, 2)
    ham = -(scales.hbar**2 / (2.0 * scales.m)) * kin + (scales.q * scales.m) * a0 * v
    resid = np.abs(ham - energy * v)

    mask = np.ones(v.shape, dtype=bool)
    if psi.boundary == "absorbing":
        for ax in range(v.ndim):
            sl = [slice(None)] * v.ndim
            sl[ax] = slice(0, 2)
            mask[tuple(sl)] = False
            sl[ax] = slice(-2, None)
            mask[tuple(sl)] = False
    r2 = np.zeros(v.shape)
    for ax in range(v.ndim):
        shape = [1] * v.ndim
        shape[ax] = -1
        r2 = r2 + psi.coords(ax).reshape(shape) ** 2
    mask &= r2 > (excise_steps * max(psi.step)) ** 2
    if not mask.any():
        raise DomainError("the edge margin and the excision ball leave no grid point")
    return float(np.max(resid[mask]))


def weakfield_dropped_term_ratio(a0: np.ndarray, scales: ScaleSet) -> float:
    """Size of the dropped quadratic potential term relative to the kept one.

    ((qm)^2 a0^2 / 2mc^2) / ((qm) a0) = |q m a0| / (2 m c^2), reported at its
    maximum over the grid; small values justify the weak-field truncation.
    """
    qm = abs(scales.q * scales.m)
    return float(np.max(np.abs(a0)) * qm / (2.0 * scales.m * scales.c**2))


# ---------------------------------------------------------------------------
# Exact small checks
# ---------------------------------------------------------------------------

_ETA5 = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])


def null_dispersion_check(p: Sequence[float]) -> float:
    """eta^{AB} p_A p_B for a 5-momentum (0 exactly on the null cone)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (5,):
        raise DomainError("need five momentum components")
    return float(p @ _ETA5 @ p)


def lightcone_transform(x: Sequence[float], direction: str = "forward") -> np.ndarray:
    """Light-cone coordinate map y0 = x5 - x0, y5 = (x0 + x5)/2 (and back).

    The transverse components pass through; forward o inverse is the identity
    and the Jacobian determinant is -1.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (5,):
        raise DomainError("need five coordinates")
    if direction == "forward":
        x0, x1, x2, x3, x5 = x
        return np.array([x5 - x0, x1, x2, x3, 0.5 * (x0 + x5)])
    if direction == "inverse":
        y0, y1, y2, y3, y5 = x
        return np.array([y5 - 0.5 * y0, y1, y2, y3, y5 + 0.5 * y0])
    raise ConfigurationError(f"unknown direction {direction!r}")


def lightcone_jacobian() -> np.ndarray:
    """d y^A / d x^B of the forward map (constant matrix)."""
    jac = np.eye(5)
    jac[0, 0], jac[0, 4] = -1.0, 1.0
    jac[4, 0], jac[4, 4] = 0.5, 0.5
    return jac


def propagator_composition_check(
    lambda_hat: float, tau1: float, tau2: float, psi0: GridField, *, c: float = 1.0,
) -> float:
    """Semigroup defect ||U(t1+t2) psi - U(t2) U(t1) psi|| / ||psi|| of the free
    Schroedinger evolution, each U(t) one exact spectral step of
    :func:`evolve_schrodinger`."""
    def evolve(psi: GridField, tau: float) -> GridField:
        return _last(evolve_schrodinger(psi, tau, lambda_hat, 1, c=c))

    whole = evolve(psi0, tau1 + tau2)
    parts = evolve(evolve(psi0, tau1), tau2)
    diff = whole.values - parts.values
    denom = psi0.l2_norm()
    if denom == 0:
        raise DomainError("zero initial state")
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * psi0.cell_volume)) / denom


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def gaussian_packet(n: int, box: float, sigma: float, k0: float = 0.0) -> GridField:
    """Normalized 1-D Gaussian packet centred in a periodic box, each array
    formed in place by the operations of
    c exp(-x^2 / (4 sigma^2)) exp(i k0 x), x = -box/2 + h k."""
    if n < 1:
        raise ConfigurationError(f"points must be >= 1, got {n}")
    h = box / n
    x = np.arange(n, dtype=float)
    x *= h
    x += -0.5 * box
    psi = np.negative(x)
    psi *= x
    psi /= 4.0 * sigma**2
    np.exp(psi, out=psi)
    psi *= (2.0 * math.pi * sigma**2) ** -0.25
    if k0:
        phase = np.multiply(1j * k0, x)
        psi = np.multiply(psi, np.exp(phase, out=phase), out=phase)
    return GridField(values=psi, step=(h,), origin=(-0.5 * box,), boundary="periodic")


def field_variance(f: GridField, *, density: bool = False) -> float:
    """Variance along axis 0 of |psi|^2, or of the field itself for densities."""
    w = np.abs(f.values) if density else np.abs(f.values) ** 2
    x = f.coords(0)
    mass = float(np.sum(w))
    mean = float(np.sum(x * w)) / mass
    return float(np.sum((x - mean) ** 2 * w)) / mass


# Pass thresholds of the reduction suite.
_NORM_TOL = 1e-8
_DISPERSION_TOL = 1e-10
_VARIANCE_TOL = 1e-6
_EXACT_TOL = 1e-12
_CONTINUITY_ORDER_FLOOR = 1.9


def projected_peak_bytes(points: int, steps: int) -> int:
    """Bytes ``verify_reduction(points=points, steps=steps)`` allocates at
    its peak, in closed form.

    The peak falls in the continuity check's loop: psi0, the Fourier state,
    the multiplier and the psi and lap psi buffers are five complex arrays
    of ``points`` values, k^2, the three j_tau buffers and div j five real
    ones, and numpy casts k^2 to complex for the lap product through a
    buffer of at most 8192 values: 7.5 complex arrays and that buffer
    (measured: 7.63 at 65536 points, 7.95 at 16384).  The formula takes 10,
    adds the step table's three columns, 24 bytes a snapshot, and 256 KiB
    for the fixed-size checks (the 512-point diffusion run among them).  The
    margin is kept because the process grows by more than numpy allocates.
    The test suite checks the bound against tracemalloc.
    """
    return 16 * 10 * points + 24 * (steps + 1) + 2**18


def verify_reduction(*, points: int = 256, steps: int = 64) -> dict:
    """Run the light-cone reduction suite and report residuals plus pass/fail.

    Checks: spectral norm drift per step, plane-wave dispersion against
    omega = c lhat k^2 / 2, continuity-residual convergence order under time
    refinement, diffusion variance growth against sigma0^2 + c Lambda u,
    5D null-dispersion and light-cone-map exactness, and the spectral
    semigroup composition defect.

    The evolutions are read as streams and no snapshot is kept: the
    continuity check reads them into buffers allocated once
    (:func:`continuity_residual`), so memory is O(points) and independent
    of ``steps``; only the returned step table grows with ``steps``: the
    columns step, norm and |norm - norm_0|, one entry per snapshot.  The
    norms are read from the Fourier states (:func:`_norms`), so the
    ``steps``-long stream takes no inverse transform.  With numpy.fft
    loaded and nothing yet allocated, a run whose ``projected_peak_bytes``
    exceeds what may still be allocated is refused
    (``numerics.check_memory``).
    """
    import numpy.fft  # noqa: F401  not at the top: verify-geometry imports this module
    check_memory("verify-reduction", projected_peak_bytes(points, steps),
                 f"points {points}, steps {steps}")
    lhat, c = 0.7, 1.3
    box = 40.0
    psi0 = gaussian_packet(points, box, 1.0, k0=2.0 * math.pi / box * 5)
    norms = _norms(psi0, lhat, c, steps)
    checks, passed = _short_checks(psi0, lhat, c, box)
    residuals = np.abs(norms - norms[0])
    norm_drift = float(np.max(residuals[1:])) / steps
    return {
        "norm_drift_per_step": norm_drift,
        **checks,
        "step_table": (np.arange(norms.size), norms, residuals),
        "passed": bool(norm_drift <= _NORM_TOL and passed),
    }


def _norms(psi0: GridField, lhat: float, c: float, steps: int) -> np.ndarray:
    """The norm of each snapshot of the spectral evolution over tau = 2.

    By Parseval's identity for the unnormalised FFT of N points,
    ||psi||^2 = (h / N) sum_k |Psi_k|^2 with h the cell volume, so each
    norm is read from the Fourier state, its |Psi_k|^2 formed in one buffer,
    and no snapshot is transformed back.
    """
    mult = _multiplier(_k_squared(psi0), 2.0, 1j * c * lhat / 2.0, steps)
    scale = psi0.cell_volume / psi0.values.size
    power = np.empty(psi0.values.shape)
    return np.fromiter((np.sqrt(np.sum(np.square(np.abs(state, out=power), out=power)) * scale)
                        for state in _fourier_states(psi0, mult, steps)),
                       dtype=float, count=steps + 1)


def _dispersion_error(psi0: GridField, lhat: float, c: float, box: float) -> float:
    """Phase error of one spectral step of a plane wave on psi0's grid
    against omega = c lhat k^2 / 2; the wave is dropped on return."""
    k = 2.0 * math.pi / box * 7
    x = psi0.coords(0)
    wave = GridField(values=np.exp(1j * k * x), step=psi0.step,
                     origin=psi0.origin, boundary="periodic")
    tau = 0.37
    evolved = _last(evolve_schrodinger(wave, tau, lhat, 1, c=c))
    expected_phase = -c * lhat * k * k / 2.0 * tau
    i = psi0.values.size // 3
    measured = np.angle(evolved.values[i] / wave.values[i])
    return abs((measured - expected_phase + math.pi) % (2.0 * math.pi) - math.pi)


def _short_checks(psi0: GridField, lhat: float, c: float, box: float) -> tuple[dict, bool]:
    """Every check of :func:`verify_reduction` but norm conservation: the
    residuals by name, and whether all of them pass."""
    # plane-wave dispersion, one spectral step
    dispersion_err = _dispersion_error(psi0, lhat, c, box)

    # continuity residual: second order in the snapshot spacing
    resids = []
    dts = []
    for nsteps in (16, 32, 64):
        resids.append(continuity_residual(psi0, lhat, 1.0, nsteps, c=c))
        dts.append(1.0 / nsteps)
    continuity_order = fit_convergence_order(dts, resids)

    # diffusion variance growth
    rho0 = gaussian_packet(512, box, 1.0)
    rho0 = rho0.with_values(np.abs(rho0.values) ** 2)
    u_span, Lam = 2.0, 1.0
    rho1 = _last(evolve_fokker_planck(rho0, u_span, Lam, 32, c=c))
    var_err = abs(field_variance(rho1, density=True)
                  - (field_variance(rho0, density=True) + c * Lam * u_span))
    mass0 = float(np.sum(rho0.values)) * rho0.cell_volume
    mass1 = float(np.sum(rho1.values)) * rho0.cell_volume
    mass_err = abs(mass1 - mass0)

    # exact small checks
    null_err = abs(null_dispersion_check([3.0, 0.0, 0.0, 0.0, 3.0]))
    xs = np.array([0.3, -1.2, 0.8, 2.2, -0.7])
    roundtrip = float(np.max(np.abs(
        lightcone_transform(lightcone_transform(xs), "inverse") - xs)))
    jac = lightcone_jacobian()
    # the map mixes x^0 and x^5 alone: its determinant is that 2 x 2 block's
    det_err = abs(abs(jac[0, 0] * jac[4, 4] - jac[0, 4] * jac[4, 0]) - 1.0)
    grad_y0 = jac[0]
    null_grad = float(grad_y0 @ _ETA5 @ grad_y0)

    semigroup = propagator_composition_check(lhat, 0.4, 0.9, psi0, c=c)

    passed = (
        dispersion_err <= _DISPERSION_TOL
        and continuity_order >= _CONTINUITY_ORDER_FLOOR
        and var_err <= _VARIANCE_TOL
        and mass_err <= 1e-10
        and null_err == 0.0
        and roundtrip <= _EXACT_TOL
        and det_err <= _EXACT_TOL
        and abs(null_grad) == 0.0
        and semigroup <= 1e-12
    )
    return {
        "dispersion_error": dispersion_err,
        "continuity_residuals": resids,
        "continuity_order": continuity_order,
        "fp_variance_error": var_err,
        "fp_mass_error": mass_err,
        "null_dispersion": null_err,
        "lightcone_roundtrip": roundtrip,
        "lightcone_det_defect": det_err,
        "lightcone_null_gradient": abs(null_grad),
        "semigroup_defect": semigroup,
    }, passed
