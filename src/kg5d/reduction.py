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
``continuity_residual`` reads such a stream once, holding j_tau of two
snapshots and div j of the one between them and dropping each j_k once its
term of div j is added, so it runs in O(points) memory whatever the number
of steps.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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


def field_derivative(f: GridField, axis: int, order: int = 1) -> np.ndarray:
    """Derivative of a sampled field along ``axis``: the exact Fourier
    multiplier on a periodic field, central finite differences on an
    absorbing one."""
    return _derivative(f, f.values, axis, order)


def _derivative(grid: GridField, values: np.ndarray, axis: int, order: int) -> np.ndarray:
    """:func:`field_derivative` of ``values`` sampled on the grid of ``grid``."""
    if grid.boundary == "absorbing":
        return fd_derivative(values, axis, order, grid.step[axis])
    shape = [1] * values.ndim
    shape[axis] = -1
    mult = _spectral_symbol(values.shape[axis], grid.step[axis], order).reshape(shape)
    transform = np.fft.fft(values, axis=axis)
    np.multiply(mult, transform, out=transform)
    return np.fft.ifft(transform, axis=axis, out=transform)


def _wavenumbers(points: int, step: float) -> np.ndarray:
    """Angular wavenumbers of the FFT grid of ``points`` samples ``step`` apart."""
    return 2.0 * math.pi * np.fft.fftfreq(points, d=step)


@functools.lru_cache(maxsize=16)
def _spectral_symbol(points: int, step: float, order: int) -> np.ndarray:
    """(i k)^order on the FFT grid of ``points`` samples ``step`` apart, built
    once per grid and order and shared read-only."""
    mult = (1j * _wavenumbers(points, step)) ** order
    mult.flags.writeable = False
    return mult


def _k_squared(f: GridField) -> np.ndarray:
    """Symbol of -lap on the FFT grid of ``f``: the sum over axes of k^2."""
    total = np.zeros(f.values.shape)
    for ax in range(f.values.ndim):
        shape = [1] * f.values.ndim
        shape[ax] = -1
        total = total + f.wavenumbers(ax).reshape(shape) ** 2
    return total


def _evolve(psi0: GridField, span: float, coeff: complex, steps: int) -> Iterator[GridField]:
    """Shared core: d/dt psi = coeff * lap psi, periodic, any dimension.

    Checks the arguments at call time (:func:`_multiplier`) and returns a
    generator of the ``steps + 1`` snapshots, psi0 first, each produced only
    when asked for, so a consumer that keeps none of them needs O(points)
    memory.
    """
    mult = _multiplier(psi0, span, coeff, steps)
    return (psi0.with_values(np.fft.ifftn(state)) if i else psi0
            for i, state in enumerate(_fourier_states(psi0, mult, steps)))


def _multiplier(psi0: GridField, span: float, coeff: complex, steps: int) -> np.ndarray:
    """The Fourier factor exp(-coeff k^2 dt) by which one step of ``_evolve``
    multiplies every mode, after checking the arguments."""
    if psi0.boundary != "periodic":
        raise ConfigurationError("evolution needs periodic boundaries")
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    if not span >= 0:
        raise ConfigurationError("evolution span must be non-negative")
    return np.exp(-coeff * _k_squared(psi0) * (span / steps))


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


def _current_component(s: GridField, a: float, axis: int) -> np.ndarray:
    """j_k = a Im(psi* d_k psi) of one snapshot, for k = ``axis``."""
    psi = s.values
    d = _derivative(s, psi, axis, 1)
    return a * np.imag(np.multiply(np.conj(psi), d, out=d))


def continuity_residual(snapshots: Iterable[GridField], a: float, dt: float) -> float:
    """max|d j_tau/dtau + div j| over the interior of a snapshot stream.

    The current of a snapshot is j_tau = |psi|^2 >= 0 and
    j_k = a Im(psi* d_k psi), with a = c lhat for the Schroedinger stream.
    (j_tau, j_k) is tied to the light-cone slicing and is not a four-vector;
    no Lorentz transformation of it is defined here.  d j_tau/dtau is the
    central difference over snapshots ``dt`` apart, so the residual
    converges at the scheme order under simultaneous refinement.

    The stream is read once, holding only what the difference reads: j_tau
    of the middle snapshot's two neighbours and its div j.  No j_k outlives
    its term of div j.  A stream of fewer than three snapshots raises
    ``ConfigurationError``.
    """
    older = old = div = None
    residual = 0.0
    count = 0
    for count, s in enumerate(snapshots, 1):
        new = np.abs(s.values) ** 2
        if older is not None:
            djdt = np.subtract(new, older, out=older)  # older is not read again
            djdt /= 2.0 * dt
            djdt += div
            residual = max(residual, float(np.max(np.abs(djdt, out=djdt))))
        older, old = old, new
        div = np.zeros(s.values.shape)  # the middle's div is not read again
        for ax in range(s.values.ndim):
            div += np.real(_derivative(s, _current_component(s, a, ax), ax, 1))
    if count < 3:
        raise ConfigurationError("need at least three snapshots for the continuity check")
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
        kin = kin + field_derivative(psi, ax, 2)
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
    evolve: Callable[[GridField, float], GridField], tau1: float, tau2: float, psi0: GridField,
) -> float:
    """Semigroup defect ||U(t1+t2) psi - U(t2) U(t1) psi|| / ||psi||."""
    whole = evolve(psi0, tau1 + tau2)
    parts = evolve(evolve(psi0, tau1), tau2)
    diff = whole.values - parts.values
    denom = psi0.l2_norm()
    if denom == 0:
        raise DomainError("zero initial state")
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * psi0.cell_volume)) / denom


def schrodinger_evolver(lambda_hat: float, *,
                        c: float = 1.0) -> Callable[[GridField, float], GridField]:
    """Closure mapping (psi, tau) to the field evolved by one exact step; for
    composition checks."""
    def run(psi: GridField, tau: float) -> GridField:
        if tau == 0.0:
            return psi.with_values(np.asarray(psi.values, dtype=complex))
        return _last(evolve_schrodinger(psi, tau, lambda_hat, 1, c=c))
    return run


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def gaussian_packet(n: int, box: float, sigma: float, k0: float = 0.0) -> GridField:
    """Normalized 1-D Gaussian packet centred in a periodic box."""
    if n < 1:
        raise ConfigurationError(f"points must be >= 1, got {n}")
    h = box / n
    x = -0.5 * box + h * np.arange(n)
    psi = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-x * x / (4.0 * sigma**2))
    if k0:
        psi = psi * np.exp(1j * k0 * x)
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

    The peak falls in the continuity check, where beside psi0, the
    evolver's Fourier state and multiplier and one snapshot, the three
    real arrays of the difference are held and a j_k is formed from a
    complex derivative: about 9.5 complex arrays of ``points`` values in a
    fresh process, where the FFT plans of that size are new too, 8.5 in one
    that has run before.  The formula takes 10, adds the step table's three
    columns, 24 bytes a snapshot, and 256 KiB for the fixed-size checks
    (the 512-point diffusion run among them).  The test suite checks the
    bound against tracemalloc.
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
    continuity difference holds j_tau of two snapshots and div j of the
    one between them (:func:`continuity_residual`), so memory is
    O(points) and independent of ``steps``; only the returned step table
    grows with ``steps``: the columns step, norm and |norm - norm_0|, one
    entry per snapshot.  The norms are read from the Fourier states (:func:`_norms`),
    so the ``steps``-long stream takes no inverse transform.  Before
    allocating anything, a run whose ``projected_peak_bytes`` exceeds what
    may still be allocated is refused (``numerics.check_memory``).
    """
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
    norm is read from the Fourier state and no snapshot is transformed back.
    """
    mult = _multiplier(psi0, 2.0, 1j * c * lhat / 2.0, steps)
    scale = psi0.cell_volume / psi0.values.size
    return np.fromiter((np.sqrt(np.sum(np.abs(state) ** 2) * scale)
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
        snaps = evolve_schrodinger(psi0, 1.0, lhat, nsteps, c=c)
        resids.append(continuity_residual(snaps, c * lhat, 1.0 / nsteps))
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
    det_err = abs(abs(np.linalg.det(jac)) - 1.0)
    grad_y0 = jac[0]
    null_grad = float(grad_y0 @ _ETA5 @ grad_y0)

    run = schrodinger_evolver(lhat, c=c)
    semigroup = propagator_composition_check(run, 0.4, 0.9, psi0)

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
