"""Hydrogenic spectra in the quantum and statistical pictures.

Three equivalent quantizations are implemented:

* ``kg_energy`` - the closed-form relativistic bound-state energies E_nl of a
  spinless charge in a Coulomb field,
* ``matching_residual`` - the same condition rewritten as a matching between
  the metric length scale lambda* and the two propagation wavelengths
  (lambda, lambda'); its root in lambda' reproduces hbar*c/E_nl,
* ``stat_wavelengths`` / ``stat_energy`` - the statistical-mechanics
  analogue, where the quantization fixes a thermal wavelength
  Lambda'_nl > Lambda.  The condition is implicit, so it is solved
  numerically, with the non-relativistic expansion
  Lambda*(1 + (lambda*/Lambda)^2 / (2 n^2)) as cross-check.  The levels of a
  whole table go through one lockstep root solve, each level bit for bit as
  alone; one level is a table of one.

Everything is evaluated in dimensionless ratios internally; ``ScaleSet``
carries the physical scales and converts at the boundary.  All functions
are pure over immutable scale sets and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, DomainError
from .numerics import Tolerance, find_roots

_REL_TOL = 1e-12


def _close(a: float, b: float, rel: float = _REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class ScaleSet:
    """Physical scales and couplings for one configuration.

    Stored fields are the independent quantities; everything else (Compton
    wavelength, statistical wavelength, coupling lengths, cavity volume, ...)
    is derived through properties so the consistency relations hold by
    construction.  ``validate`` re-checks the relations for instances built
    by hand.

    Sign convention: ``lambda_star = q*(Z*e)/c^2`` is kept non-negative (it
    equals Z times the classical particle radius); the attractive sign of the
    Coulomb coupling is carried by the formulas that consume it.
    """

    c: float = 1.0          # speed of light
    hbar: float = 1.0       # reduced Planck constant
    m: float = 1.0          # inertial mass (quantum picture)
    M: float = 1.0          # statistical mass, Lambda = hbar/(M c)
    q: float = 0.0          # specific charge, q = e/m
    Z: int = 1              # nuclear charge number
    alpha: float = 0.0072973525693  # fine-structure constant e^2/(hbar c)
    beta: float = 1.0       # inverse temperature 1/(k_B T)
    zeta: float = 1.0       # drag coefficient, Lambda = 2/(beta zeta c)
    u: float = 1.0          # time quantum (free parameter for hydrogen)
    R: float = 50.0         # cavity radius

    # -- derived scales -----------------------------------------------------

    @property
    def mc2(self) -> float:
        return self.m * self.c**2

    @property
    def Mc2(self) -> float:
        return self.M * self.c**2

    @property
    def e_charge(self) -> float:
        return math.sqrt(self.alpha * self.hbar * self.c)

    @property
    def lambda_c(self) -> float:
        """Compton wavelength hbar/(m c)."""
        return self.hbar / (self.m * self.c)

    @property
    def lambda_star(self) -> float:
        """Metric length scale q (Z e)/c^2  (= Z alpha * lambda_c)."""
        return self.q * self.Z * self.e_charge / self.c**2

    @property
    def Lambda(self) -> float:
        """Statistical wavelength hbar/(M c)."""
        return self.hbar / (self.M * self.c)

    @property
    def eta0(self) -> float:
        """u M c^2 / hbar."""
        return self.u * self.Mc2 / self.hbar

    @property
    def rho(self) -> float:
        """Bohr-like radius Lambda^2/lambda*; infinite when the coupling is off."""
        ls = self.lambda_star
        return self.Lambda**2 / ls if ls > 0 else math.inf

    @property
    def V(self) -> float:
        """Cavity volume 4 pi R^3 / 3."""
        return 4.0 * math.pi * self.R**3 / 3.0

    @property
    def coupling_qm(self) -> float:
        """lambda*/lambda = Z alpha."""
        return self.Z * self.alpha

    @property
    def coupling_stat(self) -> float:
        """lambda*/Lambda."""
        return self.lambda_star / self.Lambda

    # -- construction and checks --------------------------------------------

    @classmethod
    def build(
        cls,
        Z: int = 1,
        alpha: float = 0.0072973525693,
        lambda_star_over_Lambda: float | None = None,
        M_over_m: float | None = None,
        eta0: float = 1.0,
        R_over_rho: float | None = None,
        R_over_Lambda: float | None = None,
        c: float = 1.0,
        hbar: float = 1.0,
        m: float = 1.0,
    ) -> "ScaleSet":
        """Build a consistent scale set from dimensionless ratios.

        The statistical coupling lambda*/Lambda equals Z*alpha*(M/m); give
        either that ratio or M/m (default M = m).  ``eta0`` fixes the time
        quantum u; the drag coefficient keeps the free-particle relation
        u = 2m/zeta and the temperature follows from Lambda = 2/(beta zeta c).
        The cavity radius comes from R_over_rho (preferred when the coupling
        is on) or R_over_Lambda.  Every argument given must be finite, and
        c, hbar, m, eta0 and the cavity ratios positive, so that the set built
        passes :meth:`validate`.
        """
        given = dict(Z=Z, alpha=alpha, lambda_star_over_Lambda=lambda_star_over_Lambda,
                     M_over_m=M_over_m, eta0=eta0, R_over_rho=R_over_rho,
                     R_over_Lambda=R_over_Lambda, c=c, hbar=hbar, m=m)
        for name, value in given.items():
            if value is not None and not math.isfinite(value):
                raise DomainError(f"need a finite {name}, got {value}")
        positive = dict(c=c, hbar=hbar, m=m, eta0=eta0, R_over_rho=R_over_rho,
                        R_over_Lambda=R_over_Lambda)
        for name, value in positive.items():
            if value is not None and not value > 0:
                raise DomainError(f"need {name} > 0, got {value}")
        if Z < 0:
            raise DomainError(f"need Z >= 0, got {Z}")
        if alpha < 0:
            raise DomainError(f"need alpha >= 0, got {alpha}")
        za = Z * alpha
        if lambda_star_over_Lambda is not None:
            if za == 0:
                raise DomainError("lambda_star_over_Lambda needs Z*alpha > 0")
            if M_over_m is not None and not _close(lambda_star_over_Lambda, za * M_over_m, 1e-9):
                raise DomainError("lambda_star_over_Lambda and M_over_m disagree")
            M_over_m = lambda_star_over_Lambda / za
        if M_over_m is None:
            M_over_m = 1.0
        if M_over_m <= 0:
            raise DomainError("need M/m > 0")

        M = M_over_m * m
        Lambda = hbar / (M * c)
        u = eta0 * hbar / (M * c**2)
        zeta = 2.0 * m / u
        beta = 2.0 / (zeta * Lambda * c)
        e = math.sqrt(alpha * hbar * c)
        q = (e / m) if alpha > 0 else 0.0

        lam_star = q * Z * e / c**2
        if R_over_rho is not None:
            if lam_star <= 0:
                raise DomainError("R_over_rho needs a positive coupling; use R_over_Lambda")
            R = R_over_rho * Lambda**2 / lam_star
        elif R_over_Lambda is not None:
            R = R_over_Lambda * Lambda
        else:
            R = 50.0 * Lambda
        return cls(c=c, hbar=hbar, m=m, M=M, q=q, Z=Z, alpha=alpha,
                   beta=beta, zeta=zeta, u=u, R=R)

    def validate(self) -> None:
        """Check the internal consistency relations (raises DomainError)."""
        if min(self.c, self.hbar, self.m, self.M, self.u, self.R) <= 0:
            raise DomainError("c, hbar, m, M, u, R must all be positive")
        if not _close(self.lambda_star / self.lambda_c, self.Z * self.alpha) and self.alpha > 0:
            raise DomainError("lambda*/lambda != Z*alpha")
        if self.lambda_star > 0 and not _close(self.rho * self.lambda_star, self.Lambda**2):
            raise DomainError("rho * lambda* != Lambda^2")
        if not _close(self.eta0, self.u * self.Mc2 / self.hbar):
            raise DomainError("eta0 != u M c^2 / hbar")
        if not _close(self.Lambda, 2.0 / (self.beta * self.zeta * self.c)):
            raise DomainError("Lambda != 2/(beta zeta c)")
        if not _close(self.V, 4.0 * math.pi * self.R**3 / 3.0):
            raise DomainError("V inconsistent with R")


@dataclass(frozen=True)
class LevelIndex:
    """Principal and angular quantum numbers, n >= 1 and 0 <= l <= n."""

    n: int
    l: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if not 0 <= self.l <= self.n:
            raise DomainError(f"need 0 <= l <= n, got l={self.l}, n={self.n}")


def _critical(n: int, l: int, za2: float) -> DomainError:
    return DomainError(
        f"(l+1/2)^2 {'+' if za2 >= 0 else '-'} coupling^2 <= 0 at n={n}, l={l}: "
        f"critical coupling {(l + 0.5):.6g}"
    )


def _bracket_term(n: int, l: int, za2: float) -> float:
    """n - l - 1/2 + sqrt((l+1/2)^2 + za2); za2 may be negative (stat picture)."""
    s = (l + 0.5) ** 2 + za2
    if s <= 0:
        raise _critical(n, l, za2)
    return n - l - 0.5 + math.sqrt(s)


def kg_energy(idx: LevelIndex, scales: ScaleSet) -> float:
    """Relativistic bound-state energy E_nl of the hydrogenic KG problem.

    E_nl = mc^2 (1 + (Z a)^2 / [n - l - 1/2 + sqrt((l+1/2)^2 - (Z a)^2)]^2)^(-1/2)

    The minus sign under the inner root is the standard spinless-Coulomb
    result: it gives the physical level ordering (E grows with l at fixed n)
    and the well-known critical coupling Z a = l + 1/2, past which the
    problem leaves the real domain and DomainError is raised.
    """
    za = scales.coupling_qm
    b = _bracket_term(idx.n, idx.l, -(za * za))
    return scales.mc2 / math.sqrt(1.0 + (za / b) ** 2)


def kg_binding_energy(idx: LevelIndex, scales: ScaleSet) -> float:
    """mc^2 - E_nl, evaluated without cancellation.

    Uses expm1/log1p so the O(alpha^2) binding stays fully resolved even at
    couplings where the direct difference would lose every significant digit
    (mc^2 - E ~ 1e-9 mc^2 at alpha = 1e-4).
    """
    za = scales.coupling_qm
    b = _bracket_term(idx.n, idx.l, -(za * za))
    y = (za / b) ** 2
    return -scales.mc2 * math.expm1(-0.5 * math.log1p(y))


def matching_residual(lambda_prime: float, idx: LevelIndex, scales: ScaleSet) -> float:
    """LHS - RHS of the wavelength matching condition.

    [(lambda'/lambda)^2 - 1] * [n - l - 1/2 + sqrt((l+1/2)^2 - (lambda*/lambda)^2)]^2
        = (lambda*/lambda)^2

    Quantization as a matching between the metric scale lambda* and the two
    propagation wavelengths; zero exactly when lambda' = hbar c / E_nl (the
    bracket carries the same corrected sign as kg_energy).
    """
    if lambda_prime <= 0:
        raise DomainError(f"need lambda' > 0, got {lambda_prime}")
    za = scales.coupling_qm
    t = lambda_prime / scales.lambda_c
    b = _bracket_term(idx.n, idx.l, -(za * za))
    return (t * t - 1.0) * b * b - za * za


def _stat_residuals(x: np.ndarray, n: np.ndarray, l: np.ndarray, eps: float):
    """Residual of the statistical quantization in x = Lambda/Lambda', per level.

    [(Lambda/Lambda')^2 - 1] * [n - l - 1/2 + sqrt((l+1/2)^2 - (lambda*/Lambda')^2)]^2
        + (lambda*/Lambda')^2,   with lambda*/Lambda' = eps * x.

    Returns the residuals and the mask of levels whose square root is not
    real, where the residual is meaningless.
    """
    ex = eps * x
    za2 = -(ex * ex)
    s = (l + 0.5) ** 2 + za2
    bad = s <= 0
    b = n - l - 0.5 + np.sqrt(np.where(bad, 0.0, s))
    return (x * x - 1.0) * b * b + ex * ex, bad


def _critical_at(x: np.ndarray, n: np.ndarray, l: np.ndarray, eps: float, i: int):
    ex = eps * float(x[i])
    return _critical(int(n[i]), int(l[i]), -(ex * ex))


def stat_wavelengths(
    ns, ls, scales: ScaleSet, tol: Tolerance = Tolerance(rel=1e-15, abs=0.0)
) -> tuple[np.ndarray, dict]:
    """Thermal wavelengths Lambda'_nl > Lambda solving the statistical quantization.

    Each level is a bracketed root in x = Lambda/Lambda' on [1/2, 1]; the
    non-relativistic expansion Lambda*(1 + eps^2/(2 n^2)) is its documented
    small-coupling limit, not a seed (the solver is bisection plus secant).
    Returns ``(wavelengths, refused)``: one Lambda'_nl per level (n, l), and
    the row index of each level without a root mapped to its reason, a
    DomainError when the coupling pushes the square root complex (naming the
    critical ratio) or a BracketingError when the residual has no sign
    change on the bracket; those rows are NaN.  The roots of all other
    levels are solved together by :func:`find_roots`, each exactly as alone;
    a root it cannot localize raises NonConvergenceError for the whole call.
    """
    ns = np.asarray(ns, dtype=np.int64)
    ls = np.asarray(ls, dtype=np.int64)
    eps = scales.coupling_stat
    out = np.full(len(ns), scales.Lambda)
    refused = {}
    if eps == 0.0:
        return out, refused
    domain = eps >= ls + 0.5
    for i in np.flatnonzero(domain).tolist():
        refused[i] = DomainError(
            f"coupling lambda*/Lambda = {eps:.6g} >= l + 1/2 = {int(ls[i]) + 0.5}: "
            "statistical quantization leaves the real domain"
        )
    rows = np.flatnonzero(~domain)
    n, l = ns[rows], ls[rows]
    half, one = np.full(len(rows), 0.5), np.ones(len(rows))
    f_half, bad_half = _stat_residuals(half, n, l, eps)
    f_one, bad_one = _stat_residuals(one, n, l, eps)
    not_real = bad_half | bad_one
    for j in np.flatnonzero(not_real).tolist():
        refused[int(rows[j])] = _critical_at(half if bad_half[j] else one, n, l, eps, j)
    unbracketed = ~not_real & ~((f_half < 0.0) & (0.0 < f_one))
    for j in np.flatnonzero(unbracketed).tolist():
        refused[int(rows[j])] = BracketingError(
            f"statistical quantization not bracketed on [Lambda, 2 Lambda] "
            f"for n={int(n[j])}, l={int(l[j])}, coupling={eps:.6g}"
        )
    solve = ~(not_real | unbracketed)
    rows, n, l = rows[solve], n[solve], l[solve]

    def residual(x, owner):
        r, bad = _stat_residuals(x, n[owner], l[owner], eps)
        if bad.any():
            raise _critical_at(x, n[owner], l[owner], eps, int(np.argmax(bad)))
        return r

    out[rows] = scales.Lambda / find_roots(residual, half[solve], one[solve], tol)
    out[list(refused)] = np.nan
    return out, dict(sorted(refused.items()))


def stat_wavelength_expansion(idx: LevelIndex, scales: ScaleSet) -> float:
    """Non-relativistic expansion Lambda*(1 + (lambda*/Lambda)^2/(2 n^2))."""
    eps = scales.coupling_stat
    return scales.Lambda * (1.0 + 0.5 * eps * eps / idx.n**2)


def stat_energy(n: int, scales: ScaleSet) -> float:
    """Non-relativistic statistical level energy, independent of l.

    e_n = M c^2 * (1 - (lambda*/Lambda)^2 / (2 n^2)); the coupling ratio
    equals (Z e) q M / (hbar c), reproducing the familiar 1/n^2 ladder.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    eps = scales.coupling_stat
    return scales.Mc2 * (1.0 - 0.5 * eps * eps / (n * n))
