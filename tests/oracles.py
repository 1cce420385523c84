"""Cross-check oracles that the tests compare the command path against.

None of these runs in a command.  Each is an independent route to a number
the package computes another way:

* the two-branch large-degree Laguerre asymptotics and the density they give,
  against the rescaled recurrence (``specfun._laguerre_ladder``);
* the substituted Klein-Gordon operator on a 4D grid field, against whose
  form ``geometry.kg_fourier_residual`` checks the divergence term;
* the trapped degeneracies in exact rational arithmetic, against
  ``canonical._trapped_levels``' quadrature;
* the continuity residual from the currents j_k themselves, against
  ``reduction.continuity_residual``'s closed form div j = a Im(psi* lap psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
import numpy as np

from kg5d.errors import DomainError, LaguerreOverflowError
from kg5d.geometry import _ETA_DIAG, Potential, _grid_coords
from kg5d.reduction import GridField, _derivative, _fourier_states, _k_squared, _multiplier


class TurningPointError(DomainError):
    """Asymptotic evaluation requested inside the excluded turning-point band."""


# ---------------------------------------------------------------------------
# Large-degree Laguerre asymptotics (two branches; the turning point r = 4 is
# excluded)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticBranch:
    """Branch classification for the large-degree Laguerre expansion.

    ``varrho`` is the oscillatory phase function (defined for argument in
    [0, 1]); ``varsigma`` the exponential one (argument >= 1).  Whichever does
    not apply to the region is None.
    """

    region: str  # "oscillatory" (r < 4) or "exponential" (r >= 4)
    varrho: Optional[float]
    varsigma: Optional[float]


def varrho(t: float) -> float:
    """Oscillatory phase function (sqrt(t - t^2) + asin(sqrt(t)))/2 on [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"varrho needs argument in [0, 1], got {t}")
    return 0.5 * (math.sqrt(t - t * t) + math.asin(math.sqrt(t)))


def varsigma(t: float) -> float:
    """Exponential phase function (sqrt(t^2 - t) - acosh(sqrt(t)))/2 for t >= 1."""
    if t < 1.0:
        raise DomainError(f"varsigma needs argument >= 1, got {t}")
    return 0.5 * (math.sqrt(t * t - t) - math.acosh(math.sqrt(t)))


def _varrho_prime(t: float) -> float:
    return 0.5 * math.sqrt((1.0 - t) / t)


def _varsigma_prime(t: float) -> float:
    return 0.5 * math.sqrt((t - 1.0) / t)


def _varsigma_second(t: float) -> float:
    return 1.0 / (4.0 * t ** 1.5 * math.sqrt(t - 1.0))


def asymptotic_branch(r: float) -> AsymptoticBranch:
    """Classify r and evaluate the applicable phase function at r/4."""
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r < 4.0:
        return AsymptoticBranch("oscillatory", varrho(r / 4.0), None)
    return AsymptoticBranch("exponential", None, varsigma(r / 4.0))


def _check_asymptotic_args(n: int, r: float, min_n: int, margin: float) -> None:
    """The asymptotic kernels' refusals: a degree below ``min_n``, r <= 0,
    and r within ``margin`` of the turning point r = 4."""
    if n < min_n:
        raise DomainError(f"asymptotic form needs n >= {min_n}, got {n}")
    if not r > 0:
        raise DomainError(f"need r > 0, got {r}")
    if abs(r - 4.0) <= margin:
        raise TurningPointError(
            f"r={r} is within the excluded band |r-4| <= {margin} around the turning point"
        )


def laguerre_asymptotic(
    n: int, r: float, *, min_n: int = 50, margin: float = 0.2
) -> float:
    """Large-degree two-branch approximation of L_{n-1}^{(1)}(r*n).

    Oscillatory for r < 4, single-signed (-1)^(n-1) exponential branch for
    r > 4; the band |r - 4| <= margin around the turning point is refused
    (the Airy-regime matching is out of scope) and so are degrees below
    ``min_n`` where the leading order is not trustworthy.  Relative accuracy
    is O(1/n) away from the turning point.  Values beyond double range raise
    LaguerreOverflowError; the rescaled recurrence carries them instead.
    """
    _check_asymptotic_args(n, r, min_n, margin)
    w = r / 4.0
    x = r * n
    if r < 4.0:
        p = _varrho_prime(w)
        log_amp = 0.5 * x - math.log(r * math.sqrt(math.pi * n * p))
        osc = math.cos(4.0 * n * varrho(w) - 0.75 * math.pi)
        if log_amp > 709.0:
            raise LaguerreOverflowError(n, x, f"asymptotic amplitude e^{log_amp:.1f} overflows")
        return math.exp(log_amp) * osc
    # Single-saddle region: half the oscillatory-envelope amplitude (the
    # factor 1/2 is confirmed against the recurrence, ratio -> 2 without it).
    s = _varsigma_prime(w)
    log_amp = 0.5 * x - 4.0 * n * varsigma(w) - math.log(2.0 * r * math.sqrt(math.pi * n * s))
    if log_amp > 709.0:
        raise LaguerreOverflowError(n, x, f"asymptotic amplitude e^{log_amp:.1f} overflows")
    sign = 1.0 if (n - 1) % 2 == 0 else -1.0
    return sign * math.exp(log_amp)


def asymptotic_combo(n: int, r: float, *, min_n: int = 50, margin: float = 0.2) -> float:
    """Leading-order M'^2 - M M'' for M_{n,1/2} at argument r*n.

    The e^{x/2} amplitudes cancel analytically, so this never overflows.  On
    the oscillatory branch the leading order is smooth (the sin^2 + cos^2
    envelope); on the exponential branch the leading terms cancel and the
    first surviving amplitude-derivative term is returned.
    """
    _check_asymptotic_args(n, r, min_n, margin)
    w = r / 4.0
    if r < 4.0:
        return _varrho_prime(w) / (math.pi * n)
    s1 = _varsigma_prime(w)
    s2 = _varsigma_second(w)
    expo = -8.0 * n * varsigma(w)
    if expo < -745.0:
        return 0.0
    # (d^2S/dr^2 / n) * M^2 with the halved single-saddle amplitude squared
    return (s2 / (4.0 * n)) * 0.25 * math.exp(expo) / (math.pi * n * s1)


def dn_scaled_asymptotic(n: int, r: float, **kw) -> float:
    """Rescaled density from the two-branch large-n Laguerre asymptotics.

    Leading order only: on the oscillatory branch this is exactly the
    universal profile, on the exponential branch the surviving
    amplitude-derivative term.  The recurrence is the reference evaluation
    at every n.
    """
    return 0.5 * r * r * n * asymptotic_combo(n, r, **kw)


# ---------------------------------------------------------------------------
# Fourier-reduced Klein-Gordon operator (single x^5 mode)
# ---------------------------------------------------------------------------

def _sampled_potential(psi: GridField, A: Potential):
    """A_mu on the field's grid, shape (4,) + grid, and its divergence d_mu A^mu
    taken as the field is differentiated (``reduction._derivative``)."""
    coords = _grid_coords(psi)
    shape = np.broadcast(*coords).shape
    a = np.ascontiguousarray(np.broadcast_to(A.components(coords), (4,) + shape))
    div = np.zeros(shape)
    for mu in range(4):
        div += _ETA_DIAG[mu] * np.real(_derivative(psi, a[mu], mu, 1))
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
    if psi.values.ndim != 4:
        raise DomainError("kg_operator needs a 4D field")
    b = q_over_c2 * inv_lambda
    a, div = _sampled_potential(psi, A)
    f = psi.values
    out = np.zeros(f.shape, dtype=complex)
    a2 = np.zeros_like(div)
    for mu in range(4):
        d2 = _derivative(psi, f, mu, 2)
        d1 = _derivative(psi, f, mu, 1)
        out += _ETA_DIAG[mu] * (d2 - 2j * b * a[mu] * d1)
        a2 = a2 + _ETA_DIAG[mu] * a[mu]**2
    out += (-1j * b * div - b * b * a2 - inv_lambda**2) * f
    return out


# ---------------------------------------------------------------------------
# Continuity from the currents
# ---------------------------------------------------------------------------

def snapshots(psi0: GridField, span: float, coeff: complex, steps: int) -> list:
    """Every snapshot of the evolution d/dt psi = coeff lap psi over ``span``
    in ``steps`` steps: psi0, then each of the evolvers' Fourier states
    transformed back, the last with the bits of the evolvers' end state."""
    mult = _multiplier(_k_squared(psi0), span, coeff, steps)
    states = _fourier_states(psi0, mult, steps)
    next(states)
    return [psi0] + [psi0.with_values(np.fft.ifftn(state)) for state in states]


def continuity_residual_from_currents(
    psi0: GridField, lambda_hat: float, span: float, steps: int, *, c: float = 1.0,
) -> float:
    """max|d j_tau/dtau + div j| over the interior of the Schroedinger
    stream, every snapshot kept: j_k = a Im(psi* d_k psi) by a spectral
    derivative of psi, and div j by a second spectral derivative of each
    j_k (a = c lhat), all currents formed before the first difference."""
    a = c * lambda_hat
    snaps = snapshots(psi0, span, 1j * c * lambda_hat / 2.0, steps)
    j_tau = [np.abs(s.values) ** 2 for s in snaps]
    div = [sum(np.real(_derivative(s, a * np.imag(np.conj(s.values)
                                                  * _derivative(s, s.values, ax, 1)), ax, 1))
               for ax in range(s.values.ndim))
           for s in snaps]
    dt = span / steps
    return max(float(np.max(np.abs((j_tau[i + 1] - j_tau[i - 1]) / (2.0 * dt) + div[i])))
               for i in range(1, steps))


# ---------------------------------------------------------------------------
# Trapped degeneracies in exact arithmetic
# ---------------------------------------------------------------------------

def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def trapped_degeneracy_exact(n: int, cut: float) -> tuple[Fraction, float]:
    """(A, g_n): the trapped degeneracy g_n = A - e^{-cut} B of level n,
    (1/2) int_0^cut x^2 [M'^2 - M M''](x) dx, correctly rounded to a double,
    and its exact rational part A, the full degeneracy n^2.

    With p(x) = x L_{n-1}^{(1)}(x) / n, M_{n,1/2} = e^{-x/2} p and
    M'^2 - M M'' = e^{-x} (p'^2 - p p''), so the integrand is e^{-x} times the
    polynomial q = x^2 (p'^2 - p p'') / 2 with rational coefficients
    (L_{n-1}^{(1)}(x) = sum_k (-1)^k C(n, k + 1) x^k / k!).  By
    int_0^X x^k e^{-x} dx = k! (1 - e^{-X} sum_{j <= k} X^j / j!),
    A = sum_k q_k k! and B = sum_j X^j / j! sum_{k >= j} q_k k!, exact
    rationals at the exact value of the double ``cut``.  Only e^{-cut} is
    not exact: the subtraction cancels about log10(n^2 / g_n) digits, more
    for the higher levels of a small cavity, so it runs at 40 + 4n digits.
    No recurrence, quadrature or special function is involved.
    """
    p = [Fraction(0)] + [Fraction((-1) ** (j - 1) * math.comb(n, j), math.factorial(j - 1) * n)
                         for j in range(1, n + 1)]
    p1 = _poly_derivative(p)
    p2 = _poly_derivative(p1)
    q = [Fraction(0)] * (2 * n + 1)
    for k, c in enumerate(_poly_mul(p1, p1)):
        q[k + 2] += c / 2
    for k, c in enumerate(_poly_mul(p, p2)):
        q[k + 2] -= c / 2
    moments = [c * math.factorial(k) for k, c in enumerate(q)]
    x = Fraction(cut)
    b = suffix = Fraction(0)
    for j in reversed(range(len(moments))):  # Horner in X
        suffix += moments[j]
        b = b * x + suffix / math.factorial(j)
    a = sum(moments)
    with mp.workdps(40 + 4 * n):
        value = (mp.mpf(a.numerator) / a.denominator
                 - mp.exp(-mp.mpf(cut)) * mp.mpf(b.numerator) / b.denominator)
        return a, float(value)
