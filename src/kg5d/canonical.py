"""Canonical sum of the hydrogenic atom in a spherical cavity, Z = Z_c + Z_d.

The discrete part sums Boltzmann weights against "trapped degeneracies": the
n-th level contributes exp(-u e_n / hbar) times the portion of its radial
level density

    D_n(r) = (4 r^2)/(n^3 rho^3) * [M'^2 - M M''](2 r / (n rho)),

that fits inside the cavity radius R.  D_n integrates to n^2 over all space;
in units of rho/2 the rescaled density D_n(r n^2) integrates to one and tends
to the universal profile

    D(r) = r^{3/2} sqrt(4 - r) / (4 pi)   on [0, 4],  0 beyond,

so for levels too large for the cavity the trapped degeneracy falls off like
R^{5/2} / (5 pi n^3) and the series converges like a Dirichlet series.

The continuous part is a corrected ideal-gas term: a Gaussian-damped sum over
n of an erfc bracket that vanishes identically when the coupling is off.

Internally all radial work is done in units of rho/2; ``ScaleSet`` converts
at the boundary.  Sums run in fixed index order so results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .numerics import SeriesReport, Tolerance, integrate_batch, sum_series
from .specfun import _combo_arrays, asymptotic_combo, erfcx_minus_one
from .spectrum import ScaleSet, stat_energy

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class DensityCurve:
    """Sampled rescaled level density D_n(r n^2) on a grid of r (rho/2 = 1)."""

    n: int
    r: np.ndarray
    values: np.ndarray

    def rows(self):
        return list(zip(self.r.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class PartitionResult:
    """Both spectral parts of the canonical sum plus per-level diagnostics.

    ``per_level_d`` lists (n, Boltzmann weight, trapped degeneracy) for every
    level whose degeneracy integral was evaluated by quadrature (the analytic
    1/n^3 tail beyond them is folded into ``z_d`` and its report).
    """

    z_c: float
    z_d: float
    z_total: float
    terms_c: SeriesReport
    terms_d: SeriesReport
    per_level_d: list


# ---------------------------------------------------------------------------
# Level densities
# ---------------------------------------------------------------------------

def universal_d(r):
    """Large-n limit of the rescaled density: r^{3/2} sqrt(4-r)/(4 pi) on [0,4].

    Accepts scalars or arrays; zero for r >= 4.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise DomainError("universal density needs r >= 0")
    inside = arr < 4.0
    out = np.zeros_like(arr)
    ri = arr[inside]
    out[inside] = ri**1.5 * np.sqrt(4.0 - ri) / (4.0 * math.pi)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def dn_scaled_grid(n: int, r: np.ndarray) -> np.ndarray:
    """Rescaled density D_n(r n^2) on an array of r, in rho/2 = 1 units.

    Equals (r^2 n / 2) [M'^2 - M M''](r n); evaluated through the rescaled
    Laguerre recurrence so any n is fine (no overflow at n ~ 10^3).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("need r >= 0")
    return 0.5 * r * r * n * _combo_arrays(n, r * n)


def dn_scaled(n: int, r: float) -> float:
    """Scalar convenience wrapper around :func:`dn_scaled_grid`."""
    return float(dn_scaled_grid(n, np.array([r]))[0])


def dn_scaled_asymptotic(n: int, r: float, **kw) -> float:
    """Rescaled density from the two-branch large-n Laguerre asymptotics.

    Leading order only: on the oscillatory branch this is exactly the
    universal profile, on the exponential branch the surviving
    amplitude-derivative term.  Kept as a cross-check path; the recurrence
    is the reference evaluation at every n.
    """
    return 0.5 * r * r * n * asymptotic_combo(n, r, **kw)


def dn_density(n: int, r: float, rho: float) -> float:
    """Physical-units level density D_n(r) for Bohr-like radius rho."""
    if rho <= 0:
        raise DomainError(f"need rho > 0, got {rho}")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    x = 2.0 * r / (n * rho)
    combo = float(_combo_arrays(n, np.array([x]))[0])
    return 4.0 * r * r / (n**3 * rho**3) * combo


def _density_rhat(n, rhat: np.ndarray) -> np.ndarray:
    """Density in the cavity variable r_hat = 2r/rho: (r_hat^2 / 2n^3) combo(r_hat/n).

    ``n`` is one level or one level per point.
    """
    return rhat * rhat / (2.0 * n**3) * _combo_arrays(n, rhat / n)


def trapped_degeneracies(ns, rhat_max: float, tol: Tolerance) -> np.ndarray:
    """Portion of each level's degeneracy inside r_hat <= rhat_max (full value n^2).

    The integrand decays like e^{-r_hat/n} beyond its support at ~4 n^2, so
    each domain is cut at a Whittaker argument of 20n + 40 when the cavity is
    larger than that.  All levels are integrated together, each exactly as
    it would be alone (see :func:`integrate_batch`).
    """
    ns = np.asarray(ns, dtype=np.int64)
    cut = np.maximum(np.minimum(rhat_max, ns * (20.0 * ns + 40.0)), 0.0)
    return integrate_batch(lambda rh, owner: _density_rhat(ns[owner], rh),
                           np.zeros(len(ns)), cut, tol)


def trapped_degeneracy(n: int, rhat_max: float, tol: Tolerance) -> float:
    """One-level case of :func:`trapped_degeneracies`."""
    return float(trapped_degeneracies([n], rhat_max, tol)[0])


def figure1_curves(n_list, r_grid) -> list[DensityCurve]:
    """Rescaled density curves for several n on a common r grid (r in [0, 5])."""
    r = np.asarray(r_grid, dtype=float)
    if np.any((r < 0) | (r > 5.0)):
        raise DomainError("r grid must lie within [0, 5]")
    curves = []
    for n in n_list:
        curves.append(DensityCurve(n=int(n), r=r, values=dn_scaled_grid(int(n), r)))
    return curves


# ---------------------------------------------------------------------------
# Continuous part Z_c
# ---------------------------------------------------------------------------

def _exp(v: np.ndarray) -> np.ndarray:
    """math.exp over an array.

    np.exp's SIMD kernels and the C library's exp disagree in the last bit
    for a few percent of arguments; the C library's keeps Z_c's terms and
    tail bounds bit for bit what a term-by-term sum computes.
    """
    return np.fromiter(map(math.exp, v.tolist()), dtype=float, count=v.size)


def z_continuous(scales: ScaleSet, tol: Tolerance = Tolerance(rel=1e-13, abs=0.0)):
    """Continuum contribution Z_c: ideal-gas term minus the erfc-bracket sum.

    Z_c = V e^{-eta0} / (Lambda^3 (2 pi eta0)^{3/2})
          - (e^{-eta0}/2) sum_n n^2 exp(-n^2 gamma) [e^{s^2} erfc(s) - 1],
    with gamma = pi^{4/3} u c Lambda / (2 V^{2/3}) and
    s = (lambda*/Lambda) sqrt(eta0/2) / n.

    With the coupling off the bracket is identically zero and the ideal-gas
    term is returned exactly.  The bracket magnitude is bounded by its own
    n -> infinity asymptote (2 s / sqrt(pi)), which combined with the
    Gaussian damping gives the integral-test tail bound used for truncation.
    Returns (Z_c, report-for-the-sum).
    """
    eta0, Lam, V = scales.eta0, scales.Lambda, scales.V
    if eta0 <= 0 or Lam <= 0 or V <= 0:
        raise DomainError("z_continuous needs eta0 > 0, Lambda > 0, V > 0")
    ideal = V * math.exp(-eta0) / (Lam**3 * (2.0 * math.pi * eta0) ** 1.5)
    eps = scales.coupling_stat
    if eps == 0.0:
        return ideal, SeriesReport(value=0.0, terms_used=1, tail_bound=0.0, converged=True)

    gamma = math.pi ** (4.0 / 3.0) * scales.u * scales.c * Lam / (2.0 * V ** (2.0 / 3.0))
    if gamma <= 0:
        raise DomainError("Gaussian damping exponent must be positive")
    s0 = eps * math.sqrt(0.5 * eta0)
    amp = eps * math.sqrt(2.0 * eta0 / math.pi)  # bracket asymptote prefactor

    def term(ns):
        return ns * ns * _exp(-gamma * ns * ns) * erfcx_minus_one(s0 / ns)

    def tail(ns):
        # |term(k)| <= amp * k * e^{-gamma k^2}, summed by the integral test
        # (valid once k e^{-gamma k^2} is decreasing, enforced via the start).
        k = np.maximum(ns, int(math.ceil(1.0 / math.sqrt(2.0 * gamma))))
        return amp * _exp(-gamma * k * k) / (2.0 * gamma)

    # Terms are sub-denormal once gamma n^2 > 709, so that is the hard budget;
    # the tail bound terminates the sum far earlier in practice.
    budget = max(tol.max_iter, int(math.ceil(math.sqrt(709.0 / gamma))) + 16)
    report = sum_series(term, tail, Tolerance(rel=tol.rel, abs=tol.abs, max_iter=budget))
    if not report.converged:
        raise NonConvergenceError(
            "Z_c correction sum did not converge", estimate=report.value,
            error_bound=report.tail_bound,
        )
    z_c = ideal - 0.5 * math.exp(-eta0) * report.value
    return z_c, report


def brace_asymptote(s: float) -> float:
    """Large-n limit of the bracket: -2 s / sqrt(pi)."""
    return -2.0 * s / _SQRT_PI


# ---------------------------------------------------------------------------
# Discrete part Z_d
# ---------------------------------------------------------------------------

def z_discrete(
    scales: ScaleSet,
    n_max_policy: int | None = None,
    tol: Tolerance = Tolerance(rel=1e-10, abs=0.0),
):
    """Discrete contribution Z_d = sum_n exp(-u e_n/hbar) * (trapped degeneracy).

    Levels up to an exact-evaluation index N0 get their trapped degeneracy
    from quadrature of the density.  Beyond N0 the terms follow the Dirichlet
    decay g_n ~ B/n^3; B and the first 1/n^2 correction are fitted to the
    last exact levels, the fitted model is summed in vectorized blocks, and
    the reported tail bound covers both the eventually-omitted remainder and
    a conservative (non-decaying) projection of the model's fit residual.

    ``n_max_policy`` overrides the automatic choice of N0.  Returns
    (Z_d, report, per-level list of (n, weight, trapped degeneracy)).
    """
    if scales.lambda_star <= 0:
        raise DomainError("z_discrete needs a positive coupling (no bound levels otherwise)")
    if scales.R <= 0:
        raise DomainError("need R > 0")
    eta0 = scales.eta0
    eps = scales.coupling_stat
    if eps * eps >= 2.0:
        raise DomainError("lambda*/Lambda too large: ground-level weight ill-defined")
    rhat = 2.0 * scales.R / scales.rho

    quad_tol = Tolerance(rel=min(tol.rel * 1e-2, 1e-11), abs=1e-280, max_iter=tol.max_iter)

    def weight(n) -> float:
        # exp(-u e_n / hbar) with the non-relativistic level energies
        return math.exp(-scales.u * stat_energy(n, scales) / scales.hbar)

    n0 = n_max_policy if n_max_policy is not None else max(96, int(math.ceil(5.0 * math.sqrt(rhat))))
    n0 = max(n0, 16)
    n_cap = max(4 * n0, 4000)

    g = []          # trapped degeneracies, exact quadrature
    partial = 0.0   # running exact sum, fixed order
    n_exact = 0

    def extend_exact(upto: int):
        nonlocal partial, n_exact
        ns = range(n_exact + 1, upto + 1)
        for n, gn in zip(ns, trapped_degeneracies(ns, rhat, quad_tol).tolist()):
            g.append(gn)
            partial += weight(n) * gn
        n_exact = upto

    extend_exact(n0)

    while True:
        # Fit g_n * n^3 = B + C/n^2 over the trailing exact window.
        win = min(max(n_exact // 2, 8), 64)
        ns = np.arange(n_exact - win + 1, n_exact + 1, dtype=float)
        y = np.array(g[n_exact - win:]) * ns**3
        A = np.stack([np.ones_like(ns), 1.0 / ns**2], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        fit_resid = float(np.max(np.abs(A @ coef - y)))
        b_fit, c_fit = float(coef[0]), float(coef[1])

        # Conservative model-error projection: the fit residual is assumed
        # not to decay beyond the window.
        w_edge = weight(n_exact + 1)
        model_bound = w_edge * fit_resid * 0.5 / n_exact**2

        target = tol.threshold(partial)
        if model_bound <= 0.25 * target or n_exact >= n_cap:
            break
        extend_exact(min(int(math.ceil(1.4 * n_exact)), n_cap))

    # Vectorized analytic continuation of the fitted tail model.
    total = partial
    block = 65536
    n_lo = n_exact + 1
    remainder = math.inf
    while True:
        remainder = w_edge * (abs(b_fit) + abs(c_fit) / n_lo**2) * 0.5 / (n_lo - 1) ** 2
        if remainder + model_bound <= tol.threshold(total):
            break
        if n_lo > 10**9:
            raise NonConvergenceError(
                "Z_d tail did not reach tolerance", estimate=total,
                error_bound=remainder + model_bound,
            )
        ns = np.arange(n_lo, n_lo + block, dtype=float)
        wn = np.exp(-eta0 * (1.0 - 0.5 * eps * eps / (ns * ns)))
        total += float(np.sum(wn * (b_fit + c_fit / ns**2) / ns**3))
        n_lo += block

    tail_bound = remainder + model_bound
    report = SeriesReport(
        value=total, terms_used=n_lo - 1, tail_bound=tail_bound,
        converged=tail_bound <= tol.threshold(total),
    )
    per_level = [(n, weight(n), g[n - 1]) for n in range(1, n_exact + 1)]
    return total, report, per_level


def partition(scales: ScaleSet, tol: Tolerance = Tolerance(rel=1e-10, abs=0.0),
              n_max_policy: int | None = None) -> PartitionResult:
    """Full canonical sum: assembles Z_c and Z_d into a PartitionResult."""
    zc, rep_c = z_continuous(scales, Tolerance(rel=min(tol.rel, 1e-12), abs=tol.abs,
                                               max_iter=tol.max_iter))
    zd, rep_d, levels = z_discrete(scales, n_max_policy, tol)
    return PartitionResult(z_c=zc, z_d=zd, z_total=zc + zd,
                           terms_c=rep_c, terms_d=rep_d, per_level_d=levels)
