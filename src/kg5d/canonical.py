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
from .numerics import SeriesReport, Tolerance, beside, integrate_batch, sum_series
from .specfun import (_combo_arrays, asymptotic_combo, bessel_j01, erfcx_minus_one,
                      hurwitz_zeta)
from .spectrum import ScaleSet, stat_energy

_SQRT_PI = math.sqrt(math.pi)

# One-core costs for ``beside``'s estimates (x86-64, numpy 2.4): a
# point-step of the batched Laguerre recurrence (figure1 and Z_d's levels
# took 0.7-2.2x this at r/rho 50-1000), and a term of Z_c's hard budget
# (its sum took 70-85 ns per budgeted term at r/rho 50-5000).
_POINT_STEP_S = 1e-8
_ZC_BUDGET_TERM_S = 8e-8


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


def dn_scaled_grid(n, r: np.ndarray) -> np.ndarray:
    """Rescaled density D_n(r n^2) on an array of r, in rho/2 = 1 units.

    Equals (r^2 n / 2) [M'^2 - M M''](r n); evaluated through the rescaled
    Laguerre recurrence so any n is fine (no overflow at n ~ 10^3).  ``n`` is
    one level or one level per point of ``r``.
    """
    if np.any(np.asarray(n) < 1):
        raise DomainError(f"need n >= 1, got {np.min(n)}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("need r >= 0")
    return 0.5 * r * r * n * _combo_arrays(n, r * n)


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


def _halves(work: np.ndarray) -> np.ndarray:
    """Mask of the items a worker takes: about half the total ``work``.

    Items go, largest first, to the side with less work so far.  Item 0
    stays with the caller, whose half runs first, so an error that every
    item raises names the first item, as it would without the split.
    """
    mask = np.zeros(len(work), dtype=bool)
    load = [0.0, 0.0]
    for i in np.argsort(-work, kind="stable").tolist():
        side = int(load[1] < load[0])
        mask[i] = side
        load[side] += float(work[i])
    return ~mask if mask[:1].any() else mask


def trapped_degeneracies(ns, rhat_max: float, tol: Tolerance) -> np.ndarray:
    """Portion of each level's degeneracy inside r_hat <= rhat_max (full value n^2).

    The integrand decays like e^{-r_hat/n} beyond its support at ~4 n^2, so
    each domain is cut at a Whittaker argument of 20n + 40 when the cavity is
    larger than that.  All levels are integrated together, each exactly as
    it would be alone (see :func:`integrate_batch`); half of the recurrence
    work goes to a worker beside this process (:func:`beside`).
    """
    ns = np.asarray(ns, dtype=np.int64)
    cut = np.maximum(np.minimum(rhat_max, ns * (20.0 * ns + 40.0)), 0.0)
    # Recurrence point-steps per level: its degree times its quadrature
    # points, about 45 min(n, sqrt(r_hat)) (measured for r_hat 100-10^4).
    work = 45.0 * ns * np.minimum(ns, np.sqrt(cut))

    def part(mask):
        # The other half's domains are empty, so errors name a level by its
        # index in ``ns``.
        return integrate_batch(lambda rh, owner: _density_rhat(ns[owner], rh),
                               np.zeros(len(ns)), np.where(mask, cut, 0.0), tol)

    theirs = _halves(work)
    with beside(part, theirs, seconds=_POINT_STEP_S * work[theirs].sum()) as collect:
        mine = part(~theirs)
        return np.where(theirs, collect(), mine)


def figure1_curves(n_list, r_grid) -> list[DensityCurve]:
    """Rescaled density curves for several n on a common r grid (r in [0, 5]).

    Each half of the levels, by recurrence work, takes one pass with a
    degree per point; one half is computed beside this process
    (:func:`beside`).  A curve gets the same bits as from a pass of its own.
    """
    r = np.asarray(r_grid, dtype=float)
    if np.any((r < 0) | (r > 5.0)):
        raise DomainError("r grid must lie within [0, 5]")
    ns = np.array([int(n) for n in n_list], dtype=np.int64)
    if np.any(ns < 1):
        raise DomainError(f"need n >= 1, got {ns[np.argmax(ns < 1)]}")

    def part(mask):
        own = ns[mask]
        return dn_scaled_grid(np.repeat(own, r.size), np.tile(r, len(own))).reshape(-1, r.size)

    work = ns * float(r.size)
    theirs = _halves(work)
    values = np.empty((len(ns), r.size))
    with beside(part, theirs, seconds=_POINT_STEP_S * work[theirs].sum()) as collect:
        values[~theirs] = part(~theirs)
        values[theirs] = collect()
    return [DensityCurve(n=n, r=r, values=v) for n, v in zip(ns.tolist(), values)]


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


def _zc_damping(scales: ScaleSet) -> float:
    """Z_c's Gaussian damping exponent gamma = pi^{4/3} u c Lambda / (2 V^{2/3})."""
    return math.pi ** (4.0 / 3.0) * scales.u * scales.c * scales.Lambda / (
        2.0 * scales.V ** (2.0 / 3.0))


def _zc_budget(scales: ScaleSet) -> int:
    """Hard term budget of Z_c's sum: terms are sub-denormal once gamma n^2 > 709.

    The tail bound stops the sum near sqrt(ln(1/rel) / gamma) terms, a fixed
    share of the budget (1/5 at rel 1e-12).  With the coupling off there is
    no sum, and without damping :func:`z_continuous` raises: 0 for both.
    """
    gamma = _zc_damping(scales)
    if scales.coupling_stat == 0.0 or not gamma > 0:
        return 0
    return int(math.ceil(math.sqrt(709.0 / gamma))) + 16


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

    gamma = _zc_damping(scales)
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

    budget = max(tol.max_iter, _zc_budget(scales))
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

# Exact levels in the window the tail model is fitted to, and the model's
# fitted corrections to B_inf: C/n^2, D/n^4, E/n^6.
_TAIL_WINDOW = 64
_TAIL_TERMS = 3


def trapped_degeneracy_limit(rhat: float) -> float:
    """B_inf = lim n^3 g_n of the trapped degeneracies in the cavity r_hat.

    By the Mehler-Heine limit of the Laguerre polynomials (DLMF 18.11(ii)),
    B_inf = (1/64) int_0^{2 sqrt(r_hat)} s^5 (J0^2 + J1^2)(s) ds.  With
    (J0^2 + J1^2)' = -2 J1^2 / s and (s J0 J1)' = s (J0^2 - J1^2) the
    integral is the Lommel-type closed form F(s) / 64, with
    F(s) = s^2 [3s^4 (J0^2 + J1^2) - 3s^3 J0 J1 + 2s^2 (2J1^2 - J0^2)
                + 8s J0 J1 - 8J1^2] / 15.
    """
    if not rhat >= 0:
        raise DomainError(f"need r_hat >= 0, got {rhat}")
    s = 2.0 * math.sqrt(rhat)
    j0, j1 = bessel_j01(s)
    f = s * s * (3.0 * s**4 * (j0 * j0 + j1 * j1) - 3.0 * s**3 * j0 * j1
                 + 2.0 * s * s * (2.0 * j1 * j1 - j0 * j0) + 8.0 * s * j0 * j1
                 - 8.0 * j1 * j1) / 15.0
    return f / 64.0


def _zd_tail(g: list, b_inf: float, eta0: float, a: float) -> tuple[float, float]:
    """Tail sum_{n > N} w_n g_n beyond the N = len(g) exact levels, and its bound.

    The model g_n n^3 = B_inf + C/n^2 + D/n^4 + E/n^6 has B_inf fixed and
    C, D, E fitted to the last ``_TAIL_WINDOW`` levels.  The weights
    w_n = e^{-eta0} exp(a/n^2) are expanded in a/n^2, so the tail is a short
    sum of Hurwitz zetas zeta(3 + 2j + 2k, N + 1).  The bound adds:

    * how far the tail moves when E is added to the fit (C, D refitted),
    * E's own tail contribution,
    * the truncation of the weight expansion, summed against |model|.
    """
    n_top = len(g)
    ns = np.arange(n_top - _TAIL_WINDOW + 1, n_top + 1, dtype=float)
    y = np.array(g[-_TAIL_WINDOW:]) * ns**3 - b_inf
    powers = np.arange(1, _TAIL_TERMS + 1)
    basis = (n_top / ns)[:, None] ** (2 * powers)  # (N/n)^{2k}: columns of unit scale
    q = n_top + 1.0
    w_top = math.exp(-eta0 + a / (q * q))  # the largest weight beyond N
    # Weight-expansion order: the first omitted factor (a/n^2)^{J+1}/(J+1)!
    # is below one rounding unit.
    order = 0
    while (a / (q * q)) ** (order + 1) / math.factorial(order + 1) > 2.0**-53:
        order += 1
    zeta = [hurwitz_zeta(3 + 2 * i, q) for i in range(order + _TAIL_TERMS + 2)]  # s = 3 + 2i

    def model_tail(terms):
        coef, *_ = np.linalg.lstsq(basis[:, :terms], y, rcond=None)
        c = [b_inf] + (coef * float(n_top) ** (2 * powers[:terms])).tolist()
        tail = math.exp(-eta0) * math.fsum(
            a**j / math.factorial(j) * ck * zeta[j + k]
            for j in range(order + 1) for k, ck in enumerate(c))
        return tail, c

    tail, c = model_tail(_TAIL_TERMS)
    tail_less, _ = model_tail(_TAIL_TERMS - 1)
    last = w_top * abs(c[-1]) * zeta[_TAIL_TERMS]
    expansion = w_top * a ** (order + 1) / math.factorial(order + 1) * math.fsum(
        abs(ck) * zeta[order + 1 + k] for k, ck in enumerate(c))
    return tail, abs(tail - tail_less) + last + expansion


def z_discrete(scales: ScaleSet, tol: Tolerance = Tolerance(rel=1e-10, abs=0.0)):
    """Discrete contribution Z_d = sum_n exp(-u e_n/hbar) * (trapped degeneracy).

    Levels 1..N get their trapped degeneracy g_n from quadrature of the
    density.  Beyond N the terms follow g_n n^3 = B_inf + C/n^2 + D/n^4 +
    E/n^6, with B_inf in closed form (:func:`trapped_degeneracy_limit`) and
    C, D, E fitted to the last 64 exact levels; the model's tail is summed
    through Hurwitz zetas (:func:`_zd_tail`).  N starts at 64 + 4 sqrt(r_hat),
    which puts the whole fit window where r_hat/n^2 <= 1/16, and grows only
    while the tail bound exceeds the tolerance: to the N at which the bound,
    falling like N^-8, would pass, and by at least 16 levels.

    The reported tail bound covers the tail model and the weight expansion;
    each exact level also carries its quadrature error, below 1e-2 * rel of
    its value.  Returns (Z_d, report, per-level list of (n, weight, trapped
    degeneracy)); the report counts the exact levels as the terms used.
    """
    if scales.lambda_star <= 0:
        raise DomainError("z_discrete needs a positive coupling (no bound levels otherwise)")
    if scales.R <= 0:
        raise DomainError("need R > 0")
    eta0 = scales.eta0
    if eta0 <= 0:
        raise DomainError("z_discrete needs eta0 > 0")
    eps = scales.coupling_stat
    if eps * eps >= 2.0:
        raise DomainError("lambda*/Lambda too large: ground-level weight ill-defined")
    rhat = 2.0 * scales.R / scales.rho

    quad_tol = Tolerance(rel=min(tol.rel * 1e-2, 1e-11), abs=1e-280, max_iter=tol.max_iter)

    def weight(n) -> float:
        # exp(-u e_n / hbar) with the non-relativistic level energies
        return math.exp(-scales.u * stat_energy(n, scales) / scales.hbar)

    b_inf = trapped_degeneracy_limit(rhat)
    a = 0.5 * eta0 * eps * eps  # w_n = e^{-eta0} exp(a / n^2)
    g = []          # trapped degeneracies, exact quadrature
    partial = 0.0   # running exact sum, fixed order
    n_next = int(math.ceil(_TAIL_WINDOW + 4.0 * math.sqrt(rhat)))
    n_cap = max(4 * n_next, 4000)
    while True:
        ns = range(len(g) + 1, n_next + 1)
        for n, gn in zip(ns, trapped_degeneracies(ns, rhat, quad_tol).tolist()):
            g.append(gn)
            partial += weight(n) * gn
        tail, bound = _zd_tail(g, b_inf, eta0, a)
        total = partial + tail
        target = tol.threshold(total)
        if bound <= target or len(g) >= n_cap:
            break
        n_next = min(n_cap, max(len(g) + 16, int(math.ceil(len(g) * (bound / target) ** 0.125))))

    report = SeriesReport(value=total, terms_used=len(g), tail_bound=bound,
                          converged=bound <= target)
    per_level = [(n, weight(n), g[n - 1]) for n in range(1, len(g) + 1)]
    return total, report, per_level


def partition(scales: ScaleSet,
              tol: Tolerance = Tolerance(rel=1e-10, abs=0.0)) -> PartitionResult:
    """Full canonical sum: assembles Z_c and Z_d into a PartitionResult.

    Z_c is summed beside this process (:func:`beside`) while Z_d runs here.
    """
    tol_c = Tolerance(rel=min(tol.rel, 1e-12), abs=tol.abs, max_iter=tol.max_iter)
    with beside(z_continuous, scales, tol_c,
                seconds=_ZC_BUDGET_TERM_S * _zc_budget(scales)) as collect:
        zd, rep_d, levels = z_discrete(scales, tol)
        zc, rep_c = collect()
    return PartitionResult(z_c=zc, z_d=zd, z_total=zc + zd,
                           terms_c=rep_c, terms_d=rep_d, per_level_d=levels)
