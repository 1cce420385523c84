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

from .errors import DomainError, IntegrandError, NonConvergenceError, QuadratureError
from .numerics import _NODES, _W7, _W15, SeriesReport, Tolerance, integrate
from .specfun import (_EULER_MACLAURIN, _combo_arrays, _combo_terms, _laguerre_ladder,
                      bessel_j01, erfcx_minus_one, hurwitz_zeta)
from .spectrum import ScaleSet, stat_energy

_SQRT_PI = math.sqrt(math.pi)
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class DensityCurve:
    """Sampled rescaled level density D_n(r n^2) on a grid of r (rho/2 = 1)."""

    n: int
    r: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ExactLevels:
    """Z_d's exactly integrated levels 1..N as columns: n, the Boltzmann
    weight exp(-u e_n / hbar), and the trapped degeneracy g_n."""

    n: np.ndarray
    weight: np.ndarray
    trapped_degeneracy: np.ndarray

    def __len__(self) -> int:
        return self.n.size


@dataclass(frozen=True)
class PartitionResult:
    """Both spectral parts of the canonical sum plus per-level diagnostics.

    ``per_level_d`` holds every level whose degeneracy integral was evaluated
    by quadrature (the analytic 1/n^3 tail beyond them is folded into ``z_d``
    and its report).
    """

    z_c: float
    z_d: float
    z_total: float
    terms_c: SeriesReport
    terms_d: SeriesReport
    per_level_d: ExactLevels


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


def dn_density(n, r, rho: float):
    """Physical-units level density D_n(r) for Bohr-like radius rho, at a point r
    or an array of them: (2/rho) times the density in r_hat = 2r/rho."""
    if np.any(np.asarray(n) < 1):
        raise DomainError(f"need n >= 1, got {np.min(n)}")
    if not rho > 0:
        raise DomainError(f"need rho > 0, got {rho}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError(f"need r >= 0, got {np.min(r)}")
    rhat = 2.0 * r / rho  # the density in r_hat is (r_hat^2 / 2n^3) combo(r_hat/n)
    return 2.0 / rho * (rhat * rhat / (2.0 * n**3) * _combo_arrays(n, rhat / n))


def _level_panels(ns: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Edges of the panels that levels ``ns`` share on their domains [0, cut_n].

    Every cut_n is an edge, and so is each level's decay point
    4n + 40 + 24 n^{1/3}: past its turning point 4n, M_{n,1/2} falls like
    e^{-psi}, and the Airy estimate of psi = 20 lies there (40 is the margin
    for small n).  Between neighbouring edges the highest level present, m,
    is fixed, and a panel spans a phase of at most pi/2 (a quarter
    wavelength) of k = sqrt(max(m/x, 1/4)): sqrt(m/x) bounds the Whittaker
    wavenumber sqrt(n/x - 1/4) of every level present, and the densities
    carry a factor e^{-x}.  In u = sqrt(x) the phase rate
    2 sqrt(max(m, x/4)) is constant below 4m and rises beyond, so an
    interval is cut into equal steps of u sized by the rate at its right
    end.  Beyond every level's decay point an interval is one panel.
    """
    ends = np.minimum(cut, 4.0 * ns + 40.0 + 24.0 * np.cbrt(ns))
    edges = np.sort(np.append(cut, ends))
    edges = edges[(edges != 0.0) & np.append(True, edges[1:] != edges[:-1])]  # unique, no 0
    o = np.argsort(cut)  # m for (lo, edge]: the highest level with cut_n >= edge
    top = np.maximum.accumulate(ns[o][::-1])[::-1][np.searchsorted(cut[o], edges)]
    lo = np.concatenate([[0.0], edges[:-1]])
    u_lo, u_hi = np.sqrt(lo), np.sqrt(edges)
    steps = np.ceil(2.0 * np.sqrt(np.maximum(top, 0.25 * edges)) * (u_hi - u_lo) / (0.5 * math.pi))
    steps = np.where(edges > ends.max(), 1, np.maximum(steps, 1)).astype(np.int64)
    interval = np.repeat(np.arange(len(edges)), steps)
    j = np.arange(interval.size) - np.repeat(np.cumsum(steps) - steps, steps)
    u = u_lo[interval] + (u_hi - u_lo)[interval] * (j / steps[interval])
    return np.append(np.where(j == 0, lo[interval], u * u), edges[-1])


def _trapped_levels(ns, rhat_max: float, tol: Tolerance):
    """Trapped degeneracies of levels ``ns`` and their quadrature error estimates.

    g_n = (1/2) int_0^{X_n} x^2 [M'^2 - M M''](x) dx in x = r_hat/n, with
    X_n = min(rhat_max/n, 20n + 40): beyond its support at ~4n the integrand
    decays like e^{-x}.  All levels share Gauss-Legendre 15/7 panels ordered
    by x (:func:`_level_panels`), so each domain is a prefix of them, and the
    step of one :func:`_laguerre_ladder` pass that reaches degree n - 1 gives
    level n its panel sums.  A level whose estimate sum |I15 - I7| misses
    ``tol``, or more than ``tol.max_iter`` panels, raise QuadratureError.

    A level's error is that estimate plus an a-priori bound on the rounding
    of its sum over P panels, gamma_m sum |terms| with
    gamma_m = m u / (1 - m u), u = 2^-53 and m = P + 17: 15 roundings in a
    panel's weighted sum, one in its half-width, P - 1 in the sum over
    panels in any order, and two for the computed sum of magnitudes and
    this product.  The Gauss-Legendre weights are positive, so
    sum |terms| is the 15-point rule applied to |f|.
    """
    if math.isnan(rhat_max):
        raise DomainError("need a cavity radius r_hat, got nan")
    ns = np.asarray(ns, dtype=np.int64)
    cut = np.maximum(np.minimum(rhat_max / ns, 20.0 * ns + 40.0), 0.0)
    g, err = np.zeros(len(ns)), np.zeros(len(ns))
    if not (cut > 0).any():
        return g, err
    edges = _level_panels(ns, cut)
    if len(edges) - 1 > tol.max_iter:
        raise QuadratureError(f"Z_d's levels need {len(edges) - 1} panels,"
                              f" over the limit of {tol.max_iter}")
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * _NODES).ravel()
    panels = np.searchsorted(edges, cut)
    need = np.zeros(int(ns[panels > 0].max()) + 1, dtype=np.int64)
    np.maximum.at(need, ns, panels)
    live = np.maximum.accumulate(need[:0:-1])[::-1] * len(_NODES)  # for degree >= n
    for n, la, lb, log_scale in _laguerre_ladder(x, live):
        for i in np.flatnonzero(ns == n):
            p, q = panels[i], panels[i] * len(_NODES)
            fx = 0.5 * x[:q] ** 2 * _combo_terms(n, x[:q], la[:q], lb[:q], log_scale[:q])[1]
            fx = fx.reshape(p, len(_NODES))
            i15 = half[:p] * (fx[:, :15] @ _W15)
            g[i] = i15.sum()
            err[i] = np.abs(i15 - half[:p] * (fx[:, 15:] @ _W7)).sum()
            if not np.isfinite(g[i] + err[i]):
                bad = x[np.argmax(~np.isfinite(fx.ravel()))]
                raise IntegrandError(f"integrand not finite at x={float(bad)!r} in level {n}")
            if err[i] > tol.threshold(g[i]):
                raise QuadratureError(f"level {n}: error estimate {err[i]:.3g} over its"
                                      f" threshold {tol.threshold(g[i]):.3g}",
                                      estimate=float(g[i]), error_bound=float(err[i]))
            mu = (p + 17) * _UNIT_ROUNDOFF
            err[i] += mu / (1.0 - mu) * (half[:p] * (np.abs(fx[:, :15]) @ _W15)).sum()
    return g, err


def figure1_curves(n_list, r_grid) -> list[DensityCurve]:
    """Rescaled density curves for several n on a common r grid (r in [0, 5]).

    The distinct levels' points x = r n, by falling degree, share one
    :func:`_laguerre_ladder` pass.  The ladder reaches the lowest degree
    first, and at the step of degree n level n is the last ``r.size`` points
    it carries; the curve is read off that slice, as :func:`_trapped_levels`
    reads its levels, so the working set is the ladder's few arrays of the
    points and one curve's temporaries.  A curve gets the same bits as from
    :func:`dn_scaled_grid` on its own; curves of a repeated level share their
    arrays, as all curves share ``r``.
    """
    r = np.asarray(r_grid, dtype=float)
    if np.any((r < 0) | (r > 5.0)):
        raise DomainError("r grid must lie within [0, 5]")
    ns = [int(n) for n in n_list]
    if not ns:
        return []
    if min(ns) < 1:
        raise DomainError(f"need n >= 1, got {next(n for n in ns if n < 1)}")
    levels = np.array(sorted(set(ns), reverse=True))  # np.unique would load numpy.ma
    live = r.size * np.searchsorted(-levels, -np.arange(1, levels[0] + 1), side="right")
    values = {}
    for n, la, lb, log_scale in _laguerre_ladder((levels[:, None] * r).ravel(), live):
        if n == levels[-1 - len(values)]:
            lo, x = la.size - r.size, r * n
            values[n] = 0.5 * r * r * n * _combo_terms(n, x, la[lo:], lb[lo:], log_scale[lo:])[1]
    return [DensityCurve(n=n, r=r, values=values[n]) for n in ns]


# ---------------------------------------------------------------------------
# Continuous part Z_c
# ---------------------------------------------------------------------------

# Z_c's exact head: the Euler-Maclaurin tail starts at K = max(64, 64 s0),
# so s0/K <= 1/64, and its derivatives keep 24 terms of erfcx's series.
_ZC_HEAD = 64
_ZC_SERIES = 24


def _zc_damping(scales: ScaleSet) -> float:
    """Z_c's Gaussian damping exponent gamma = pi^{4/3} u c Lambda / (2 V^{2/3})."""
    return math.pi ** (4.0 / 3.0) * scales.u * scales.c * scales.Lambda / (
        2.0 * scales.V ** (2.0 / 3.0))


def _zc_odd_derivatives(gamma: float, s0: float, k: int) -> list[float]:
    """f^(2j-1)(K) of Z_c's summand f, for j = 1, ..., len(_EULER_MACLAURIN).

    By erfcx's Maclaurin series f(x) = e^{-gamma x^2} P(x), with
    P(x) = sum_{i>=1} (-s0)^i x^{2-i} / Gamma(i/2 + 1).  In y = x/K a
    derivative maps P's coefficients by (e^{-beta y^2} P)' =
    e^{-beta y^2} (P' - 2 beta y P), beta = gamma K^2, and at y = 1 the m-th
    derivative is e^{-beta} times their sum, over K^m.  With s0/K <= 1/64
    the first omitted term of P is below 64^-24 of the leading one.
    """
    i = np.arange(1, _ZC_SERIES + 1)
    coef = k * k * (-s0 / k) ** i / np.array([math.gamma(0.5 * v + 1.0) for v in i.tolist()])
    powers = 2 - i  # of y, descending
    beta = gamma * k * k
    out = []
    for m in range(1, 2 * len(_EULER_MACLAURIN)):
        grown = np.zeros(coef.size + 2)
        grown[2:] = powers * coef  # P': y^e -> e y^(e-1)
        grown[:-2] -= 2.0 * beta * coef  # -2 beta y P: y^e -> y^(e+1)
        coef, powers = grown, np.arange(powers[0] + 1, powers[-1] - 2, -1)
        if m % 2:
            out.append(math.exp(-beta) * math.fsum(coef.tolist()) / float(k) ** m)
    return out


def z_continuous(scales: ScaleSet, tol: Tolerance = Tolerance(rel=1e-13, abs=0.0)):
    """Continuum contribution Z_c: ideal-gas term minus the erfc-bracket sum.

    Z_c = V e^{-eta0} / (Lambda^3 (2 pi eta0)^{3/2}) - (e^{-eta0}/2) sum_{n>=1} f(n),
    f(x) = x^2 exp(-gamma x^2) [e^{s^2} erfc(s) - 1],  s = s0 / x,
    with gamma = pi^{4/3} u c Lambda / (2 V^{2/3}) and
    s0 = (lambda*/Lambda) sqrt(eta0/2).

    With the coupling off the bracket is identically zero and the ideal-gas
    term is returned exactly.  Otherwise the sum is the exact head
    f(1) + ... + f(K-1), K = max(64, ceil(64 s0)), plus the Euler-Maclaurin
    tail (DLMF 2.10(i)) with the eight corrections of ``_EULER_MACLAURIN``,

        int_K^b f + f(K)/2 - sum_j B_2j/(2j)! f^(2j-1)(K),

    the integral by :func:`integrate` at half the tolerance up to
    b = sqrt(K^2 + 40/gamma), where the Gaussian has fallen by e^-40.  The
    report's tail bound is the sum of

    * the remainder |B_16|/16! int_K^inf |f^(16)|: on the circle
      |z - x| = x/2, |e^{-gamma z^2}| <= 1 and |z^2 (erfcx(s0/z) - 1)| <= mu x
      with mu = 3 s0/sqrt(pi) + (32/31) s0^2/K, so by Cauchy's estimate
      |f^(16)(x)| <= 16! 2^16 mu x^-15;
    * integrate's threshold;
    * the cut int_b^inf |f| <= (2 s0/sqrt(pi)) e^{-gamma b^2} / (2 gamma),
      as |e^{s^2} erfc(s) - 1| <= 2s/sqrt(pi);
    * 32 rounding units of the parts' summed magnitudes, for each part's own
      rounding and the one ``math.fsum`` that adds them.

    A head longer than ``tol.max_iter`` terms, or a bound over the
    tolerance, raises NonConvergenceError.  Returns
    (Z_c, report-for-the-sum); the report counts K as the terms used.
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
    k = max(_ZC_HEAD, math.ceil(_ZC_HEAD * s0))
    if k > tol.max_iter:
        raise NonConvergenceError(f"Z_c's exact head needs K = {k} terms,"
                                  f" over the limit of {tol.max_iter}")

    def f(x):
        return x * x * np.exp(-gamma * x * x) * erfcx_minus_one(s0 / x)

    b = math.sqrt(k * k + 40.0 / gamma)
    tol_tail = Tolerance(rel=0.5 * tol.rel, abs=0.5 * tol.abs, max_iter=tol.max_iter)
    integral = integrate(f, float(k), b, tol_tail)
    head = f(np.arange(1.0, k + 1.0)).tolist()
    parts = [*head[:-1], 0.5 * head[-1], integral]
    parts += [-c * d for c, d in zip(_EULER_MACLAURIN, _zc_odd_derivatives(gamma, s0, k))]
    value = math.fsum(parts)

    p = len(_EULER_MACLAURIN)
    mu = 3.0 * s0 / _SQRT_PI + 32.0 / 31.0 * s0 * s0 / k
    remainder = (abs(_EULER_MACLAURIN[-1]) * math.factorial(2 * p) * 2.0 ** (2 * p) * mu
                 * float(k) ** (2 - 2 * p) / (2 * p - 2))
    cut = s0 / _SQRT_PI * math.exp(-gamma * b * b) / gamma
    bound = (remainder + tol_tail.threshold(integral) + cut
             + 2.0**-48 * math.fsum(abs(v) for v in parts))
    if bound > tol.threshold(value):
        raise NonConvergenceError("Z_c correction sum did not converge", estimate=value,
                                  error_bound=bound)
    report = SeriesReport(value=value, terms_used=k, tail_bound=bound, converged=True)
    return ideal - 0.5 * math.exp(-eta0) * value, report


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


def _exp(v: np.ndarray) -> np.ndarray:
    """math.exp over an array.

    np.exp's SIMD kernels and the C library's exp disagree in the last bit
    for a few percent of arguments; the C library's keeps Z_d's Boltzmann
    weights bit for bit what the per-level formula computes.
    """
    return np.fromiter(map(math.exp, v.tolist()), dtype=float, count=v.size)


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


def _least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x minimizing |basis x - y| for a tall ``basis`` of full column rank, by
    Householder QR and back substitution; no LAPACK routine runs."""
    r, z = basis.astype(float), y.astype(float)  # copies, reflected in place
    k = r.shape[1]
    for j in range(k):
        v = r[j:, j].copy()
        v[0] += math.copysign(math.sqrt(v @ v), v[0])
        v /= math.sqrt(v @ v)
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        z[j:] -= 2.0 * (v @ z[j:]) * v
    x = np.zeros(k)
    for j in reversed(range(k)):
        x[j] = (z[j] - r[j, j + 1:] @ x[j + 1:]) / r[j, j]
    return x


def _zd_tail(g: np.ndarray, b_inf: float, eta0: float, a: float) -> tuple[float, float]:
    """Tail sum_{n > N} w_n g_n beyond the N = len(g) exact levels, and its bound.

    The model g_n n^3 = B_inf + C/n^2 + D/n^4 + E/n^6 has B_inf fixed and
    C, D, E fitted to the last ``_TAIL_WINDOW`` levels by least squares
    (:func:`_least_squares`; in (N/n)^{2k} columns of unit scale the basis's
    condition number is about 2e3 at N = 815).  The weights
    w_n = e^{-eta0} exp(a/n^2) are expanded in a/n^2, so the tail is a short
    sum of Hurwitz zetas zeta(3 + 2j + 2k, N + 1).  The bound adds:

    * how far the tail moves when E is added to the fit (C, D refitted),
    * E's own tail contribution,
    * the truncation of the weight expansion, summed against |model|.
    """
    n_top = len(g)
    ns = np.arange(n_top - _TAIL_WINDOW + 1, n_top + 1, dtype=float)
    y = g[-_TAIL_WINDOW:] * ns**3 - b_inf
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
        coef = _least_squares(basis[:, :terms], y)
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

    The reported tail bound covers the tail model, the weight expansion and
    the exact levels' quadrature: sum_n w_n err_n over their 15/7 error
    estimates, each checked below 1e-2 * rel of its level's value.  Returns
    (Z_d, report, :class:`ExactLevels`); the report counts the exact levels
    as the terms used.
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

    b_inf = trapped_degeneracy_limit(rhat)
    a = 0.5 * eta0 * eps * eps  # w_n = e^{-eta0} exp(a / n^2)
    g = err = np.empty(0)  # trapped degeneracies, exact quadrature, and its errors
    n_next = int(math.ceil(_TAIL_WINDOW + 4.0 * math.sqrt(rhat)))
    n_cap = max(4 * n_next, 4000)
    while True:
        ns = np.arange(1, n_next + 1)
        g, err = np.hstack([(g, err), _trapped_levels(ns[g.size:], rhat, quad_tol)])
        w = _exp(-scales.u * stat_energy(ns, scales) / scales.hbar)
        partial = float(np.cumsum(w * g)[-1])  # the running sum, in level order
        tail, bound = _zd_tail(g, b_inf, eta0, a)
        bound += float(w @ err)
        total = partial + tail
        target = tol.threshold(total)
        if bound <= target or len(g) >= n_cap:
            break
        n_next = min(n_cap, max(len(g) + 16, int(math.ceil(len(g) * (bound / target) ** 0.125))))

    report = SeriesReport(value=total, terms_used=len(g), tail_bound=bound,
                          converged=bound <= target)
    return total, report, ExactLevels(n=ns, weight=w, trapped_degeneracy=g)


def partition(scales: ScaleSet,
              tol: Tolerance = Tolerance(rel=1e-10, abs=0.0)) -> PartitionResult:
    """Full canonical sum: assembles Z_c and Z_d into a PartitionResult.

    Both parts run in this process, Z_d first.  Z_c gets at most 1e-12
    relative tolerance, which costs it nothing measurable.
    """
    zd, rep_d, levels = z_discrete(scales, tol)
    zc, rep_c = z_continuous(scales, Tolerance(rel=min(tol.rel, 1e-12), abs=tol.abs,
                                               max_iter=tol.max_iter))
    return PartitionResult(z_c=zc, z_d=zd, z_total=zc + zd,
                           terms_c=rep_c, terms_d=rep_d, per_level_d=levels)
