"""Special functions: generalized Laguerre polynomials, the Whittaker function
M_{n,1/2} with derivatives, large-degree Laguerre asymptotics, the
complementary error function, the Bessel functions J0/J1 and the Hurwitz
zeta function.

The Whittaker evaluation rests on the Kummer reduction for integer first
index,

    M_{n,1/2}(x) = (x/n) e^{-x/2} L_{n-1}^{(1)}(x),

so everything reduces to the three-term Laguerre recurrence.  Two evaluation
paths are provided:

* ``laguerre`` - the plain recurrence in ordinary doubles.  It overflows once
  e^{x/2}-sized values appear (x/2 > ~709, i.e. x > ~1418 in the oscillatory
  range, earlier for x >> 4n where |L| ~ x^n/n!), and raises
  :class:`LaguerreOverflowError` when that happens.
* an internal rescaled recurrence that carries a shared log-scale exponent
  alongside the mantissas, valid for any n and x that the callers here need
  (degrees in the thousands, arguments in the thousands).

The Wronskian-like combination M'^2 - M M'' that the level densities need is
never formed from the assembled M, M', M'': those terms cancel almost
completely at large n*x.  Instead the Laguerre ODE eliminates L'' and the
combination collapses to

    M'^2 - M M'' = e^{-x} [ (1+(n-1)x) L^2 - x(x-2) L L' + x^2 L'^2 ] / n^2,

a quadratic form with negative discriminant for x < 4n, hence free of
catastrophic cancellation exactly where the densities have their support.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, LaguerreOverflowError, TurningPointError

_SQRT_PI = math.sqrt(math.pi)

# Rescaling controls for the log-scaled recurrence.  The trigger must leave
# room for squares of the mantissas times ~n*x in the Wronskian bracket:
# (1e130 * x)^2 * n * x stays below 1.8e308 for n, x up to ~10^5.  The worst
# single-step growth factor is ~x, checked after every step.
_RESCALE_TRIGGER = 1e130
_RESCALE_FACTOR = 2.0 ** -466
_RESCALE_LOG = 466.0 * math.log(2.0)


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


def _laguerre_value(n: int, alpha: int, x: float) -> float:
    if n == 0:
        return 1.0
    prev, cur = 1.0, alpha + 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def laguerre(n: int, alpha: int, x: float) -> tuple[float, float, float]:
    """L_n^(alpha)(x) with first and second derivatives in x.

    Derivatives come from the exact ladder relations
    d/dx L_n^(a) = -L_{n-1}^(a+1) and d2/dx2 L_n^(a) = L_{n-2}^(a+2), which
    stay valid at x = 0 where the ODE-based route degenerates.

    Plain double-precision recurrence: raises LaguerreOverflowError once any
    of the three values leaves the representable range (see module docstring
    for where that happens).
    """
    if n < 0 or alpha < 0:
        raise DomainError(f"need n >= 0 and alpha >= 0, got n={n}, alpha={alpha}")
    v = _laguerre_value(n, alpha, x)
    d1 = -_laguerre_value(n - 1, alpha + 1, x) if n >= 1 else 0.0
    d2 = _laguerre_value(n - 2, alpha + 2, x) if n >= 2 else 0.0
    if not (math.isfinite(v) and math.isfinite(d1) and math.isfinite(d2)):
        raise LaguerreOverflowError(n, x)
    return v, d1, d2


def _laguerre_ladder(x: np.ndarray, live):
    """The rescaled L_k^{(1)} recurrence over a 1-D array x, one degree at a time.

    ``live[n-1]``, non-increasing in n, is how many leading points need level
    n.  Yields (n, la, lb, log_scale) for n = 1, ..., len(live): views of
    those points, valid until the next step, with L_{n-1}^{(1)} =
    la * exp(log_scale) and L_{n-2}^{(1)} = lb * exp(log_scale) (L_{-1} = 0).
    The coefficients depend only on k and x (DLMF 18.9.13), so a point sees
    exactly the operations, in the same order, of a pass at its own degree.
    """
    # Two buffers trade the roles of L_{k-1} and L_k each step, so the update
    # runs in place: L_k sits in `odd` for odd k (and k = -1), else in `even`.
    odd = np.zeros_like(x)      # L_{-1}
    even = np.ones_like(x)      # L_0
    log_scale = np.zeros_like(x)
    m = live[0]
    prev, cur, xk, lk = odd[:m], even[:m], x[:m], log_scale[:m]
    yield 1, cur, prev, lk
    for k in range(len(live) - 1):
        if live[k + 1] != m:
            m = live[k + 1]
            prev, cur = (odd[:m], even[:m]) if k & 1 == 0 else (even[:m], odd[:m])
            xk, lk = x[:m], log_scale[:m]
        # L_{k+1} = ((2k + 2 - x) L_k - (k + 1) L_{k-1}) / (k + 1), over L_{k-1}
        t = 2 * k + 2 - xk
        t *= cur
        prev *= k + 1
        np.subtract(t, prev, out=prev)
        prev /= k + 1
        prev, cur = cur, prev
        big = np.abs(cur) > _RESCALE_TRIGGER
        if big.any():
            cur[big] *= _RESCALE_FACTOR
            prev[big] *= _RESCALE_FACTOR
            lk[big] += _RESCALE_LOG
        yield k + 2, cur, prev, lk


def _scaled_laguerre_pair(n, x: np.ndarray):
    """(L_{n-1}^{(1)}, L_{n-2}^{(1)}) at x, as mantissas with a per-point log scale.

    ``n`` is one degree >= 1 or an integer array of them broadcast against x.
    Returns (la, lb, log_scale) of x's shape with L_{n-1}^{(1)}(x) =
    la * exp(log_scale) and the same scale for lb (0 where n = 1).  The
    points, by falling degree, share one :func:`_laguerre_ladder` pass and
    are read off at their own degrees.
    """
    x = np.asarray(x, dtype=float)
    deg = np.broadcast_to(np.asarray(n, dtype=np.int64), x.shape).ravel()
    order = np.argsort(-deg, kind="stable")
    deg, xs = deg[order], x.ravel()[order]
    live = np.searchsorted(-deg, -np.arange(1, deg.max(initial=1) + 2), side="right")
    out = np.empty((3, xs.size))
    for level, *pair in _laguerre_ladder(xs, live[:-1]):
        lo, hi = live[level], live[level - 1]
        if lo < hi:
            out[:, lo:hi] = [values[lo:hi] for values in pair]
    back = np.empty_like(out)
    back[:, order] = out
    return tuple(back.reshape((3,) + x.shape))


def _combo_terms(n, x: np.ndarray, la, lb, log_scale):
    """(w, M'^2 - M M'') from the scaled Laguerre pair, with w = x L'.

    Uses x*L' = (n-1) L_{n-1} - n L_{n-2} so no division by x appears; the
    x -> 0 limit of the combination is exactly 1.
    """
    w = (n - 1) * la - n * lb
    bracket = (1.0 + (n - 1) * x) * la * la - (x - 2.0) * la * w + w * w
    return w, bracket * np.exp(_scale_exponent(n, x, 2.0 * log_scale - x)) / (n * n)


def _scale_exponent(n, x: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """``expo`` raised to at least -745, checked against overflow.

    exp(-745) is the smallest subnormal, so an underflowing term stays a
    positive subnormal as it always has.  An exponent above 700 raises
    :class:`LaguerreOverflowError` at its first point instead of being
    clamped to a wrong finite value.
    """
    over = expo > 700.0
    if over.any():
        i = int(np.argmax(over.ravel()))
        deg = int(np.broadcast_to(n, x.shape).ravel()[i])
        raise LaguerreOverflowError(deg, float(x.ravel()[i]))
    return np.maximum(expo, -745.0)


def _combo_arrays(n, x: np.ndarray) -> np.ndarray:
    """M'^2 - M M'' for M_{n,1/2}, vectorized, cancellation-safe.

    ``n`` is one degree or one degree per point (see _scaled_laguerre_pair).
    """
    x = np.asarray(x, dtype=float)
    return _combo_terms(n, x, *_scaled_laguerre_pair(n, x))[1]


def whittaker_m_half(n, x):
    """(M, M', M'', M'^2 - M M'') of M_{n,1/2} at points x > 0, arrays of x's shape.

    ``n`` is one degree >= 1 or one per point.  Assembled from the rescaled
    Laguerre recurrence; usable far beyond the plain-recurrence overflow
    point (n and x in the thousands).
    """
    if np.any(np.asarray(n) < 1):
        raise DomainError(f"need integer n >= 1, got {np.min(n)}")
    x = np.asarray(x, dtype=float)
    bad = ~(x > 0)
    if bad.any():
        raise DomainError(f"need x > 0, got {x[bad][0]}")
    la, lb, log_scale = _scaled_laguerre_pair(n, x)
    w, combo = _combo_terms(n, x, la, lb, log_scale)
    scale = np.exp(_scale_exponent(n, x, log_scale - 0.5 * x))
    m = (x / n) * la * scale
    m1 = ((1.0 - 0.5 * x) * la + w) * scale / n
    m2 = (0.25 * x - n) * la * scale / n
    bad = ~(np.isfinite(m) & np.isfinite(m1) & np.isfinite(m2) & np.isfinite(combo))
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        deg, xi = int(np.broadcast_to(n, x.shape).ravel()[i]), float(x.ravel()[i])
        raise LaguerreOverflowError(deg, xi, f"Whittaker assembly not finite at n={deg}, x={xi}")
    return m, m1, m2, combo


# ---------------------------------------------------------------------------
# Large-degree asymptotics (two branches; the turning point r = 4 is excluded)
# ---------------------------------------------------------------------------

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
    LaguerreOverflowError; use the rescaled recurrence path instead.
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


# ---------------------------------------------------------------------------
# Complementary error function
# ---------------------------------------------------------------------------

def erfcx_minus_one(s):
    """e^{s^2} erfc(s) - 1, stable for small s; scalar or array.

    The direct product loses all significance as s -> 0 (the result is
    ~ -2s/sqrt(pi) against terms of size 1); below |s| = 0.5 the power series

        e^{s^2} erfc(s) - 1 = sum_{k>=1} s^{2k}/k!
                              - (2/sqrt(pi)) sum_{k>=0} 2^k s^{2k+1}/(2k+1)!!

    is summed instead, to full double accuracy.  Each element leaves the
    series at its own first negligible term.  A scalar argument gives a float.
    """
    arr = np.asarray(s, dtype=float)
    flat = arr.ravel()
    out = np.empty_like(flat)
    small = np.abs(flat) < 0.5
    out[~small] = [math.exp(v * v) * math.erfc(v) - 1.0 for v in flat[~small].tolist()]
    idx = np.flatnonzero(small)
    s2 = flat[idx] * flat[idx]
    odd_term = 2.0 * flat[idx] / _SQRT_PI
    acc = -odd_term
    even_term = np.ones_like(acc)
    for k in range(1, 60):
        even_term = even_term * (s2 / k)
        odd_term = odd_term * (2.0 * s2 / (2 * k + 1))
        acc = acc + (even_term - odd_term)
        done = np.maximum(np.abs(even_term), np.abs(odd_term)) < 1e-18 * (1.0 + np.abs(acc))
        if done.any():
            out[idx[done]] = acc[done]
            rest = ~done
            idx, s2, even_term, odd_term, acc = (
                idx[rest], s2[rest], even_term[rest], odd_term[rest], acc[rest])
            if not idx.size:
                break
    out[idx] = acc
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Bessel functions J0, J1 and the Hurwitz zeta function
# ---------------------------------------------------------------------------

def bessel_j01(s: float) -> tuple[float, float]:
    """(J0(s), J1(s)) for s >= 0 from Bessel's integral.

    J_k(s) = (1/pi) int_0^pi cos(k theta - s sin theta) d theta has a smooth
    periodic integrand, so the midpoint rule with ceil(s) + 64 nodes is exact
    up to terms of the size of J_{2m}(s) with m nodes, far below rounding.
    """
    if not s >= 0:
        raise DomainError(f"need s >= 0, got {s}")
    m = math.ceil(s) + 64
    theta = (np.arange(m) + 0.5) * (math.pi / m)
    phase = s * np.sin(theta)
    return float(np.mean(np.cos(phase))), float(np.mean(np.cos(theta - phase)))


# B_{2j} / (2j)! for j = 1..8: the Euler-Maclaurin correction coefficients.
_EULER_MACLAURIN = tuple(
    num / den / math.factorial(2 * j)
    for j, (num, den) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510)),
        start=1))


def hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta function sum_{k >= 0} (q + k)^{-s}, for s > 1 and q > 0.

    Euler-Maclaurin summation: the terms below x = q + m are added directly,
    with m the fewest that make x >= 2 (s + 16), and the rest is the
    integral, the half end term and eight Bernoulli corrections.  The first
    omitted correction is below 2^-17 (2 pi)^-18 of the integral term.
    """
    if not (s > 1 and q > 0):
        raise DomainError(f"need s > 1 and q > 0, got s={s}, q={q}")
    m = max(0, math.ceil(2.0 * (s + 16.0) - q))
    head = math.fsum((q + k) ** -s for k in range(m))
    x = q + m
    total = x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s
    rising, power = s, x ** (-s - 1.0)  # s (s+1) ... (s+2j-2) and x^{-s-2j+1}
    for j, coef in enumerate(_EULER_MACLAURIN, start=1):
        total += coef * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= x * x
    return head + total
