"""Special functions: the Whittaker-function combination M'^2 - M M'' of
M_{n,1/2} from a rescaled Laguerre recurrence, the complementary error
function, the Bessel functions J0/J1 and the Hurwitz zeta function.

The Whittaker evaluation rests on the Kummer reduction for integer first
index,

    M_{n,1/2}(x) = (x/n) e^{-x/2} L_{n-1}^{(1)}(x),

so everything reduces to the three-term Laguerre recurrence.  One evaluation
path serves every command: the recurrence over arrays of points
(``_laguerre_ladder``), carrying a per-point log-scale exponent alongside the
mantissas.  Plain doubles would overflow once e^{x/2}-sized values appear
(x > ~1418 in the oscillatory range, earlier for x >> 4n where
|L| ~ x^n/n!); the rescaled values stay finite for any n and x the callers
here need (degrees in the thousands, arguments in the thousands).

The Wronskian-like combination M'^2 - M M'' that the level densities need is
never formed from an assembled M, M', M'': those terms cancel almost
completely at large n*x.  Instead the Laguerre ODE eliminates L'' and the
combination collapses to

    M'^2 - M M'' = e^{-x} [ (1+(n-1)x) L^2 - x(x-2) L L' + x^2 L'^2 ] / n^2,

a quadratic form with negative discriminant for x < 4n, hence free of
catastrophic cancellation exactly where the densities have their support.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, LaguerreOverflowError

_SQRT_PI = math.sqrt(math.pi)

# Rescaling controls for the log-scaled recurrence.  The trigger must leave
# room for squares of the mantissas times ~n*x in the Wronskian bracket:
# (1e130 * x)^2 * n * x stays below 1.8e308 for n, x up to ~10^5.  The worst
# single-step growth factor is ~x, checked after every step.
_RESCALE_TRIGGER = 1e130
_RESCALE_FACTOR = 2.0 ** -466
_RESCALE_LOG = 466.0 * math.log(2.0)

# Below this exponent e^expo is subnormal: log of the smallest normal double.
_LOG_TINY = math.log(np.finfo(float).tiny)


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
        big = np.flatnonzero(np.abs(cur) > _RESCALE_TRIGGER)
        if big.size:
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
    x -> 0 limit of the combination is exactly 1.  Where the exponent
    2 log_scale - x is below log(tiny) = -708.39..., e^expo is subnormal or
    0, with few significant bits or none, while the bracket can be as large
    as 1e263: there log|bracket / n^2| is folded into the exponent, so the
    value loses precision only where it is itself subnormal.
    """
    w = (n - 1) * la - n * lb
    bracket = (1.0 + (n - 1) * x) * la * la - (x - 2.0) * la * w + w * w
    expo = _checked_exponent(n, x, 2.0 * log_scale - x)
    combo = bracket * np.exp(expo) / (n * n)
    low = expo < _LOG_TINY
    if low.any():
        combo, b = np.asarray(combo), bracket[low]
        nn = np.broadcast_to(n * n, low.shape)[low]
        combo[low] = np.copysign(np.exp(expo[low] + np.log(np.abs(b) / nn)), b)
    return w, combo


def _checked_exponent(n, x: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """``expo``, checked against overflow: an exponent above 700 raises
    :class:`LaguerreOverflowError` at its first point instead of being
    clamped to a wrong finite value."""
    over = expo > 700.0
    if over.any():
        i = int(np.argmax(over.ravel()))
        deg = int(np.broadcast_to(n, x.shape).ravel()[i])
        raise LaguerreOverflowError(deg, float(x.ravel()[i]))
    return expo


def _combo_arrays(n, x: np.ndarray) -> np.ndarray:
    """M'^2 - M M'' for M_{n,1/2}, vectorized, cancellation-safe.

    ``n`` is one degree or one degree per point (see _scaled_laguerre_pair).
    """
    x = np.asarray(x, dtype=float)
    return _combo_terms(n, x, *_scaled_laguerre_pair(n, x))[1]


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
    series at its own first negligible term.  Past s ~ 26.64, where e^{s^2}
    overflows a double, the asymptotic series of erfcx is summed; below
    s ~ -26.63, where the value ~ 2 e^{s^2} itself overflows, ``DomainError``
    is raised.  A scalar argument gives a float.
    """
    arr = np.asarray(s, dtype=float)
    flat = arr.ravel()
    out = np.empty_like(flat)
    small = np.abs(flat) < 0.5
    out[~small] = [_erfcx_minus_one_product(v) for v in flat[~small].tolist()]
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


def _erfcx_minus_one_product(v: float) -> float:
    """e^{v^2} erfc(v) - 1 from the product of the two factors, or, where
    e^{v^2} overflows (v^2 > ~709.78) and v > 0, from the asymptotic series

        e^{v^2} erfc(v) = (1 / (v sqrt(pi))) sum_{k>=0} (-1)^k (2k-1)!! / (2v^2)^k,

    summed to its first term below 1e-17 of the sum: there 2v^2 > 1419, so
    the k-th term is (2k-1)/(2v^2) < 1/100 of the one before it over the
    eight or so terms that takes."""
    try:
        scale = math.exp(v * v)
    except OverflowError:
        scale = math.inf
    if scale != math.inf:
        product = scale * math.erfc(v)
        if product != math.inf:
            return product - 1.0
    if v < 0:
        raise DomainError(f"e^(s^2) erfc(s) overflows a double at s = {v!r} (below about -26.63)")
    ratio = 0.5 / (v * v)
    term = acc = 1.0
    k = 1
    while abs(term) >= 1e-17 * acc:
        term *= -(2 * k - 1) * ratio
        acc += term
        k += 1
    return acc / (v * _SQRT_PI) - 1.0


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
