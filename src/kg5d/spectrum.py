"""Hydrogenic spectra in the quantum and statistical pictures.

Three equivalent quantizations are implemented:

* ``kg_energies`` - the closed-form relativistic bound-state energies E_nl
  of a spinless charge in a Coulomb field (``kg_binding_energies``: mc^2 - E_nl),
* ``matching_residuals`` - the same condition rewritten as a matching between
  the metric length scale lambda* and the two propagation wavelengths
  (lambda, lambda'); its root in lambda' reproduces hbar*c/E_nl,
* ``stat_wavelengths`` / ``stat_energy`` - the statistical-mechanics
  analogue, where the quantization fixes a thermal wavelength
  Lambda'_nl > Lambda.  The condition is implicit, so it is solved
  numerically, with the non-relativistic expansion
  ``stat_wavelength_expansions`` as cross-check.  The levels of a table go
  through lockstep root solves of one fixed-size block each, each level bit
  for bit as alone.

Every level kernel takes a table of levels, 1-D integer arrays ``ns`` and
``ls`` (n >= 1, 0 <= l <= n, checked on entry); one level is a table of one.

The spectra depend only on dimensionless ratios, and each kernel takes the
one it uses as a plain float: the quantum levels the coupling
``za`` = Z alpha = lambda*/lambda, the statistical levels
``eps`` = lambda*/Lambda.  They return ratios too: E/mc^2, lambda'/lambda,
Lambda'/Lambda and e_n/Mc^2.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import BracketingError, DomainError, NonConvergenceError
from .numerics import Tolerance, find_roots


def _levels(ns, ls) -> tuple[np.ndarray, np.ndarray]:
    """The level table as int64 arrays: 1-D integer arrays of one shape (an
    empty one of any dtype) with n >= 1 and 0 <= l <= n, or DomainError
    naming the first bad level."""
    n, l = np.asarray(ns), np.asarray(ls)
    if n.ndim != 1 or n.shape != l.shape or n.size and {n.dtype.kind, l.dtype.kind} - set("iu"):
        raise DomainError("need 1-D integer level arrays of one shape, got "
                          f"{n.dtype} {n.shape} and {l.dtype} {l.shape}")
    n, l = n.astype(np.int64, copy=False), l.astype(np.int64, copy=False)
    bad = (n < 1) | (l < 0) | (l > n)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"need n >= 1, got {n[i]}" if n[i] < 1
                          else f"need 0 <= l <= n, got l={l[i]}, n={n[i]}")
    return n, l


def _brackets(n: np.ndarray, l: np.ndarray, za2):
    """n - l - 1/2 + sqrt((l+1/2)^2 + za2) per level, with za2 minus a squared
    coupling, and the mask of levels whose square root is not real."""
    s = (l + 0.5) ** 2 + za2
    critical = s <= 0
    s[critical] = 0.0
    return n - l - 0.5 + np.sqrt(s, out=s), critical


def _critical(n: int, l: int) -> DomainError:
    return DomainError(f"(l+1/2)^2 - coupling^2 <= 0 at n={n}, l={l}: "
                       f"critical coupling {(l + 0.5):.6g}")


def _qm_brackets(n: np.ndarray, l: np.ndarray, za: float) -> np.ndarray:
    """The brackets at Z alpha = ``za``; DomainError names the first level
    past its critical coupling Z alpha = l + 1/2."""
    b, critical = _brackets(n, l, -(za * za))
    if critical.any():
        i = int(np.argmax(critical))
        raise _critical(int(n[i]), int(l[i]))
    return b


def kg_energies(ns, ls, za: float) -> np.ndarray:
    """Relativistic bound-state energies E_nl/mc^2 of the hydrogenic KG problem.

    E_nl/mc^2 = (1 + (Z a)^2 / [n - l - 1/2 + sqrt((l+1/2)^2 - (Z a)^2)]^2)^(-1/2)

    at Z a = ``za``, for each level (n, l) of the 1-D sequences ``ns`` and
    ``ls``; a level gets the same bits as the formula evaluated for it
    alone.  The minus sign under the inner root is the standard
    spinless-Coulomb result: it gives the physical level ordering (E grows
    with l at fixed n) and the well-known critical coupling Z a = l + 1/2,
    past which the problem leaves the real domain and DomainError is raised,
    naming the first such level.
    """
    n, l = _levels(ns, ls)
    b = _qm_brackets(n, l, za)
    return 1.0 / np.sqrt(1.0 + (za / b) ** 2)


def kg_binding_energies(ns, ls, za: float) -> np.ndarray:
    """(mc^2 - E_nl)/mc^2 for each level of the table, evaluated without cancellation.

    Uses expm1/log1p so the O(alpha^2) binding stays fully resolved even at
    couplings where the direct difference would lose every significant digit
    (mc^2 - E ~ 1e-9 mc^2 at alpha = 1e-4).
    """
    n, l = _levels(ns, ls)
    b = _qm_brackets(n, l, za)
    return -np.expm1(-0.5 * np.log1p((za / b) ** 2))


def matching_residuals(lambda_primes, ns, ls, za: float) -> np.ndarray:
    """LHS - RHS of the wavelength matching condition, for each level of the table.

    [(lambda'/lambda)^2 - 1] * [n - l - 1/2 + sqrt((l+1/2)^2 - (lambda*/lambda)^2)]^2
        = (lambda*/lambda)^2,   lambda*/lambda = Z alpha = ``za``.

    Quantization as a matching between the metric scale lambda* and the two
    propagation wavelengths; zero exactly when lambda'/lambda = mc^2/E_nl
    (the bracket carries the same corrected sign as kg_energies).
    ``lambda_primes`` holds one lambda'/lambda > 0 per level, or one for all.
    """
    n, l = _levels(ns, ls)
    t = np.asarray(lambda_primes, dtype=float)
    bad = ~(t > 0)
    if bad.any():
        raise DomainError(f"need lambda' > 0, got {t[bad][0]}")
    b = _qm_brackets(n, l, za)
    return (t * t - 1.0) * b * b - za * za


def _stat_residuals(x: np.ndarray, n: np.ndarray, l: np.ndarray, eps: float):
    """Residual of the statistical quantization in x = Lambda/Lambda', per level.

    [(Lambda/Lambda')^2 - 1] * [n - l - 1/2 + sqrt((l+1/2)^2 - (lambda*/Lambda')^2)]^2
        + (lambda*/Lambda')^2,   with lambda*/Lambda' = eps * x.

    Returns the residuals and the mask of levels whose square root is not
    real, where the residual is meaningless.
    """
    ex = eps * x
    b, bad = _brackets(n, l, -(ex * ex))
    return (x * x - 1.0) * b * b + ex * ex, bad


# Levels per block of the statistical root solve: every array of one block
# stays in cache, and the solve's memory does not grow with the table.
_BLOCK_LEVELS = 4096


def stat_wavelengths(
    ns, ls, eps: float, tol: Tolerance = Tolerance(rel=1e-15, abs=0.0)
) -> tuple[np.ndarray, dict]:
    """Thermal wavelengths Lambda'_nl/Lambda > 1 solving the statistical
    quantization at the coupling ``eps`` = lambda*/Lambda.

    Each level is a bracketed root in x = Lambda/Lambda' on [1/2, 1]; the
    non-relativistic expansion 1 + eps^2/(2 n^2) is its documented
    small-coupling limit, not a seed (the solver is bisection plus secant).
    Returns ``(wavelengths, refused)``: one Lambda'_nl/Lambda per level (n, l), and
    the row index of each level without a root mapped to its reason, a
    DomainError when the coupling pushes the square root complex (naming the
    critical ratio) or a BracketingError when the residual has no sign
    change on the bracket; those rows are NaN.  The table is solved one
    block of ``_BLOCK_LEVELS`` rows at a time, so the solve's memory is that
    of one block; the roots of a block's other levels go through one
    :func:`find_roots`, each exactly as alone.  A root it cannot localize
    raises NonConvergenceError for the whole call, naming the table row and
    its level.
    """
    ns, ls = _levels(ns, ls)
    out = np.ones(len(ns))
    refused = {}
    if eps == 0.0:
        return out, refused
    for start in range(0, len(ns), _BLOCK_LEVELS):
        domain = eps >= ls[start:start + _BLOCK_LEVELS] + 0.5
        for i in (start + np.flatnonzero(domain)).tolist():
            refused[i] = DomainError(
                f"coupling lambda*/Lambda = {eps:.6g} >= l + 1/2 = {int(ls[i]) + 0.5}: "
                "statistical quantization leaves the real domain"
            )
        rows = start + np.flatnonzero(~domain)
        n, l = ns[rows], ls[rows]
        half, one = np.full(len(rows), 0.5), np.ones(len(rows))
        f_half, bad_half = _stat_residuals(half, n, l, eps)
        f_one, bad_one = _stat_residuals(one, n, l, eps)
        not_real = bad_half | bad_one
        for j in np.flatnonzero(not_real).tolist():
            refused[int(rows[j])] = _critical(int(n[j]), int(l[j]))
        unbracketed = ~not_real & ~((f_half < 0.0) & (0.0 < f_one))
        for j in np.flatnonzero(unbracketed).tolist():
            refused[int(rows[j])] = BracketingError(
                f"statistical quantization not bracketed on [Lambda, 2 Lambda] "
                f"for n={int(n[j])}, l={int(l[j])}, coupling={eps:.6g}"
            )
        solve = ~(not_real | unbracketed)
        rows, n, l = rows[solve], n[solve], l[solve]

        def residual(x, owner, n=n, l=l):
            # (l+1/2)^2 - (eps x)^2 falls with x, also in rounded arithmetic, so
            # a square root real at x = 1 is real on the whole bracket.
            return _stat_residuals(x, n[owner], l[owner], eps)[0]

        try:
            out[rows] = 1.0 / find_roots(residual, half[solve], one[solve], tol)
        except NonConvergenceError as exc:
            i, x, w = int(rows[exc.index]), exc.estimate, exc.error_bound
            raise NonConvergenceError(
                f"statistical wavelength not localized within {tol.max_iter} iterations "
                f"at row {i} (n={int(ns[i])}, l={int(ls[i])})", index=i,
                # the bracket [x - w/2, x + w/2] as wavelengths 1/x
                estimate=1.0 / x, error_bound=1.0 / (x - 0.5 * w) - 1.0 / (x + 0.5 * w),
            ) from exc
    out[list(refused)] = np.nan
    return out, dict(sorted(refused.items()))


def stat_wavelength_expansions(ns, ls, eps: float) -> np.ndarray:
    """Non-relativistic expansion Lambda'/Lambda = 1 + eps^2/(2 n^2) per level,
    at the coupling ``eps`` = lambda*/Lambda."""
    n, _ = _levels(ns, ls)
    return 1.0 + 0.5 * eps * eps / n**2


def stat_energy(n, eps: float):
    """Non-relativistic statistical level energy e_n/Mc^2, independent of l.

    e_n/Mc^2 = 1 - eps^2 / (2 n^2) at the coupling ``eps`` = lambda*/Lambda,
    which equals (Z e) q M / (hbar c), reproducing the familiar 1/n^2
    ladder.  ``n`` is an int or an int array (one energy per entry, each
    with the bits of its int).
    """
    below = np.asarray(n) < 1
    if below.any():
        raise DomainError(f"need n >= 1, got {np.asarray(n)[below][0]}")
    return 1.0 - 0.5 * eps * eps / (n * n)
