"""Hydrogenic spectrum tests: closed-form energies, the wavelength matching
condition, and the statistical quantization with its small-coupling expansion.

Oracles: mpmath at 40 digits for the energy formula and the implicit root.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kg5d import spectrum
from kg5d.errors import BracketingError, DomainError, NonConvergenceError
from kg5d.numerics import Tolerance, fit_convergence_order
from kg5d.spectrum import (
    kg_binding_energies,
    kg_energies,
    matching_residuals,
    stat_energy,
    stat_wavelength_expansions,
    stat_wavelengths,
)

mp.mp.dps = 40

ALPHA_CODATA = 0.0072973525693


def _energy(n, l, za):
    """E_nl/mc^2 of one level: kg_energies on a batch of one."""
    return float(kg_energies([n], [l], za)[0])


def _binding(n, l, za):
    return float(kg_binding_energies([n], [l], za)[0])


def _residual(lam_prime, n, l, za):
    return float(matching_residuals([lam_prime], [n], [l], za)[0])


def _expansion(n, l, eps):
    return float(stat_wavelength_expansions([n], [l], eps)[0])


# Each level kernel on (ns, ls) at Z alpha = za and lambda*/Lambda = eps,
# taking the one it uses.
_LEVEL_KERNELS = {
    "kg_energies": lambda ns, ls, za, eps: kg_energies(ns, ls, za),
    "kg_binding_energies": lambda ns, ls, za, eps: kg_binding_energies(ns, ls, za),
    # lambda'/lambda from the row's own level, so a row alone gets the same one
    "matching_residuals": lambda ns, ls, za, eps: matching_residuals(
        1.0 + 0.01 * (np.asarray(ns) + 2.0 * np.asarray(ls)) ** 2, ns, ls, za),
    "stat_wavelengths": lambda ns, ls, za, eps: stat_wavelengths(ns, ls, eps)[0],
    "stat_wavelength_expansions": lambda ns, ls, za, eps: stat_wavelength_expansions(ns, ls, eps),
}


def test_level_index_bounds():
    # l = n is allowed as written; the first bad level of a table is named.
    # kg_energies and stat_wavelengths checked no level: on the last two
    # tables they returned three energies and a wavelength.
    for ns, ls, message in (([3], [3], None),
                            ([0], [0], "need n >= 1, got 0"),
                            ([2], [3], "need 0 <= l <= n, got l=3, n=2"),
                            ([0, 1, -3], [0, 5, 0], "need n >= 1, got 0"),
                            ([1], [5], "need 0 <= l <= n, got l=5, n=1")):
        for kernel in _LEVEL_KERNELS.values():
            if message is None:
                kernel(ns, ls, ALPHA_CODATA, 0.01)
                continue
            with pytest.raises(DomainError) as info:
                kernel(ns, ls, ALPHA_CODATA, 0.01)
            assert str(info.value) == message


def test_level_tables_must_be_1d_integer_arrays_of_one_shape():
    for ns, ls in (([1, 2], [0]), ([[1]], [[0]]), (1, 0), ([1.0], [0.0]), ([True], [False])):
        for kernel in _LEVEL_KERNELS.values():
            with pytest.raises(DomainError, match="need 1-D integer level arrays of one shape"):
                kernel(ns, ls, ALPHA_CODATA, 0.01)


_level = st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
_bad_level = st.one_of(
    st.tuples(st.integers(-5, 0), st.integers(0, 3)).map(
        lambda nl: (nl, f"need n >= 1, got {nl[0]}")),
    st.tuples(st.integers(1, 60), st.integers(-5, -1)).map(
        lambda nl: (nl, f"need 0 <= l <= n, got l={nl[1]}, n={nl[0]}")),
    st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, n + 5))).map(
        lambda nl: (nl, f"need 0 <= l <= n, got l={nl[1]}, n={nl[0]}")),
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_LEVEL_KERNELS)), levels=st.lists(_level, max_size=8),
       bad=_bad_level, at=st.integers(0, 8), alpha=st.floats(1e-4, 0.3),
       coupling=st.floats(1e-3, 1.0))
def test_level_kernels_refuse_bad_levels_and_keep_row_bits(name, levels, bad, at, alpha,
                                                           coupling):
    # Every level kernel refuses a table holding a level with n < 1, l < 0 or
    # l > n, naming it; on the table without it each row has the bits of the
    # kernel run on that row alone (stat_wavelengths: NaN where refused).
    kernel = _LEVEL_KERNELS[name]
    (n_bad, l_bad), message = bad
    table = levels[:at] + [(n_bad, l_bad)] + levels[at:]
    with pytest.raises(DomainError) as info:
        kernel([n for n, _ in table], [l for _, l in table], alpha, coupling)
    assert str(info.value) == message
    got = kernel([n for n, _ in levels], [l for _, l in levels], alpha, coupling)
    assert got.shape == (len(levels),)
    alone = [kernel([n], [l], alpha, coupling)[0] for n, l in levels]
    assert got.view(np.int64).tolist() == np.array(alone, dtype=float).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# kg_energies
# ---------------------------------------------------------------------------

def test_kg_energy_uncoupled_is_rest_energy():
    for n in range(1, 4):
        for l in range(0, n + 1):
            assert _energy(n, l, 0.0) == 1.0


def test_kg_energy_against_mpmath():
    za = mp.mpf("1") / mp.mpf("137.035999")
    for (n, l) in [(1, 0), (2, 0), (2, 1), (5, 3)]:
        b = n - l - mp.mpf(1) / 2 + mp.sqrt((l + mp.mpf(1) / 2) ** 2 - za**2)
        ref = float(1 / mp.sqrt(1 + (za / b) ** 2))
        assert _energy(n, l, 1.0 / 137.035999) == pytest.approx(ref, rel=1e-14)


def test_kg_energy_critical_coupling():
    # the l = 0 channel leaves the real domain at Z*alpha = 1/2
    with pytest.raises(DomainError):
        _energy(1, 0, 0.51)
    assert _energy(2, 1, 0.51) > 0  # higher l still fine


def _kg_energy_formula(n, l, za):
    """E_nl/mc^2 of one level from the closed form, in Python floats."""
    b = n - l - 0.5 + math.sqrt((l + 0.5) ** 2 - za * za)
    return 1.0 / math.sqrt(1.0 + (za / b) ** 2)


@pytest.mark.parametrize("alpha", [ALPHA_CODATA, 1e-4, 0.0123, 0.2, 0.4])
def test_kg_energies_bitwise_per_level_formula(alpha):
    # every (n, l) row of a spectrum table up to n = 300, in one batch
    n = np.repeat(np.arange(1, 301), np.arange(2, 302))
    l = np.concatenate([np.arange(m + 1) for m in range(1, 301)])
    got = kg_energies(n, l, alpha)
    want = np.array([_kg_energy_formula(a, b, alpha) for a, b in zip(n.tolist(), l.tolist())])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_kg_energies_critical_coupling_names_first_level():
    with pytest.raises(DomainError) as info:
        kg_energies([2, 3, 1], [1, 0, 0], 0.51)
    assert str(info.value) == ("(l+1/2)^2 - coupling^2 <= 0 at n=3, l=0: "
                               "critical coupling 0.5")


def test_kg_energy_ground_state_binding_scale():
    # binding ~ (Z alpha)^2 mc^2 / 2: the 13.6 eV scale for mc^2 = 511 keV
    alpha = 1.0 / 137.035999
    binding = _binding(1, 0, alpha)
    assert binding == pytest.approx(alpha**2 / 2.0, rel=5e-4)
    ev = binding * 510_998.95
    assert ev == pytest.approx(13.606, rel=1e-3)


def test_kg_energy_alpha_scaling_of_nonrel_limit():
    devs = []
    for alpha in (1e-3, 1e-4):
        ratio = _binding(2, 1, alpha) / (alpha**2 / (2.0 * 2**2))
        devs.append(abs(ratio - 1.0))
    assert devs[0] / devs[1] == pytest.approx(100.0, rel=0.05)  # O(alpha^2)
    assert devs[1] < 1e-8


def test_kg_energy_monotonicity():
    za = 0.2  # strong but still Z*alpha < 1/2
    for l in range(0, 3):
        energies = [_energy(n, l, za) for n in range(max(l, 1), 7)]
        assert all(a < b for a, b in zip(energies, energies[1:]))
    for n in range(3, 7):
        energies = [_energy(n, l, za) for l in range(0, n + 1)]
        assert all(a < b for a, b in zip(energies, energies[1:]))


def test_kg_energy_range_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = float(rng.uniform(1e-4, 0.4))
        n = int(rng.integers(1, 9))
        l = int(rng.integers(0, n + 1))
        e = _energy(n, l, alpha)
        assert 0.0 < e < 1.0


def test_binding_energy_matches_direct_difference():
    assert _binding(3, 1, 0.05) == pytest.approx(1.0 - _energy(3, 1, 0.05), rel=1e-9)


# ---------------------------------------------------------------------------
# matching_residuals
# ---------------------------------------------------------------------------

def test_matching_residual_uncoupled_at_compton():
    for n in (1, 2, 4):
        assert _residual(1.0, n, 0, 0.0) == 0.0


def test_matching_residual_zero_at_energy_wavelength():
    for n in range(1, 6):
        for l in range(0, n + 1):
            lam_prime = 1.0 / _energy(n, l, ALPHA_CODATA)  # lambda'/lambda = mc^2/E
            assert abs(_residual(lam_prime, n, l, ALPHA_CODATA)) < 1e-10


def test_matching_residual_half_compton():
    # lambda' = lambda/2 with the coupling off: ((1/2)^2 - 1) n^2 = -(3/4) n^2.
    for n in (1, 2, 3):
        got = _residual(0.5, n, 0, 0.0)
        assert got == pytest.approx(-0.75 * n * n, rel=1e-14)


def test_matching_residual_sign_structure():
    # residual is monotone in lambda' around the root
    lam_root = 1.0 / _energy(2, 1, ALPHA_CODATA)
    assert _residual(0.99 * lam_root, 2, 1, ALPHA_CODATA) < 0
    assert _residual(1.01 * lam_root, 2, 1, ALPHA_CODATA) > 0


def test_matching_residuals_refuse_non_positive_wavelength():
    with pytest.raises(DomainError, match="need lambda' > 0, got 0.0"):
        matching_residuals([1.0, 0.0], [1, 2], [0, 1], ALPHA_CODATA)


# ---------------------------------------------------------------------------
# stat_wavelengths / stat_energy
# ---------------------------------------------------------------------------

def test_stat_wavelength_uncoupled():
    got, refused = stat_wavelengths([3], [1], 0.0)
    assert got.tolist() == [1.0] and refused == {}


def test_stat_wavelength_expansion_small_coupling():
    # Exact root = Lambda (1 + e^2/2 + (7/8) e^4 + ...) at n=1, l=0; verified
    # against mpmath findroot.  The stated quadratic expansion is matched to
    # O(e^4) by construction.
    ratio = stat_wavelengths([1], [0], 0.01)[0][0]

    def F(x):
        ex = mp.mpf("0.01") * x
        b = mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 - ex**2)
        return (x * x - 1) * b * b + ex**2

    ref = float(1 / mp.findroot(F, mp.mpf(1) - mp.mpf("0.01") ** 2 / 2))
    assert ratio == pytest.approx(ref, rel=1e-13)
    assert ratio == pytest.approx(1.00005, abs=1e-8)
    quartic = ratio - _expansion(1, 0, 0.01)
    assert quartic == pytest.approx(0.875e-8, rel=1e-3)


def test_stat_wavelength_quartic_scaling():
    eps_list = (0.03, 0.01, 0.003)
    diffs = []
    for eps in eps_list:
        root = stat_wavelengths([1], [0], eps)[0][0]
        diffs.append(abs(root - _expansion(1, 0, eps)))
    order = fit_convergence_order(eps_list, diffs)
    assert order == pytest.approx(4.0, abs=0.3)


def test_stat_wavelength_root_unique_in_bracket():
    # residual has a single sign change on [Lambda, 2 Lambda]
    for coupling in (0.01, 0.1):
        lams, refused = stat_wavelengths([1, 3, 10], [0, 0, 0], coupling)
        assert refused == {}
        assert np.all((1.0 < lams) & (lams < 2.0))


def test_stat_wavelength_complex_regime_refused():
    got, refused = stat_wavelengths([1], [0], 0.7)  # 0.7 >= l + 1/2
    assert isinstance(refused[0], DomainError) and math.isnan(got[0])


def _reference_stat_wavelength(n, l, eps, rel=1e-15):
    """The one-level scalar solve of Lambda'/Lambda: residual in
    x = Lambda/Lambda' on [1/2, 1], bisection with secant steps, as the
    spectrum table computed it row by row."""
    if eps >= l + 0.5:
        raise DomainError("coupling >= l + 1/2")

    def f(x):
        ex = eps * x
        root = (l + 0.5) ** 2 + -(ex * ex)
        if root <= 0:
            raise DomainError("square root not real")
        b = n - l - 0.5 + math.sqrt(root)
        return (x * x - 1.0) * b * b + ex * ex

    if not f(0.5) < 0.0 < f(1.0):
        raise BracketingError("not bracketed")
    lo, hi, flo, fhi = 0.5, 1.0, f(0.5), f(1.0)
    while True:
        width, mid = hi - lo, 0.5 * (lo + hi)
        if width <= rel * abs(mid) or width <= 4 * math.ulp(mid):
            return 1.0 / mid
        x = mid
        if fhi != flo:
            sec = hi - fhi * (hi - lo) / (fhi - flo)
            if lo + 0.1 * width < sec < hi - 0.1 * width:
                x = sec
        fx = f(x)
        if fx == 0.0:
            return 1.0 / x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx


@pytest.mark.parametrize("coupling", [0.01, 0.3, 0.7])
def test_stat_wavelengths_match_per_level_bitwise(coupling):
    # All levels n <= 40 in one lockstep solve: each wavelength equals the
    # one-row table and the scalar row-by-row solve bit for bit, and the
    # refused levels (l = 0 at 0.7) are NaN with the one-row table's error.
    levels = [(n, l) for n in range(1, 41) for l in range(n + 1)]
    got, refused = stat_wavelengths([n for n, _ in levels], [l for _, l in levels], coupling)
    assert got.shape == (len(levels),)
    for i, (n, l) in enumerate(levels):
        alone, alone_refused = stat_wavelengths([n], [l], coupling)
        if alone_refused:
            exc = alone_refused[0]
            assert math.isnan(got[i]) and type(refused[i]) is type(exc)
            assert str(refused[i]) == str(exc)
            with pytest.raises(type(exc)):
                _reference_stat_wavelength(n, l, coupling)
            continue
        assert i not in refused
        assert got[i] == alone[0] == _reference_stat_wavelength(n, l, coupling)
    assert len(refused) == (40 if coupling == 0.7 else 0)


def test_stat_wavelengths_refusal_reasons():
    # At coupling 1.45 the l = 0 levels leave the real domain and (1, 1) is
    # not bracketed on [Lambda, 2 Lambda]; each refusal is the one-level error.
    levels = [(n, l) for n in range(1, 4) for l in range(n + 1)]
    got, refused = stat_wavelengths([n for n, _ in levels], [l for _, l in levels], 1.45)
    kinds = {levels[i]: type(exc) for i, exc in refused.items()}
    assert kinds == {(1, 0): DomainError, (2, 0): DomainError, (3, 0): DomainError,
                     (1, 1): BracketingError}
    assert list(refused) == sorted(refused)
    assert np.isnan(got).sum() == 4
    assert "n=1, l=1" in str(refused[levels.index((1, 1))])


def test_stat_wavelengths_uncoupled_and_empty():
    got, refused = stat_wavelengths([1, 2, 3], [0, 2, 1], 0.0)
    assert got.tolist() == [1.0] * 3 and refused == {}
    got, refused = stat_wavelengths([], [], 0.3)
    assert got.shape == (0,) and refused == {}


@pytest.mark.parametrize("coupling", [0.01, 0.7, 1.45])
def test_stat_wavelengths_blocks_match_one_block(coupling, monkeypatch):
    # All levels n <= 30 (495 rows, one block by default) solved in blocks of
    # 7 rows: the same bits, and the same refused rows, types and messages.
    # Descending n puts (1, 1), the one unbracketed level at 1.45, in the
    # last block.
    levels = [(n, l) for n in range(30, 0, -1) for l in range(n + 1)]
    ns, ls = [n for n, _ in levels], [l for _, l in levels]
    assert spectrum._BLOCK_LEVELS >= len(levels)
    want, want_refused = stat_wavelengths(ns, ls, coupling)
    monkeypatch.setattr(spectrum, "_BLOCK_LEVELS", 7)
    got, refused = stat_wavelengths(ns, ls, coupling)
    assert got.tobytes() == want.tobytes()
    assert list(refused) == list(want_refused)
    assert [(type(e), str(e)) for e in refused.values()] == [
        (type(e), str(e)) for e in want_refused.values()]
    assert len(refused) == {0.01: 0, 0.7: 30, 1.45: 31}[coupling]


@pytest.mark.parametrize("block", [7, 4096])
def test_stat_wavelengths_non_convergence_names_the_level(block, monkeypatch):
    # Rows 0-7 are l = 0 levels refused at coupling 0.7, so with blocks of 7
    # the first level left open after three steps is row 8, (3, 1), in the
    # second block; the error names its table row and level either way.
    monkeypatch.setattr(spectrum, "_BLOCK_LEVELS", block)
    ns, ls = list(range(1, 9)) + [3, 4, 20], [0] * 8 + [1, 2, 5]
    with pytest.raises(NonConvergenceError,
                       match=r"within 3 iterations at row 8 \(n=3, l=1\)$") as info:
        stat_wavelengths(ns, ls, 0.7, Tolerance(max_iter=3))
    exc = info.value
    assert exc.index == 8
    root = stat_wavelengths([3], [1], 0.7)[0][0]
    assert abs(exc.estimate - root) <= exc.error_bound


def test_stat_energy_limits():
    assert stat_energy(10**6, 0.05) == pytest.approx(1.0, rel=1e-12)
    b1 = 1.0 - stat_energy(1, 0.05)
    b2 = 1.0 - stat_energy(2, 0.05)
    assert b1 / b2 == pytest.approx(4.0, rel=1e-12)


def test_stat_energy_on_int_array():
    # one energy per entry, each with the bits of its int
    ns = np.array([1, 2, 7, 300])
    assert stat_energy(ns, 0.05).tolist() == [stat_energy(n, 0.05) for n in ns.tolist()]
    with pytest.raises(DomainError, match="need n >= 1, got 0"):
        stat_energy(np.array([3, 0, -1]), 0.05)
    with pytest.raises(DomainError, match="need n >= 1, got 0"):
        stat_energy(0, 0.05)


def test_stat_energy_consistent_with_wavelength():
    # e_n ~ hbar c / Lambda'_n to O(coupling^4) Mc^2; in units of Mc^2,
    # hbar c / Lambda' = Lambda/Lambda'
    wavelengths, _ = stat_wavelengths([1, 2, 5], [0, 0, 0], 0.01)
    for n, wl in zip((1, 2, 5), wavelengths.tolist()):
        assert abs(stat_energy(n, 0.01) - 1.0 / wl) < 2.0 * 0.01**4
