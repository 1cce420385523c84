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

from kg5d.errors import BracketingError, DomainError
from kg5d.numerics import fit_convergence_order
from kg5d.spectrum import (
    LevelIndex,
    ScaleSet,
    kg_binding_energy,
    kg_energy,
    matching_residual,
    stat_energy,
    stat_wavelength_expansion,
    stat_wavelengths,
)

mp.mp.dps = 40

ALPHA_CODATA = 0.0072973525693


def _scales(Z=1, alpha=ALPHA_CODATA, coupling=None, **kw):
    if coupling is None:
        return ScaleSet.build(Z=Z, alpha=alpha, M_over_m=1.0, R_over_Lambda=50.0, **kw)
    return ScaleSet.build(Z=Z, alpha=alpha, lambda_star_over_Lambda=coupling,
                          R_over_rho=50.0, **kw)


# ---------------------------------------------------------------------------
# ScaleSet
# ---------------------------------------------------------------------------

def test_scaleset_consistency_relations():
    s = _scales(coupling=0.01, eta0=1.3)
    s.validate()
    assert s.lambda_star / s.lambda_c == pytest.approx(s.Z * s.alpha, rel=1e-12)
    assert s.rho * s.lambda_star == pytest.approx(s.Lambda**2, rel=1e-12)
    assert s.eta0 == pytest.approx(s.u * s.Mc2 / s.hbar, rel=1e-12)
    assert s.V == pytest.approx(4.0 * math.pi * s.R**3 / 3.0, rel=1e-12)
    assert s.Lambda == pytest.approx(2.0 / (s.beta * s.zeta * s.c), rel=1e-12)
    assert s.coupling_stat == pytest.approx(0.01, rel=1e-12)


def test_scaleset_uncoupled():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    assert s.lambda_star == 0.0
    assert s.rho == math.inf
    s.validate()


def test_scaleset_bad_inputs():
    with pytest.raises(DomainError):
        ScaleSet.build(Z=-1)
    with pytest.raises(DomainError):
        ScaleSet.build(Z=0, alpha=0.0, lambda_star_over_Lambda=0.01)
    with pytest.raises(DomainError):
        ScaleSet.build(Z=1, lambda_star_over_Lambda=0.05, M_over_m=3.0)


_scale = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
_BUILD_FLOATS = ("alpha", "lambda_star_over_Lambda", "M_over_m", "eta0", "R_over_rho",
                 "R_over_Lambda", "c", "hbar", "m")


_non_positive = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, -1e-300))


@settings(max_examples=300, deadline=None)
@given(Z=st.integers(1, 10), alpha=st.floats(1e-4, 0.1), coupling=st.floats(1e-4, 1.0),
       eta0=_scale, r=_scale, c=_scale, hbar=_scale, m=_scale,
       bad=st.none() | st.tuples(st.sampled_from(("eta0", "r", "c", "hbar", "m")),
                                 _non_positive))
def test_scaleset_build_round_trip(Z, alpha, coupling, eta0, r, c, hbar, m, bad):
    # build on finite inputs gives a set that its own validate() accepts, or
    # refuses a non-positive c, hbar, m, eta0 or cavity ratio with DomainError
    # (c = -1 raised a bare ValueError, hbar = 0 or m = 0 a ZeroDivisionError,
    # and eta0 = -1 built a set that validate() rejects)
    values = dict(eta0=eta0, r=r, c=c, hbar=hbar, m=m)
    if bad is not None:
        values[bad[0]] = bad[1]
    common = dict(Z=Z, alpha=alpha, eta0=values["eta0"], c=values["c"],
                  hbar=values["hbar"], m=values["m"])
    for kw in (dict(lambda_star_over_Lambda=coupling, R_over_rho=values["r"]),
               dict(M_over_m=coupling, R_over_Lambda=values["r"])):
        if bad is None:
            ScaleSet.build(**common, **kw).validate()
        else:
            with pytest.raises(DomainError, match=r"> 0, got"):
                ScaleSet.build(**common, **kw)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(_BUILD_FLOATS), value=st.sampled_from([math.inf, -math.inf, math.nan]))
def test_scaleset_build_refuses_non_finite(name, value):
    # inf used to raise a bare ZeroDivisionError, nan to build an invalid set
    base = {"lambda_star_over_Lambda": 0.01, "R_over_rho": 50.0}
    with pytest.raises(DomainError, match=f"finite {name}"):
        ScaleSet.build(**{**base, name: value})


def test_level_index_bounds():
    LevelIndex(3, 3)  # l = n allowed as written
    with pytest.raises(DomainError):
        LevelIndex(0, 0)
    with pytest.raises(DomainError):
        LevelIndex(2, 3)


# ---------------------------------------------------------------------------
# kg_energy
# ---------------------------------------------------------------------------

def test_kg_energy_uncoupled_is_rest_energy():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    for n in range(1, 4):
        for l in range(0, n + 1):
            assert kg_energy(LevelIndex(n, l), s) == s.mc2


def test_kg_energy_against_mpmath():
    s = _scales(alpha=1.0 / 137.035999)
    za = mp.mpf(s.Z) * mp.mpf("1") / mp.mpf("137.035999")
    for (n, l) in [(1, 0), (2, 0), (2, 1), (5, 3)]:
        b = n - l - mp.mpf(1) / 2 + mp.sqrt((l + mp.mpf(1) / 2) ** 2 - za**2)
        ref = float(1 / mp.sqrt(1 + (za / b) ** 2))
        assert kg_energy(LevelIndex(n, l), s) / s.mc2 == pytest.approx(ref, rel=1e-14)


def test_kg_energy_critical_coupling():
    # the l = 0 channel leaves the real domain at Z*alpha = 1/2
    s = _scales(alpha=0.51)
    with pytest.raises(DomainError):
        kg_energy(LevelIndex(1, 0), s)
    assert kg_energy(LevelIndex(2, 1), s) > 0  # higher l still fine


def test_kg_energy_ground_state_binding_scale():
    # binding ~ (Z alpha)^2 mc^2 / 2: the 13.6 eV scale for mc^2 = 511 keV
    s = _scales(alpha=1.0 / 137.035999)
    binding = kg_binding_energy(LevelIndex(1, 0), s)
    assert binding / s.mc2 == pytest.approx(s.alpha**2 / 2.0, rel=5e-4)
    ev = binding / s.mc2 * 510_998.95
    assert ev == pytest.approx(13.606, rel=1e-3)


def test_kg_energy_alpha_scaling_of_nonrel_limit():
    devs = []
    for alpha in (1e-3, 1e-4):
        s = _scales(alpha=alpha)
        idx = LevelIndex(2, 1)
        ratio = kg_binding_energy(idx, s) / (s.mc2 * (s.Z * alpha) ** 2 / (2.0 * idx.n**2))
        devs.append(abs(ratio - 1.0))
    assert devs[0] / devs[1] == pytest.approx(100.0, rel=0.05)  # O(alpha^2)
    assert devs[1] < 1e-8


def test_kg_energy_monotonicity():
    s = _scales(alpha=0.2)  # strong but still Z*alpha < 1/2
    for l in range(0, 3):
        energies = [kg_energy(LevelIndex(n, l), s) for n in range(max(l, 1), 7)]
        assert all(a < b for a, b in zip(energies, energies[1:]))
    for n in range(3, 7):
        energies = [kg_energy(LevelIndex(n, l), s) for l in range(0, n + 1)]
        assert all(a < b for a, b in zip(energies, energies[1:]))


def test_kg_energy_range_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = float(rng.uniform(1e-4, 0.4))
        s = _scales(alpha=alpha)
        n = int(rng.integers(1, 9))
        l = int(rng.integers(0, n + 1))
        e = kg_energy(LevelIndex(n, l), s)
        assert 0.0 < e < s.mc2


def test_binding_energy_matches_direct_difference():
    s = _scales(alpha=0.05)
    idx = LevelIndex(3, 1)
    assert kg_binding_energy(idx, s) == pytest.approx(
        s.mc2 - kg_energy(idx, s), rel=1e-9)


# ---------------------------------------------------------------------------
# matching_residual
# ---------------------------------------------------------------------------

def test_matching_residual_uncoupled_at_compton():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    for n in (1, 2, 4):
        assert matching_residual(s.lambda_c, LevelIndex(n, 0), s) == 0.0


def test_matching_residual_zero_at_energy_wavelength():
    s = _scales()
    for n in range(1, 6):
        for l in range(0, n + 1):
            idx = LevelIndex(n, l)
            lam_prime = s.hbar * s.c / kg_energy(idx, s)
            assert abs(matching_residual(lam_prime, idx, s)) < 1e-10


def test_matching_residual_half_compton():
    # lambda' = lambda/2 with the coupling off: ((1/2)^2 - 1) n^2 = -(3/4) n^2.
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    for n in (1, 2, 3):
        got = matching_residual(s.lambda_c / 2.0, LevelIndex(n, 0), s)
        assert got == pytest.approx(-0.75 * n * n, rel=1e-14)


def test_matching_residual_sign_structure():
    # residual is monotone in lambda' around the root
    s = _scales()
    idx = LevelIndex(2, 1)
    lam_root = s.hbar * s.c / kg_energy(idx, s)
    assert matching_residual(0.99 * lam_root, idx, s) < 0
    assert matching_residual(1.01 * lam_root, idx, s) > 0


# ---------------------------------------------------------------------------
# stat_wavelengths / stat_energy
# ---------------------------------------------------------------------------

def test_stat_wavelength_uncoupled():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    got, refused = stat_wavelengths([3], [1], s)
    assert got.tolist() == [s.Lambda] and refused == {}


def test_stat_wavelength_expansion_small_coupling():
    # Exact root = Lambda (1 + e^2/2 + (7/8) e^4 + ...) at n=1, l=0; verified
    # against mpmath findroot.  The stated quadratic expansion is matched to
    # O(e^4) by construction.
    s = _scales(coupling=0.01)
    idx = LevelIndex(1, 0)
    ratio = stat_wavelengths([1], [0], s)[0][0] / s.Lambda

    def F(x):
        ex = mp.mpf("0.01") * x
        b = mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 - ex**2)
        return (x * x - 1) * b * b + ex**2

    ref = float(1 / mp.findroot(F, mp.mpf(1) - mp.mpf("0.01") ** 2 / 2))
    assert ratio == pytest.approx(ref, rel=1e-13)
    assert ratio == pytest.approx(1.00005, abs=1e-8)
    quartic = ratio - float(stat_wavelength_expansion(idx, s) / s.Lambda)
    assert quartic == pytest.approx(0.875e-8, rel=1e-3)


def test_stat_wavelength_quartic_scaling():
    idx = LevelIndex(1, 0)
    eps_list = (0.03, 0.01, 0.003)
    diffs = []
    for eps in eps_list:
        s = _scales(coupling=eps)
        root = stat_wavelengths([1], [0], s)[0][0]
        diffs.append(abs(root - stat_wavelength_expansion(idx, s)) / s.Lambda)
    order = fit_convergence_order(eps_list, diffs)
    assert order == pytest.approx(4.0, abs=0.3)


def test_stat_wavelength_root_unique_in_bracket():
    # residual has a single sign change on [Lambda, 2 Lambda]
    for coupling in (0.01, 0.1):
        s = _scales(coupling=coupling)
        lams, refused = stat_wavelengths([1, 3, 10], [0, 0, 0], s)
        assert refused == {}
        assert np.all((s.Lambda < lams) & (lams < 2.0 * s.Lambda))


def test_stat_wavelength_complex_regime_refused():
    s = _scales(coupling=0.7)
    got, refused = stat_wavelengths([1], [0], s)  # 0.7 >= l + 1/2
    assert isinstance(refused[0], DomainError) and math.isnan(got[0])


def _reference_stat_wavelength(n, l, s, rel=1e-15):
    """The one-level scalar solve: residual in x = Lambda/Lambda' on [1/2, 1],
    bisection with secant steps, as the spectrum table computed it row by row."""
    eps = s.coupling_stat
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
            return s.Lambda / mid
        x = mid
        if fhi != flo:
            sec = hi - fhi * (hi - lo) / (fhi - flo)
            if lo + 0.1 * width < sec < hi - 0.1 * width:
                x = sec
        fx = f(x)
        if fx == 0.0:
            return s.Lambda / x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx


@pytest.mark.parametrize("coupling", [0.01, 0.3, 0.7])
def test_stat_wavelengths_match_per_level_bitwise(coupling):
    # All levels n <= 40 in one lockstep solve: each wavelength equals the
    # one-row table and the scalar row-by-row solve bit for bit, and the
    # refused levels (l = 0 at 0.7) are NaN with the one-row table's error.
    s = _scales(coupling=coupling)
    levels = [(n, l) for n in range(1, 41) for l in range(n + 1)]
    got, refused = stat_wavelengths([n for n, _ in levels], [l for _, l in levels], s)
    assert got.shape == (len(levels),)
    for i, (n, l) in enumerate(levels):
        alone, alone_refused = stat_wavelengths([n], [l], s)
        if alone_refused:
            exc = alone_refused[0]
            assert math.isnan(got[i]) and type(refused[i]) is type(exc)
            assert str(refused[i]) == str(exc)
            with pytest.raises(type(exc)):
                _reference_stat_wavelength(n, l, s)
            continue
        assert i not in refused
        assert got[i] == alone[0] == _reference_stat_wavelength(n, l, s)
    assert len(refused) == (40 if coupling == 0.7 else 0)


def test_stat_wavelengths_refusal_reasons():
    # At coupling 1.45 the l = 0 levels leave the real domain and (1, 1) is
    # not bracketed on [Lambda, 2 Lambda]; each refusal is the one-level error.
    s = _scales(coupling=1.45)
    levels = [(n, l) for n in range(1, 4) for l in range(n + 1)]
    got, refused = stat_wavelengths([n for n, _ in levels], [l for _, l in levels], s)
    kinds = {levels[i]: type(exc) for i, exc in refused.items()}
    assert kinds == {(1, 0): DomainError, (2, 0): DomainError, (3, 0): DomainError,
                     (1, 1): BracketingError}
    assert list(refused) == sorted(refused)
    assert np.isnan(got).sum() == 4
    assert "n=1, l=1" in str(refused[levels.index((1, 1))])


def test_stat_wavelengths_uncoupled_and_empty():
    s = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=10.0)
    got, refused = stat_wavelengths([1, 2, 3], [0, 2, 1], s)
    assert got.tolist() == [s.Lambda] * 3 and refused == {}
    got, refused = stat_wavelengths([], [], _scales(coupling=0.3))
    assert got.shape == (0,) and refused == {}


def test_stat_energy_limits():
    s = _scales(coupling=0.05)
    assert stat_energy(10**6, s) == pytest.approx(s.Mc2, rel=1e-12)
    b1 = s.Mc2 - stat_energy(1, s)
    b2 = s.Mc2 - stat_energy(2, s)
    assert b1 / b2 == pytest.approx(4.0, rel=1e-12)


def test_stat_energy_consistent_with_wavelength():
    # e_n ~ hbar c / Lambda'_n to O(coupling^4) Mc^2
    s = _scales(coupling=0.01)
    wavelengths, _ = stat_wavelengths([1, 2, 5], [0, 0, 0], s)
    for n, wl in zip((1, 2, 5), wavelengths.tolist()):
        e_direct = stat_energy(n, s)
        e_wl = s.hbar * s.c / wl
        assert abs(e_direct - e_wl) / s.Mc2 < 2.0 * 0.01**4
