"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured figure of merit, so a
plain ``pytest -s tests/test_acceptance.py`` doubles as the acceptance
report.  Criteria:

 1. level-density normalization, n = 1..30, 1e-6 relative, < 60 s
 2. rescaled normalization, n = 1..30, 1e-6
 3. universal profile: value, norm, sup-norm convergence (< 0.01 at n=1000)
 4. degeneracy tail R^{5/2}/(5 pi n^3) within 1e-3 for n >= 10 sqrt(R)
 5. Z_c: exact ideal-gas reduction at zero coupling; bracket asymptote ratio
 6. Z_d: tail bound < 1e-10 Z_d; term decay exponent 3 +- 0.1
 7. spectrum consistency: matching residual <= 1e-10; alpha^2 limit scaling
 8. statistical root vs expansion: quartic exponent 4 +- 0.3
 9. geometry identities: orders >= 1.9, flat residual <= 1e-12, < 120 s
10. reduction suite: norm/dispersion/continuity/variance/exactness bounds
11. determinism: byte-identical artifacts for identical configurations
"""

import math
import time

import numpy as np

from kg5d import canonical, geometry, reduction
from kg5d.cli import main as cli_main
from kg5d.numerics import Tolerance, fit_convergence_order, integrate
from kg5d.specfun import erfcx_minus_one
from kg5d.spectrum import (
    ScaleSet,
    kg_binding_energies,
    kg_energies,
    matching_residuals,
    stat_wavelength_expansions,
    stat_wavelengths,
)

TOL = Tolerance(rel=1e-9)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_density_normalization():
    t0 = time.time()
    worst = 0.0
    ns = np.arange(1, 31)
    g = canonical._trapped_levels(ns, math.inf, TOL)[0]
    worst = float(np.max(np.abs(g / (ns * ns) - 1.0)))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 60.0
    _report(1, f"max |int D_n / n^2 - 1| = {worst:.2e} over n=1..30 in {elapsed:.1f} s")


def test_criterion_02_scaled_normalization():
    worst = 0.0
    for n in range(1, 31):
        val = integrate(lambda r: canonical.dn_scaled_grid(n, r),
                        0.0, 20.0 + 40.0 / n, TOL)
        worst = max(worst, abs(val - 1.0))
    assert worst < 1e-6
    _report(2, f"max |int D_n(r n^2) dr - 1| = {worst:.2e} over n=1..30")


def test_criterion_03_universal_profile():
    val2 = canonical.universal_d(2.0)
    assert abs(val2 - 1.0 / math.pi) < 1e-12
    norm = integrate(canonical.universal_d, 0.0, 4.0,
                     Tolerance(rel=0.0, abs=1e-12, max_iter=100_000))
    assert abs(norm - 1.0) < 1e-10
    r = np.arange(0.1, 3.8001, 0.01)
    dists = [float(np.max(np.abs(canonical.dn_scaled_grid(n, r)
                                 - canonical.universal_d(r))))
             for n in (10, 100, 1000)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.01
    _report(3, f"D(2)-1/pi = {val2 - 1.0 / math.pi:.1e}, norm-1 = {norm - 1.0:.1e}, "
               f"sup dists {dists[0]:.3f} > {dists[1]:.4f} > {dists[2]:.5f} < 0.01")


def test_criterion_04_degeneracy_tail():
    rhat = 49.0
    worst = 0.0
    n0 = int(math.ceil(10.0 * math.sqrt(rhat)))
    for n in (n0, 2 * n0, 4 * n0, 10 * n0):
        got = n * n * integrate(canonical.universal_d, 0.0, rhat / n**2,
                                Tolerance(rel=1e-13, abs=1e-300, max_iter=100_000))
        ref = rhat**2.5 / (5.0 * math.pi * n**3)
        worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-3
    _report(4, f"max tail deviation {worst:.2e} for n >= 10 sqrt(R) (R = {rhat})")


def test_criterion_05_zc_structure():
    uncoupled = ScaleSet.build(Z=0, alpha=0.0, R_over_Lambda=25.0)
    zc, rep = canonical.z_continuous(uncoupled)
    ideal = uncoupled.V * math.exp(-uncoupled.eta0) / (
        uncoupled.Lambda**3 * (2.0 * math.pi * uncoupled.eta0) ** 1.5)
    assert zc == ideal and rep.value == 0.0

    s0 = 0.01 * math.sqrt(0.5)  # (lambda*/Lambda) sqrt(eta0/2) at eta0 = 1
    ratios = [erfcx_minus_one(s0 / n) / canonical.brace_asymptote(s0 / n)
              for n in (1, 10, 100, 1000)]
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b - 1.0) < abs(a - 1.0)
    assert abs(ratios[-1] - 1.0) < 1e-2
    _report(5, f"zero-coupling Z_c = ideal-gas exactly; bracket ratio at n=1e3: "
               f"{ratios[-1]:.6f}")


def test_criterion_06_zd_convergence():
    s = ScaleSet.build(Z=1, lambda_star_over_Lambda=0.01, eta0=1.0, R_over_rho=50.0)
    zd, rep, levels = canonical.z_discrete(s, tol=Tolerance(rel=1e-10))
    assert rep.converged
    assert rep.tail_bound < 1e-10 * zd

    rhat = 2.0 * s.R / s.rho
    lo = int(math.ceil(2.0 * math.sqrt(rhat)))
    keep = levels.n >= lo
    ns = levels.n[keep].astype(float)
    terms = levels.weight[keep] * levels.trapped_degeneracy[keep]
    slope = float(np.polyfit(np.log(ns), np.log(terms), 1)[0])
    assert abs(slope + 3.0) < 0.1
    _report(6, f"tail bound / Z_d = {rep.tail_bound / zd:.2e} < 1e-10; "
               f"decay exponent {-slope:.3f} in [2.9, 3.1]")


def test_criterion_07_spectrum_consistency():
    s = ScaleSet.build(Z=1, M_over_m=1.0, R_over_Lambda=25.0)
    worst = 0.0
    for n in range(1, 6):
        for l in range(0, n + 1):
            lam = s.hbar * s.c / float(kg_energies([n], [l], s)[0])
            worst = max(worst, abs(float(matching_residuals([lam], [n], [l], s)[0])))
    assert worst < 1e-10

    devs = []
    for alpha in (1e-3, 1e-4):
        sa = ScaleSet.build(Z=1, alpha=alpha, M_over_m=1.0, R_over_Lambda=25.0)
        ratio = float(kg_binding_energies([2], [1], sa)[0]) / (
            sa.mc2 * (sa.Z * alpha) ** 2 / (2.0 * 2**2))
        devs.append(abs(ratio - 1.0))
    assert 30.0 < devs[0] / devs[1] < 300.0  # error falls as alpha^2
    assert devs[1] < 1e-7
    _report(7, f"max matching residual {worst:.1e}; limit deviations "
               f"{devs[0]:.2e} -> {devs[1]:.2e} (ratio {devs[0] / devs[1]:.0f})")


def test_criterion_08_stat_root_quartic():
    eps_list = (0.03, 0.01, 0.003)
    diffs = []
    for eps in eps_list:
        s = ScaleSet.build(Z=1, lambda_star_over_Lambda=eps, R_over_rho=25.0)
        root = stat_wavelengths([1], [0], s)[0][0]
        diffs.append(abs(root - float(stat_wavelength_expansions([1], [0], s)[0])) / s.Lambda)
    order = fit_convergence_order(eps_list, diffs)
    assert abs(order - 4.0) < 0.3
    _report(8, f"|root - expansion| fits exponent {order:.3f} (4 +- 0.3)")


def test_criterion_09_geometry_identities():
    t0 = time.time()
    report = geometry.verify_geometry(sizes=(9, 13, 17))
    elapsed = time.time() - t0
    assert report["passed"]
    for key, order in report["contraction_orders"].items():
        assert order >= 1.9, key
    assert report["laplacian_order"] >= 1.9
    assert report["flat_residual"] <= 1e-12
    assert report["metric_inverse_defect"] <= 1e-12
    assert elapsed < 120.0
    orders = {k: (round(v, 2) if v != math.inf else "exact")
              for k, v in report["contraction_orders"].items()}
    _report(9, f"orders {orders}, laplacian {report['laplacian_order']:.2f}, "
               f"flat {report['flat_residual']:.1e}, {elapsed:.1f} s")


def test_criterion_10_reduction_suite():
    report = reduction.verify_reduction()
    assert report["passed"]
    assert report["norm_drift_per_step"] <= 1e-8
    assert report["dispersion_error"] <= 1e-10
    assert report["continuity_order"] >= 1.9
    assert report["fp_variance_error"] <= 1e-6
    assert report["null_dispersion"] == 0.0
    assert report["lightcone_roundtrip"] <= 1e-12
    assert report["semigroup_defect"] <= 1e-12
    _report(10, f"norm drift {report['norm_drift_per_step']:.1e}, dispersion "
                f"{report['dispersion_error']:.1e}, continuity order "
                f"{report['continuity_order']:.2f}, variance err "
                f"{report['fp_variance_error']:.1e}, semigroup "
                f"{report['semigroup_defect']:.1e}")


def test_criterion_11_determinism(tmp_path):
    out = tmp_path / "det"
    cmds = [["figure1", "--n", "1,10,100,1000", "--r-points", "251",
             "--formats", "csv,json,svg", "--output-dir", str(out)],
            ["partition", "--r-over-rho", "20", "--output-dir", str(out)],
            ["spectrum", "--n-max", "4", "--output-dir", str(out)]]
    names = ["figure1.csv", "figure1.json", "figure1.svg", "partition.json",
             "partition.csv", "spectrum.csv", "spectrum.json"]
    for cmd in cmds:
        assert cli_main(cmd) == 0
    first = {}
    for name in names:
        with open(out / name, "rb") as fh:
            first[name] = fh.read()
    for cmd in cmds:
        assert cli_main(cmd) == 0
    for name in names:
        with open(out / name, "rb") as fh:
            assert fh.read() == first[name], name
    _report(11, f"{len(names)} artifacts byte-identical across reruns")
