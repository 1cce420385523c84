"""Command-line front-end tests: artifacts, headers, determinism, exit codes."""

import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from kg5d import canonical, reduction
from kg5d.cli import main
from kg5d.errors import NonConvergenceError
from kg5d.geometry import projected_peak_bytes


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(path):
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = line.strip().split(",")
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return rows


def test_spectrum_uncoupled_energies(tmp_path):
    rc = main(["spectrum", "--Z", "0", "--alpha", "0", "--n-max", "3",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = _csv_rows(tmp_path / "spectrum.csv")
    assert len(rows) == sum(n + 1 for n in range(1, 4))
    assert all(float(r["E_over_mc2"]) == 1.0 for r in rows)
    assert all(float(r["Lambda_prime_over_Lambda"]) == 1.0 for r in rows)


def test_spectrum_header_records_config(tmp_path):
    main(["spectrum", "--n-max", "2", "--output-dir", str(tmp_path)])
    text = _read(tmp_path / "spectrum.csv").decode()
    assert text.startswith("# kg5d spectrum\n# schema_version=1\n")
    assert "# n_max=2\n" in text


def test_figure1_curves_and_closed_form(tmp_path):
    rc = main(["figure1", "--n", "1,10", "--r-points", "41",
               "--formats", "csv,json,svg", "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = _csv_rows(tmp_path / "figure1.csv")
    ns = sorted({int(r["n"]) for r in rows})
    assert ns == [1, 10]
    for r in rows:
        if r["n"] == "1":
            rr = float(r["r"])
            assert float(r["value"]) == pytest.approx(
                0.5 * rr * rr * math.exp(-rr), rel=1e-12, abs=1e-300)
    svg = _read(tmp_path / "figure1.svg").decode()
    assert svg.startswith("<svg ") and "polyline" in svg
    doc = json.loads(_read(tmp_path / "figure1.json"))
    assert doc["schema_version"] == 1
    assert doc["config"]["n_list"] == "1,10"
    assert len(doc["curves"]) == 2


def test_universal_d_artifacts(tmp_path):
    rc = main(["universal-d", "--r-points", "33", "--formats", "csv,json",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads(_read(tmp_path / "universal_d.json"))
    assert doc["value_at_2"] == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert doc["norm_integral"] == pytest.approx(1.0, abs=1e-10)


def test_partition_artifacts(tmp_path):
    rc = main(["partition", "--coupling", "0.01", "--eta0", "1.0",
               "--r-over-rho", "20", "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads(_read(tmp_path / "partition.json"))
    assert doc["z_total"] == pytest.approx(doc["z_c"] + doc["z_d"], rel=1e-14)
    assert doc["terms_c"]["converged"] and doc["terms_d"]["converged"]
    assert doc["per_level_d"][0]["n"] == 1
    g = [row["trapped_degeneracy"] for row in doc["per_level_d"]]
    assert all(0.0 <= gi <= (i + 1) ** 2 * (1 + 1e-9) for i, gi in enumerate(g))


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "a"
    args = [["figure1", "--n", "1,10,100", "--r-points", "101",
             "--formats", "csv,json,svg", "--output-dir", str(out)],
            ["partition", "--r-over-rho", "15", "--output-dir", str(out)]]
    names = ("figure1.csv", "figure1.json", "figure1.svg",
             "partition.json", "partition.csv")
    for cmd in args:
        assert main(cmd) == 0
    first = {name: _read(out / name) for name in names}
    for cmd in args:  # identical config, second run
        assert main(cmd) == 0
    for name in names:
        assert _read(out / name) == first[name], name


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 2\nr_points = 11  # comment\n")
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(cfg), "--n-max", "3",
               "--output-dir", str(out)])
    assert rc == 0
    rows = _csv_rows(out / "spectrum.csv")
    assert max(int(r["n"]) for r in rows) == 3  # flag beats file


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_mox = 4\n")
    rc = main(["spectrum", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 2


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_bad_format_rejected(tmp_path):
    rc = main(["figure1", "--formats", "csv,png", "--output-dir", str(tmp_path)])
    assert rc == 2


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("KG5D_OUTPUT_DIR", str(tmp_path / "envout"))
    rc = main(["universal-d", "--r-points", "9", "--formats", "json"])
    assert rc == 0
    assert (tmp_path / "envout" / "universal_d.json").exists()


def test_verify_geometry_exits_zero(tmp_path):
    rc = main(["verify-geometry", "--grid", "9", "--refine", "3",
               "--formats", "json,csv", "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads(_read(tmp_path / "verify_geometry.json"))
    assert doc["report"]["passed"]
    assert doc["report"]["laplacian_order"] >= 1.9
    assert doc["report"]["flat_residual"] <= 1e-12
    # residual rows are labelled with the Laplacian ladder's own steps
    rows = _csv_rows(tmp_path / "verify_geometry.csv")
    labelled = [(r["check"], float(r["value"])) for r in rows
                if r["check"].startswith("laplacian_h")]
    assert [float(c[len("laplacian_h"):]) for c, _ in labelled] == doc["report"]["laplacian_steps"]
    assert [v for _, v in labelled] == doc["report"]["laplacian_residuals"]


def test_verify_reduction_exits_zero(tmp_path):
    rc = main(["verify-reduction", "--formats", "json",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads(_read(tmp_path / "verify_reduction.json"))
    assert doc["report"]["passed"]


def test_console_entry_point_runs(tmp_path):
    env = dict(os.environ, KG5D_OUTPUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "kg5d.cli", "spectrum",
                           "--n-max", "1"], capture_output=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_cli_import_leaves_scipy_sparse_unloaded():
    # The runtime needs numpy only: neither the CLI nor either evolver
    # imports scipy.
    code = ("import sys, numpy as np, kg5d.cli\n"
            "from kg5d.reduction import evolve_fokker_planck, evolve_schrodinger, gaussian_packet\n"
            "psi0 = gaussian_packet(64, 20.0, 1.0)\n"
            "list(evolve_schrodinger(psi0, 1.0, 0.7, 4))\n"
            "list(evolve_fokker_planck(psi0.with_values(np.abs(psi0.values) ** 2), 1.0, 1.0, 4))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_partition_leaves_scipy_special_unloaded(tmp_path):
    # The Z_d tail takes J0/J1 and the Hurwitz zeta from numpy and math:
    # importing scipy.special would raise the start-up peak RSS by about 23 MB.
    code = ("import sys, kg5d.cli; "
            f"rc = kg5d.cli.main(['partition', '--r-over-rho', '50', '--output-dir', {str(tmp_path)!r}]); "
            "print(rc, 'scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


def test_partition_leaves_numpy_ma_unloaded(tmp_path):
    # numpy 2.4's np.unique (under np.setdiff1d) imports numpy.ma, 13-19 ms
    # and about 0.4 MB of a partition process; the panel edges need neither
    code = ("import sys, kg5d.cli; "
            f"rc = kg5d.cli.main(['partition', '--r-over-rho', '50', '--output-dir', {str(tmp_path)!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


def test_figure1_leaves_numpy_ma_unloaded(tmp_path):
    # figure1's distinct levels and table rows take no np.unique, which
    # would load numpy.ma
    code = ("import sys, kg5d.cli; "
            f"rc = kg5d.cli.main(['figure1', '--n', '3,1,3,7', '--r-points', '5000', "
            f"'--output-dir', {str(tmp_path)!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


def test_cli_import_leaves_geometry_unloaded():
    # Only verify-geometry needs the geometry module, verify-geometry and
    # verify-reduction the reduction module, and partition, universal-d and
    # figure1 the canonical module and through it specfun; the CLI imports
    # them there, so the other commands neither compile nor hold them.
    code = ("import sys, kg5d.cli; "
            "print(sorted(m for m in ('kg5d.geometry', 'kg5d.reduction', 'kg5d.canonical',"
            " 'kg5d.specfun') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_non_finite_integrand_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # Z_d's level pass evaluates its integrand through specfun's _combo_terms.
    monkeypatch.setattr(canonical, "_combo_terms",
                        lambda n, x, *pair: (x, np.full(x.shape, np.nan)))
    rc = main(["partition", "--r-over-rho", "5", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integrand not finite at x=") and err.count("\n") == 1


def test_unmet_quadrature_tolerance_exits_3_with_one_line(tmp_path, capsys):
    # --rel-tol 1e-15 asks Z_d's levels for rel 1e-17, which no 15/7 error
    # estimate meets; the pass refuses rather than accept the levels.
    rc = main(["partition", "--r-over-rho", "50", "--rel-tol", "1e-15",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: level ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_non_positive_eta0_exits_2_with_one_line(tmp_path, capsys):
    # used to die in ScaleSet.build with a ZeroDivisionError traceback, exit 1
    rc = main(["partition", "--eta0", "0", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: need eta0 > 0, got 0.0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["partition", "--rel-tol", "0"],
                                  ["universal-d", "--max-iter", "0"],
                                  ["spectrum", "--max-iter", "0"]],
                         ids=["partition-rel-tol-0", "universal-d-max-iter-0",
                              "spectrum-max-iter-0"])
def test_invalid_tolerance_exits_2_with_one_line(tmp_path, capsys, argv):
    rc = main(argv + ["--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_spectrum_nan_rows_report_reason(tmp_path, capsys):
    # coupling 0.7 >= l + 1/2 for every l = 0 level: three NaN rows, one
    # stderr line naming the count and the domain reason, and no reason text
    # in the artifacts.
    rc = main(["spectrum", "--n-max", "3", "--coupling", "0.7",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = _csv_rows(tmp_path / "spectrum.csv")
    nan_rows = [(r["n"], r["l"]) for r in rows if math.isnan(float(r["Lambda_prime_over_Lambda"]))]
    assert nan_rows == [("1", "0"), ("2", "0"), ("3", "0")]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: 3 of 9 rows have no statistical wavelength (NaN); domain: ")
    assert "bracketing" not in err
    for name in ("spectrum.csv", "spectrum.json"):
        assert "quantization" not in (tmp_path / name).read_text()
    doc = json.loads(_read(tmp_path / "spectrum.json"))
    assert sum(math.isnan(r["Lambda_prime_over_Lambda"]) for r in doc["levels"]) == 3


def test_spectrum_max_iter_exits_3_with_one_line(tmp_path, capsys):
    # --max-iter bounds each statistical root's steps: 3 localize no root
    # (the flag used to be ignored and the table written with exit 0)
    rc = main(["spectrum", "--n-max", "20", "--coupling", "0.7", "--max-iter", "3",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == ("non-convergence: statistical wavelength not localized within 3 "
                   "iterations at row 1 (n=1, l=1)\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_empty_spectrum_exits_2_with_one_line(tmp_path, capsys, n_max):
    # used to write empty spectrum.csv/.json and exit 0; then, to leave an
    # empty output directory behind
    out = tmp_path / "out"
    rc = main(["spectrum", "--n-max", n_max, "--output-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"configuration error: n_max must be >= 1, got {n_max}\n"
    assert not out.exists()


def test_spectrum_past_critical_coupling_exits_2_with_one_line(tmp_path, capsys):
    # Z alpha = 1.46 > 1/2: the first level of the table, (1, 0), is named
    rc = main(["spectrum", "--n-max", "3", "--Z", "200", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: (l+1/2)^2 - coupling^2 <= 0 at n=1, l=0: "
                                       "critical coupling 0.5\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command, key", [("spectrum", "coupling"), ("partition", "eta0"),
                                          ("partition", "r-over-rho"),
                                          ("partition", "rel-tol")])
def test_non_finite_setting_exits_2_with_one_line(tmp_path, capsys, command, key, value,
                                                  source):
    out = tmp_path / "out"
    if source == "flag":
        argv = [command, f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [command, "--config", str(cfg)]
    rc = main(argv + ["--output-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--points", "0"), ("--points", "-4"),
                                         ("--steps", "0")])
def test_verify_reduction_refuses_empty_grid_or_steps(tmp_path, capsys, flag, value):
    rc = main(["verify-reduction", flag, value, "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["universal-d", "--r-points", "-3"],
    ["universal-d", "--r-points", "0", "--formats", "svg"],
    ["figure1", "--r-points", "0"],
])
def test_empty_r_grid_exits_2_with_one_line(tmp_path, capsys, argv):
    # used to die in np.linspace or write_svg with a ValueError traceback, exit 1
    rc = main([*argv, "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid, refine, top, limit", [
    ("301", "2", 305, 2 * 2**30),
    # 16 MiB above the projection: refused, because the interpreter's own
    # mappings count against the limit too.  The ladder runs up to 61^5 so
    # that the cap (163 MiB) leaves room for the interpreter to start: at
    # 53^5 it would be 104 MiB, below the 141 MiB that Python 3.11 with
    # numpy 2.4 maps before the guard runs.
    ("29", "9", 61, projected_peak_bytes([29, 33, 37, 41, 45, 49, 53, 57, 61]) + 2**24),
    # a list of 2e8 sizes alone would not fit: refused before any is made
    ("9", "200000000", 800_000_005, 3 * 2**29),
], ids=["301", "29-just-above-projection", "refine-200000000"])
def test_verify_geometry_refuses_grid_beyond_memory(tmp_path, grid, refine, top, limit):
    # the child's own address space is capped, so a guard that let the run
    # start would fail there fast instead of using the host's memory
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "kg5d.cli", "verify-geometry", "--grid", grid, "--refine", refine,
         "--output-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: ") and proc.stderr.count("\n") == 1
    assert f"{top}^5" in proc.stderr
    assert not list(tmp_path.iterdir())


_NO_LAPACK_CHILD = """
import sys
import numpy.linalg

def refuse(*args, **kwargs):
    raise AssertionError("a LAPACK routine was called")

for name in ("eigvalsh", "eigh", "eig", "eigvals", "lstsq", "svd", "qr", "solve", "inv",
             "pinv", "cholesky", "matrix_rank", "det", "slogdet"):
    setattr(numpy.linalg, name, refuse)

from kg5d.cli import main

out = sys.argv[1]
for argv in (["partition", "--r-over-rho", "50"],
             ["spectrum", "--n-max", "20"],
             ["figure1", "--n", "1,10", "--r-points", "41"],
             ["universal-d", "--r-points", "41"],
             ["verify-reduction", "--points", "256", "--steps", "64"],
             ["verify-geometry", "--grid", "9", "--refine", "2"]):
    code = main([*argv, "--output-dir", out])
    assert code == 0, (argv, code)
    assert "numpy.polynomial" not in sys.modules, argv
"""


def test_commands_call_no_lapack_and_load_no_numpy_polynomial(tmp_path):
    # numpy.linalg's LAPACK entry points raise in this child, from before
    # kg5d is imported; numpy.polynomial must never be loaded.  Both cost
    # memory no command needs: the import 0.6-0.9 MB of RSS, a first LAPACK
    # call up to 1 MB.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _NO_LAPACK_CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, names", [
    (["verify-reduction", "--points", "256", "--steps", "64"],
     ("verify_reduction.csv", "verify_reduction.json")),
    (["spectrum", "--n-max", "20"], ("spectrum.csv", "spectrum.json")),
    (["verify-geometry", "--grid", "9", "--refine", "2"],
     ("verify_geometry.csv", "verify_geometry.json")),
    (["partition", "--r-over-rho", "50"], ("partition.csv", "partition.json")),
    (["figure1", "--n", "400,500,600,700", "--r-points", "2001", "--formats", "csv,json,svg"],
     ("figure1.csv", "figure1.json", "figure1.svg")),
], ids=["verify-reduction", "spectrum", "verify-geometry", "partition", "figure1"])
def test_artifacts_independent_of_thread_count(tmp_path, argv, names):
    # Acceptance criterion 11 reruns in one process; here each run is a fresh
    # interpreter with its own BLAS/OpenMP thread count, writing to one path
    # (the path is part of every artifact's header).
    out = tmp_path / "out"
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "kg5d.cli", *argv, "--output-dir", str(out)],
                       env=env, capture_output=True, check=True)
        runs.append({name: _read(out / name) for name in names})
    assert runs[0] == runs[1]


def test_norm_stream_error_exits_with_its_code_and_one_line(tmp_path, monkeypatch, capsys):
    def fail(psi0, lhat, c, steps):
        raise NonConvergenceError("norm stream did not converge", estimate=1.0)

    monkeypatch.setattr(reduction, "_norms", fail)
    rc = main(["verify-reduction", "--output-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "non-convergence: norm stream did not converge\n"
    assert not list(tmp_path.iterdir())


def test_every_command_runs_in_one_process(tmp_path, forbid_fork):
    # figure1 and verify-reduction at these sizes used to fork a worker on
    # two CPUs; no command forks now.
    for argv in (["spectrum", "--n-max", "3"],
                 ["partition", "--r-over-rho", "150"],
                 ["universal-d", "--r-points", "101"],
                 ["figure1", "--n", "400,500,600,700", "--r-points", "2001"],
                 ["verify-geometry", "--grid", "9", "--refine", "2"],
                 ["verify-reduction", "--points", "4096", "--steps", "256"]):
        assert main([*argv, "--output-dir", str(tmp_path / argv[0])]) == 0, argv


@pytest.mark.parametrize("coupling", ["0", "-0.5"])
@pytest.mark.parametrize("command", ["partition", "spectrum"])
def test_non_positive_coupling_exits_2_with_one_line(tmp_path, capsys, command, coupling):
    # used to fall back to the uncoupled scale set (M = m, so lambda*/Lambda =
    # Z alpha, and R in units of Lambda) and exit 0, while the artifact header
    # recorded the coupling asked for; then, to leave an empty output
    # directory behind
    out = tmp_path / "out"
    rc = main([command, "--coupling", coupling, "--output-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("configuration error: coupling must be > 0 when "
                                       f"Z*alpha > 0, got {float(coupling)}\n")
    assert not out.exists()


def test_uncoupled_run_ignores_coupling(tmp_path):
    # with Z alpha = 0 there is no coupling to set: --coupling 0 is not refused
    rc = main(["spectrum", "--Z", "0", "--coupling", "0", "--n-max", "2",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert all(float(r["E_over_mc2"]) == 1.0 for r in _csv_rows(tmp_path / "spectrum.csv"))


_OUT_OF_MEMORY = "error: out of memory: "
_REFUSED = "configuration error: verify-reduction needs about "


@pytest.mark.parametrize("argv, reason", [
    (["spectrum", "--n-max", "100000"], _OUT_OF_MEMORY),
    (["figure1", "--r-points", "2000000000"], _OUT_OF_MEMORY),
    (["universal-d", "--r-points", "2000000000"], _OUT_OF_MEMORY),
    (["verify-reduction", "--points", "2000000000", "--steps", "1"], _REFUSED),
    (["verify-reduction", "--points", "256", "--steps", "2000000000"], _REFUSED),
], ids=["spectrum", "figure1", "universal-d", "verify-reduction", "verify-reduction-steps"])
def test_memory_exhaustion_exits_2_with_one_line(tmp_path, argv, reason):
    # each died with a MemoryError traceback and exit 1, the code of a
    # verification failure; the child's address space is capped at 1 GiB, so
    # the allocation fails there at once.  verify-reduction projects its
    # peak (298 GiB of arrays, or 45 GiB of step table) and is refused
    # before it allocates.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "kg5d.cli", *argv, "--output-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, preexec_fn=cap_address_space,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(reason) and proc.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["spectrum", "--formats", "svg"],
                                  ["partition", "--formats", ","],
                                  ["verify-geometry", "--formats", "svg"]],
                         ids=["spectrum-svg", "partition-empty", "verify-geometry-svg"])
def test_formats_writing_nothing_exit_2_with_one_line(tmp_path, capsys, argv):
    # each used to run, exit 0 and write no file
    out = tmp_path / "out"
    rc = main(argv + ["--output-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: formats ") and err.count("\n") == 1
    assert not out.exists()


def test_formats_naming_one_artifact_of_the_command_still_run(tmp_path):
    rc = main(["universal-d", "--r-points", "9", "--formats", "svg",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["universal_d.svg"]


@pytest.mark.parametrize("argv, names", [
    (["spectrum", "--n-max", "2"], ("spectrum.csv", "spectrum.json")),
    (["partition", "--r-over-rho", "10"], ("partition.json", "partition.csv")),
    (["universal-d", "--r-points", "9"],
     ("universal_d.csv", "universal_d.json", "universal_d.svg")),
    (["figure1", "--n", "1,3", "--r-points", "7"],
     ("figure1.csv", "figure1.json", "figure1.svg")),
    (["verify-geometry", "--grid", "7", "--refine", "2"],
     ("verify_geometry.json", "verify_geometry.csv")),
    (["verify-reduction", "--points", "64", "--steps", "8"],
     ("verify_reduction.json", "verify_reduction.csv")),
], ids=["spectrum", "partition", "universal-d", "figure1", "verify-geometry", "verify-reduction"])
def test_each_command_writes_its_declared_files_in_order(tmp_path, capsys, argv, names):
    # Every format asked for: each command writes exactly its own files, into
    # a directory made at the first write, and prints their paths in the
    # order it writes them, before any other line.
    out = tmp_path / "new" / "out"
    rc = main(argv + ["--formats", "csv,json,svg", "--output-dir", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(names)] == [str(out / name) for name in names]
    assert not any(line.startswith(str(out)) for line in printed[len(names):])


def test_unwritable_output_dir_refused_before_running(tmp_path, monkeypatch, capsys):
    # A target that does not exist yet is judged by its nearest existing
    # ancestor.  (os.access is replaced: a superuser may write anywhere.)
    asked = []

    def access(path, mode):
        asked.append((path, mode))
        return False

    out = tmp_path / "a" / "b"
    monkeypatch.setattr(os, "access", access)
    assert main(["spectrum", "--output-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"configuration error: output dir not writable: {out}\n")
    assert asked == [(str(tmp_path), os.W_OK)]
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
def test_output_dir_on_a_file_exits_2_with_one_line(tmp_path, capsys, below):
    # used to die with a FileExistsError or NotADirectoryError traceback and
    # exit 1, the code of a verification failure
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = os.path.join(blocker, below) if below else str(blocker)
    assert main(["spectrum", "--n-max", "1", "--output-dir", out]) == 2
    assert capsys.readouterr() == ("", f"configuration error: output dir not writable: {out}\n")
