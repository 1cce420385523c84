"""Command-line front-end tests: artifacts, headers, determinism, exit codes."""

import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from kg5d import canonical, numerics
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
    import subprocess
    import sys
    env = dict(os.environ, KG5D_OUTPUT_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "kg5d.cli", "spectrum",
                           "--n-max", "1"], capture_output=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_cli_import_leaves_scipy_sparse_unloaded():
    # Only the Crank-Nicolson evolver needs scipy.sparse, and importing it
    # costs more than the rest of the CLI's start-up.
    code = "import sys, kg5d.cli; print('scipy.sparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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


def test_cli_import_leaves_geometry_unloaded():
    # Only verify-geometry needs the geometry module, and verify-geometry and
    # verify-reduction the reduction module; the CLI imports them there.
    code = ("import sys, kg5d.cli; "
            "print(sorted(m for m in ('kg5d.geometry', 'kg5d.reduction') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_non_finite_integrand_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(canonical, "_density_rhat", lambda n, rh: np.full(rh.shape, np.nan))
    rc = main(["partition", "--r-over-rho", "5", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integrand not finite at x=") and err.count("\n") == 1


def test_non_positive_eta0_exits_2_with_one_line(tmp_path, capsys):
    # used to die in ScaleSet.build with a ZeroDivisionError traceback, exit 1
    rc = main(["partition", "--eta0", "0", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: need eta0 > 0, got 0.0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["partition", "--rel-tol", "0"],
                                  ["universal-d", "--max-iter", "0"]],
                         ids=["partition-rel-tol-0", "universal-d-max-iter-0"])
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


@pytest.mark.parametrize("grid, top, limit", [
    ("301", 305, 2 * 2**30),
    # 16 MiB above the projection: refused, because the interpreter's own
    # mappings count against the limit too
    ("29", 33, projected_peak_bytes([29, 33]) + 2**24),
], ids=["301", "29-just-above-projection"])
def test_verify_geometry_refuses_grid_beyond_memory(tmp_path, grid, top, limit):
    # the child's own address space is capped, so a guard that let the run
    # start would fail there fast instead of using the host's memory
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "kg5d.cli", "verify-geometry", "--grid", grid, "--refine", "2",
         "--output-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: ") and proc.stderr.count("\n") == 1
    assert f"{top}^5" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, names", [
    (["verify-reduction", "--points", "256", "--steps", "64"],
     ("verify_reduction.csv", "verify_reduction.json")),
    (["spectrum", "--n-max", "20"], ("spectrum.csv", "spectrum.json")),
    (["verify-geometry", "--grid", "9", "--refine", "2"],
     ("verify_geometry.csv", "verify_geometry.json")),
    (["partition", "--r-over-rho", "50"], ("partition.csv", "partition.json")),
], ids=["verify-reduction", "spectrum", "verify-geometry", "partition"])
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


@pytest.mark.parametrize("argv, names", [
    (["partition", "--r-over-rho", "150"], ("partition.csv", "partition.json")),
    (["figure1", "--n", "400,500,600,700", "--r-points", "2001", "--formats", "csv,json,svg"],
     ("figure1.csv", "figure1.json", "figure1.svg")),
    (["verify-reduction", "--points", "4096", "--steps", "256"],
     ("verify_reduction.csv", "verify_reduction.json")),
], ids=["partition", "figure1", "verify-reduction"])
def test_artifacts_independent_of_cpu_count(tmp_path, argv, names):
    # Pinned to one CPU every half runs inline; on two, one half of each of
    # these runs in a forked worker (sizes above numerics._BESIDE_FLOOR_S).
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cpus = sorted(os.sched_getaffinity(0))
    runs = []
    for allowed in (cpus[:1], cpus[:2]):
        proc = subprocess.run([sys.executable, "-m", "kg5d.cli", *argv, "--output-dir", str(out)],
                              env=env, capture_output=True, check=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, allowed))
        runs.append((proc.stdout, {name: _read(out / name) for name in names}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("floor", [0.0, math.inf], ids=["forked", "inline"])
def test_worker_error_exits_with_its_code_and_one_line(tmp_path, monkeypatch, capsys, floor):
    # Z_c runs in the worker's half of partition; its error reaches the CLI
    # as if raised here.
    def fail(scales, tol):
        raise NonConvergenceError("Z_c correction sum did not converge", estimate=1.0)

    monkeypatch.setattr(numerics, "_BESIDE_FLOOR_S", floor)
    monkeypatch.setattr(canonical, "z_continuous", fail)
    rc = main(["partition", "--r-over-rho", "50", "--output-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "non-convergence: Z_c correction sum did not converge\n"
    assert not list(tmp_path.iterdir())
