"""kg5d benchmark: run one workload of kg5d CLI commands and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cavity --seed 1 --seconds 30 --trace 0

The seed generates the workload's command lines.  Each command runs in a
fresh child process (``child.py``), one at a time, from this single parent
process, with the BLAS/OpenMP thread variables pinned to one thread.  The
workload is repeated in passes until the next pass would end after
``--seconds`` (at least two passes, so the artifacts of a repetition can be
compared with the first).

Every command is one operation.  It fails if it exits nonzero, if a
``verify-*`` report says ``passed: false``, if ``partition`` reports a series
not converged, if the pinned cavity's Z_d misses the independent reference by
more than its reported tail bound, or if its artifact digests differ from the
first repetition's.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes (``tracing.py``) and prints the
per-layer metrics of the traced ones, including the tracing overhead.  The
last line of standard output is the result as one JSON object; the line
before it records the environment and the generated commands for replay.
Work files go to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_out"  # relative: the CLI writes its output dir into every artifact

# One thread per child: children run one at a time, so together with the
# parent the benchmark never asks for more threads than the 2-core box has.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

CHILD_LIMIT_S = 120.0
RUN_LIMIT_S = 150.0

# Reference cavity: Z_d from 1600 exact levels plus a fitted tail, computed
# independently of the code's N0 choice and tail model.
PINNED = ["partition", "--coupling", "0.01", "--eta0", "1", "--r-over-rho", "50"]
PINNED_Z_D = 51.98303420490789

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "canonical.exact_levels": "count",
    "canonical.trapped_degeneracy_s": "s",
    "canonical.z_discrete_self_s": "s",
    "canonical.tail_terms": "count",
    "canonical.z_continuous_s": "s",
    "canonical.figure1_curves_s": "s",
    "numerics.integrate_calls": "count",
    "numerics.integrate_self_s": "s",
    "numerics.integrand_points": "count",
    "numerics.panels": "count",
    "numerics.find_root_calls": "count",
    "numerics.root_fevals": "count",
    "numerics.find_root_s": "s",
    "numerics.fd_derivative_calls": "count",
    "numerics.fd_derivative_s": "s",
    "numerics.fd_bytes": "B",
    "specfun.combo_calls": "count",
    "specfun.combo_points": "count",
    "specfun.recurrence_steps": "count",
    "specfun.combo_s": "s",
    "specfun.ns_per_step": "ns",
    "spectrum.stat_wavelength_calls": "count",
    "spectrum.stat_wavelength_s": "s",
    "spectrum.kg_energy_s": "s",
    "geometry.laplacian_defect_s": "s",
    "geometry.christoffel_field_s": "s",
    "geometry.kg_fourier_s": "s",
    "geometry.laplacian_defect_peak_mb": "MB",
    "reduction.evolve_calls": "count",
    "reduction.evolve_s": "s",
    "reduction.continuity_s": "s",
    "reduction.snapshot_bytes": "B",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}


# ---------------------------------------------------------------------------
# Workloads: seed -> command lines (without --output-dir)
# ---------------------------------------------------------------------------

def cavity(rng: random.Random) -> list:
    """Z_d exact-level quadrature and its tail: canonical, integrate, specfun."""
    # z_discrete adds exact levels in steps of x1.4 until a fit test on the
    # last 64 levels passes.  Whether it passes depends sharply on r/rho (the
    # test statistic at 189 levels is 4.1 at r/rho 150 but 0.013 at 155.4), so
    # a seeded r/rho would change a run's work by up to 4x.  It does not
    # depend on coupling or eta0, so the seed varies those, and r/rho stays at
    # 150 (265 levels) and 1000 (440 levels), the ends of the range of interest.
    commands = [list(PINNED)]
    for r_over_rho in ("150", "1000"):
        commands.append([
            "partition",
            "--coupling", f"{rng.uniform(0.0095, 0.0105):.6f}",
            "--eta0", f"{rng.uniform(0.9, 1.1):.6f}",
            "--r-over-rho", r_over_rho,
        ])
    return commands


def geometry(rng: random.Random) -> list:
    """5D identity harness; the CLI takes no other input, so the seed is unused."""
    # With --refine 2 the Laplacian ladder ends at grid + 4 points per axis:
    # 17^5 and 21^5 (0.4 and 0.8 GB peak).  The default --refine 3 would run
    # 21^5 and 25^5 and take twice the time and 1.4 GB.
    return [["verify-geometry", "--grid", "13", "--refine", "2"],
            ["verify-geometry", "--grid", "17", "--refine", "2"]]


def tables(rng: random.Random) -> list:
    """Many short commands: find_root, one long recurrence per level, evolvers."""
    # Levels come in pairs n, 5001 - n so the summed recurrence length, which
    # sets figure1's cost, is the same for every seed.
    levels = [m for n in rng.sample(range(1, 2501), 5) for m in (n, 5001 - n)]
    rng.shuffle(levels)
    return [
        ["spectrum", "--n-max", "300", "--coupling", f"{rng.uniform(0.008, 0.012):.6f}"],
        ["figure1", "--n", ",".join(map(str, levels)), "--r-points", "4001",
         "--formats", "csv,json,svg"],
        ["verify-reduction", "--points", "16384", "--steps", "1024"],
        ["universal-d", "--r-points", str(rng.randrange(1801, 2202)),
         "--formats", "csv,json,svg"],
    ]


WORKLOADS = {"cavity": cavity, "geometry": geometry, "tables": tables}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _load_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(args: list, out_dir: str) -> str | None:
    """Reason the command's artifacts fail the gate, or None."""
    command = args[0]
    try:
        if command.startswith("verify-"):
            report = _load_json(out_dir, command.replace("-", "_") + ".json")["report"]
            if report["passed"] is not True:
                return f"{command} report has passed = {report['passed']}"
        elif command == "partition":
            doc = _load_json(out_dir, "partition.json")
            for series in ("terms_c", "terms_d"):
                if doc[series]["converged"] is not True:
                    return f"partition {series} not converged"
            if args == PINNED:
                error = abs(doc["z_d"] - PINNED_Z_D)
                bound = doc["terms_d"]["tail_bound"]
                if not error <= bound:
                    return f"pinned Z_d off the reference by {error!r} > tail bound {bound!r}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable {command} artifacts: {exc!r}"
    return None


def digests(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_command(workload: str, k: int, args: list, traced: bool, env: dict) -> dict:
    """Run one CLI command in a fresh child; time it from spawn to exit."""
    out_rel = os.path.join(WORK, workload, f"out{k}")
    meta = os.path.join(ROOT, WORK, workload, "meta")
    out_dir = os.path.join(ROOT, out_rel)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    os.makedirs(meta, exist_ok=True)
    record_path = os.path.join(meta, f"record{k}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), record_path,
            "1" if traced else "0", os.path.join(meta, f"spans{k}.csv"), "--",
            *args, "--output-dir", out_rel]
    op = {"args": args, "traced": traced}
    with open(os.path.join(meta, f"log{k}.txt"), "wb") as log:
        signal.setitimer(signal.ITIMER_REAL, CHILD_LIMIT_S)
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:  # never leave the child running
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, ChildTimeout):
                raise
            op["reason"] = f"killed after {CHILD_LIMIT_S} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.update(wall=ended - spawned, rss_mb=usage.ru_maxrss / 1024.0, status=proc.returncode)
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = None
    if record is not None:
        op.update(setup=record["main_entry"] - spawned, import_s=record["import_s"],
                  layers=record.get("layers"))
        if not record["module"].startswith(SRC + os.sep):
            op.setdefault("reason", f"imported kg5d from {record['module']}, not {SRC}")
    if proc.returncode != 0:
        op.setdefault("reason", f"exit status {proc.returncode}")
    op.setdefault("reason", check_outputs(args, out_dir))
    op["digests"] = digests(out_dir)
    return op


def run_pass(workload: str, commands: list, traced: bool, env: dict,
             reference: dict) -> list:
    ops = []
    for k, args in enumerate(commands):
        op = run_command(workload, k, args, traced, env)
        if k not in reference:
            reference[k] = op["digests"]
        elif op["digests"] != reference[k] and op["reason"] is None:
            op["reason"] = "artifact digests differ from the first repetition"
        ops.append(op)
    return ops


def warm_up(env: dict) -> None:
    """Import kg5d.cli once untimed so byte-code and file caches are filled."""
    probe = subprocess.run(
        [sys.executable, "-c", "import kg5d.cli; print(kg5d.cli.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    module = probe.stdout.strip()
    if probe.returncode != 0 or not module.startswith(SRC + os.sep):
        sys.exit(f"cannot import kg5d.cli from {SRC}: {probe.stderr.strip() or module}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes: list) -> dict:
    ops = [op for ops in passes for op in ops]
    return {
        "wall_s": statistics.median(sum(op["wall"] for op in ops) for ops in passes),
        "setup_s": statistics.median(op["setup"] for op in ops if "setup" in op),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }


def per_layer(ops: list) -> dict:
    """Per-layer metrics of one traced pass."""
    stats, counters = {}, {}
    for op in ops:
        layers = op.get("layers") or {"stats": {}, "counters": {}}
        for name, (calls, total, own) in layers["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in layers["counters"].items():
            if name.endswith("_mb"):
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(*names):
        return sum(stats.get(name, [0, 0.0, 0.0])[1] for name in names)

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    points = counters.get("integrand_points", 0)
    steps = counters.get("recurrence_steps", 0)
    combo_s = total("specfun._combo_arrays")
    imports = [op["import_s"] for op in ops if "import_s" in op]
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.emit_s": total("cli.write_csv", "cli.write_json", "cli.write_svg"),
        "cli.emit_bytes": counters.get("emit_bytes", 0),
        "canonical.exact_levels": calls("canonical.trapped_degeneracy"),
        "canonical.trapped_degeneracy_s": total("canonical.trapped_degeneracy"),
        "canonical.z_discrete_self_s": own("canonical.z_discrete"),
        "canonical.tail_terms": counters.get("tail_terms", 0),
        "canonical.z_continuous_s": total("canonical.z_continuous"),
        "canonical.figure1_curves_s": total("canonical.figure1_curves"),
        "numerics.integrate_calls": calls("numerics.integrate"),
        "numerics.integrate_self_s": own("numerics.integrate"),
        "numerics.integrand_points": points,
        "numerics.panels": points / 22.0,  # GL15 + GL7 nodes per panel
        "numerics.find_root_calls": calls("numerics.find_root"),
        "numerics.root_fevals": counters.get("root_fevals", 0),
        "numerics.find_root_s": total("numerics.find_root"),
        "numerics.fd_derivative_calls": calls("numerics.fd_derivative"),
        "numerics.fd_derivative_s": total("numerics.fd_derivative"),
        "numerics.fd_bytes": counters.get("fd_bytes", 0),
        "specfun.combo_calls": calls("specfun._combo_arrays"),
        "specfun.combo_points": counters.get("combo_points", 0),
        "specfun.recurrence_steps": steps,
        "specfun.combo_s": combo_s,
        "specfun.ns_per_step": combo_s * 1e9 / steps if steps else 0.0,
        "spectrum.stat_wavelength_calls": calls("spectrum.stat_wavelength"),
        "spectrum.stat_wavelength_s": total("spectrum.stat_wavelength"),
        "spectrum.kg_energy_s": total("spectrum.kg_energy"),
        "geometry.laplacian_defect_s": total("geometry._laplacian_defect_field"),
        "geometry.christoffel_field_s": total("geometry._christoffel_contraction_field"),
        "geometry.kg_fourier_s": total("geometry.kg_fourier_residual"),
        "geometry.laplacian_defect_peak_mb": counters.get("laplacian_defect_peak_mb", 0.0),
        "reduction.evolve_calls": calls("reduction.evolve_schrodinger")
        + calls("reduction.evolve_fokker_planck"),
        "reduction.evolve_s": total("reduction.evolve_schrodinger",
                                    "reduction.evolve_fokker_planck"),
        "reduction.continuity_s": total("reduction.current_and_continuity"),
        "reduction.snapshot_bytes": counters.get("snapshot_bytes", 0),
    }


def traced_metrics(passes: list, modes: list, failed: int, attempted: int) -> dict:
    traced = [per_layer(ops) for ops, t in zip(passes, modes) if t]
    metrics = {name: statistics.median(p[name] for p in traced) for name in traced[0]}

    def median_wall(want):
        return statistics.median(sum(op["wall"] for op in ops)
                                 for ops, t in zip(passes, modes) if t == want)

    base = median_wall(False)
    metrics["trace.overhead_frac"] = (median_wall(True) - base) / base
    metrics["failed_frac"] = failed / attempted
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def environment(workload: str, seed: int, commands: list) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    prefix = [f"{k}={v}" for k, v in sorted(THREAD_ENV.items())] + ["PYTHONPATH=src"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
        "replay": [shlex.join(prefix + ["python3", "-m", "kg5d.cli", *args, "--output-dir",
                                        os.path.join(WORK, workload, f"out{k}")])
                   for k, args in enumerate(commands)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kg5d", "cli.py")):
        print(f"kg5d sources not found under {SRC}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload](random.Random(args.seed))
    env = child_env()
    signal.signal(signal.SIGALRM, _alarm)
    warm_up(env)

    passes, modes, reference = [], [], {}
    started = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        passes.append(run_pass(args.workload, commands, traced, env, reference))
        modes.append(traced)
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        elapsed = now - started
        if len(passes) >= 2 and elapsed + longest > min(args.seconds, RUN_LIMIT_S):
            break

    ops = [op for ops in passes for op in ops]
    failures = [op for op in ops if op["reason"] is not None]
    for op in failures:
        print(f"FAILED {shlex.join(op['args'])}: {op['reason']}", file=sys.stderr)
    missing = sorted({m for op in ops for m in (op.get("layers") or {}).get("missing", [])})
    if missing:
        print(f"trace could not take: {', '.join(missing)}", file=sys.stderr)

    record = environment(args.workload, args.seed, commands)
    record["passes"] = [{"traced": t, "ops": ops} for ops, t in zip(passes, modes)]
    with open(os.path.join(ROOT, WORK, args.workload, "record.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    del record["passes"]
    print(json.dumps({"environment": record}))

    if args.trace:
        values = traced_metrics(passes, modes, len(failures), len(ops))
        units = PER_LAYER
    else:
        values = end_to_end(passes)
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
