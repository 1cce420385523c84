"""Command-line front end: tables, partition sums, density curves, verifiers.

Commands
--------
spectrum         table of (n, l, E_nl/mc^2, lambda'/lambda, Lambda'/Lambda, e_n/Mc^2)
partition        canonical sum Z = Z_c + Z_d with per-level diagnostics
universal-d      samples and checks of the universal density profile
figure1          rescaled density curves D_n(r n^2) for a list of n
verify-geometry  metric/Christoffel/operator identity suite
verify-reduction light-cone evolution suite

Configuration comes from an optional flat key=value file plus flags (flags
win).  Unknown config keys are rejected.  Every emitted file embeds the full
resolved configuration, floats are printed with 17 significant digits, and
all sums run in fixed order, so identical configurations produce
byte-identical artifacts.

Exit codes: 0 success, 1 verification failure, 2 configuration error (or
another package error, or memory exhausted), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BracketingError,
    ConfigurationError,
    Kg5dError,
    NonConvergenceError,
    VerificationFailure,
)
from .numerics import Tolerance, integrate
from .spectrum import ScaleSet, kg_energies, stat_energy, stat_wavelengths

SCHEMA_VERSION = 1

_DEFAULTS = {
    "output_dir": None,     # resolved via env or cwd
    "formats": "csv,json",
    "rel_tol": 1e-10,
    "abs_tol": 0.0,
    "max_iter": 10000,
    "z": 1,
    "alpha": 0.0072973525693,
    "coupling": 0.01,       # lambda*/Lambda
    "eta0": 1.0,
    "r_over_rho": 50.0,
    "n_max": 5,
    "n_list": "1,10,100,1000",
    "r_max": 5.0,
    "r_points": 251,
    "grid": 9,
    "refine": 3,
    "points": 256,
    "steps": 64,
}

_TYPES = {k: type(v) if v is not None else str for k, v in _DEFAULTS.items()}

# The files each command writes, <command>.<format> with '_' for '-', in the
# order it writes them and prints their paths; --formats selects among them.
_ARTIFACTS = {
    "spectrum": ("csv", "json"),
    "partition": ("json", "csv"),
    "universal-d": ("csv", "json", "svg"),
    "figure1": ("csv", "json", "svg"),
    "verify-geometry": ("json", "csv"),
    "verify-reduction": ("json", "csv"),
}


def fmt(x) -> str:
    """Deterministic float formatting: 17 significant digits."""
    return format(float(x), ".17g")


def load_config_file(path: str) -> dict:
    """Flat key=value config; '#' starts a comment; unknown keys rejected."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_").lower()
        if key not in _DEFAULTS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value):
    if value is None:
        return None
    want = _TYPES[key]
    try:
        if want is int:
            return int(value)
        if want is not float:
            return str(value)
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad value for {key}: {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigurationError(f"bad value for {key}: {value!r} is not finite")
    return number


@dataclass
class RunConfig:
    """Fully resolved run settings, recorded in every artifact header."""

    command: str
    settings: dict = field(default_factory=dict)

    @property
    def output_dir(self) -> str:
        return self.settings["output_dir"]

    @property
    def formats(self) -> set:
        fmts = {f.strip() for f in self.settings["formats"].split(",") if f.strip()}
        bad = fmts - {"csv", "json", "svg"}
        if bad:
            raise ConfigurationError(f"unknown formats: {sorted(bad)}")
        return fmts

    def tolerance(self) -> Tolerance:
        return Tolerance(rel=self.settings["rel_tol"], abs=self.settings["abs_tol"],
                         max_iter=self.settings["max_iter"])

    def scales(self) -> ScaleSet:
        s = self.settings
        if s["z"] * s["alpha"] <= 0:
            return ScaleSet.build(Z=s["z"], alpha=s["alpha"], eta0=s["eta0"],
                                  R_over_Lambda=s["r_over_rho"])
        if not s["coupling"] > 0:
            raise ConfigurationError(f"coupling must be > 0 when Z*alpha > 0, got {s['coupling']}")
        return ScaleSet.build(Z=s["z"], alpha=s["alpha"],
                              lambda_star_over_Lambda=s["coupling"], eta0=s["eta0"],
                              R_over_rho=s["r_over_rho"])

    def header_lines(self) -> list:
        lines = [f"# kg5d {self.command}", f"# schema_version={SCHEMA_VERSION}"]
        for key in sorted(self.settings):
            val = self.settings[key]
            text = fmt(val) if isinstance(val, float) else str(val)
            lines.append(f"# {key}={text}")
        return lines

    def json_envelope(self) -> dict:
        cfg = {}
        for key in sorted(self.settings):
            cfg[key] = self.settings[key]
        return {"schema_version": SCHEMA_VERSION, "command": self.command, "config": cfg}


def resolve_config(command: str, args: argparse.Namespace) -> RunConfig:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            settings[key] = _coerce(key, value)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _coerce(key, flag)
    if settings["output_dir"] is None:
        settings["output_dir"] = os.environ.get("KG5D_OUTPUT_DIR", ".")
    cfg = RunConfig(command=command, settings=settings)
    writes = _ARTIFACTS[command]
    if not cfg.formats & set(writes):
        raise ConfigurationError(f"formats {settings['formats']!r} select none of what "
                                 f"{command} writes ({','.join(sorted(writes))})")
    # The directory is made at the first write (_emit), so a refused run
    # leaves none; until then its nearest existing ancestor must be a
    # writable directory.
    existing = os.path.abspath(cfg.output_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK)):
        raise ConfigurationError(f"output dir not writable: {cfg.output_dir}")
    return cfg


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------
#
# Kernels hand tables over as numpy columns, or as a function that gives the
# columns of any range of rows; each is written with one row template, a
# chunk of rows at a time, so no per-row objects are built, no whole document
# text is held, and a derived table holds one chunk of its columns.  The
# output is byte for byte what a per-cell ``fmt`` loop and
# ``json.dump(doc, fh, indent=2, allow_nan=True)`` write.  ``_emit`` writes a
# command's files in the order ``_ARTIFACTS`` declares.

# Rows a chunk holds.  On a 2-core x86-64 with Python 3.11 and numpy 2.4,
# spectrum --n-max 300 (45,450 rows) as a process peaked at 33.2, 31.5 and
# 31.6 MB of RSS with chunks of 2048, 512 and 256 rows, its writers at 1.85,
# 0.49 and 0.27 MiB of tracemalloc, and n_max 1000 took 3.26, 3.31 and
# 3.59 s: below 512 rows the per-chunk overhead costs time and saves no RSS.
_CHUNK_ROWS = 512


@dataclass(frozen=True)
class Table:
    """Named equal-length numpy columns: the rows of a CSV file or a JSON
    list of row objects.  Float columns get 17 digits; a label column is a
    str array, and cells of no fixed width (big ints) sit in object arrays.

    ``columns`` is the tuple of columns, or a function of a row range
    (start, stop) that returns those rows of each column; then ``rows`` is
    the number of rows.
    """

    names: tuple
    columns: tuple | Callable
    rows: int | None = None

    def __len__(self) -> int:
        return len(self.columns[0]) if self.rows is None else self.rows


def _chunks(columns, rows=None):
    """The columns in slices of at most _CHUNK_ROWS rows: a sequence of
    columns is sliced, a function of a row range is called for each of the
    ``rows`` rows' slices."""
    if rows is None:
        rows = len(columns[0])
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        yield columns(start, stop) if callable(columns) else [c[start:stop] for c in columns]


def write_csv(cfg: RunConfig, name: str, table: Table) -> str:
    """The configuration header, the column names, then one line per row."""
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(cfg.header_lines()) + "\n")
        fh.write(",".join(table.names) + "\n")
        for chunk in _chunks(table.columns, len(table)):
            line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in chunk) + "\n"
            fh.write("".join(map(line.__mod__, zip(*(c.tolist() for c in chunk)))))
    return path


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(column: np.ndarray) -> list:
    """The JSON text of each cell, as json.dumps writes it."""
    cells = column.tolist()
    if column.dtype.kind == "f":
        text = list(map(float.__repr__, cells))
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            text[i] = _JSON_NON_FINITE[text[i]]
        return text
    return list(map(int.__repr__ if column.dtype.kind in "iu" else json.dumps, cells))


def _write_json_array(fh, indent: str, item: str, chunks) -> None:
    """A JSON array whose k-th item is ``item`` filled with row k's cells,
    the rows coming as ``_chunks`` of columns."""
    sep = "[\n"
    for chunk in chunks:
        fh.write(sep + ",\n".join(map(item.__mod__, zip(*map(_json_cells, chunk)))))
        sep = ",\n"
    fh.write("[]" if sep == "[\n" else "\n" + indent + "]")


# Stands in for each deferred value in the small document, in order; it is
# how json.dumps writes the string "\0".  No setting can hold a NUL: argv
# cannot, and a config value with one is refused or fails os.makedirs before
# anything is written.
_DEFERRED = '"\\u0000"'


def write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    """The envelope plus ``payload``, as ``json.dump(indent=2)`` writes it.

    A ``Table`` in the payload is written as a list of row objects and a
    float array as a list of numbers, a chunk of rows at a time; everything
    else goes through ``json.dumps``.
    """
    deferred = []

    def defer(value):
        if not (isinstance(value, Table)
                or isinstance(value, np.ndarray) and value.dtype.kind == "f"):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        deferred.append(value)
        return "\0"

    doc = cfg.json_envelope()
    doc.update(payload)
    parts = json.dumps(doc, indent=2, allow_nan=True, default=defer).split(_DEFERRED)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for text, value in zip(parts, deferred):
            fh.write(text)
            line = text[text.rfind("\n") + 1:]
            indent = line[:len(line) - len(line.lstrip(" "))]
            inner = indent + "  "
            if isinstance(value, Table):
                fields = ",\n".join(f"{inner}  {json.dumps(k)}: %s" for k in value.names)
                _write_json_array(fh, indent, f"{inner}{{\n{fields}\n{inner}}}",
                                  _chunks(value.columns, len(value)))
            else:
                _write_json_array(fh, indent, inner + "%s", _chunks((value,)))
        fh.write(parts[-1] + "\n")
    return path


def _extremes(arrays) -> tuple:
    """(min, max) over several arrays, as over their concatenation."""
    arrays = [a for a in arrays if a.size]
    return (float(np.min([a.min() for a in arrays])), float(np.max([a.max() for a in arrays])))


_SVG_COLORS = ["#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#2c3e50"]


def write_svg(cfg: RunConfig, name: str, curves, xlabel: str, ylabel: str) -> str:
    """Self-contained polyline plot; curves is a list of (label, x, y);
    each polyline is written a chunk of points at a time."""
    width, height, margin = 640, 440, 56
    curves = [(label, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for label, x, y in curves]
    x_lo, x_hi = _extremes(c[1] for c in curves)
    y_lo, y_hi = _extremes(c[2] for c in curves)
    y_lo = float(min(y_lo, 0.0))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (np.asarray(x, dtype=float) - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (np.asarray(y, dtype=float) - y_lo) / (y_hi - y_lo) * (
            height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for line in cfg.header_lines():
        parts.append(f"<!-- {line[2:]} -->")
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    ax = (f'<path d="M {sx(x_lo):.2f} {sy(y_lo):.2f} H {sx(x_hi):.2f} '
          f'M {sx(x_lo):.2f} {sy(y_lo):.2f} V {sy(y_hi):.2f}" '
          'stroke="black" fill="none" stroke-width="1"/>')
    parts.append(ax)
    parts.append(f'<text x="{width // 2}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{height // 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 14 {height // 2})">{ylabel}</text>')
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
        for i, (label, x, y) in enumerate(curves):
            color = _SVG_COLORS[i % len(_SVG_COLORS)]
            fh.write('<polyline points="')
            sep = ""
            for cx, cy in _chunks((x, y)):
                fh.write(sep + " ".join(map("%.6f,%.6f".__mod__,
                                            zip(sx(cx).tolist(), sy(cy).tolist()))))
                sep = " "
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.4"/>\n'
                     f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
                     f'font-size="12" fill="{color}">{label}</text>\n')
        fh.write("</svg>\n")
    return path


def _emit(cfg: RunConfig, **contents) -> None:
    """Write the files of ``cfg.command`` that ``--formats`` selects, in the
    order ``_ARTIFACTS`` declares, and print each path.  ``contents`` maps a
    format to its writer's arguments after the file name."""
    writers = {"csv": write_csv, "json": write_json, "svg": write_svg}
    stem = cfg.command.replace("-", "_")
    os.makedirs(cfg.output_dir, exist_ok=True)
    for kind in _ARTIFACTS[cfg.command]:
        if kind in cfg.formats:
            print(writers[kind](cfg, f"{stem}.{kind}", *contents[kind]))


def _series_dict(report) -> dict:
    return {
        "value": report.value,
        "terms_used": report.terms_used,
        "tail_bound": report.tail_bound,
        "converged": report.converged,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    n_max = cfg.settings["n_max"]
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    scales = cfg.scales()
    # levels (n, l) for n = 1..n_max and l = 0..n, in that order; level n
    # starts at row first[n - 1]
    per_n = np.arange(2, n_max + 2)
    first = np.cumsum(per_n) - per_n

    def levels(start, stop):
        rows = np.arange(start, stop)
        n = np.searchsorted(first, rows, side="right")
        return n, rows - first[n - 1]

    def columns(start, stop):
        n, l = levels(start, stop)
        energies = kg_energies(n, l, scales)
        return (n, l, energies / scales.mc2, scales.mc2 / energies,  # lambda'/lambda = mc^2/E
                wavelengths[start:stop] / scales.Lambda, stat_energy(n, scales) / scales.Mc2)

    rows = int(first[-1] + per_n[-1])
    # (1, 0), the first row, is the first level past any critical coupling:
    # its energy refuses the run before the solve, as the table's would
    kg_energies(*levels(0, 1), scales)
    # always solved to 1e-15 relative; only the step budget is configurable
    wavelengths, refused = stat_wavelengths(
        *levels(0, rows), scales, Tolerance(rel=1e-15, abs=0.0, max_iter=cfg.settings["max_iter"]))
    if refused:
        print(_refusal_line(refused, rows), file=sys.stderr)
    table = Table(("n", "l", "E_over_mc2", "lambda_prime_over_lambda",
                   "Lambda_prime_over_Lambda", "e_n_over_Mc2"), columns, rows)
    _emit(cfg, csv=(table,), json=({"levels": table},))
    return 0


def _refusal_line(refused: dict, total: int) -> str:
    """One line: how many rows are NaN, and the first reason of each kind."""
    first = {}
    for exc in refused.values():
        first.setdefault("bracketing" if isinstance(exc, BracketingError) else "domain", exc)
    reasons = "; ".join(f"{kind}: {exc}" for kind, exc in first.items())
    return (f"warning: {len(refused)} of {total} rows have no statistical "
            f"wavelength (NaN); {reasons}")


def cmd_partition(cfg: RunConfig) -> int:
    from . import canonical

    scales = cfg.scales()
    result = canonical.partition(scales, cfg.tolerance())
    exact = result.per_level_d
    levels = Table(("n", "weight", "trapped_degeneracy"),
                   (exact.n, exact.weight, exact.trapped_degeneracy))
    payload = {
        "z_c": result.z_c,
        "z_d": result.z_d,
        "z_total": result.z_total,
        "terms_c": _series_dict(result.terms_c),
        "terms_d": _series_dict(result.terms_d),
        "per_level_d": levels,
    }
    _emit(cfg, json=(payload,), csv=(levels,))
    if not (result.terms_c.converged and result.terms_d.converged):
        raise NonConvergenceError("partition series did not converge",
                                  estimate=result.z_total)
    return 0


def _r_grid(cfg: RunConfig, r_max: float) -> np.ndarray:
    """The r_points-point sample grid on [0, r_max]; refuses an empty one."""
    points = cfg.settings["r_points"]
    if points < 1:
        raise ConfigurationError(f"r_points must be >= 1, got {points}")
    return np.linspace(0.0, r_max, points)


def cmd_universal_d(cfg: RunConfig) -> int:
    from . import canonical

    r = _r_grid(cfg, 4.0)
    values = canonical.universal_d(r)
    norm = integrate(canonical.universal_d, 0.0, 4.0,
                     Tolerance(rel=0.0, abs=1e-12, max_iter=cfg.settings["max_iter"]))
    _emit(cfg, csv=(Table(("r", "value"), (r, values)),),
          json=({"value_at_2": canonical.universal_d(2.0), "norm_integral": norm},),
          svg=([("limit", r, values)], "r", "D(r)"))
    return 0


def cmd_figure1(cfg: RunConfig) -> int:
    from . import canonical

    try:
        n_list = [int(tok) for tok in str(cfg.settings["n_list"]).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad n_list {cfg.settings['n_list']!r}") from exc
    if not n_list:
        raise ConfigurationError("n_list is empty")
    r = _r_grid(cfg, cfg.settings["r_max"])
    curves = canonical.figure1_curves(n_list, r)
    ns = np.array([c.n for c in curves])

    def columns(start, stop):
        # the curves' rows one after another: row i is point i % r.size of
        # curve i // r.size
        k, j = np.divmod(np.arange(start, stop), r.size)
        values = np.empty(stop - start)
        for i in range(k[0], k[-1] + 1):
            values[k == i] = curves[i].values[j[k == i]]
        return ns[k], r[j], values

    table = Table(("n", "r", "value"), columns, len(curves) * r.size)
    _emit(cfg, csv=(table,),
          json=({"curves": [{"n": c.n, "r": c.r, "value": c.values} for c in curves]},),
          svg=([(f"n={c.n}", c.r, c.values) for c in curves],
               "r (units of rho/2, stretched by n^2)", "D_n"))
    return 0


def cmd_verify_geometry(cfg: RunConfig) -> int:
    from . import geometry

    start = cfg.settings["grid"]
    count = cfg.settings["refine"]
    if start < 7 or count < 2:
        raise ConfigurationError("need grid >= 7 and refine >= 2")
    sizes = range(start, start + 4 * count, 4)
    report = geometry.verify_geometry(sizes=sizes)
    summary = ("laplacian_order", "flat_residual", "metric_inverse_defect")
    checks = Table(("check", "value"), (
        np.array([f"laplacian_h{fmt(h)}" for h in report["laplacian_steps"]] + list(summary)),
        np.array([*report["laplacian_residuals"], *(report[key] for key in summary)])))
    _emit(cfg, json=({"report": report},), csv=(checks,))
    for key, order in report["contraction_orders"].items():
        print(f"{key}: order {order if order != float('inf') else 'exact'}")
    print(f"laplacian: order {fmt(report['laplacian_order'])}")
    print(f"flat residual: {fmt(report['flat_residual'])}")
    if not report["passed"]:
        raise VerificationFailure("geometry identities exceeded tolerances")
    return 0


def cmd_verify_reduction(cfg: RunConfig) -> int:
    from . import reduction

    report = reduction.verify_reduction(points=cfg.settings["points"],
                                        steps=cfg.settings["steps"])
    steps = Table(("step", "norm", "residual"), report.pop("step_table"))
    _emit(cfg, json=({"report": report},), csv=(steps,))
    for key in ("norm_drift_per_step", "dispersion_error", "continuity_order",
                "fp_variance_error", "semigroup_defect"):
        print(f"{key}: {fmt(report[key])}")
    if not report["passed"]:
        raise VerificationFailure("reduction suite exceeded tolerances")
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "partition": cmd_partition,
    "universal-d": cmd_universal_d,
    "figure1": cmd_figure1,
    "verify-geometry": cmd_verify_geometry,
    "verify-reduction": cmd_verify_reduction,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--output-dir", dest="output_dir",
                     help="artifact directory (default $KG5D_OUTPUT_DIR or cwd)")
    sub.add_argument("--formats", help="comma subset of csv,json,svg")
    sub.add_argument("--rel-tol", dest="rel_tol", type=float)
    sub.add_argument("--abs-tol", dest="abs_tol", type=float)
    sub.add_argument("--max-iter", dest="max_iter", type=int)
    sub.add_argument("--Z", dest="z", type=int, help="nuclear charge number")
    sub.add_argument("--alpha", type=float, help="fine-structure constant")
    sub.add_argument("--coupling", type=float, help="lambda*/Lambda ratio")
    sub.add_argument("--eta0", type=float, help="u M c^2 / hbar")
    sub.add_argument("--r-over-rho", dest="r_over_rho", type=float,
                     help="cavity radius in units of rho (or Lambda when uncoupled)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kg5d", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser(
        "spectrum", help="bound-state table",
        description="Bound-state table.  The statistical wavelengths are always solved to "
                    "1e-15 relative, whatever --rel-tol and --abs-tol say; --max-iter bounds "
                    "the steps of each root, and a root not localized within them exits 3.")
    _add_common(sp)
    sp.add_argument("--n-max", dest="n_max", type=int)

    pt = subs.add_parser("partition", help="canonical sum")
    _add_common(pt)

    ud = subs.add_parser("universal-d", help="universal density profile")
    _add_common(ud)
    ud.add_argument("--r-points", dest="r_points", type=int)

    fg = subs.add_parser("figure1", help="rescaled density curves")
    _add_common(fg)
    fg.add_argument("--n", dest="n_list", help="comma list of level indices")
    fg.add_argument("--r-max", dest="r_max", type=float)
    fg.add_argument("--r-points", dest="r_points", type=int)

    vg = subs.add_parser("verify-geometry", help="metric and operator identities")
    _add_common(vg)
    vg.add_argument("--grid", type=int,
                    help="smallest grid points per axis; the contraction checks use "
                         "sizes grid, grid+4, ... (one per --refine)")
    vg.add_argument("--refine", type=int,
                    help="number of sizes; the 5D Laplacian ladder uses only the largest, "
                         "rounded down to 4k+1, with its half and quarter grids")

    vr = subs.add_parser("verify-reduction", help="light-cone evolution suite")
    _add_common(vr)
    vr.add_argument("--points", type=int)
    vr.add_argument("--steps", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except Kg5dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
