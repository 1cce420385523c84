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

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import canonical
from .errors import (
    BracketingError,
    ConfigurationError,
    Kg5dError,
    NonConvergenceError,
    VerificationFailure,
)
from .numerics import Tolerance, integrate
from .spectrum import LevelIndex, ScaleSet, kg_energy, stat_energy, stat_wavelengths

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
_TYPES.update({"rel_tol": float, "abs_tol": float, "eta0": float, "alpha": float,
               "coupling": float, "r_over_rho": float, "r_max": float})


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
        coupling = s["coupling"]
        if s["z"] * s["alpha"] <= 0 or coupling <= 0:
            return ScaleSet.build(Z=s["z"], alpha=s["alpha"], eta0=s["eta0"],
                                  R_over_Lambda=s["r_over_rho"])
        return ScaleSet.build(Z=s["z"], alpha=s["alpha"],
                              lambda_star_over_Lambda=coupling, eta0=s["eta0"],
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
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not os.access(cfg.output_dir, os.W_OK):
        raise ConfigurationError(f"output dir not writable: {cfg.output_dir}")
    return cfg


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def write_csv(cfg: RunConfig, name: str, columns: list, rows) -> str:
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in cfg.header_lines():
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [fmt(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")
    return path


def write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    path = os.path.join(cfg.output_dir, name)
    doc = cfg.json_envelope()
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")
    return path


def _svg_path(points) -> str:
    return " ".join(f"{x:.6f},{y:.6f}" for x, y in points)


_SVG_COLORS = ["#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#2c3e50"]


def write_svg(cfg: RunConfig, name: str, curves, xlabel: str, ylabel: str) -> str:
    """Self-contained polyline plot; curves is a list of (label, x, y)."""
    width, height, margin = 640, 440, 56
    xs = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    ys = np.concatenate([np.asarray(c[2], dtype=float) for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(min(ys.min(), 0.0)), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

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
    for i, (label, x, y) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = _svg_path(zip((sx(v) for v in x), (sy(v) for v in y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


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
    scales = cfg.scales()
    levels = [LevelIndex(n=n, l=l)
              for n in range(1, cfg.settings["n_max"] + 1) for l in range(0, n + 1)]
    energies = [kg_energy(idx, scales) for idx in levels]
    wavelengths, refused = stat_wavelengths([i.n for i in levels], [i.l for i in levels],
                                            scales)
    stat_ratios = (wavelengths / scales.Lambda).tolist()
    rows = [(idx.n, idx.l, e / scales.mc2, scales.mc2 / e,  # lambda'/lambda = mc^2/E
             stat_ratio, stat_energy(idx.n, scales) / scales.Mc2)
            for idx, e, stat_ratio in zip(levels, energies, stat_ratios)]
    if refused:
        print(_refusal_line(refused, len(rows)), file=sys.stderr)
    columns = ["n", "l", "E_over_mc2", "lambda_prime_over_lambda",
               "Lambda_prime_over_Lambda", "e_n_over_Mc2"]
    written = []
    if "csv" in cfg.formats:
        written.append(write_csv(cfg, "spectrum.csv", columns, rows))
    if "json" in cfg.formats:
        written.append(write_json(cfg, "spectrum.json", {
            "levels": [dict(zip(columns, r)) for r in rows]}))
    for p in written:
        print(p)
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
    scales = cfg.scales()
    result = canonical.partition(scales, cfg.tolerance())
    payload = {
        "z_c": result.z_c,
        "z_d": result.z_d,
        "z_total": result.z_total,
        "terms_c": _series_dict(result.terms_c),
        "terms_d": _series_dict(result.terms_d),
        "per_level_d": [
            {"n": n, "weight": w, "trapped_degeneracy": g}
            for n, w, g in result.per_level_d
        ],
    }
    written = []
    if "json" in cfg.formats:
        written.append(write_json(cfg, "partition.json", payload))
    if "csv" in cfg.formats:
        written.append(write_csv(cfg, "partition.csv",
                                 ["n", "weight", "trapped_degeneracy"],
                                 result.per_level_d))
    for p in written:
        print(p)
    if not (result.terms_c.converged and result.terms_d.converged):
        raise NonConvergenceError("partition series did not converge",
                                  estimate=result.z_total)
    return 0


def cmd_universal_d(cfg: RunConfig) -> int:
    r = np.linspace(0.0, 4.0, cfg.settings["r_points"])
    values = canonical.universal_d(r)
    norm = integrate(canonical.universal_d, 0.0, 4.0,
                     Tolerance(rel=0.0, abs=1e-12, max_iter=cfg.settings["max_iter"]))
    rows = [(float(ri), float(vi)) for ri, vi in zip(r, values)]
    written = []
    if "csv" in cfg.formats:
        written.append(write_csv(cfg, "universal_d.csv", ["r", "value"], rows))
    if "json" in cfg.formats:
        written.append(write_json(cfg, "universal_d.json", {
            "value_at_2": canonical.universal_d(2.0),
            "norm_integral": norm,
        }))
    if "svg" in cfg.formats:
        written.append(write_svg(cfg, "universal_d.svg",
                                 [("limit", r, values)], "r", "D(r)"))
    for p in written:
        print(p)
    return 0


def cmd_figure1(cfg: RunConfig) -> int:
    try:
        n_list = [int(tok) for tok in str(cfg.settings["n_list"]).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad n_list {cfg.settings['n_list']!r}") from exc
    if not n_list:
        raise ConfigurationError("n_list is empty")
    r = np.linspace(0.0, cfg.settings["r_max"], cfg.settings["r_points"])
    curves = canonical.figure1_curves(n_list, r)
    rows = []
    for curve in curves:
        for ri, vi in curve.rows():
            rows.append((curve.n, float(ri), float(vi)))
    written = []
    if "csv" in cfg.formats:
        written.append(write_csv(cfg, "figure1.csv", ["n", "r", "value"], rows))
    if "json" in cfg.formats:
        written.append(write_json(cfg, "figure1.json", {
            "curves": [{"n": c.n, "r": list(map(float, c.r)),
                        "value": list(map(float, c.values))} for c in curves]}))
    if "svg" in cfg.formats:
        written.append(write_svg(
            cfg, "figure1.svg",
            [(f"n={c.n}", c.r, c.values) for c in curves],
            "r (units of rho/2, stretched by n^2)", "D_n"))
    for p in written:
        print(p)
    return 0


def cmd_verify_geometry(cfg: RunConfig) -> int:
    from . import geometry

    start = cfg.settings["grid"]
    count = cfg.settings["refine"]
    if start < 7 or count < 2:
        raise ConfigurationError("need grid >= 7 and refine >= 2")
    sizes = [start + 4 * i for i in range(count)]
    report = geometry.verify_geometry(sizes=sizes)
    if "json" in cfg.formats:
        print(write_json(cfg, "verify_geometry.json", {"report": report}))
    if "csv" in cfg.formats:
        rows = [(f"laplacian_h{fmt(h)}", r)
                for h, r in zip(report["laplacian_steps"], report["laplacian_residuals"])]
        rows += [("laplacian_order", report["laplacian_order"]),
                 ("flat_residual", report["flat_residual"]),
                 ("metric_inverse_defect", report["metric_inverse_defect"])]
        print(write_csv(cfg, "verify_geometry.csv", ["check", "value"], rows))
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
    step_table = report.pop("step_table")
    if "json" in cfg.formats:
        print(write_json(cfg, "verify_reduction.json", {"report": report}))
    if "csv" in cfg.formats:
        print(write_csv(cfg, "verify_reduction.csv",
                        ["step", "norm", "residual"], step_table))
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


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ConfigurationError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command](config)


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

    sp = subs.add_parser("spectrum", help="bound-state table")
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


if __name__ == "__main__":
    sys.exit(main())
