"""Artifact writers: byte for byte what the per-row writers they replaced wrote.

Oracles: test-local copies of those writers, a per-cell ``fmt`` CSV loop,
``json.dump(doc, fh, indent=2, allow_nan=True)`` and a per-point SVG path,
fed the same tables as rows.
"""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kg5d import cli
from kg5d.cli import RunConfig, Table, fmt, main, write_csv, write_json, write_svg
from kg5d.spectrum import stat_energy, stat_wavelengths


def _old_write_csv(cfg, name, columns, rows):
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in cfg.header_lines():
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [fmt(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")
    return path


def _old_write_json(cfg, name, payload):
    path = os.path.join(cfg.output_dir, name)
    doc = cfg.json_envelope()
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")
    return path


def _svg_path(points):
    return " ".join(f"{x:.6f},{y:.6f}" for x, y in points)


def _old_write_svg(cfg, name, curves, xlabel, ylabel):
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
    parts.append(f'<path d="M {sx(x_lo):.2f} {sy(y_lo):.2f} H {sx(x_hi):.2f} '
                 f'M {sx(x_lo):.2f} {sy(y_lo):.2f} V {sy(y_hi):.2f}" '
                 'stroke="black" fill="none" stroke-width="1"/>')
    parts.append(f'<text x="{width // 2}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{height // 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 14 {height // 2})">{ylabel}</text>')
    colors = ["#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#2c3e50"]
    for i, (label, x, y) in enumerate(curves):
        color = colors[i % len(colors)]
        pts = _svg_path(zip((sx(v) for v in x), (sy(v) for v in y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _cfg(tmp_path):
    return RunConfig(command="writers", settings={
        "output_dir": str(tmp_path), "formats": "csv,json,svg", "tol": 1e-10,
        "label": "a,b", "n": 3})


def _rows(table):
    """The table as the old writers took it: one tuple of Python cells per row."""
    return list(zip(*(c.tolist() for c in table.columns)))


def _assert_same_table(tmp_path, table):
    cfg = _cfg(tmp_path)
    rows = _rows(table)
    assert (_read(write_csv(cfg, "new.csv", table))
            == _read(_old_write_csv(cfg, "old.csv", table.names, rows)))
    objects = [dict(zip(table.names, r)) for r in rows]
    assert (_read(write_json(cfg, "new.json", {"rows": table, "after": 1}))
            == _read(_old_write_json(cfg, "old.json", {"rows": objects, "after": 1})))


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5,
               0.1, 1.0 / 3.0, 2.0**53, 1.7976931348623157e308]


def test_edge_cells_match_old_writers(tmp_path):
    k = len(EDGE_FLOATS)
    table = Table(("n", "big", "x", "neg", "label"), (
        np.arange(k) + 2**62,
        np.array([10**30 + i for i in range(k)], dtype=object),
        np.array(EDGE_FLOATS),
        -np.array(EDGE_FLOATS[::-1]),
        np.array([f"check_{i}" for i in range(k)]),
    ))
    _assert_same_table(tmp_path, table)


def test_table_longer_than_one_chunk_matches_old_writers(tmp_path):
    rows = 2 * cli._CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    x[[0, cli._CHUNK_ROWS, rows - 1]] = [math.nan, math.inf, -math.inf]
    _assert_same_table(tmp_path, Table(("i", "x"), (np.arange(rows), x)))


@pytest.mark.parametrize("rows", [0, 1, cli._CHUNK_ROWS, 2 * cli._CHUNK_ROWS + 3])
def test_derived_table_matches_stored_columns(tmp_path, rows):
    # a table given as a function of a row range writes the bytes of its
    # stored columns, and is asked only for ranges of at most one chunk
    rng = np.random.default_rng(rows)
    stored = Table(("n", "x", "label"), (np.arange(rows) + 2**40, rng.standard_normal(rows),
                                         np.array([f"r{i}" for i in range(rows)], dtype=str)))
    asked = []

    def columns(start, stop):
        asked.append((start, stop))
        return [c[start:stop] for c in stored.columns]

    derived = Table(stored.names, columns, rows)
    cfg = _cfg(tmp_path)
    assert len(derived) == len(stored) == rows
    assert _read(write_csv(cfg, "derived.csv", derived)) == _read(write_csv(cfg, "s.csv", stored))
    assert (_read(write_json(cfg, "derived.json", {"rows": derived, "after": 1}))
            == _read(write_json(cfg, "s.json", {"rows": stored, "after": 1})))
    assert all(0 < stop - start <= cli._CHUNK_ROWS for start, stop in asked)
    assert len(asked) == 2 * -(-rows // cli._CHUNK_ROWS)


@pytest.mark.parametrize("table", [
    Table(("n", "x"), (np.array([], dtype=np.int64), np.array([]))),
    Table(("check", "value"), (np.array([], dtype=str), np.array([]))),
], ids=["arrays", "labels"])
def test_empty_table_matches_old_writers(tmp_path, table):
    _assert_same_table(tmp_path, table)


def test_nested_payload_matches_old_writer(tmp_path):
    # verify-geometry's report holds inf orders in a nested dict; figure1's
    # curves hold float lists; both sit beside tables and scalars.
    cfg = _cfg(tmp_path)
    r = np.array([0.0, 0.5, -0.0, 5e-324, math.inf])
    values = np.array([math.nan, 1e16, 2.5, -math.inf, 0.1])
    report = {"contraction_orders": {"metric": math.inf, "gamma": 2.0000000001},
              "steps": [0.5, 0.25], "passed": True, "name": "xé\"", "none": None}
    table = Table(("n", "g"), (np.array([1, 2]), np.array([0.25, math.nan])))
    new = write_json(cfg, "new.json", {
        "report": report,
        "curves": [{"n": 1, "r": r, "value": values}, {"n": 2, "r": r[:0], "value": values[:1]}],
        "levels": table, "empty": Table(("a",), (np.array([]),)), "total": -0.0})
    old = _old_write_json(cfg, "old.json", {
        "report": report,
        "curves": [{"n": 1, "r": r.tolist(), "value": values.tolist()},
                   {"n": 2, "r": [], "value": values[:1].tolist()}],
        "levels": [{"n": 1, "g": 0.25}, {"n": 2, "g": math.nan}], "empty": [], "total": -0.0})
    assert _read(new) == _read(old)


def test_json_refuses_what_json_dump_refuses(tmp_path):
    with pytest.raises(TypeError, match="int64"):
        write_json(_cfg(tmp_path), "bad.json", {"n": np.int64(3)})


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                                st.floats(allow_nan=True, allow_infinity=True),
                                st.floats(allow_nan=True, allow_infinity=True)),
                      max_size=40))
def test_random_columns_match_old_writers(tmp_path_factory, cells):
    ints, xs, ys = (list(c) for c in zip(*cells)) if cells else ([], [], [])
    table = Table(("i", "x", "y"), (np.array(ints, dtype=np.int64), np.array(xs, dtype=float),
                                    np.array(ys, dtype=float)))
    _assert_same_table(tmp_path_factory.mktemp("writers"), table)


@settings(max_examples=30, deadline=None)
@given(curves=st.lists(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                                min_size=1, max_size=30), min_size=1, max_size=7))
def test_random_curves_match_old_svg(tmp_path_factory, curves):
    out = tmp_path_factory.mktemp("svg")
    cfg = _cfg(out)
    arrays = [(f"c{i}", np.array([p[0] for p in c]), np.array([p[1] for p in c]))
              for i, c in enumerate(curves)]
    assert (_read(write_svg(cfg, "new.svg", arrays, "r", "D"))
            == _read(_old_write_svg(cfg, "old.svg", arrays, "r", "D")))


def test_svg_edge_values_match_old_writer(tmp_path):
    cfg = _cfg(tmp_path)
    curves = [("flat", np.zeros(3), np.array([-0.0, 0.0, 5e-324])),
              ("wide", np.array([1e-300, 1.0, 1e16]), np.array([1e16, -1.0, 1e-5]))]
    for chosen in (curves[:1], curves):
        assert (_read(write_svg(cfg, "new.svg", chosen, "x", "y"))
                == _read(_old_write_svg(cfg, "old.svg", chosen, "x", "y")))


def test_nan_row_spectrum_matches_old_writers(tmp_path):
    # coupling 2 >= l + 1/2 for l = 0 and 1: six NaN rows among twelve
    argv = ["spectrum", "--n-max", "3", "--coupling", "2", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    cfg = cli.resolve_config("spectrum", cli.build_parser().parse_args(argv))
    za = cfg.settings["z"] * cfg.settings["alpha"]
    levels = [(n, l) for n in range(1, 4) for l in range(n + 1)]
    wavelengths, refused = stat_wavelengths(*zip(*levels), 2.0)
    assert len(refused) == 6
    rows = []
    for (n, l), wl in zip(levels, wavelengths.tolist()):
        e = 1.0 / math.sqrt(1.0 + (za / (n - l - 0.5 + math.sqrt((l + 0.5) ** 2 - za * za))) ** 2)
        rows.append((n, l, e, 1.0 / e, wl, stat_energy(n, 2.0)))
    names = ["n", "l", "E_over_mc2", "lambda_prime_over_lambda",
             "Lambda_prime_over_Lambda", "e_n_over_Mc2"]
    assert (_read(tmp_path / "spectrum.csv")
            == _read(_old_write_csv(cfg, "old.csv", names, rows)))
    assert (_read(tmp_path / "spectrum.json")
            == _read(_old_write_json(cfg, "old.json",
                                     {"levels": [dict(zip(names, r)) for r in rows]})))


def test_spectrum_written_in_less_memory_than_its_json(tmp_path, monkeypatch):
    # From the solved wavelengths to the last byte of both artifacts, the
    # tracemalloc peak stays below 1 MiB, a tenth of spectrum.json (10.1 MiB
    # at n_max 300): no per-row objects and no whole document text are held,
    # and a chunk is 512 rows (measured 0.49 MiB; 1.85 MiB with 2048-row
    # chunks).
    solve = cli.stat_wavelengths

    def solve_then_trace(*args):
        result = solve(*args)
        tracemalloc.start()
        return result

    monkeypatch.setattr(cli, "stat_wavelengths", solve_then_trace)
    try:
        assert main(["spectrum", "--n-max", "300", "--output-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(tmp_path / "spectrum.json")
    assert size > 10 * 2**20
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_spectrum_command_peak_memory(tmp_path):
    # The whole command at n_max 300 (45,450 levels), the statistical root
    # solve included, stays within 3.5 MiB of tracemalloc peak: the solve holds
    # one block of levels at a time (a whole-table solve peaked at 11.6 MiB),
    # and the table keeps only its wavelength column, deriving the others
    # for each chunk it writes (measured at 2.4 MiB; six stored columns
    # took 4.75 MiB).
    tracemalloc.start()
    try:
        assert main(["spectrum", "--n-max", "300", "--output-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.1f} MiB"
