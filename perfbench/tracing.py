"""Spans and work counters around the calls between kg5d's layers.

The wrappers live here, outside the package: ``install`` replaces module-level
functions of ``kg5d`` with timing wrappers in every module that holds them, so
calls made through ``module.function`` and through names bound by
``from .module import function`` both pass through a span.  Wrapped functions
return exactly what the originals return; the benchmark checks this by
comparing artifact digests of traced and untraced runs.

Spans are kept in memory as (name, start, end, parent) and written out by
``Tracer.write_spans`` when the command ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import time
import tracemalloc

LAYERS = ("cli", "canonical", "numerics", "specfun", "spectrum", "geometry", "reduction")

# Functions called inside their own module that the per-layer metrics need
# as spans, in addition to every function one layer calls in another.
STAGES = (
    "canonical.trapped_degeneracy",
    "canonical.z_continuous",
    "canonical.z_discrete",
    "geometry._laplacian_defect_field",
    "geometry._christoffel_contraction_field",
    "geometry.kg_fourier_residual",
    "reduction.evolve_schrodinger",
    "reduction.evolve_fokker_planck",
    "reduction.current_and_continuity",
    "cli.write_csv",
    "cli.write_json",
    "cli.write_svg",
)


def cross_layer_calls(package_dir: str) -> set:
    """(module, function) pairs that one layer's source calls in another.

    Covers ``from .module import name`` (also inside functions) and
    ``module.name`` after ``from . import module``.
    """
    found = set()
    for layer in LAYERS:
        with open(os.path.join(package_dir, layer + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        aliases = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None and alias.name in LAYERS:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module in LAYERS and node.module != layer:
                    found.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add((aliases[node.value.id], node.attr))
    return found


class Tracer:
    """In-memory span recorder with per-name call, time and self-time totals."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self._stack = []     # [span index, time covered by child spans]
        self.stats = {}      # name -> [calls, total seconds, self seconds]
        self.counters = {}   # name -> number
        self.missing = set()  # requested spans or counters that could not be taken

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def raise_to(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before`` may replace the call's arguments,
        ``after`` sees the arguments and the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                try:
                    args, kwargs = before(args, kwargs)
                except Exception as exc:  # a counter must never fail the command
                    self.missing.add(f"{name} counter: {type(exc).__name__}")
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (name, start, end, parent)
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception as exc:
                    self.missing.add(f"{name} counter: {type(exc).__name__}")
            return result

        return traced

    def summary(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "missing": sorted(self.missing)}

    def write_spans(self, path: str) -> None:
        """One line per span: index, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start,end\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")


def _first_arg_wrapped(wrapper):
    """Argument hook that passes the call's first argument through ``wrapper``."""

    def before(args, kwargs):
        return (wrapper(args[0]),) + args[1:], kwargs

    return before


def _hooks(tracer: Tracer) -> dict:
    """Argument and result hooks that turn calls into work counters."""

    def counted_points(f):
        def integrand(x):
            tracer.add("integrand_points", getattr(x, "size", 1))
            return f(x)
        return integrand

    def counted_calls(f):
        def residual(x):
            tracer.add("root_fevals", 1)
            return f(x)
        return residual

    def combo(args, kwargs, result):
        points = int(getattr(result, "size", 1))
        tracer.add("combo_points", points)
        tracer.add("recurrence_steps", max(int(args[0]) - 2, 0) * points)

    def fd_bytes(args, kwargs, result):
        tracer.add("fd_bytes", args[0].nbytes + result.nbytes)

    def snapshot_bytes(args, kwargs, result):
        tracer.add("snapshot_bytes", sum(s.values.nbytes for s in result.snapshots))

    def tail_terms(args, kwargs, result):
        _, report, per_level = result
        tracer.add("tail_terms", report.terms_used - len(per_level))

    def emitted(args, kwargs, result):
        tracer.add("emit_bytes", os.path.getsize(result))

    return {
        "numerics.integrate": (_first_arg_wrapped(counted_points), None),
        "numerics.find_root": (_first_arg_wrapped(counted_calls), None),
        "numerics.fd_derivative": (None, fd_bytes),
        "specfun._combo_arrays": (None, combo),
        "reduction.evolve_schrodinger": (None, snapshot_bytes),
        "reduction.evolve_fokker_planck": (None, snapshot_bytes),
        "canonical.z_discrete": (None, tail_terms),
        "cli.write_csv": (None, emitted),
        "cli.write_json": (None, emitted),
        "cli.write_svg": (None, emitted),
    }


def _with_peak_memory(tracer: Tracer, fn):
    """Record the tracemalloc peak (MB) of each call, tracing only inside it."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.raise_to("laplacian_defect_peak_mb", peak / 2**20)

    return measured


def install(package_dir: str) -> Tracer:
    """Wrap the cross-layer calls and the metric stages of the loaded kg5d."""
    tracer = Tracer()
    modules = {layer: importlib.import_module("kg5d." + layer) for layer in LAYERS}
    hooks = _hooks(tracer)
    required = set(STAGES) | set(hooks)
    targets = {f"{layer}.{func}" for layer, func in cross_layer_calls(package_dir)}
    for name in sorted(targets | required):
        layer, func = name.split(".", 1)
        original = getattr(modules[layer], func, None)
        if not (inspect.isfunction(original) and original.__module__ == "kg5d." + layer):
            if name in required:
                tracer.missing.add(name)
            continue
        before, after = hooks.get(name, (None, None))
        inner = original
        if name == "geometry._laplacian_defect_field":
            inner = _with_peak_memory(tracer, original)
        wrapped = tracer.wrap(name, inner, before, after)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return tracer
