"""The benchmark tracer wraps kg5d functions by name: the names must resolve.

``perfbench/tracing.py`` wraps the functions named in ``STAGES`` and in its
hooks.  A name that no longer resolves is skipped there and its per-layer
metric reads 0, so a rename in ``kg5d`` fails here instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Names the tracer asks for that kg5d no longer defines; mending one of them
# (in the tracer) takes it off this list.
UNRESOLVED = {
    "canonical.trapped_degeneracy",
    "numerics.find_root",
    "reduction.current_and_continuity",
}


def _tracing_module(monkeypatch):
    """perfbench/tracing.py loaded from its file, as it stands, leaving no
    byte-code cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(name: str) -> bool:
    """Whether ``layer.function`` is a function defined in ``kg5d.layer``."""
    layer, func = name.split(".", 1)
    value = getattr(importlib.import_module("kg5d." + layer), func, None)
    return inspect.isfunction(value) and value.__module__ == "kg5d." + layer


def test_tracer_names_resolve_to_kg5d_functions(monkeypatch):
    tracing = _tracing_module(monkeypatch)
    names = set(tracing.STAGES) | set(tracing._hooks(tracing.Tracer()))
    assert UNRESOLVED <= names
    assert {name for name in names if not _resolves(name)} == UNRESOLVED
