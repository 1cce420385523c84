"""Shared fixtures."""

import math
import os

import pytest

from kg5d import numerics


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process: waitpid(-1, WNOHANG) -> ({pid}, {status})")


@pytest.fixture
def always_fork(monkeypatch):
    """Make ``numerics.beside`` fork for any amount of work (given two CPUs)."""
    monkeypatch.setattr(numerics, "_BESIDE_FLOOR_S", 0.0)


@pytest.fixture
def never_fork(monkeypatch):
    """Make ``numerics.beside`` run all work inline, where tracemalloc sees it."""
    monkeypatch.setattr(numerics, "_BESIDE_FLOOR_S", math.inf)
