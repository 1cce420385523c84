"""Shared fixtures."""

import os

import pytest


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
def forbid_fork(monkeypatch):
    """Fail a test whose code calls os.fork."""
    def fork():
        pytest.fail("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)
