"""Shared fixtures for the serving-layer tests."""

from __future__ import annotations

import threading

import pytest


class RunHold:
    """Holds every ``run_many`` wave of one hybrid until :meth:`release`.

    A held wave keeps its shard busy, so later runs on that shard wait
    in its window — the state a self-clocked shard parks runs in.
    """

    def __init__(self, hybrid, timeout_s: float = 30.0) -> None:
        self.entered = threading.Event()
        self._released = threading.Event()
        self._timeout_s = timeout_s
        self._run_many = hybrid.run_many
        hybrid.run_many = self._held

    def _held(self, *args, **kwargs):
        self.entered.set()
        if not self._released.wait(self._timeout_s):
            raise TimeoutError("held wave was never released")
        return self._run_many(*args, **kwargs)

    def release(self) -> None:
        self._released.set()


@pytest.fixture
def hold_runs():
    """Factory: ``hold_runs(hybrid)`` starts holding its waves."""
    holds = []

    def start(hybrid) -> RunHold:
        hold = RunHold(hybrid)
        holds.append(hold)
        return hold

    yield start
    for hold in holds:
        hold.release()
