import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stochopt.problems as problems

# make tests/oracles.py importable from any invocation directory
sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def traced_peak():
    """peak(fn, *args, **kwargs) -> (fn's result, the peak bytes of Python
    and numpy memory allocated while fn ran, tracemalloc's count)."""

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def gathers(monkeypatch):
    """A spy on LinearModelProblem._gather: in order, True for each call that
    read the dataset's rows in place and False for each that gathered a
    copy of the batch's rows; a call served by the batch memo adds nothing."""
    calls = []
    gather = problems.LinearModelProblem._gather

    def spy(self, batch):
        memo = self._batch_memo
        out = gather(self, batch)
        if out[1] is self.dataset.features:
            calls.append(True)
        elif self._batch_memo is not memo:
            calls.append(False)
        return out

    monkeypatch.setattr(problems.LinearModelProblem, "_gather", spy)
    return calls
