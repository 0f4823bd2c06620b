import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
