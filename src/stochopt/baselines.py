"""Reference optimizers: SGD, SGD with momentum, and SVRG.

All three run VARCHEN's epoch loop (varchen._epoch_loop), so runs with the
same seed visit the same without-replacement chunks, record their steps in
the recorder a caller passes as VARCHEN does, and all three abort as VARCHEN
does: a non-finite iterate ends the run with aborted=True, an
abort_reason naming the epoch and iteration, and x the last finite iterate.
SGD and momentum supply their update rule on the chunk's batch gradient.
SVRG is the identity-H special case of the variance-reduced quasi-Newton
driver (zero-capacity memory and a constant step), which keeps the two
implementations identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .record import Recorder, RunResult
from .varchen import StepSchedule, VarchenParams, _epoch_loop, varchen_run

__all__ = [
    "BaselineParams",
    "sgd_run",
    "sgd_momentum_run",
    "svrg_run",
]


@dataclass(frozen=True)
class BaselineParams:
    alpha: float = 0.1
    momentum: float = 0.0
    m: int = 256
    n_epochs: int = 20

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.m < 1:
            raise ValueError("batch size must be positive")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")


def sgd_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """x <- x - alpha * batch gradient."""

    def step(x, batch, k, first):
        return x - params.alpha * problem.batch_grad(batch, x), lambda: {"samples": batch.size}

    return _epoch_loop(problem, params.m, params.n_epochs, seed, x0, recorder, step)


def sgd_momentum_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Heavy ball: v <- momentum*v - alpha*g; x <- x + v."""
    v = np.zeros(problem.n)

    def step(x, batch, k, first):
        nonlocal v
        v = params.momentum * v - params.alpha * problem.batch_grad(batch, x)
        return x + v, lambda: {"samples": batch.size}

    return _epoch_loop(problem, params.m, params.n_epochs, seed, x0, recorder, step)


def svrg_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Variance-reduced gradient steps with identity H: the zero-memory,
    constant-step case of the quasi-Newton driver."""
    vr_params = VarchenParams(
        p=0,
        m=params.m,
        schedule=StepSchedule(kind="constant", c=params.alpha),
        n_epochs=params.n_epochs,
    )
    return varchen_run(problem, vr_params, seed=seed, x0=x0, recorder=recorder)
