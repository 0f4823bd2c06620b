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
from .varchen import VarchenParams, _epoch_loop, varchen_run

__all__ = [
    "BaselineParams",
    "MomentumParams",
    "sgd_run",
    "sgd_momentum_run",
    "svrg_run",
]


@dataclass(frozen=True)
class BaselineParams:
    alpha: float = 0.1
    m: int = 256
    n_epochs: int = 20

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if self.m < 1:
            raise ValueError("batch size must be positive")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")


@dataclass(frozen=True)
class MomentumParams(BaselineParams):
    """BaselineParams and the heavy-ball weight of sgd_momentum_run."""

    momentum: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")


def _no_momentum(params: BaselineParams, entry: str) -> None:
    """Refuse a MomentumParams, whose momentum `entry` would drop."""
    if isinstance(params, MomentumParams):
        raise TypeError(f"{entry} takes BaselineParams, not MomentumParams: "
                        "its momentum is read only by sgd_momentum_run")


def sgd_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """x <- x - alpha * batch gradient."""
    _no_momentum(params, "sgd_run")

    def step(x, batch, k):
        return x - params.alpha * problem.batch_grad(batch, x), None

    return _epoch_loop(problem, params.m, params.n_epochs, seed, x0, recorder, step)


def sgd_momentum_run(
    problem, params: MomentumParams, seed: int = 0, x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Heavy ball: v <- momentum*v - alpha*g; x <- x + v."""
    v = np.zeros(problem.n)

    def step(x, batch, k):
        nonlocal v
        v = params.momentum * v - params.alpha * problem.batch_grad(batch, x)
        return x + v, None

    return _epoch_loop(problem, params.m, params.n_epochs, seed, x0, recorder, step)


def svrg_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Variance-reduced gradient steps with identity H: the zero-memory,
    constant-step case of the quasi-Newton driver."""
    _no_momentum(params, "svrg_run")
    vr_params = VarchenParams(p=0, m=params.m, step_c=params.alpha, n_epochs=params.n_epochs)
    return varchen_run(problem, vr_params, seed=seed, x0=x0, recorder=recorder)
