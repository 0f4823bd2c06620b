"""Reference optimizers: SGD, SGD with momentum, and SVRG.

All three walk without-replacement chunks of a per-epoch shuffle, so runs
with the same seed visit the same batches.  SVRG is the identity-H special
case of the variance-reduced quasi-Newton driver (zero-capacity memory and a
constant step), which keeps the two implementations identical by
construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .sampling import SamplerState
from .varchen import StepSchedule, VarchenParams, VarchenResult, varchen_run

__all__ = [
    "BaselineParams",
    "BaselineIterRecord",
    "BaselineResult",
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
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.m < 1:
            raise ValueError("batch size must be positive")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")


@dataclass(frozen=True)
class BaselineIterRecord:
    k: int
    epoch: int
    m_used: int
    gnorm: float
    x: np.ndarray
    wall_ms: float = 0.0


@dataclass(frozen=True)
class BaselineResult:
    x: np.ndarray
    iterations: int
    aborted: bool
    final_loss: float
    epoch_losses: List[float] = field(default_factory=list)
    trace: List[BaselineIterRecord] = field(default_factory=list)


def _epoch_loop(problem, params: BaselineParams, seed: int, x0, update):
    """Shared epoch/chunk scaffolding; `update(x, g) -> x_new` is the rule."""
    N = problem.N
    m_eff = min(params.m, N)
    sampler = SamplerState(N=N, m=m_eff, m_max=m_eff, seed=seed)
    x = (np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)).copy()

    trace: List[BaselineIterRecord] = []
    epoch_losses: List[float] = []
    k = 0
    aborted = False
    t0 = time.perf_counter()
    for epoch in range(params.n_epochs):
        epoch_losses.append(problem.full_loss(x))
        sampler.start_epoch()
        consumed = 0
        while consumed < N:
            m_k = min(m_eff, N - consumed)
            batch = sampler.next_chunk(m_k)
            g = problem.batch_grad(batch, x)
            x = update(x, g)
            if not np.all(np.isfinite(x)):
                aborted = True
                break
            consumed += m_k
            k += 1
            trace.append(
                BaselineIterRecord(
                    k=k,
                    epoch=epoch,
                    m_used=int(batch.size),
                    gnorm=float(np.linalg.norm(g)),
                    x=x.copy(),
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
        if aborted:
            break

    final_loss = math.inf if aborted else float(problem.full_loss(x))
    return BaselineResult(
        x=x,
        iterations=k,
        aborted=aborted,
        final_loss=final_loss,
        epoch_losses=epoch_losses,
        trace=trace,
    )


def sgd_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None
) -> BaselineResult:
    """x <- x - alpha * batch gradient."""

    def update(x, g):
        return x - params.alpha * g

    return _epoch_loop(problem, params, seed, x0, update)


def sgd_momentum_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None
) -> BaselineResult:
    """Heavy ball: v <- momentum*v - alpha*g; x <- x + v."""
    v = np.zeros(problem.n)

    def update(x, g):
        nonlocal v
        v = params.momentum * v - params.alpha * g
        return x + v

    return _epoch_loop(problem, params, seed, x0, update)


def svrg_run(
    problem, params: BaselineParams, seed: int = 0, x0: Optional[np.ndarray] = None
) -> VarchenResult:
    """Variance-reduced gradient steps with identity H: the zero-memory,
    constant-step case of the quasi-Newton driver."""
    vr_params = VarchenParams(
        p=0,
        m=params.m,
        schedule=StepSchedule(kind="constant", c=params.alpha),
        n_epochs=params.n_epochs,
    )
    return varchen_run(problem, vr_params, seed=seed, x0=x0)
