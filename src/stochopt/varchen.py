"""VARCHEN: variance-reduced stochastic damped L-BFGS with bound control.

Each epoch anchors a full gradient at the current iterate; inner steps use
the variance-reduced gradient gtilde = g(x, xi) - g(anchor, xi) + full(anchor)
on without-replacement chunks of a fresh epoch shuffle.  Before every step
the eigenvalue bounds of the L-BFGS operator are estimated and enforced
(flushing all but the newest pair if they escape [lam_min, lam_max]), then
d = -H gtilde and x moves by a scheduled step length.  Curvature pairs are
formed from the same batch and anchor at the old and new iterate, so the
variance-reduction correction cancels: y = g(x_new, xi) - g(x, xi) is
computed directly as the raw gradient difference.  A step therefore makes
three batch passes, g(x), g(anchor) and g(x_new), and two when the memory is
empty (p = 0, the SVRG case).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .lbfgs_core import LBFGSMemory, enforce_bounds, push_pair, two_loop_apply
from .record import StepRecord
from .sampling import SamplerState

__all__ = [
    "StepSchedule",
    "VarchenParams",
    "AnchorState",
    "VarchenResult",
    "step_size",
    "harmonic_schedule_from_L",
    "power_schedule_from_L",
    "svrg_gradient",
    "varchen_run",
]


@dataclass(frozen=True)
class StepSchedule:
    kind: str  # "constant" | "harmonic" | "power"
    c: float = 0.1
    beta: float = 0.75  # power schedule only

    def __post_init__(self):
        if self.kind not in ("constant", "harmonic", "power"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.c > 0:
            raise ValueError("schedule coefficient must be positive")
        if self.kind == "power" and not 0.5 < self.beta < 1.0:
            raise ValueError("power schedule needs beta in (1/2, 1)")


def step_size(schedule: StepSchedule, k: int) -> float:
    """Step length at iteration k >= 0 for the given schedule."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if schedule.kind == "constant":
        return schedule.c
    if schedule.kind == "harmonic":
        return schedule.c / (k + 1)
    # k^(-beta) is undefined at k = 0; start the decay at 1
    return schedule.c * max(k, 1) ** (-schedule.beta)


def harmonic_schedule_from_L(L: float, lam_min: float, lam_max: float) -> StepSchedule:
    """Largest harmonic coefficient covered by the sublinear-rate guarantee:
    c = lam_min / (L * lam_max)."""
    if min(L, lam_min, lam_max) <= 0 or not math.isfinite(lam_max):
        raise ValueError("need finite positive L, lam_min, lam_max")
    return StepSchedule(kind="harmonic", c=lam_min / (L * lam_max))


def power_schedule_from_L(
    L: float, lam_min: float, lam_max: float, beta: float = 0.75
) -> StepSchedule:
    """Power-decay coefficient from the complexity guarantee:
    c = lam_min / (L * lam_max^2)."""
    if min(L, lam_min, lam_max) <= 0 or not math.isfinite(lam_max):
        raise ValueError("need finite positive L, lam_min, lam_max")
    return StepSchedule(kind="power", c=lam_min / (L * lam_max * lam_max), beta=beta)


@dataclass(frozen=True)
class VarchenParams:
    p: int = 10
    eta: float = 0.25
    lam_min: float = 1e-5
    lam_max: float = 1e5
    gamma_under: float = 0.1
    gamma_over: float = 1e5
    m: int = 256
    schedule: StepSchedule = StepSchedule(kind="constant", c=0.1)
    n_epochs: int = 20

    def __post_init__(self):
        # lam_min = 0 / lam_max = inf disable the bound control; equality at
        # gamma_over = lam_max is allowed (the standard constants sit there)
        if not 0 <= self.lam_min < self.gamma_under:
            raise ValueError("need 0 <= lam_min < gamma_under")
        if not 0 < self.gamma_under < self.gamma_over <= self.lam_max:
            raise ValueError("need gamma_under < gamma_over <= lam_max")
        if self.p < 0:
            raise ValueError("memory p must be >= 0")
        if not 0 < self.eta < 1:
            raise ValueError("need eta in (0, 1)")
        if self.m < 1:
            raise ValueError("batch size must be positive")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")


@dataclass
class AnchorState:
    x_anchor: np.ndarray
    full_grad_anchor: np.ndarray
    M: int = 0  # samples consumed this epoch


@dataclass(frozen=True)
class VarchenResult:
    """Outcome of VARCHEN and of the baselines (SGD, momentum, SVRG)."""

    x: np.ndarray
    iterations: int
    aborted: bool
    abort_reason: Optional[str]
    final_loss: float
    epoch_losses: List[float] = field(default_factory=list)
    trace: List[StepRecord] = field(default_factory=list)


def _svrg_terms(problem, batch, x: np.ndarray, anchor: AnchorState):
    """(g(x, xi), g(x, xi) - g(x_anchor, xi) + full_grad(x_anchor))."""
    x = np.asarray(x, dtype=float)
    if x.shape != anchor.x_anchor.shape:
        raise ValueError("iterate/anchor dimension mismatch")
    g = problem.batch_grad(batch, x)
    g_anchor = problem.batch_grad(batch, anchor.x_anchor)
    return g, g - g_anchor + anchor.full_grad_anchor


def svrg_gradient(problem, batch, x: np.ndarray, anchor: AnchorState) -> np.ndarray:
    """g(x, xi) - g(x_anchor, xi) + full_grad(x_anchor) on the given batch."""
    return _svrg_terms(problem, batch, x, anchor)[1]


def varchen_run(
    problem,
    params: VarchenParams,
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
) -> VarchenResult:
    """Run n_epochs epochs of anchored, bound-controlled quasi-Newton steps."""
    N = problem.N
    m_eff = min(params.m, N)
    sampler = SamplerState(N=N, m=m_eff, m_max=m_eff, seed=seed)
    memory = LBFGSMemory(
        p=params.p,
        gamma_under=params.gamma_under,
        gamma_over=params.gamma_over,
        eta=params.eta,
        lam_min=params.lam_min,
        lam_max=params.lam_max,
    )
    x = (np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)).copy()

    trace: List[StepRecord] = []
    epoch_losses: List[float] = []
    k = 0
    aborted = False
    abort_reason = None
    t0 = time.perf_counter()

    for epoch in range(params.n_epochs):
        f_anchor, g_anchor = problem.loss_and_grad(np.arange(N), x)
        anchor = AnchorState(x_anchor=x.copy(), full_grad_anchor=g_anchor, M=0)
        epoch_losses.append(f_anchor)
        sampler.start_epoch()
        while anchor.M < N:
            m_k = min(m_eff, N - anchor.M)
            batch = sampler.next_chunk(m_k)
            g_x, g_tilde = _svrg_terms(problem, batch, x, anchor)
            lam, Lam, flushed = enforce_bounds(memory)
            d = two_loop_apply(memory, g_tilde)
            alpha = step_size(params.schedule, k)
            x_new = x + alpha * d
            if not np.all(np.isfinite(x_new)):
                aborted = True
                abort_reason = (
                    f"non-finite iterate at epoch {epoch}, iteration {k} "
                    f"(alpha={alpha:.3e}, |d| max={np.max(np.abs(d)):.3e})"
                )
                break
            if params.p > 0:
                push_pair(memory, x_new - x, problem.batch_grad(batch, x_new) - g_x)
            x = x_new
            k += 1
            trace.append(
                StepRecord(
                    k=k,
                    epoch=epoch,
                    m_used=int(batch.size),
                    samples=int(batch.size) + (N if anchor.M == 0 else 0),
                    x=x.copy(),
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                    lam=lam,
                    Lam=Lam,
                    flushed=flushed,
                    gamma_tilde=memory.gamma_tilde,
                )
            )
            anchor.M += m_k
        if aborted:
            break

    final_loss = math.inf if aborted else float(problem.full_loss(x))
    return VarchenResult(
        x=x,
        iterations=k,
        aborted=aborted,
        abort_reason=abort_reason,
        final_loss=final_loss,
        epoch_losses=epoch_losses,
        trace=trace,
    )
