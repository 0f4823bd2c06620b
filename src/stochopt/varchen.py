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
empty (p = 0, the SVRG case); each epoch adds one full_grad pass at the anchor.
The problem keeps the batch it gathered last, so the three passes over one
batch gather its rows once (problems.LinearModelProblem._gather).  The anchor
sits at the previous epoch's last iterate, and its ||grad f|| goes on that
epoch's last record, where the metrics report reads it instead of making a
gradient pass of its own.

The epoch loop here (_epoch_loop) also runs SGD and momentum (baselines.py):
it owns the sampler, the chunk walk, the StepRecords with their samples
charge, and the result, and the algorithm supplies only its step.  Every
algorithm it runs aborts one way: a non-finite iterate ends the run with
aborted=True, abort_reason "non-finite iterate at epoch e, iteration k" and
x the last finite iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lbfgs_core import LBFGSMemory, enforce_bounds, push_pair, two_loop_apply
from .record import Recorder, RunResult, StepRecord, run_start
from .sampling import SamplerState

__all__ = [
    "VarchenParams",
    "AnchorState",
    "harmonic_schedule_from_L",
    "power_schedule_from_L",
    "svrg_gradient",
    "varchen_run",
]


def harmonic_schedule_from_L(L: float, lam_min: float, lam_max: float) -> float:
    """Largest step_c of the harmonic schedule covered by the
    sublinear-rate guarantee: lam_min / (L * lam_max)."""
    if min(L, lam_min, lam_max) <= 0 or not math.isfinite(lam_max):
        raise ValueError("need finite positive L, lam_min, lam_max")
    return lam_min / (L * lam_max)


def power_schedule_from_L(L: float, lam_min: float, lam_max: float) -> float:
    """step_c of the power schedule from the complexity guarantee:
    lam_min / (L * lam_max^2), whatever its step_beta."""
    if min(L, lam_min, lam_max) <= 0 or not math.isfinite(lam_max):
        raise ValueError("need finite positive L, lam_min, lam_max")
    return lam_min / (L * lam_max * lam_max)


@dataclass(frozen=True)
class VarchenParams:
    p: int = 10
    eta: float = 0.25
    lam_min: float = 1e-5
    lam_max: float = 1e5
    gamma_under: float = 0.1
    gamma_over: float = 1e5
    m: int = 256
    schedule: str = "constant"  # "constant" | "harmonic" | "power"
    step_c: float = 0.1
    step_beta: float = 0.75  # power schedule only
    n_epochs: int = 20

    def __post_init__(self):
        self.new_memory()  # the memory's own checks on p, eta, bounds and clamp
        if self.m < 1:
            raise ValueError("batch size must be positive")
        if self.schedule not in ("constant", "harmonic", "power"):
            raise ValueError(f"unknown schedule kind {self.schedule!r}")
        if not 0 < self.step_c < math.inf:
            raise ValueError("schedule coefficient must be positive and finite")
        if self.schedule == "power" and not 0.5 < self.step_beta < 1.0:
            raise ValueError("power schedule needs beta in (1/2, 1)")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")

    def step_size(self, k: int) -> float:
        """Step length at iteration k >= 0 under the schedule."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self.schedule == "constant":
            return self.step_c
        if self.schedule == "harmonic":
            return self.step_c / (k + 1)
        # k^(-beta) is undefined at k = 0; start the decay at 1
        return self.step_c * max(k, 1) ** (-self.step_beta)

    def new_memory(self) -> LBFGSMemory:
        """An empty L-BFGS memory with these settings.  Building one in
        __post_init__ checks them, so a VarchenParams that exists runs."""
        return LBFGSMemory(p=self.p, gamma_under=self.gamma_under,
                           gamma_over=self.gamma_over, eta=self.eta,
                           lam_min=self.lam_min, lam_max=self.lam_max)


@dataclass
class AnchorState:
    x_anchor: np.ndarray
    full_grad_anchor: np.ndarray


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


def _epoch_loop(problem, m: int, n_epochs: int, seed: int, x0: Optional[np.ndarray],
                recorder: Optional[Recorder], step, anchor_norm=None) -> RunResult:
    """Walk n_epochs shuffles of the samples in chunks of min(m, N), one
    step(x, batch, k) -> (x_new, finish) per chunk.  finish, None when the
    step has nothing to complete, runs only once x_new is known to be
    finite; it completes the step and returns the algorithm's StepRecord
    fields.  The loop sets every record's samples charge: the batch size,
    plus N on the first step of an anchored epoch.

    An anchored algorithm passes anchor_norm(x) -> ||grad f(x)||, which
    anchors the epoch at x before its first chunk.  That x is the previous
    epoch's last iterate, so the exact norm goes on that epoch's last
    record, which the report keeps at cadence 0, and the anchor's
    full-gradient pass is charged to the new epoch's first step."""
    N = problem.N
    m_eff = min(m, N)
    sampler = SamplerState(N=N, seed=seed)
    x, stamp, trace = run_start(problem, x0, recorder)

    k = 0
    for epoch in range(n_epochs):
        sampler.start_epoch()
        extra = 0  # samples charged to the epoch's first step beyond its batch
        if anchor_norm is not None:
            grad_norm = anchor_norm(x)
            extra = N
            if trace:
                trace[-1].grad_norm = grad_norm
        consumed = 0
        while consumed < N:
            m_k = min(m_eff, N - consumed)
            batch = sampler.next_chunk(m_k)
            x_new, finish = step(x, batch, k)
            if not np.all(np.isfinite(x_new)):
                reason = f"non-finite iterate at epoch {epoch}, iteration {k}"
                return RunResult(x=x, iterations=k, trace=trace, abort_reason=reason)
            fields = finish() if finish is not None else {}
            x = x_new
            k += 1
            consumed += m_k
            trace.append(StepRecord(k=k, epoch=epoch, m_used=m_k, samples=m_k + extra,
                                    **stamp(x), **fields))
            extra = 0
    return RunResult(x=x, iterations=k, trace=trace)


def varchen_run(
    problem,
    params: VarchenParams,
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Run n_epochs epochs of anchored, bound-controlled quasi-Newton steps,
    recorded in `recorder` when given (see record.Recorder)."""
    memory = params.new_memory()
    anchor: Optional[AnchorState] = None

    def anchor_norm(x):
        nonlocal anchor
        anchor = AnchorState(x_anchor=x.copy(), full_grad_anchor=problem.full_grad(x))
        return float(np.linalg.norm(anchor.full_grad_anchor))

    def step(x, batch, k):
        g_x, g_tilde = _svrg_terms(problem, batch, x, anchor)
        lam, Lam, flushed = enforce_bounds(memory)
        x_new = x + params.step_size(k) * two_loop_apply(memory, g_tilde)

        def finish():
            if params.p > 0:
                push_pair(memory, x_new - x, problem.batch_grad(batch, x_new) - g_x)
            return dict(lam=lam, Lam=Lam, flushed=flushed, gamma_tilde=memory.gamma_tilde)

        return x_new, finish

    return _epoch_loop(problem, params.m, params.n_epochs, seed, x0, recorder, step,
                       anchor_norm)
