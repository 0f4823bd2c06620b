"""ARAS: adaptive regularization with adaptive sampling.

The run has two phases.  In the transient phase every step x <- x - g/sigma
is taken (no acceptance test); the decrease ratio rho on the sampled batch
only drives a two-branch sigma update, and a running sum S of inner products
between successive batch gradients (same batch, old and new iterate) acts as
a phase-transition diagnostic: once the iterates oscillate around a local
minimizer, those inner products turn negative on average and S drifts below
zero.  When S < 0 after a burn-in, the run flips — exactly once — into the
stationary phase, where the batch size adapts so the sampled gradient passes
a norm test against sigma, and sigma grows linearly (so the step 1/sigma
decays harmonically).  A stationary step makes one gathered pass that gives
both the batch gradient and the norm-test variance, plus a re-draw at the
new batch size when the norm test fails.

A run aborts as the epoch-loop algorithms do: a step whose new iterate is
not finite is not taken, and the run ends with aborted=True, an
abort_reason naming the epoch and iteration, and x the last finite iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .record import Recorder, RunResult, Stamp, StepRecord, no_clock, run_start
from .sampling import (
    SamplerState,
    adaptive_batch_size,
    norm_test,
    sample_variance_l1,
)

__all__ = [
    "PflugState",
    "ArasParams",
    "ArasState",
    "pflug_update",
    "pflug_triggered",
    "update_sigma_two_branch",
    "transient_step",
    "stationary_step",
    "aras_run",
]


@dataclass
class PflugState:
    """Running inner-product sum over successive stochastic gradients."""

    burn_in: int
    S: float = 0.0
    k: int = 0

    def __post_init__(self):
        if self.burn_in < 1:
            raise ValueError("burn_in must be a positive integer")


def pflug_update(state: PflugState, g_new: np.ndarray, g_old: np.ndarray) -> PflugState:
    """Accumulate <g_new, g_old> into S and count the observation."""
    g_new = np.asarray(g_new, dtype=float)
    g_old = np.asarray(g_old, dtype=float)
    if g_new.shape != g_old.shape:
        raise ValueError(f"gradient shapes differ: {g_new.shape} vs {g_old.shape}")
    state.S += float(g_new @ g_old)
    state.k += 1
    return state


def pflug_triggered(state: PflugState) -> bool:
    """True iff the burn-in has passed and the running sum is negative."""
    return state.k > state.burn_in and state.S < 0.0


def update_sigma_two_branch(
    sigma: float, rho_bar: float, eta: float, gamma1: float, gamma2: float, sigma_min: float
) -> float:
    """Decrease sigma (clamped at sigma_min) on success, grow it otherwise."""
    if sigma < sigma_min:
        raise ValueError("sigma below sigma_min")
    if rho_bar >= eta:
        return max(sigma_min, gamma1 * sigma)
    return gamma2 * sigma


@dataclass(frozen=True)
class ArasParams:
    sigma0: float = 1.0
    sigma_min: float = 0.1
    eta: float = 0.25
    gamma1: float = 0.5
    gamma2: float = 2.0
    m0: int = 32
    m_max: int = 1024
    burn_in: int = 50
    n_epochs: int = 10

    def __post_init__(self):
        if not 0 < self.sigma_min <= self.sigma0 < np.inf:
            raise ValueError("need 0 < sigma_min <= sigma0 < inf")
        if not 0 < self.eta < 1:
            raise ValueError("need 0 < eta < 1")
        if not 0 < self.gamma1 < 1 < self.gamma2 < np.inf:
            raise ValueError("need 0 < gamma1 < 1 < gamma2 < inf")
        if not 1 <= self.m0 <= self.m_max:
            raise ValueError("need 1 <= m0 <= m_max")
        if self.burn_in < 1:
            raise ValueError("burn_in must be positive")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")


@dataclass
class ArasState:
    x: np.ndarray
    sigma: float
    m: int
    pflug: PflugState
    sampler: SamplerState
    k: int = 0
    t: int = 2  # stationary-phase counter
    transient: bool = True


def _record(state: ArasState, stamp: Stamp, epoch: int, m_used: int, phase: str,
            sigma_pre: float, gnorm: float, rho: Optional[float] = None,
            triggered_now: bool = False) -> StepRecord:
    """The step's record, read from the state after the step."""
    return StepRecord(
        k=state.k, epoch=epoch, m_used=m_used, samples=m_used, **stamp(state.x),
        phase=phase, sigma=sigma_pre, sigma_after=state.sigma, m=state.m, S=state.pflug.S,
        gnorm=gnorm, rho=rho, triggered_now=triggered_now,
    )


def transient_step(state: ArasState, problem, params: ArasParams,
                   epoch: int = 0, stamp: Stamp = no_clock) -> Optional[StepRecord]:
    """One always-accepted step with ratio-driven sigma and Pflug update;
    None, with the state unchanged but the sampler, when the new iterate
    would not be finite.  stamp gives the record's x and wall_ms."""
    if not state.transient:
        raise RuntimeError("transient_step called in stationary phase")
    sigma_pre = state.sigma
    batch = state.sampler.draw_batch(state.m)
    f_old, g_old = problem.loss_and_grad(batch, state.x)
    gnorm_sq = float(g_old @ g_old)

    if gnorm_sq == 0.0:
        # degenerate batch: leave iterate, sigma and the diagnostic alone
        state.k += 1
        return _record(state, stamp, epoch, batch.size, "transient", sigma_pre, 0.0)

    s = -g_old / sigma_pre
    x_new = state.x + s
    if not np.all(np.isfinite(x_new)):
        return None
    f_new, g_new = problem.loss_and_grad(batch, x_new)
    rho_bar = (f_old - f_new) * sigma_pre / gnorm_sq

    state.sigma = update_sigma_two_branch(
        sigma_pre, rho_bar, params.eta, params.gamma1, params.gamma2, params.sigma_min
    )
    pflug_update(state.pflug, g_new, g_old)
    state.x = x_new
    state.k += 1

    triggered_now = pflug_triggered(state.pflug)
    if triggered_now:
        state.transient = False

    return _record(state, stamp, epoch, batch.size, "transient", sigma_pre,
                   float(np.sqrt(gnorm_sq)), rho_bar, triggered_now)


def stationary_step(state: ArasState, problem, params: ArasParams,
                    epoch: int = 0, stamp: Stamp = no_clock) -> Optional[StepRecord]:
    """One step with norm-test batch resizing and linear sigma growth; None,
    with the state unchanged but the sampler, when the new iterate would not
    be finite.  stamp gives the record's x and wall_ms."""
    if state.transient:
        raise RuntimeError("stationary_step called in transient phase")
    sigma_pre = state.sigma
    N = state.sampler.N

    # variance needs at least two samples, so draws are floored at 2
    draw = min(max(2, state.m), N)
    batch = state.sampler.draw_batch(draw)
    if batch.size >= 2:
        # one gathered pass gives the batch gradient and its variance
        g, var_l1 = sample_variance_l1(problem, batch, state.x)
    else:  # N == 1: no variance, no norm test
        g, var_l1 = problem.batch_grad(batch, state.x), None
    gnorm_sq = float(g @ g)

    m_new = state.m
    if var_l1 is not None and gnorm_sq > 0.0:
        if not norm_test(var_l1, batch.size, sigma_pre, gnorm_sq):
            m_new = adaptive_batch_size(sigma_pre, var_l1, gnorm_sq, min(params.m_max, N))
            batch = state.sampler.draw_batch(min(max(2, m_new), N))
            g = problem.batch_grad(batch, state.x)
            gnorm_sq = float(g @ g)

    x_new = state.x + (-g / sigma_pre)
    if not np.all(np.isfinite(x_new)):
        return None
    state.x = x_new
    state.m = m_new
    state.sigma = sigma_pre * state.t / (state.t - 1)
    state.t += 1
    state.k += 1

    return _record(state, stamp, epoch, batch.size, "stationary", sigma_pre,
                   float(np.sqrt(gnorm_sq)))


def aras_run(
    problem,
    params: ArasParams,
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Run n_epochs epochs; an epoch ends once the steps taken in it have
    consumed at least N samples (a resized batch counts its final size).
    The steps are recorded in `recorder` when given (see record.Recorder)."""
    N = problem.N
    m0 = min(params.m0, N)  # m0 <= m_max holds by ArasParams
    x, stamp, trace = run_start(problem, x0, recorder)
    state = ArasState(
        x=x,
        sigma=params.sigma0,
        m=m0,
        pflug=PflugState(burn_in=params.burn_in),
        sampler=SamplerState(N=N, seed=seed),
    )

    reason = None
    for epoch in range(params.n_epochs):
        consumed = 0
        while consumed < N and reason is None:
            step = transient_step if state.transient else stationary_step
            rec = step(state, problem, params, epoch=epoch, stamp=stamp)
            if rec is None:
                reason = f"non-finite iterate at epoch {epoch}, iteration {state.k}"
            else:
                consumed += rec.m_used
                trace.append(rec)

    return RunResult(x=state.x, iterations=state.k, trace=trace, abort_reason=reason)
