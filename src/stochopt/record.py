"""The per-step record every optimizer appends to its trace, and the result
every run returns.

Each algorithm fills the step counter k, its epoch, the samples the step's
batch used (m_used), the samples it is charged in the metrics report
(samples: m_used, plus N on the first step of an anchored VARCHEN/SVRG
epoch, whose full-gradient pass belongs to that step) and the iterate x
after the step.  ARIG takes full-batch steps, so its epoch is k and both
counts are N.  Every other field is None for an algorithm that has no value
for it, and the report copies its columns straight from the record.

loss and grad_norm are the exact full objective f(x) and ||grad f(x)|| at the
record's x, set only when the run itself computed them exactly there; the
report copies what a record carries and computes only the rest.  ARIG in
"exact" and "inexact-g" mode sets both (see regularization.arig_run), so
its rows cost no pass.  VARCHEN and SVRG set grad_norm alone on the last
step of an epoch that another epoch follows, from the next anchor's full
gradient at the same x, so those rows cost a loss-only pass.  Every other
record has neither, and a row kept for it costs a full loss_and_grad pass.

All six run loops return a RunResult: the final x, the step count, the
trace, and the abort_reason of a run that diverged (aborted is its
presence).  A result stores only what its trace cannot give: ARIG's
terminated and sigma_final.  The per-algorithm facts are read from the trace:
ARIG's n_success, n_reject and sigma_max_observed, and ARAS's triggered,
trigger_k and sigma_trigger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["StepRecord", "RunResult", "run_start", "no_clock"]

# stamp(x) -> the x (a copy) and wall_ms fields of a StepRecord at x
Stamp = Callable[[np.ndarray], dict]


@dataclass(frozen=True)
class StepRecord:
    k: int
    epoch: int
    m_used: int
    samples: int
    x: np.ndarray
    wall_ms: float = 0.0
    # report columns
    sigma: Optional[float] = None  # ARIG/ARAS: regularization used by the step
    lam: Optional[float] = None  # VARCHEN/SVRG: eigenvalue bounds of H
    Lam: Optional[float] = None
    flushed: Optional[bool] = None  # VARCHEN/SVRG: memory flushed before the step
    phase: Optional[str] = None  # ARAS: "transient" | "stationary"
    loss: Optional[float] = None  # ARIG: exact f(x), with grad_norm, or both None
    grad_norm: Optional[float] = None  # ARIG, VARCHEN/SVRG epoch end: exact ||grad f(x)||
    # diagnostics
    gnorm: Optional[float] = None  # ARIG/ARAS: norm of the step's gradient
    rho: Optional[float] = None  # ARIG/ARAS: decrease ratio
    accepted: Optional[bool] = None  # ARIG
    f_val: Optional[float] = None  # ARIG: f at the iterate the step started from
    sigma_after: Optional[float] = None  # ARAS
    m: Optional[int] = None  # ARAS: nominal batch size after the step
    S: Optional[float] = None  # ARAS: Pflug running sum
    triggered_now: Optional[bool] = None  # ARAS: this step ended the transient phase
    gamma_tilde: Optional[float] = None  # VARCHEN/SVRG: L-BFGS scaling after the step


@dataclass(frozen=True)
class RunResult:
    """Outcome of a run.  On abort, x is the last finite iterate (x0 when no
    step was taken) and abort_reason names the step that diverged."""

    x: np.ndarray
    iterations: int
    trace: List[StepRecord]
    abort_reason: Optional[str] = None
    terminated: bool = False  # ARIG: the gradient test ended the run
    sigma_final: Optional[float] = None  # ARIG: sigma after the last step

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def n_success(self) -> int:
        """ARIG: accepted steps."""
        return sum(1 for rec in self.trace if rec.accepted)

    @property
    def n_reject(self) -> int:
        """ARIG: rejected steps."""
        return sum(1 for rec in self.trace if rec.accepted is False)

    @property
    def sigma_max_observed(self) -> Optional[float]:
        """ARIG: the largest sigma the run held.  A step's sigma after is the
        next step's sigma, so the trace and sigma_final hold every one."""
        if self.sigma_final is None:
            return None
        return max([rec.sigma for rec in self.trace] + [self.sigma_final])

    @property
    def trigger_k(self) -> Optional[int]:
        """ARAS: the step that ended the transient phase."""
        return next((rec.k for rec in self.trace if rec.triggered_now), None)

    @property
    def sigma_trigger(self) -> Optional[float]:
        """ARAS: sigma after the step that ended the transient phase."""
        return next((rec.sigma_after for rec in self.trace if rec.triggered_now), None)

    @property
    def triggered(self) -> bool:
        """ARAS: the run reached the stationary phase."""
        return self.trigger_k is not None


def run_start(problem, x0: Optional[np.ndarray]) -> Tuple[np.ndarray, Stamp]:
    """A run's first iterate, a float copy of x0 (zeros when None), and the
    run's clock: stamp(x) gives a record's x, copied, and its wall_ms, the
    milliseconds since this call."""
    t0 = time.perf_counter()

    def stamp(x: np.ndarray) -> dict:
        return {"x": x.copy(), "wall_ms": (time.perf_counter() - t0) * 1e3}

    return (np.zeros(problem.n) if x0 is None else np.array(x0, dtype=float)), stamp


def no_clock(x: np.ndarray) -> dict:
    """The stamp of a step taken outside a run: x copied, wall_ms left 0."""
    return {"x": x.copy()}
