"""The per-step record every optimizer appends to its trace, and the result
every run returns.

Each run loop fills the step counter k, its epoch, the samples the step's
batch used (m_used), the samples it is charged in the metrics report
(samples) and the iterate x after the step.  Three loops set samples:
varchen._epoch_loop (VARCHEN, SVRG, SGD, momentum) charges the batch size,
plus N on the first step of an anchored VARCHEN/SVRG epoch, whose
full-gradient pass belongs to that step; ARAS's _record charges the
batch the step used; arig_run takes full-batch steps, so its epoch is k and both counts
are N.  Every other field is None for an algorithm that has no value for
it, and the report copies its columns straight from the record.

loss and grad_norm are the exact full objective f(x) and ||grad f(x)|| at the
record's x, each set only when the run itself computed it exactly there;
the report copies what a record carries and computes only the rest.  ARIG
sets loss to the exact f a step kept, so not in "inexact-g-and-f" mode, and
sets grad_norm from its next gradient-oracle call, so not on the last record
of a run that exhausts its budget (see regularization.arig_run).  VARCHEN
and SVRG set grad_norm alone on the last step of an epoch that another
epoch follows, from the next anchor's full gradient at the same x.  A row
whose record has both costs the report no pass, one with grad_norm alone a
loss-only pass, and one without grad_norm a full loss_and_grad pass.

All six run loops return a RunResult: the final x, the step count, the
trace, and the abort_reason of a run that diverged (aborted is its
presence).  A result stores only what its trace cannot give: ARIG's
terminated and sigma_final.  The per-algorithm facts are read from the trace:
ARIG's n_success, n_reject and sigma_max_observed, ARAS's triggered,
trigger_k and sigma_trigger, and VARCHEN's and SVRG's n_flush.

The metrics report keeps a row for the records is_report_row names, and
reads a record's x only there.  A library call keeps every record's x.  A
harness run hands its run loop a Recorder, a trace that drops the x of a
record once the next record shows it is no report row, so the run holds
one iterate per row plus the newest, not one per step.  A dropped x is
NO_X, and every record keeps its other fields, so the RunResult
properties read the same from either trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["StepRecord", "RunResult", "NO_X", "is_report_row", "Recorder", "run_start",
           "no_clock"]

# stamp(x) -> the x (a copy) and wall_ms fields of a StepRecord at x
Stamp = Callable[[np.ndarray], dict]


@dataclass
class StepRecord:
    """One step.  Not frozen: a Recorder rebinds x to NO_X, and ARIG and
    VARCHEN set grad_norm on their last record once the next full gradient
    gives it."""

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
    loss: Optional[float] = None  # ARIG: the exact f(x) the step kept
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

    @property
    def n_flush(self) -> int:
        """VARCHEN/SVRG: steps that flushed the L-BFGS memory first."""
        return sum(1 for rec in self.trace if rec.flushed)


# The x of a record whose iterate was dropped: one shared, empty, read-only
# array, so code that sums rec.x.nbytes over a trace counts what it holds.
NO_X = np.empty(0)
NO_X.flags.writeable = False


def is_report_row(rec: StepRecord, nxt: Optional[StepRecord], cadence: int) -> bool:
    """Whether the metrics report at `cadence` keeps a row for rec, whose
    next record is nxt (None when rec is the last): the last record, every
    k that is a multiple of cadence > 0, and at cadence 0 the last record
    of each epoch."""
    if nxt is None:
        return True
    if cadence > 0:
        return rec.k % cadence == 0
    return nxt.epoch != rec.epoch


class Recorder(list):
    """A run's trace that keeps x only where the report at `cadence` reads
    it: appending a record sets the x of the one before it to NO_X unless
    that one is a report row.  The newest record keeps its x, since it may
    be the last."""

    def __init__(self, cadence: int):
        super().__init__()
        self.cadence = cadence

    def append(self, rec: StepRecord) -> None:
        if self and not is_report_row(self[-1], rec, self.cadence):
            self[-1].x = NO_X
        super().append(rec)


def run_start(problem, x0: Optional[np.ndarray], recorder: Optional[Recorder] = None
              ) -> Tuple[np.ndarray, Stamp, List[StepRecord]]:
    """A run's first iterate, a float copy of x0 (zeros when None), the
    run's clock and its trace: stamp(x) gives a record's x, copied, and its
    wall_ms, the milliseconds since this call; the trace is the recorder,
    or a list that keeps every record as it is."""
    t0 = time.perf_counter()

    def stamp(x: np.ndarray) -> dict:
        return {"x": x.copy(), "wall_ms": (time.perf_counter() - t0) * 1e3}

    x = np.zeros(problem.n) if x0 is None else np.array(x0, dtype=float)
    return x, stamp, [] if recorder is None else recorder


def no_clock(x: np.ndarray) -> dict:
    """The stamp of a step taken outside a run: x copied, wall_ms left 0."""
    return {"x": x.copy()}
