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
terminated and sigma_final.  The per-algorithm events are read from the
trace: ARIG's n_success, n_reject and sigma_max_observed, ARAS's
triggered, trigger_k and sigma_trigger, and VARCHEN's and SVRG's n_flush.

A library call keeps every record.  A harness run hands its run loop a
Recorder, a trace that keeps only the records the metrics report makes rows
of (is_report_row) and the newest, which may be the last.  A record the
next one shows to be no row is removed: its samples charge moves into the
next record, so the report's cumulative samples keep their value, and its
event fields go into the Recorder's tallies (Events), which the RunResult
properties add to those of the records the trace holds.  So a harness run
holds one record per report row, not one per step, and its events equal
the library run's.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["StepRecord", "RunResult", "Events", "is_report_row", "Recorder", "run_start",
           "no_clock"]

# stamp(x) -> the x (a copy) and wall_ms fields of a StepRecord at x
Stamp = Callable[[np.ndarray], dict]


@dataclass
class StepRecord:
    """One step.  Not frozen: a Recorder adds a removed record's samples
    to the next, and ARIG and VARCHEN set grad_norm on their last record
    once the next full gradient gives it."""

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


@dataclass
class Events:
    """Tallies of the records' event fields, folded in step order."""

    n_success: int = 0  # ARIG: records with accepted True
    n_reject: int = 0  # ARIG: records with accepted False
    n_flush: int = 0  # VARCHEN/SVRG: records with flushed True
    sigma_max: Optional[float] = None  # the largest sigma
    trigger_k: Optional[int] = None  # ARAS: k and sigma_after of the first
    sigma_trigger: Optional[float] = None  # record with triggered_now

    def fold(self, rec: StepRecord) -> None:
        self.n_success += bool(rec.accepted)
        self.n_reject += rec.accepted is False
        self.n_flush += bool(rec.flushed)
        if rec.sigma is not None and (self.sigma_max is None or rec.sigma > self.sigma_max):
            self.sigma_max = rec.sigma
        if rec.triggered_now and self.trigger_k is None:
            self.trigger_k, self.sigma_trigger = rec.k, rec.sigma_after


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

    def events(self) -> Events:
        """The run's event tallies: those a Recorder folded from the records
        it removed, plus those of the records the trace holds."""
        events = dataclasses.replace(getattr(self.trace, "folded", Events()))
        for rec in self.trace:
            events.fold(rec)
        return events

    @property
    def n_success(self) -> int:
        """ARIG: accepted steps."""
        return self.events().n_success

    @property
    def n_reject(self) -> int:
        """ARIG: rejected steps."""
        return self.events().n_reject

    @property
    def sigma_max_observed(self) -> Optional[float]:
        """ARIG: the largest sigma the run held.  A step's sigma after is the
        next step's sigma, so the records' sigmas and sigma_final hold every
        one."""
        if self.sigma_final is None:
            return None
        sigma_max = self.events().sigma_max
        return self.sigma_final if sigma_max is None else max(sigma_max, self.sigma_final)

    @property
    def trigger_k(self) -> Optional[int]:
        """ARAS: the step that ended the transient phase."""
        return self.events().trigger_k

    @property
    def sigma_trigger(self) -> Optional[float]:
        """ARAS: sigma after the step that ended the transient phase."""
        return self.events().sigma_trigger

    @property
    def triggered(self) -> bool:
        """ARAS: the run reached the stationary phase."""
        return self.trigger_k is not None

    @property
    def n_flush(self) -> int:
        """VARCHEN/SVRG: steps that flushed the L-BFGS memory first."""
        return self.events().n_flush


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
    """A run's trace that holds only the records the report at `cadence`
    makes rows of, and the newest, which may be the last.  Appending a
    record removes the one before it unless that one is a report row: the
    new record takes over its samples charge and `folded` its events."""

    def __init__(self, cadence: int):
        super().__init__()
        self.cadence = cadence
        self.folded = Events()

    def append(self, rec: StepRecord) -> None:
        if self and not is_report_row(self[-1], rec, self.cadence):
            prev = self.pop()
            rec.samples += prev.samples
            self.folded.fold(prev)
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
