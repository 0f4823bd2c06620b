"""The per-step record every optimizer appends to its trace.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["StepRecord"]


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
