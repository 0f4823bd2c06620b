"""Adaptive quadratic regularization with inexact gradients (ARIG).

The method minimizes f using steps s = -(1/sigma) g, where g is a gradient
approximation with relative error ||g - grad f(x)|| <= omega_g * ||g|| and
the requested threshold is fixed to omega_g = 1/sigma.  The linear model
T(s) = f + g's predicts a decrease of ||g||^2 / sigma for the chosen step;
the ratio rho of actual to predicted decrease drives both step acceptance
and the sigma update.

Function values may also be inexact: an absolute-error oracle
|fbar(x, w) - f(x)| <= w is queried at w = eta0 * predicted decrease, which
keeps the acceptance test meaningful (an accepted step then guarantees an
actual decrease ratio of at least eta1 - 2*eta0).

A run aborts as the other algorithms do: a trial iterate that is not finite
is not evaluated, and REJECTION_LIMIT consecutive rejected steps end the
run too; either way the run returns aborted=True, an abort_reason naming
the iteration, and x the last accepted (finite) iterate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .record import Recorder, RunResult, StepRecord, run_start

__all__ = [
    "ARIG_MODES",
    "RegParams",
    "RegState",
    "model_decrease",
    "rho_ratio",
    "update_sigma",
    "arig_step",
    "arig_run",
    "sigma_max_bound",
    "complexity_budget",
    "check_inexact_decrease",
    "exact_grad_oracle",
    "adversarial_grad_oracle",
    "exact_fun_oracle",
    "noisy_fun_oracle",
]

# Gradient oracle: oracle(x, omega_req) -> (g, omega, grad_norm).  g has
# relative error ||g - grad f(x)|| <= omega * ||g|| (omega 0: g is exact), and
# grad_norm is ||grad f(x)|| of the exact gradient the oracle evaluated to
# build g, or None when it evaluated none.  arig_step takes ||g|| from it when
# omega is 0, and arig_run hands it to the report for the iterate x.
GradOracle = Callable[[np.ndarray, float], Tuple[np.ndarray, float, Optional[float]]]
# Function oracle: oracle(x, w_req) -> (fbar, w) with |fbar - f(x)| <= w.
FunOracle = Callable[[np.ndarray, float], Tuple[float, float]]

REJECTION_LIMIT = 100  # consecutive rejected steps before arig_run aborts

ARIG_MODES = ("exact", "inexact-g", "inexact-g-and-f")  # arig_run's oracle pairs


@dataclass(frozen=True)
class RegParams:
    eps: float = 1e-6
    sigma0: float = 1.0
    sigma_min: float = 0.1
    eta1: float = 0.25
    eta2: float = 0.75
    gamma1: float = 0.5
    gamma2: float = 1.5
    gamma3: float = 2.0
    eta0: Optional[float] = None  # inexact-f mode only; must be < eta1/2
    max_iters: int = 100_000

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 0 < self.sigma_min <= self.sigma0 < math.inf:
            raise ValueError("need 0 < sigma_min <= sigma0 < inf")
        if not 0 < self.eta1 <= self.eta2 < 1:
            raise ValueError("need 0 < eta1 <= eta2 < 1")
        if not 0 < self.gamma1 < 1 < self.gamma2 < self.gamma3 < math.inf:
            raise ValueError("need 0 < gamma1 < 1 < gamma2 < gamma3 < inf")
        if self.eta0 is not None and not 0 < self.eta0 < 0.5 * self.eta1:
            raise ValueError("eta0 must satisfy 0 < eta0 < eta1/2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class RegState:
    x: np.ndarray
    sigma: float
    k: int = 0
    n_success: int = 0
    consec_rejects: int = 0
    # a rejected step re-enters the step computation with the same gradient
    pending_g: Optional[np.ndarray] = None
    # the grad_norm the last fresh gradient-oracle call reported: at the
    # iterate the last step started from, which a rejected step keeps
    grad_norm: Optional[float] = None
    # (iterate, f there) from a function-oracle call that reported error 0;
    # valid while state.x is that very array (steps replace x, never mutate
    # it).  An exact value satisfies any accuracy request, so the next step
    # reuses it instead of asking for f(x) again.
    exact_f: Optional[Tuple[np.ndarray, float]] = None

    @property
    def n_reject(self) -> int:
        """Rejected steps: every step counted in k is accepted or rejected."""
        return self.k - self.n_success


def model_decrease(sigma: float, gnorm_sq: float) -> float:
    """Predicted decrease of the linear model over the step -g/sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return gnorm_sq / sigma


def rho_ratio(f_old: float, f_new: float, sigma: float, gnorm_sq: float) -> float:
    """Actual decrease divided by the model decrease ||g||^2/sigma."""
    if gnorm_sq <= 0:
        raise ValueError("gnorm_sq must be positive")
    return (f_old - f_new) * sigma / gnorm_sq


def update_sigma(sigma: float, rho: float, params: RegParams) -> float:
    """Deterministic representative of the three-branch sigma update."""
    if rho >= params.eta2:
        return max(params.sigma_min, params.gamma1 * sigma)
    if rho >= params.eta1:
        return params.gamma2 * sigma
    return params.gamma3 * sigma


def check_inexact_decrease(
    omega_f: float, omega_f_hat: float, eta0: float, model_dec: float
) -> bool:
    """True iff max(omega_f, omega_f_hat) <= eta0 * model_dec."""
    if model_dec <= 0:
        raise ValueError("model decrease must be positive")
    return max(omega_f, omega_f_hat) <= eta0 * model_dec


def sigma_max_bound(L: float, params: RegParams) -> float:
    """Upper bound on sigma over any run: max(sigma0, gamma3(L/2+1)/(1-eta2))."""
    if L <= 0:
        raise ValueError("L must be positive")
    return max(params.sigma0, params.gamma3 * (0.5 * L + 1.0) / (1.0 - params.eta2))


def complexity_budget(
    f0: float, f_low: float, eps: float, params: RegParams, L: float
) -> Tuple[int, float]:
    """Worst-case counts of successful and total iterations to reach
    ||grad f|| <= eps."""
    if f0 < f_low:
        raise ValueError("f0 must be >= f_low")
    if eps <= 0:
        raise ValueError("eps must be positive")
    smax = sigma_max_bound(L, params)
    kappa_s = (1.0 + smax) ** 2 / (params.eta1 * params.sigma_min)
    max_successful = math.floor(kappa_s * (f0 - f_low) / (eps * eps))
    max_total = (
        max_successful * (1.0 + abs(math.log(params.gamma1)) / math.log(params.gamma2))
        + math.log(smax / params.sigma0) / math.log(params.gamma2)
    )
    return max_successful, max_total


@dataclass(frozen=True)
class StepOutcome:
    status: str  # "terminated" | "accepted" | "rejected" | "non-finite"
    gnorm: float
    rho: Optional[float] = None
    f_old: Optional[float] = None


def arig_step(
    state: RegState,
    params: RegParams,
    grad_oracle: GradOracle,
    fun_oracle: FunOracle,
) -> StepOutcome:
    """One pass through the gradient/step/ratio/update cycle.

    A fresh gradient is requested at threshold 1/sigma only when no stale
    gradient is pending; the termination test runs only on fresh gradients.
    A trial iterate that is not finite ends the step as "non-finite" before
    any function-oracle call, with the state as it was (apart from the
    gradient the step asked for).
    """
    if state.pending_g is None:
        omega_req = 1.0 / state.sigma
        g, omega, state.grad_norm = grad_oracle(state.x, omega_req)
        g = np.asarray(g, dtype=float)
        if omega == 0.0 and state.grad_norm is not None:
            gnorm = state.grad_norm  # g is the exact gradient the oracle measured
        else:
            gnorm = float(np.linalg.norm(g))
        if gnorm <= params.eps / (1.0 + omega):
            return StepOutcome(status="terminated", gnorm=gnorm)
    else:
        g = state.pending_g
        gnorm = float(np.linalg.norm(g))

    sigma = state.sigma
    s = -g / sigma
    gnorm_sq = gnorm * gnorm
    model_dec = model_decrease(sigma, gnorm_sq)

    x_new = state.x + s
    if not np.all(np.isfinite(x_new)):
        return StepOutcome(status="non-finite", gnorm=gnorm)
    omega_f_req = 0.0 if params.eta0 is None else params.eta0 * model_dec
    if state.exact_f is not None and state.exact_f[0] is state.x:
        f_old, omega_f = state.exact_f[1], 0.0
    else:
        f_old, omega_f = fun_oracle(state.x, omega_f_req)
    f_new, omega_f_hat = fun_oracle(x_new, omega_f_req)
    if params.eta0 is not None and not check_inexact_decrease(
        omega_f, omega_f_hat, params.eta0, model_dec
    ):
        raise RuntimeError(
            "function oracle did not honor the requested accuracy "
            f"(got {max(omega_f, omega_f_hat):.3e} > {params.eta0 * model_dec:.3e})"
        )

    rho = rho_ratio(f_old, f_new, sigma, gnorm_sq)
    if rho >= params.eta1:
        state.x = x_new
        f_kept, omega_kept = f_new, omega_f_hat
        state.n_success += 1
        state.consec_rejects = 0
        state.pending_g = None
        status = "accepted"
    else:
        f_kept, omega_kept = f_old, omega_f
        state.consec_rejects += 1
        state.pending_g = g
        status = "rejected"

    state.exact_f = (state.x, f_kept) if omega_kept == 0.0 else None
    state.sigma = update_sigma(sigma, rho, params)
    state.k += 1
    return StepOutcome(status=status, gnorm=gnorm, rho=rho, f_old=f_old)


def arig_run(
    problem,
    params: RegParams,
    mode: str = "exact",
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> RunResult:
    """Iterate arig_step until termination, the iteration budget runs out,
    or the run aborts: at a non-finite trial iterate, or after
    REJECTION_LIMIT consecutive rejected steps.

    mode selects the oracle pair: "exact" (full gradient and loss),
    "inexact-g" (gradient error injected at exactly the requested 1/sigma),
    or "inexact-g-and-f" (additionally, bounded noise on function values;
    requires params.eta0).

    A step's record carries the exact f and ||grad f|| at its iterate when
    the run computed both there: f is the kept value of an exact function
    oracle (state.exact_f), and ||grad f|| is what the gradient oracle
    reports at that iterate, in the next step or the termination test.  So
    the record is built one step late, with wall_ms stamped at the end of its
    own step.  The last record of a run that exhausts max_iters or
    REJECTION_LIMIT, and every record in "inexact-g-and-f" mode, carry
    neither.  The records go to `recorder` when given (see record.Recorder).
    """
    if mode not in ARIG_MODES:
        raise ValueError(f"unknown oracle mode {mode!r}")
    if mode == "inexact-g-and-f" and params.eta0 is None:
        raise ValueError("inexact-g-and-f mode requires params.eta0")
    if mode != "inexact-g-and-f" and params.eta0 is not None:
        params = dataclasses.replace(params, eta0=None)

    if mode == "exact":
        g_oracle = exact_grad_oracle(problem)
    else:
        g_oracle = adversarial_grad_oracle(problem, seed)
    if mode == "inexact-g-and-f":
        f_oracle = noisy_fun_oracle(problem, seed + 1)
    else:
        f_oracle = exact_fun_oracle(problem)

    x, stamp, trace = run_start(problem, x0, recorder)
    state = RegState(x=x, sigma=params.sigma0)
    terminated = False
    reason = None
    # the last step's record fields and exact f, awaiting ||grad f|| at its x
    pending: Optional[Tuple[dict, Optional[float]]] = None

    while state.k < params.max_iters:
        sigma_used = state.sigma
        out = arig_step(state, params, g_oracle, f_oracle)
        if pending is not None:
            trace.append(_record(*pending, state.grad_norm))
            pending = None
        if out.status == "terminated":
            terminated = True
            break
        if out.status == "non-finite":
            reason = f"non-finite trial iterate at iteration {state.k}"
            break
        fields = dict(
            k=state.k,
            epoch=state.k,
            m_used=problem.N,
            samples=problem.N,
            **stamp(state.x),
            sigma=sigma_used,
            gnorm=out.gnorm,
            rho=out.rho,
            accepted=(out.status == "accepted"),
            f_val=out.f_old,
        )
        pending = (fields, state.exact_f[1] if state.exact_f is not None else None)
        if state.consec_rejects >= REJECTION_LIMIT:
            reason = f"{REJECTION_LIMIT} consecutive rejected steps at iteration {state.k}"
            break
    if pending is not None:
        trace.append(_record(*pending, None))

    return RunResult(x=state.x, iterations=state.k, trace=trace, abort_reason=reason,
                     terminated=terminated, sigma_final=state.sigma)


def _record(fields: dict, loss: Optional[float], grad_norm: Optional[float]) -> StepRecord:
    """A step's record: loss and grad_norm only when both are exact values."""
    if loss is None or grad_norm is None:
        loss = grad_norm = None
    return StepRecord(**fields, loss=loss, grad_norm=grad_norm)


# -- oracle factories ---------------------------------------------------------


def exact_grad_oracle(problem) -> GradOracle:
    """Full gradient with zero reported error, and its norm as grad_norm."""

    def oracle(x: np.ndarray, omega_req: float) -> Tuple[np.ndarray, float, float]:
        g = problem.full_grad(x)
        return g, 0.0, float(np.linalg.norm(g))

    return oracle


def adversarial_grad_oracle(problem, seed: int) -> GradOracle:
    """Returns g with ||g - grad f(x)|| equal to omega_req * ||g|| exactly.

    For omega_req < 1 the error is injected orthogonally to grad f with
    magnitude c = omega*||grad f||/sqrt(1-omega^2); otherwise (or in
    dimension 1) the gradient is shrunk to grad f/(1+omega), which attains
    the same relative error for any omega.  grad_norm is ||grad f(x)||,
    which the injection computes anyway.
    """
    gen = np.random.Generator(np.random.Philox(seed))

    def oracle(x: np.ndarray, omega_req: float) -> Tuple[np.ndarray, float, float]:
        g_true = problem.full_grad(x)
        w = float(omega_req)
        gn = float(np.linalg.norm(g_true))
        if w <= 0.0 or gn == 0.0:
            return g_true, 0.0, gn
        if w < 1.0 and g_true.size > 1:
            u = gen.standard_normal(g_true.size)
            u = u - (u @ g_true) / (gn * gn) * g_true
            un = float(np.linalg.norm(u))
            if un > 0.0:
                u = u / un
                c = w * gn / math.sqrt(1.0 - w * w)
                return g_true + c * u, w, gn
        return g_true / (1.0 + w), w, gn

    return oracle


def exact_fun_oracle(problem) -> FunOracle:
    def oracle(x: np.ndarray, omega_req: float) -> Tuple[float, float]:
        return problem.full_loss(x), 0.0

    return oracle


def noisy_fun_oracle(problem, seed: int) -> FunOracle:
    """Injects uniform noise bounded by the requested absolute error."""
    gen = np.random.Generator(np.random.Philox(seed))

    def oracle(x: np.ndarray, omega_req: float) -> Tuple[float, float]:
        f = problem.full_loss(x)
        if omega_req <= 0.0:
            return f, 0.0
        return f + omega_req * float(gen.uniform(-1.0, 1.0)), omega_req

    return oracle
