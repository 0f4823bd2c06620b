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
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "RegParams",
    "RegState",
    "ArigIterRecord",
    "ArigResult",
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

# oracle(x, requested_error) -> (value, actual_error_bound)
GradOracle = Callable[[np.ndarray, float], Tuple[np.ndarray, float]]
FunOracle = Callable[[np.ndarray, float], Tuple[float, float]]

REJECTION_LIMIT = 100  # consecutive rejected steps before aborting


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
        if not 0 < self.sigma_min <= self.sigma0:
            raise ValueError("need 0 < sigma_min <= sigma0")
        if not 0 < self.eta1 <= self.eta2 < 1:
            raise ValueError("need 0 < eta1 <= eta2 < 1")
        if not 0 < self.gamma1 < 1 < self.gamma2 < self.gamma3:
            raise ValueError("need 0 < gamma1 < 1 < gamma2 < gamma3")
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
    n_very_success: int = 0
    n_reject: int = 0
    consec_rejects: int = 0
    # a rejected step re-enters the step computation with the same gradient
    pending_g: Optional[np.ndarray] = None
    pending_omega: float = 0.0
    # (iterate, f there) from a function-oracle call that reported error 0;
    # valid while state.x is that very array (steps replace x, never mutate
    # it).  An exact value satisfies any accuracy request, so the next step
    # reuses it instead of asking for f(x) again.
    exact_f: Optional[Tuple[np.ndarray, float]] = None


@dataclass(frozen=True)
class ArigIterRecord:
    k: int
    sigma: float
    gnorm: float
    rho: Optional[float]
    accepted: Optional[bool]
    omega_g: float
    f_val: Optional[float]
    x: np.ndarray
    wall_ms: float = 0.0


@dataclass(frozen=True)
class ArigResult:
    x: np.ndarray
    terminated: bool
    iterations: int
    n_success: int
    n_reject: int
    sigma_final: float
    sigma_max_observed: float
    trace: List[ArigIterRecord] = field(default_factory=list)


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
    status: str  # "terminated" | "accepted" | "rejected"
    gnorm: float
    omega_g: float
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
    """
    if state.pending_g is None:
        omega_req = 1.0 / state.sigma
        g, omega = grad_oracle(state.x, omega_req)
        g = np.asarray(g, dtype=float)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= params.eps / (1.0 + omega):
            return StepOutcome(status="terminated", gnorm=gnorm, omega_g=omega)
    else:
        g = state.pending_g
        omega = state.pending_omega
        gnorm = float(np.linalg.norm(g))

    sigma = state.sigma
    s = -g / sigma
    gnorm_sq = gnorm * gnorm
    model_dec = model_decrease(sigma, gnorm_sq)

    omega_f_req = 0.0 if params.eta0 is None else params.eta0 * model_dec
    if state.exact_f is not None and state.exact_f[0] is state.x:
        f_old, omega_f = state.exact_f[1], 0.0
    else:
        f_old, omega_f = fun_oracle(state.x, omega_f_req)
    x_new = state.x + s
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
        if rho >= params.eta2:
            state.n_very_success += 1
        state.consec_rejects = 0
        state.pending_g = None
        status = "accepted"
    else:
        f_kept, omega_kept = f_old, omega_f
        state.n_reject += 1
        state.consec_rejects += 1
        state.pending_g = g
        state.pending_omega = omega
        status = "rejected"
        if state.consec_rejects >= REJECTION_LIMIT:
            raise RuntimeError(
                f"{REJECTION_LIMIT} consecutive rejected steps; "
                "gradient or function oracle looks misconfigured"
            )

    state.exact_f = (state.x, f_kept) if omega_kept == 0.0 else None
    state.sigma = update_sigma(sigma, rho, params)
    state.k += 1
    return StepOutcome(status=status, gnorm=gnorm, omega_g=omega, rho=rho, f_old=f_old)


def arig_run(
    problem,
    params: RegParams,
    mode: str = "exact",
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
) -> ArigResult:
    """Iterate arig_step until termination or the iteration budget runs out.

    mode selects the oracle pair: "exact" (full gradient and loss),
    "inexact-g" (gradient error injected at exactly the requested 1/sigma),
    or "inexact-g-and-f" (additionally, bounded noise on function values;
    requires params.eta0).
    """
    if mode not in ("exact", "inexact-g", "inexact-g-and-f"):
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

    x0 = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)
    state = RegState(x=x0.copy(), sigma=params.sigma0)
    trace: List[ArigIterRecord] = []
    terminated = False
    sigma_max_obs = state.sigma
    t0 = time.perf_counter()

    while state.k < params.max_iters:
        sigma_used = state.sigma
        out = arig_step(state, params, g_oracle, f_oracle)
        if out.status == "terminated":
            terminated = True
            break
        sigma_max_obs = max(sigma_max_obs, sigma_used, state.sigma)
        trace.append(
            ArigIterRecord(
                k=state.k,
                sigma=sigma_used,
                gnorm=out.gnorm,
                rho=out.rho,
                accepted=(out.status == "accepted"),
                omega_g=out.omega_g,
                f_val=out.f_old,
                x=state.x.copy(),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

    return ArigResult(
        x=state.x,
        terminated=terminated,
        iterations=state.k,
        n_success=state.n_success,
        n_reject=state.n_reject,
        sigma_final=state.sigma,
        sigma_max_observed=sigma_max_obs,
        trace=trace,
    )


# -- oracle factories ---------------------------------------------------------


def exact_grad_oracle(problem) -> GradOracle:
    """Full gradient with zero reported error."""

    def oracle(x: np.ndarray, omega_req: float) -> Tuple[np.ndarray, float]:
        return problem.full_grad(x), 0.0

    return oracle


def adversarial_grad_oracle(problem, seed: int) -> GradOracle:
    """Returns g with ||g - grad f(x)|| equal to omega_req * ||g|| exactly.

    For omega_req < 1 the error is injected orthogonally to grad f with
    magnitude c = omega*||grad f||/sqrt(1-omega^2); otherwise (or in
    dimension 1) the gradient is shrunk to grad f/(1+omega), which attains
    the same relative error for any omega.
    """
    gen = np.random.Generator(np.random.Philox(seed))

    def oracle(x: np.ndarray, omega_req: float) -> Tuple[np.ndarray, float]:
        g_true = problem.full_grad(x)
        w = float(omega_req)
        gn = float(np.linalg.norm(g_true))
        if w <= 0.0 or gn == 0.0:
            return g_true, 0.0
        if w < 1.0 and g_true.size > 1:
            u = gen.standard_normal(g_true.size)
            u = u - (u @ g_true) / (gn * gn) * g_true
            un = float(np.linalg.norm(u))
            if un > 0.0:
                u = u / un
                c = w * gn / math.sqrt(1.0 - w * w)
                return g_true + c * u, w
        return g_true / (1.0 + w), w

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
