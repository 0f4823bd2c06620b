"""Damped limited-memory BFGS machinery with eigenvalue-bound control.

Curvature pairs (s, y) are damped Powell-style before storage: y is replaced
by yhat = theta*y + (1-theta)*B0*s with theta chosen so that s'yhat >=
eta*s'B0*s > 0, which keeps the implied inverse-Hessian approximation H
positive definite without any line search.  B0 = gamma_tilde*I and
H0 = inv(gamma_tilde)*I use the clamped scaling gamma_tilde =
clamp(y'y/s'y, gamma_under, gamma_over), refreshed on every push.

Because each update multiplies H by well-conditioned factors, explicit lower
and upper bounds on the eigenvalues of H can be propagated through the stored
pairs: `pair_update_eigen_bounds` bounds a single update A = mu*V*V' + rho*s*s'
given a curvature modulus gamma and a Lipschitz ratio L_y, and
`hessian_bounds` composes that recursion over the memory (oldest to newest,
the order in which the updates enter the operator).  `enforce_bounds` flushes
all but the newest pair when the estimates leave a prescribed interval
[lam_min, lam_max], which keeps the search direction from degenerating.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Tuple

import numpy as np

__all__ = [
    "CurvaturePair",
    "LBFGSMemory",
    "damping_theta",
    "damped_y",
    "update_scaling",
    "estimate_Lg",
    "push_pair",
    "two_loop_apply",
    "pair_update_eigen_bounds",
    "hessian_bounds",
    "enforce_bounds",
]

# relative slack for the curvature assertion: the damped branch attains the
# bound with equality in exact arithmetic, so only rounding sits below it
_CURV_RTOL = 1e-9


@dataclass(frozen=True)
class CurvaturePair:
    s: np.ndarray
    y_hat: np.ndarray  # damped gradient difference
    rho_hat: float  # 1 / (s' y_hat)
    gamma_tilde: float  # scaling frozen at push time (B0 = gamma_tilde I then)
    lg: float  # ||y|| / ||s|| at push time


@dataclass
class LBFGSMemory:
    p: int
    gamma_under: float = 0.1
    gamma_over: float = 1e5
    eta: float = 0.25
    lam_min: float = 1e-5
    lam_max: float = 1e5
    gamma_tilde: float = 1.0
    pairs: Deque[CurvaturePair] = field(init=False)

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("memory capacity p must be >= 0")
        if not 0 < self.gamma_under < self.gamma_over:
            raise ValueError("need 0 < gamma_under < gamma_over")
        if not 0 < self.eta < 1:
            raise ValueError("need eta in (0, 1)")
        # lam_min = 0 and lam_max = inf disable the corresponding control;
        # equality at gamma_over = lam_max is allowed (the standard constants
        # sit exactly there)
        if not 0 <= self.lam_min < self.gamma_under:
            raise ValueError("need 0 <= lam_min < gamma_under")
        if not self.gamma_over <= self.lam_max:
            raise ValueError("need gamma_over <= lam_max")
        if not self.gamma_under <= self.gamma_tilde <= self.gamma_over:
            raise ValueError("the clamp [gamma_under, gamma_over] must contain the "
                             f"starting scaling gamma_tilde = {self.gamma_tilde:g}")
        self.pairs = deque(maxlen=self.p)

    def L_g_est(self) -> float:
        """Running gradient-Lipschitz estimate: max of ||y||/||s|| in memory."""
        return max((pair.lg for pair in self.pairs), default=0.0)


def damping_theta(sTy: float, sTB0s: float, eta: float) -> float:
    """Damping coefficient: 1 if curvature is adequate, else the convex
    weight that lands s'yhat exactly on eta*s'B0*s."""
    if sTB0s <= 0:
        raise ValueError("s'B0 s must be positive")
    if sTy >= eta * sTB0s:
        return 1.0
    return (1.0 - eta) * sTB0s / (sTB0s - sTy)


def damped_y(y: np.ndarray, s: np.ndarray, gamma_tilde: float, eta: float) -> Tuple[np.ndarray, float]:
    """yhat = theta*y + (1-theta)*gamma_tilde*s."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    s_sq = float(s @ s)
    if s_sq == 0.0:
        raise ValueError("s must be nonzero")
    theta = damping_theta(float(s @ y), gamma_tilde * s_sq, eta)
    if theta == 1.0:
        return y, theta
    return theta * y + (1.0 - theta) * gamma_tilde * s, theta


def update_scaling(s: np.ndarray, y: np.ndarray, gamma_under: float, gamma_over: float) -> float:
    """clamp(y'y/s'y, gamma_under, gamma_over); s'y <= 0 falls back to the
    most conservative scaling gamma_over (damping then restores curvature)."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(s @ s) == 0.0:
        raise ValueError("s must be nonzero")
    sTy = float(s @ y)
    if sTy > 0.0:
        gamma_raw = float(y @ y) / sTy
    else:
        gamma_raw = gamma_over
    return min(max(gamma_raw, gamma_under), gamma_over)


def estimate_Lg(s: np.ndarray, y: np.ndarray) -> float:
    """Per-pair gradient-Lipschitz estimate ||y|| / ||s||."""
    sn = float(np.linalg.norm(s))
    if sn == 0.0:
        raise ValueError("s must be nonzero")
    return float(np.linalg.norm(y)) / sn


def push_pair(memory: LBFGSMemory, s: np.ndarray, y: np.ndarray) -> bool:
    """Refresh the scaling from (s, y), damp y, and append the pair.

    Returns False (and leaves the memory untouched) for a zero-capacity
    memory, a zero step, or a pair whose s's, s'y or y'y is not finite;
    True on a successful push.
    """
    if memory.p == 0:
        return False
    s = np.asarray(s, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    # each dot product once; the steps below are update_scaling, damped_y
    # and estimate_Lg on these values, bit for bit (np.linalg.norm of a
    # 1-D array is the square root of its dot with itself)
    s_sq, sTy, y_sq = float(s @ s), float(s @ y), float(y @ y)
    if s_sq == 0.0 or not (math.isfinite(s_sq) and math.isfinite(sTy) and math.isfinite(y_sq)):
        return False

    gamma_raw = y_sq / sTy if sTy > 0.0 else memory.gamma_over
    gamma = memory.gamma_tilde = min(max(gamma_raw, memory.gamma_under), memory.gamma_over)
    theta = damping_theta(sTy, gamma * s_sq, memory.eta)
    if theta == 1.0:
        y_hat, curv = y, sTy
    else:
        y_hat = theta * y + (1.0 - theta) * gamma * s
        curv = float(s @ y_hat)
    floor = memory.eta * gamma * s_sq
    if curv <= 0.0 or curv < floor - _CURV_RTOL * abs(floor):
        raise RuntimeError(
            f"damped curvature {curv:.6e} below its floor {floor:.6e}"
        )
    memory.pairs.append(
        CurvaturePair(s=s, y_hat=y_hat, rho_hat=1.0 / curv, gamma_tilde=gamma,
                      lg=math.sqrt(y_sq) / math.sqrt(s_sq))
    )
    return True


def two_loop_apply(memory: LBFGSMemory, g: np.ndarray) -> np.ndarray:
    """d = -H g via the two-loop recursion over the damped pairs, with
    H0 = inv(gamma_tilde) * I at the current scaling."""
    r = np.asarray(g, dtype=float).copy()
    pairs = memory.pairs
    alphas = []
    for pair in reversed(pairs):
        a = pair.rho_hat * float(pair.s @ r)
        alphas.append(a)
        r -= a * pair.y_hat
    r /= memory.gamma_tilde
    for pair, a in zip(pairs, reversed(alphas)):
        b = pair.rho_hat * float(pair.y_hat @ r)
        r += (a - b) * pair.s
    return np.negative(r, out=r)


def _interval_update(lam: float, Lam: float, gamma: float, L: float) -> Tuple[float, float]:
    """Bounds on the spectrum of A = V H V' + rho s s', V = I - rho s y', for
    any H whose spectrum lies in [lam, Lam], under s'y >= gamma ||s||^2 and
    ||y|| <= L ||s||.

    The subtracted term of the upper bound takes lam in its numerator and Lam
    in its denominator, its smallest value over the interval, so the bound
    holds for every H in it."""
    lower = min(1.0 / L, lam / (1.0 + (lam / gamma) * L * L))
    upper = 1.0 / gamma + max(
        0.0, (Lam / (gamma * gamma)) * L * L - lam / (1.0 + (Lam / gamma) * L * L)
    )
    return lower, upper


def pair_update_eigen_bounds(mu: float, gamma: float, L_y: float) -> Tuple[float, float]:
    """Eigenvalue bounds for A = mu V V' + rho s s', V = I - rho s y',
    rho = 1/s'y, under s'y >= gamma ||s||^2 and ||y|| <= L_y ||s||.

    lower = min(1/L_y, mu / (1 + (mu/gamma) L_y^2)) and
    upper = 1/gamma + max(0, (mu/gamma^2) L_y^2 - mu / (1 + (mu/gamma) L_y^2)).
    """
    if mu <= 0 or gamma <= 0 or L_y <= 0:
        raise ValueError("mu, gamma and L_y must be positive")
    return _interval_update(mu, mu, gamma, L_y)


def hessian_bounds(memory: LBFGSMemory, L_g_est: float) -> Tuple[float, float]:
    """Lower/upper eigenvalue bounds for the operator two_loop_apply applies.

    Starts from H0's exact spectrum (inv(gamma_tilde) twice) and runs the
    interval recursion once per stored pair, oldest to newest.  Each pair
    contributes its frozen scaling: curvature modulus eta * gamma_tilde(pair)
    and Lipschitz ratio L_g_est + gamma_tilde(pair), which its damped y_hat
    satisfies whenever L_g_est >= ||y||/||s|| for that pair.
    """
    if L_g_est < 0:
        raise ValueError("L_g_est must be nonnegative")
    lam = 1.0 / memory.gamma_tilde
    Lam = 1.0 / memory.gamma_tilde
    for pair in memory.pairs:
        lam, Lam = _interval_update(
            lam, Lam, memory.eta * pair.gamma_tilde, L_g_est + pair.gamma_tilde
        )
    return lam, Lam


def enforce_bounds(memory: LBFGSMemory) -> Tuple[float, float, bool]:
    """Estimate the current bounds and flush the memory if they escape
    [memory.lam_min, memory.lam_max], keeping only the most recent pair.

    Returns (lam, Lam, flushed) with the post-flush estimates.  An empty
    memory reports H0's spectrum and never flushes.
    """
    lam, Lam = hessian_bounds(memory, memory.L_g_est())
    flushed = False
    if memory.pairs and (Lam > memory.lam_max or lam < memory.lam_min):
        newest = memory.pairs[-1]
        memory.pairs.clear()
        memory.pairs.append(newest)
        flushed = True
        lam, Lam = hessian_bounds(memory, memory.L_g_est())
    return lam, Lam, flushed
