"""Mini-batch drawing, gradient sample variance, the norm test, and the
adaptive batch-size rule.

Two sampling modes are provided by :class:`SamplerState`:

* ``draw_batch`` -- a fresh without-replacement draw each call (used by the
  two phases of ARAS);
* ``next_chunk`` -- sequential chunks of a per-epoch shuffle (used by the
  epoch-structured optimizers so that one epoch consumes each sample once).

The generator is numpy's Philox, a 64-bit counter-based generator, so every
index sequence is reproducible from the recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SamplerState",
    "sample_variance_l1",
    "norm_test",
    "adaptive_batch_size",
]


@dataclass
class SamplerState:
    """Single-owner mutable sampler over a population of N indices."""

    N: int
    m: int
    m_max: int
    seed: int
    gen: np.random.Generator = field(init=False, repr=False)
    _perm: np.ndarray = field(init=False, repr=False)
    _cursor: int = field(init=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.m <= self.m_max <= self.N):
            raise ValueError("need 1 <= m <= m_max <= N")
        self.gen = np.random.Generator(np.random.Philox(self.seed))
        self._perm = np.empty(0, dtype=np.int64)
        self._cursor = 0

    # -- fresh without-replacement draws ------------------------------------

    def draw_batch(self, m: int) -> np.ndarray:
        """m distinct indices, uniform without replacement, sorted ascending."""
        if not (1 <= m <= self.N):
            raise ValueError(f"batch size {m} outside [1, N={self.N}]")
        idx = self.gen.choice(self.N, size=m, replace=False)
        return np.sort(idx.astype(np.int64))

    # -- epoch shuffle -------------------------------------------------------

    def start_epoch(self):
        """Reshuffle the population; chunks then walk the permutation."""
        self._perm = self.gen.permutation(self.N).astype(np.int64)
        self._cursor = 0

    def next_chunk(self, m: int) -> np.ndarray:
        """Next m indices of the current epoch permutation, sorted ascending."""
        if self._cursor >= self._perm.size:
            raise RuntimeError("epoch exhausted; call start_epoch() first")
        if m < 1:
            raise ValueError("chunk size must be positive")
        take = self._perm[self._cursor : self._cursor + m]
        if take.size < m:
            raise ValueError("chunk extends past the epoch permutation")
        self._cursor += m
        return np.sort(take)

    @property
    def remaining_in_epoch(self) -> int:
        return self._perm.size - self._cursor


def sample_variance_l1(problem, batch, x: np.ndarray, g: np.ndarray) -> float:
    """l1 norm of the elementwise sample variance of the per-sample gradients.

    ||(1/(m-1)) sum_{i in batch} (grad f_i(x) - g)^2||_1 with g the
    precomputed batch gradient, from ``problem.grad_variance_l1``.  Dense
    rows and quadratics use the two-pass form.  CSR rows use the O(nnz)
    identity, with w = g - 2 lam x,

        m ||w||^2 + sum over stored (i, j) of [(c_i u_ij - w_j)^2 - w_j^2],

    divided by m-1 and clamped at 0.  The CSR result differs from the
    two-pass form only by rounding.
    """
    idx = np.asarray(batch, dtype=np.int64).ravel()
    if idx.size < 2:
        raise ValueError("variance estimate needs a batch of at least 2")
    return problem.grad_variance_l1(idx, x, g)


def norm_test(var_l1: float, m: int, sigma: float, gnorm_sq: float) -> bool:
    """True iff var_l1 / m <= gnorm_sq / sigma^2.

    Evaluated in multiplied form (var_l1 * sigma^2 <= m * gnorm_sq) so that a
    batch size returned by :func:`adaptive_batch_size` always passes on the
    same frozen statistics, with no division rounding at the boundary.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # same product association as adaptive_batch_size, so the two agree exactly
    return sigma * sigma * var_l1 <= m * gnorm_sq


def adaptive_batch_size(sigma: float, var_l1: float, gnorm_sq: float, m_max: int) -> int:
    """min(ceil(sigma^2 * var_l1 / gnorm_sq), m_max), at least 1.

    gnorm_sq = 0 is an error: the caller must treat a zero batch gradient as
    converged rather than resize.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if gnorm_sq == 0:
        raise ValueError("zero gradient norm; treat as converged instead of resizing")
    if m_max < 1:
        raise ValueError("m_max must be positive")
    ratio = sigma * sigma * var_l1 / gnorm_sq
    if not math.isfinite(ratio):
        return m_max
    m = int(math.ceil(ratio))
    return max(1, min(m, m_max))
