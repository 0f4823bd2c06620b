"""Finite-sum objectives: empirical-risk losses and exact-oracle quadratics.

Every problem is an average of N per-sample objectives,

    f(x) = (1/N) sum_i f_i(x),

and each f_i carries the full Tikhonov term lam*||x||^2, so that every
mini-batch gradient includes the exact regularizer gradient and remains an
unbiased estimate of grad f.

Three loss kinds are supported:

* ``sigmoid-svm``: f_i(x) = 1 - tanh(v_i * x'u_i) + lam*||x||^2
* ``logistic``:    f_i(x) = log(1 + exp(-v_i * x'u_i)) + lam*||x||^2
* ``quadratic``:   exact-oracle test problems, either a shared SPD quadratic
  split into rank-one summands (:func:`make_quadratic`) or a shared Hessian
  with per-sample linear terms (:func:`make_noisy_quadratic`).

Every batch is sorted before use, so its reductions run in ascending index
order.  Losses are averaged with numpy's pairwise summation; the gradient
sum over rows, sum_i c_i u_i, is a sequential ascending-row accumulation
(``einsum`` for dense rows, the CSR transpose product for sparse ones).
Results do not depend on the BLAS thread count: the only BLAS call is the
margin product rows @ x, where a thread split hands out whole rows and each
margin stays one dot product, while the reductions over rows stay out of
BLAS, whose gemv would split their sums across threads and change the bits.
A batch that is the whole index set reads the feature matrix in place
instead of gathering a copy; the arithmetic is the same, so batch_grad over
the full index set equals full_grad exactly.

``grad_variance_l1`` gives the l1 norm of the per-sample gradients' sample
variance, the statistic of the adaptive-sampling norm test.  Dense and
quadratic problems take the two-pass form over ``per_sample_grads``; CSR
problems use an O(nnz + n) identity over the batch's stored entries and
never build the dense m x n block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Dataset",
    "FiniteSumProblem",
    "make_sigmoid_svm",
    "make_logistic",
    "make_quadratic",
    "make_noisy_quadratic",
]

# Rows with dimension above this stay sparse; smaller problems are densified.
DENSE_DIM_LIMIT = 512


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (dense ndarray or CSR) plus +/-1 labels."""

    features: object  # (N, n) ndarray or scipy.sparse.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        feats = self.features
        if sp.issparse(feats):
            feats = feats.tocsr()
            object.__setattr__(self, "features", feats)
        else:
            # C order: a gathered batch and the in-place whole set then
            # share one memory layout, hence one reduction order
            feats = np.ascontiguousarray(feats, dtype=float)
            if feats.ndim != 2:
                raise ValueError("features must be a 2-D array")
            object.__setattr__(self, "features", feats)
        labels = np.asarray(self.labels, dtype=float).ravel()
        object.__setattr__(self, "labels", labels)
        if feats.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if labels.shape[0] != feats.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} != sample count {feats.shape[0]}"
            )

    @property
    def N(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def max_row_sq_norm(self) -> float:
        if sp.issparse(self.features):
            return float(self.features.multiply(self.features).sum(axis=1).max())
        return float((self.features ** 2).sum(axis=1).max())


@dataclass(frozen=True)
class _QuadData:
    """Per-sample quadratic payload: f_i(x) = 0.5 x'M_i x - b_i'x.

    Rank-one mode (V, w given): M_i = w_i * v_i v_i'.
    Shared mode (V is None):    M_i = A for every i.
    In both modes the averaged objective is 0.5 x'A x - bbar'x.
    """

    A: np.ndarray
    B: np.ndarray  # (N, n) rows b_i
    V: Optional[np.ndarray] = None  # (N, n) rows v_i
    w: Optional[np.ndarray] = None  # (N,) weights
    eigvals: Optional[np.ndarray] = None


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point x")
    return x


@dataclass(frozen=True)
class FiniteSumProblem:
    """f(x) = (1/N) sum_i f_i(x) with analytic per-sample oracles."""

    kind: str  # "logistic" | "sigmoid-svm" | "quadratic"
    N: int
    n: int
    lam: float = 0.0
    dataset: Optional[Dataset] = None
    quad: Optional[_QuadData] = None
    # Documented Lipschitz constant of grad f: exact for quadratics,
    # an analytic upper bound for the two losses (diagnostics only).
    L: float = field(default=float("nan"))

    # -- internal helpers -------------------------------------------------

    def _batch_array(self, batch) -> np.ndarray:
        idx = np.asarray(batch, dtype=np.int64).ravel()
        if idx.size == 0:
            raise ValueError("empty batch")
        if idx.min() < 0 or idx.max() >= self.N:
            raise IndexError("sample index out of range")
        # ascending order keeps every reduction deterministic
        return np.sort(idx)

    def _rows(self, idx: np.ndarray):
        """Feature rows and labels of a sorted, validated batch.

        The whole index set (size N, no repeats) reads the dataset in place;
        any other batch gathers one copy."""
        ds = self.dataset
        if idx.size == self.N and not np.any(idx[1:] == idx[:-1]):
            return ds.features, ds.labels
        return ds.features[idx], ds.labels[idx]

    def _margins_and_coefs(self, rows, v: np.ndarray, x: np.ndarray,
                           losses: bool, coefs: bool):
        """One margin pass: (pure per-sample losses, d loss_i / d z
        coefficients); a value not asked for is None."""
        z = v * np.asarray(rows @ x).ravel()
        if self.kind == "sigmoid-svm":
            t = np.tanh(z)
            return (1.0 - t if losses else None,
                    -v * (1.0 - t * t) if coefs else None)
        # logistic: log(1+exp(-z)) computed stably; coef = -v * sigmoid(-z)
        return (np.logaddexp(0.0, -z) if losses else None,
                -v / (1.0 + np.exp(z)) if coefs else None)

    def _pass(self, batch, x: np.ndarray, loss: bool, grad: bool):
        """(mean loss, mean gradient) over the batch from one margin pass;
        a value not asked for is None."""
        x = _check_finite(x)
        idx = self._batch_array(batch)
        if self.kind == "quadratic":
            return (float(np.mean(self._quad_losses(idx, x))) if loss else None,
                    self._quad_batch_grad(idx, x) if grad else None)
        rows, v = self._rows(idx)
        losses, coef = self._margins_and_coefs(rows, v, x, losses=loss, coefs=grad)
        f = g = None
        if loss:
            f = float(np.mean(losses) + self.lam * (x @ x))
        if grad:
            # sequential ascending-row sum of coef_i * row_i; a dense BLAS
            # gemv would split it across threads and change its bits
            if sp.issparse(rows):
                base = np.asarray(rows.T @ coef).ravel()
            else:
                base = np.einsum("i,ij->j", coef, rows)
            g = base / idx.size + (2.0 * self.lam) * x
        return f, g

    # -- operations --------------------------------------------------------

    def eval_loss_i(self, i: int, x: np.ndarray) -> float:
        """f_i(x), including the full lam*||x||^2 term."""
        return self.batch_loss([i], x)

    def eval_grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        """Exact analytic gradient of f_i at x."""
        return self.per_sample_grads([i], x)[0]

    def batch_loss(self, batch, x: np.ndarray) -> float:
        """Mean of f_i over the batch."""
        return self._pass(batch, x, loss=True, grad=False)[0]

    def batch_grad(self, batch, x: np.ndarray) -> np.ndarray:
        """(1/m) sum over the batch of grad f_i(x), ascending index order."""
        return self._pass(batch, x, loss=False, grad=True)[1]

    def loss_and_grad(self, batch, x: np.ndarray):
        """(batch_loss(batch, x), batch_grad(batch, x)) from one margin pass.

        Each value is bitwise equal to the separate call; use this wherever
        both are needed at the same point."""
        return self._pass(batch, x, loss=True, grad=True)

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        """grad f(x) over all N samples (same code path as batch_grad)."""
        return self.batch_grad(np.arange(self.N), x)

    def full_loss(self, x: np.ndarray) -> float:
        """f(x) over all N samples."""
        return self.batch_loss(np.arange(self.N), x)

    def per_sample_grads(self, batch, x: np.ndarray) -> np.ndarray:
        """Dense (m, n) matrix of grad f_i(x) for i in the sorted batch."""
        x = _check_finite(x)
        idx = self._batch_array(batch)
        if self.kind == "quadratic":
            return self._quad_per_sample_grads(idx, x)
        rows, v = self._rows(idx)
        _, coef = self._margins_and_coefs(rows, v, x, losses=False, coefs=True)
        if sp.issparse(rows):
            rows = rows.toarray()
        return coef[:, None] * rows + (2.0 * self.lam) * x

    def grad_variance_l1(self, batch, x: np.ndarray, g: np.ndarray) -> float:
        """||(1/(m-1)) sum_{i in batch} (grad f_i(x) - g)^2||_1, elementwise
        square, with g the precomputed batch gradient.

        Dense and quadratic problems: two-pass form over per_sample_grads.
        CSR problems: with w = g - 2 lam x, so that grad f_i - g = c_i u_i - w,

            sum_i ||c_i u_i - w||^2
                = m ||w||^2 + sum over stored (i, j) of [(c_i u_ij - w_j)^2 - w_j^2],

        in O(nnz + n) memory.  Both forms equal the same sum and differ only
        by rounding; rounding can push the CSR form of a near-zero variance
        below zero, so it is clamped at 0.
        """
        idx = self._batch_array(batch)
        m = idx.size
        if m < 2:
            raise ValueError("variance estimate needs a batch of at least 2")
        g = np.asarray(g, dtype=float)
        if self.kind == "quadratic" or not sp.issparse(self.dataset.features):
            dev = self.per_sample_grads(idx, x) - g[None, :]
            return float(((dev * dev).sum(axis=0) / (m - 1)).sum())
        x = _check_finite(x)
        rows, v = self._rows(idx)
        _, coef = self._margins_and_coefs(rows, v, x, losses=False, coefs=True)
        if not rows.has_canonical_format:
            # a repeated (i, j) entry would be counted as two coordinates
            rows = rows.copy()
            rows.sum_duplicates()
        w = g - (2.0 * self.lam) * x
        vals = np.repeat(coef, np.diff(rows.indptr)) * rows.data  # c_i u_ij
        w_at = w[rows.indices]
        # (c u - w)^2 - w^2 = c u (c u - 2 w)
        total = m * float(w @ w) + float(np.sum(vals * (vals - 2.0 * w_at)))
        return max(0.0, total / (m - 1))

    # -- quadratic payloads -------------------------------------------------

    def _quad_losses(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        q = self.quad
        lin = q.B[idx] @ x
        if q.V is not None:
            proj = q.V[idx] @ x
            return 0.5 * q.w[idx] * proj * proj - lin
        quad_term = 0.5 * float(x @ (q.A @ x))
        return quad_term - lin

    def _quad_batch_grad(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        q = self.quad
        m = idx.size
        b_mean = q.B[idx].sum(axis=0) / m
        if q.V is not None:
            Vb = q.V[idx]
            proj = Vb @ x
            return ((q.w[idx] * proj)[:, None] * Vb).sum(axis=0) / m - b_mean
        return q.A @ x - b_mean

    def _quad_per_sample_grads(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        q = self.quad
        if q.V is not None:
            Vb = q.V[idx]
            proj = Vb @ x
            return (q.w[idx] * proj)[:, None] * Vb - q.B[idx]
        return (q.A @ x)[None, :] - q.B[idx]

    # -- exact minimizer data (quadratics only) ------------------------------

    def minimizer(self) -> np.ndarray:
        if self.kind != "quadratic":
            raise ValueError("closed-form minimizer only for quadratic problems")
        b_mean = self.quad.B.mean(axis=0)
        return np.linalg.solve(self.quad.A, b_mean)

    def f_low(self) -> float:
        """Exact minimum of f (quadratic problems only)."""
        xs = self.minimizer()
        return self.full_loss(xs)


def _validate_pm1_labels(labels: np.ndarray):
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must lie in {-1, +1}")


def make_sigmoid_svm(dataset: Dataset, lam: float) -> FiniteSumProblem:
    """Nonconvex SVM with sigmoid loss: f_i = 1 - tanh(v_i x'u_i) + lam||x||^2."""
    _validate_pm1_labels(dataset.labels)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    # curvature of 1 - tanh(z) is at most 4/(3*sqrt(3))
    L = 4.0 / (3.0 * np.sqrt(3.0)) * dataset.max_row_sq_norm() + 2.0 * lam
    return FiniteSumProblem(
        kind="sigmoid-svm", N=dataset.N, n=dataset.n, lam=lam, dataset=dataset, L=L
    )


def make_logistic(dataset: Dataset, lam: float) -> FiniteSumProblem:
    """Binary logistic regression: f_i = log(1+exp(-v_i x'u_i)) + lam||x||^2."""
    _validate_pm1_labels(dataset.labels)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    L = 0.25 * dataset.max_row_sq_norm() + 2.0 * lam
    return FiniteSumProblem(
        kind="logistic", N=dataset.N, n=dataset.n, lam=lam, dataset=dataset, L=L
    )


def make_quadratic(A: np.ndarray, b: np.ndarray) -> FiniteSumProblem:
    """Exact-oracle quadratic f(x) = 0.5 x'Ax - b'x split into N=n summands.

    A = sum_i eig_i v_i v_i' yields per-sample objectives
    f_i(x) = (n/2) * eig_i * (v_i'x)^2 - b'x whose average recovers f.
    The Lipschitz constant of grad f is exactly the largest eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    n = b.size
    if A.shape != (n, n):
        raise ValueError("A must be n-by-n with n = len(b)")
    if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
        raise ValueError("A must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
    if eigvals.min() <= 0:
        raise ValueError("A must be positive definite")
    V = eigvecs.T  # rows are eigenvectors
    w = n * eigvals
    B = np.tile(b, (n, 1))
    quad = _QuadData(A=A, B=B, V=V, w=w, eigvals=eigvals)
    return FiniteSumProblem(
        kind="quadratic", N=n, n=n, lam=0.0, quad=quad, L=float(eigvals.max())
    )


def make_noisy_quadratic(A: np.ndarray, B: np.ndarray) -> FiniteSumProblem:
    """Quadratics with shared SPD Hessian and per-sample linear terms.

    f_i(x) = 0.5 x'Ax - b_i'x, so f(x) = 0.5 x'Ax - mean(b_i)'x and the
    per-sample gradient noise grad f_i - grad f = mean(b) - b_i does not
    depend on x.  Centering the rows of B (mean zero) gives a pure-noise
    stationary problem with minimizer x* = 0.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be (N, n)")
    n = B.shape[1]
    if A.shape != (n, n):
        raise ValueError("A must be n-by-n with n = B.shape[1]")
    if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
        raise ValueError("A must be symmetric")
    eigvals = np.linalg.eigvalsh(0.5 * (A + A.T))
    if eigvals.min() <= 0:
        raise ValueError("A must be positive definite")
    quad = _QuadData(A=A, B=B, V=None, w=None, eigvals=eigvals)
    return FiniteSumProblem(
        kind="quadratic", N=B.shape[0], n=n, lam=0.0, quad=quad, L=float(eigvals.max())
    )
