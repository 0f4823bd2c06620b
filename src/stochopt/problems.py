"""Finite-sum objectives: empirical-risk losses and exact-oracle quadratics.

Every problem is an average of N per-sample objectives,

    f(x) = (1/N) sum_i f_i(x),

and each f_i carries the full Tikhonov term lam*||x||^2, so that every
mini-batch gradient includes the exact regularizer gradient and remains an
unbiased estimate of grad f.

FiniteSumProblem owns the oracle protocol (the seven public methods, the
point and batch checks, full_losses' chunk loop and the two-pass variance
tail) and reaches a kind through private hooks only.  LinearModelProblem
holds a dataset of rows u_i and labels v_i, its memos and row gather, the
margin and loss kernels, and the CSR multi-point pass and variance identity:

* ``sigmoid-svm``: f_i(x) = 1 - tanh(v_i * x'u_i) + lam*||x||^2
* ``logistic``:    f_i(x) = log(1 + exp(-v_i * x'u_i)) + lam*||x||^2

QuadraticProblem (``quadratic``) holds exact-oracle test problems, either a
shared SPD quadratic split into rank-one summands (:func:`make_quadratic`)
or a shared Hessian with per-sample linear terms
(:func:`make_noisy_quadratic`), and their closed-form minimizer.

Every batch is used in ascending index order, so its reductions run in that
order; full_grad and full_loss build no index array, and a batch that is
the whole index set in order is recognised by one scan and not sorted.
Losses are averaged with numpy's pairwise summation; the gradient sum over
rows, sum_i c_i u_i, is a sequential ascending-row accumulation (``einsum``
for dense rows, scipy's ``csc_matvec`` for CSR rows).  The reductions over
rows stay out of BLAS, whose gemv would split their sums across threads.
The only BLAS call is the dense margin product rows @ x, and its bits can
follow the BLAS thread count: with OpenBLAS at n = 100, N = 12,345 gives
other bytes in margin rows 6,172 and 12,344 at two threads than at one
(N = 10,000 gives the same bytes).  So a dense problem's bits are those of
one BLAS thread setting, which the harness records in each manifest.  CSR
passes make no BLAS call.  A batch that is the whole index set reads the
feature matrix in place instead of gathering a copy; the arithmetic is the
same, so batch_grad over the full index set equals full_grad exactly.

Whole-set passes at one x share their margins: a linear model keeps the
signed margins v*(U x) of its last whole-set pass, keyed by the exact bytes
of x, so full_grad(x) right after full_loss(x), as ARIG asks at each
accepted trial point, makes no second product (the same holds for a
whole-set loss_and_grad or grad_variance_l1 at that x).  The memo holds N
floats, is replaced as one tuple, and is never read or written by a
gathered batch.  Like ``L``, it assumes the dataset is not changed in place
after the problem is built.

Passes over one gathered batch share its gather: a linear model keeps the
last batch it gathered (sorted indices, rows and labels, all read-only),
keyed by the bytes of the batch's indices as int64, so the same indices in
a new array, or as int32, hit it, and an array changed in place misses it.
VARCHEN's three passes over a step's batch, SVRG's two and an ARAS
transient step's two each validate, sort and gather once.  The memo is
replaced as one tuple by the next batch and dropped by a whole-set pass,
which never reads it; so a run's last batch is released by the report's
full passes.

Every CSR pass runs scipy's compiled sparsetools loops on indptr/indices/
data arrays, with no scipy object built: the dataset's own arrays for the
whole set, and for any other batch a copy of its rows' entries filled by
``csr_row_index`` (a _CsrBatch).  Margins are ``csr_matvec`` and gradient
sums ``csc_matvec`` on those arrays: the loops scipy's X[idx], X @ x and
X.T @ c run, so the bits are scipy's, duplicate or unsorted entries
included.  ``scipy.sparse._sparsetools`` is private; the tests comparing
every CSR pass bit for bit with scipy's public operators guard it.
Summing the duplicates of a dataset not in canonical form wraps the
gathered arrays in a csr_matrix.

The logistic loss uses numpy's vectorized ``exp`` and ``log1p`` in the
stable form max(-z, 0) + log1p(exp(-|z|)), and stays within 2 ulp of
``np.logaddexp(0, -z)`` per sample.  The kernel makes no BLAS call, but
its bits can depend on the SIMD level numpy dispatches to on the machine,
which the harness records in each run's manifest (``numeric_env``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
# scipy's compiled CSR loops, which its csr_matrix operators call; a private
# module, guarded by the bitwise tests against those operators
from scipy.sparse import _sparsetools

__all__ = [
    "Dataset",
    "FiniteSumProblem",
    "LinearModelProblem",
    "QuadraticProblem",
    "make_sigmoid_svm",
    "make_logistic",
    "make_quadratic",
    "make_noisy_quadratic",
]

# Rows with dimension above this stay sparse; smaller problems are densified.
DENSE_DIM_LIMIT = 512

# Scratch bytes of one block in a pass over the whole dataset (the row norms
# here; hashing and CSV writing in harness.py).  A pass holds one block at a
# time, so its transient memory stays this size, not a copy of the dataset.
BLOCK_BYTES = 1 << 20


# Points per sparsetools pass when full_losses evaluates CSR rows (see
# _csr_chunk); the multi-vector loops read the index and value arrays once
# for all of a chunk's points.
FULL_PASS_CHUNK = 8

# The batch full_grad and full_loss hand to _mean_pass: the whole set, no indices.
_WHOLE_SET = object()

# Bounds on each loss's second derivative in z: log(1 + exp(-z)), 1 - tanh(z).
_CURVATURE = {"logistic": 0.25, "sigmoid-svm": 4.0 / (3.0 * np.sqrt(3.0))}


def block_rows(row_bytes: int) -> int:
    """Rows per block when a row takes `row_bytes` bytes (at least one)."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


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
        """max_i ||u_i||^2, reduced one row block at a time.

        Each row's sum runs over the same values in the same order as the
        whole-matrix expression, so the value does not depend on the block
        size.  Dense blocks sum (row ** 2); CSR blocks take
        multiply(block).sum(axis=1), which sums a repeated (i, j) entry
        before squaring it and drops zero products.  multiply() orders a
        row's products by whether its whole operand is in canonical form, so
        CSR that is not canonical is one block: a canonical block of it
        could sum a row in another order."""
        feats = self.features
        sparse = sp.issparse(feats)
        if not sparse:
            step = block_rows(8 * self.n)
        elif feats.has_canonical_format:
            # a block's slice (value and index, 16 bytes at most) and
            # multiply's output, sized for twice the block's entries
            step = block_rows(48 * (feats.nnz // self.N + 1))
        else:
            step = self.N
        maxima = []
        for lo in range(0, self.N, step):
            blk = feats[lo:lo + step] if step < self.N else feats
            sums = (blk.multiply(blk) if sparse else blk ** 2).sum(axis=1)
            maxima.append(sums.max())
        # np.max keeps a NaN row norm, as the whole-matrix max does
        return float(np.max(maxima))


class _CsrBatch(NamedTuple):
    """A gathered batch of m CSR rows in scipy's CSR arrays: row i's stored
    entries are indices/data[indptr[i]:indptr[i+1]], in the dataset's stored
    order and index dtype."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @classmethod
    def gather(cls, feats, idx: np.ndarray) -> "_CsrBatch":
        """Rows idx of CSR `feats`: one copy of their stored entries, filled
        by csr_row_index as feats[idx] fills its own."""
        # the loop takes every index array in one dtype
        itype = np.promote_types(feats.indptr.dtype, feats.indices.dtype)
        idx = idx.astype(itype, copy=False)
        indptr = np.zeros(idx.size + 1, dtype=itype)
        np.cumsum(feats.indptr[idx + 1] - feats.indptr[idx], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=itype)
        data = np.empty(indptr[-1], dtype=feats.data.dtype)
        _sparsetools.csr_row_index(idx.size, idx, feats.indptr, feats.indices,
                                   feats.data, indices, data)
        return cls(indptr, indices, data, (idx.size, feats.shape[1]))

    def tocsr(self) -> sp.csr_matrix:
        """The batch as a csr_matrix on these arrays, for scipy's
        sum_duplicates()."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


@dataclass(frozen=True, kw_only=True)
class FiniteSumProblem:
    """f(x) = (1/N) sum_i f_i(x) with analytic per-sample oracles.

    A kind defines the hooks _mean_pass(batch, x, loss, grad), the (mean
    loss, mean gradient) over a batch or _WHOLE_SET at a checked x, and
    _grad_variance(batch, x); full_losses hands it _points_per_pass points
    at once through _csr_chunk(xs, grad) when that is above 1.  A subclass
    redefines no public method: benchmarks/probe.py counts a run's oracle
    work by wrapping the methods defined here."""

    N: int
    n: int
    lam: float = 0.0
    _points_per_pass = 1

    # -- point and batch checks ---------------------------------------------

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        """x as a flat float array of n finite coordinates.  The length check
        guards the CSR passes: sparsetools reads x by column index unchecked."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.n:
            raise ValueError(f"point x has {x.size} coordinates, not {self.n}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite point x")
        return x

    @staticmethod
    def _batch_indices(batch) -> np.ndarray:
        """The batch as a flat int64 array; a float or boolean batch raises
        TypeError rather than being read as the integers it casts to."""
        idx = np.asarray(batch)
        if idx.size == 0:
            raise ValueError("empty batch")
        if idx.dtype.kind not in "iu":
            raise TypeError(f"batch indices must be integers, not {idx.dtype}")
        return idx.astype(np.int64, copy=False).ravel()

    def _batch_array(self, idx: np.ndarray):
        """(idx, whole): indices from _batch_indices in ascending order
        (which keeps every reduction deterministic) and range-checked, and
        whether they are the whole index set.  A size-N batch that is
        strictly ascending and in range is the whole set in order and takes
        no sort; any other batch is sorted, then checked."""
        whole = idx.size == self.N and bool(np.all(idx[1:] > idx[:-1]))
        if not whole:
            idx = np.sort(idx)
            whole = idx.size == self.N and bool(np.all(idx[1:] > idx[:-1]))
        if idx[0] < 0 or idx[-1] >= self.N:
            raise IndexError("sample index out of range")
        return idx, whole

    def _variance_point(self, m: int, x: np.ndarray) -> np.ndarray:
        """x checked for a variance estimate over a batch of m samples."""
        if m < 2:
            raise ValueError("variance estimate needs a batch of at least 2")
        return self._check_point(x)

    @staticmethod
    def _two_pass_variance(G: np.ndarray, g: np.ndarray) -> float:
        """The l1 norm of the sample variance of the m x n per-sample
        gradients G about their mean g, two-pass.  G is the caller's own
        buffer, which the deviations and their squares overwrite, so G and
        the rows it came from are the only m x n blocks."""
        G -= g
        G *= G
        return float((G.sum(axis=0) / (G.shape[0] - 1)).sum())

    # -- operations --------------------------------------------------------

    def batch_loss(self, batch, x: np.ndarray) -> float:
        """Mean of f_i over the batch."""
        return self._mean_pass(batch, self._check_point(x), True, False)[0]

    def batch_grad(self, batch, x: np.ndarray) -> np.ndarray:
        """(1/m) sum over the batch of grad f_i(x), ascending index order."""
        return self._mean_pass(batch, self._check_point(x), False, True)[1]

    def loss_and_grad(self, batch, x: np.ndarray):
        """(batch_loss(batch, x), batch_grad(batch, x)) from one margin pass.

        Each value is bitwise equal to the separate call; use this wherever
        both are needed at the same point."""
        return self._mean_pass(batch, self._check_point(x), True, True)

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        """grad f(x) over all N samples (same code path as batch_grad)."""
        return self._mean_pass(_WHOLE_SET, self._check_point(x), False, True)[1]

    def full_loss(self, x: np.ndarray) -> float:
        """f(x) over all N samples."""
        return self._mean_pass(_WHOLE_SET, self._check_point(x), True, False)[0]

    def full_losses(self, xs, grad: bool = False):
        """[(f(x), grad f(x)) for x in xs] over all N samples, the gradient
        None unless asked: each pair is bitwise full_loss(x) or
        loss_and_grad(np.arange(N), x).

        CSR rows are evaluated FULL_PASS_CHUNK points per pass (see
        _csr_chunk), and a chunk of one point takes the single-point pass;
        dense and quadratic problems make one pass per point."""
        xs = [self._check_point(x) for x in xs]
        step = self._points_per_pass
        out = []
        for lo in range(0, len(xs), step):
            chunk = xs[lo:lo + step]
            out += (self._csr_chunk(chunk, grad) if len(chunk) > 1
                    else [self._mean_pass(_WHOLE_SET, chunk[0], True, grad)])
        return out

    def grad_variance_l1(self, batch, x: np.ndarray):
        """(g, var_l1): g is batch_grad(batch, x), bitwise, and

            var_l1 = ||(1/(m-1)) sum_{i in batch} (grad f_i(x) - g)^2||_1,

        elementwise square, the norm-test statistic.  For the two losses
        both are reduced from the per-sample coefficients of one gathered
        margin pass.

        Dense and quadratic problems: two-pass form over the per-sample
        gradients.  CSR problems: with w = g - 2 lam x, so that
        grad f_i - g = c_i u_i - w,

            sum_i ||c_i u_i - w||^2
                = m ||w||^2 + sum over stored (i, j) of [(c_i u_ij - w_j)^2 - w_j^2],

        in O(nnz + n) memory.  Both forms equal the same sum and differ only
        by rounding; rounding can push the CSR form of a near-zero variance
        below zero, so it is clamped at 0.
        """
        return self._grad_variance(batch, x)


@dataclass(frozen=True, kw_only=True)
class LinearModelProblem(FiniteSumProblem):
    """A loss of the signed margin v_i * x'u_i of each labelled row, plus
    lam ||x||^2: ``logistic`` or ``sigmoid-svm``."""

    kind: str  # "logistic" | "sigmoid-svm"
    dataset: Dataset
    # the dataset's N and n; L bounds grad f's Lipschitz constant (diagnostics)
    N: int = field(init=False)
    n: int = field(init=False)
    L: float = field(init=False)
    # The last whole-set margin pass, (x.tobytes(), signed margins v*(U x)),
    # replaced as one tuple; see _margins_and_coefs.
    _margins_memo: Optional[Tuple[bytes, np.ndarray]] = field(
        default=None, init=False, compare=False, repr=False)
    # The last gathered batch, (bytes of its int64 indices, (sorted indices,
    # rows, labels)) with read-only arrays, replaced as one tuple; see _gather.
    _batch_memo: Optional[Tuple[bytes, tuple]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in _CURVATURE:
            raise ValueError(f"unknown linear model kind {self.kind!r}")
        if not np.all(np.isin(self.dataset.labels, (-1.0, 1.0))):
            raise ValueError("labels must lie in {-1, +1}")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")
        object.__setattr__(self, "N", self.dataset.N)
        object.__setattr__(self, "n", self.dataset.n)
        object.__setattr__(self, "L", _CURVATURE[self.kind] * self.dataset.max_row_sq_norm()
                           + 2.0 * self.lam)

    @property
    def _points_per_pass(self) -> int:
        # one point a pass on dense rows: a gemm would change their bits
        return FULL_PASS_CHUNK if sp.issparse(self.dataset.features) else 1

    def _gather(self, batch):
        """(idx, rows, labels) of a batch (idx is None for _WHOLE_SET).  The
        whole index set reads the dataset in place; any other batch gathers
        one copy, for CSR features a _CsrBatch of the rows' stored entries,
        which goes to the same sparsetools loops as the dataset's own.  A
        gathered batch is kept in _batch_memo with read-only arrays; a
        whole-set pass drops it."""
        ds = self.dataset
        if batch is _WHOLE_SET:
            object.__setattr__(self, "_batch_memo", None)
            return None, ds.features, ds.labels
        idx = self._batch_indices(batch)
        key = idx.tobytes()
        memo = self._batch_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        idx, whole = self._batch_array(idx)
        if whole:
            object.__setattr__(self, "_batch_memo", None)
            return idx, ds.features, ds.labels
        if sp.issparse(ds.features):
            rows = _CsrBatch.gather(ds.features, idx)
            arrays = (rows.indptr, rows.indices, rows.data)
        else:
            rows = ds.features[idx]
            arrays = (rows,)
        v = ds.labels[idx]
        for arr in (idx, v, *arrays):
            arr.flags.writeable = False
        object.__setattr__(self, "_batch_memo", (key, (idx, rows, v)))
        return idx, rows, v

    def _margins_and_coefs(self, rows, v: np.ndarray, x: np.ndarray,
                           losses: bool, coefs: bool):
        """One margin pass: (pure per-sample losses, d loss_i / d z
        coefficients); a value not asked for is None.  The margins are
        v * (rows @ x); CSR rows, the dataset's or a _CsrBatch, go to
        csr_matvec, which adds each row's products in stored order into a
        zero.  The whole set's margins come from _margins_memo when x has
        its key's bytes, and replace it otherwise; a gathered batch leaves
        the memo alone."""
        whole = rows is self.dataset.features
        key = x.tobytes() if whole else None
        memo = self._margins_memo
        if whole and memo is not None and memo[0] == key:
            z = memo[1]
        else:
            if isinstance(rows, np.ndarray):
                z = v * np.asarray(rows @ x)
            else:
                z = np.zeros(v.size)
                _sparsetools.csr_matvec(v.size, self.n, rows.indptr, rows.indices,
                                        rows.data, x, z)
                z *= v
            if whole:
                z.flags.writeable = False
                object.__setattr__(self, "_margins_memo", (key, z))
        return self._loss_terms(z, v, losses, coefs)

    def _loss_terms(self, z: np.ndarray, v: np.ndarray, losses: bool, coefs: bool):
        """(pure per-sample losses, d loss_i / d z coefficients) at the
        signed margins z, the loss formulas of every pass; a value not asked
        for is None."""
        if self.kind == "sigmoid-svm":
            t = np.tanh(z)
            return (1.0 - t if losses else None,
                    -v * (1.0 - t * t) if coefs else None)
        # logistic: log(1 + exp(-z)) = max(-z, 0) + log1p(exp(-|z|)), stable
        # for either sign (see the module docstring); coef = -v * sigmoid(-z)
        return (np.log1p(np.exp(-np.abs(z))) - np.minimum(z, 0.0) if losses else None,
                -v / (1.0 + np.exp(z)) if coefs else None)

    def _mean_pass(self, batch, x: np.ndarray, loss: bool, grad: bool):
        _, rows, v = self._gather(batch)
        losses, coef = self._margins_and_coefs(rows, v, x, losses=loss, coefs=grad)
        return (self._mean_loss(losses, x) if loss else None,
                self._mean_grad(rows, coef, x) if grad else None)

    def _mean_loss(self, losses: np.ndarray, x: np.ndarray) -> float:
        """Mean of the pure per-sample losses plus lam ||x||^2."""
        return float(np.mean(losses) + self.lam * (x @ x))

    def _grad_from_sum(self, base: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
        """(1/m) base + 2 lam x, where base = sum_i coef_i * row_i over m rows."""
        return base / m + (2.0 * self.lam) * x

    def _mean_grad(self, rows, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(1/m) sum_i coef_i * row_i + 2 lam x over the batch's m rows.

        Each coordinate is a sequential ascending-row sum; a dense BLAS gemv
        would split it across threads and change its bits.  CSR rows (the
        dataset's or a _CsrBatch) go to csc_matvec on their arrays read as
        the transpose, which adds coef_i * u_ij into coordinate j entry by
        entry in stored order, rows ascending: the loop rows.T @ coef runs."""
        if isinstance(rows, np.ndarray):
            base = np.einsum("i,ij->j", coef, rows)
        else:
            base = np.zeros(self.n)
            _sparsetools.csc_matvec(self.n, coef.size, rows.indptr, rows.indices,
                                    rows.data, coef, base)
        return self._grad_from_sum(base, coef.size, x)

    def _csr_chunk(self, xs, grad: bool):
        """full_losses over k >= 2 points of CSR rows, in one (N, k) block:
        csr_matvecs puts point j's margins in column j, each column's losses
        and coefficients come from _loss_terms on a contiguous copy of it,
        the coefficients overwrite the column, and csc_matvecs reduces the
        block into the k gradient sums.  The two loops add each point's
        products in csr_matvec's and csc_matvec's order, so every value has
        the single-point pass's bits.  The margin memo is neither read nor
        written."""
        _, rows, v = self._gather(_WHOLE_SET)
        N, n, k = self.N, self.n, len(xs)
        Z = np.zeros((N, k))
        # the (n, k) block of points, point j in column j, is freed after
        # this pass, so the column loop's temporaries do not add to it
        _sparsetools.csr_matvecs(N, n, k, rows.indptr, rows.indices, rows.data,
                                 np.stack(xs, axis=1), Z)
        Z *= v[:, None]
        fs = []
        for j, x in enumerate(xs):
            losses, coef = self._loss_terms(Z[:, j].copy(), v, losses=True, coefs=grad)
            fs.append(self._mean_loss(losses, x))
            if grad:
                Z[:, j] = coef
            del losses, coef  # before the next column's temporaries
        if not grad:
            return [(f, None) for f in fs]
        G = np.zeros((n, k))
        _sparsetools.csc_matvecs(n, N, k, rows.indptr, rows.indices, rows.data, Z, G)
        return [(f, self._grad_from_sum(G[:, j], N, x)) for j, (f, x) in enumerate(zip(fs, xs))]

    def _grad_variance(self, batch, x: np.ndarray):
        """grad_variance_l1 from one gathered margin pass: the two-pass tail
        over dense rows, the O(nnz + n) identity over CSR rows."""
        idx, rows, v = self._gather(batch)
        m = idx.size
        x = self._variance_point(m, x)
        _, coef = self._margins_and_coefs(rows, v, x, losses=False, coefs=True)
        g = self._mean_grad(rows, coef, x)
        if isinstance(rows, np.ndarray):
            G = coef[:, None] * rows
            G += (2.0 * self.lam) * x
            return g, self._two_pass_variance(G, g)
        if not self.dataset.features.has_canonical_format:
            # a repeated (i, j) entry would be counted as two coordinates;
            # summing rewrites the arrays, so it runs on a copy, never on
            # the memo's or the dataset's
            rows = (rows.tocsr() if isinstance(rows, _CsrBatch) else rows).copy()
            rows.sum_duplicates()
        w = g - (2.0 * self.lam) * x
        vals = np.repeat(coef, np.diff(rows.indptr)) * rows.data  # c_i u_ij
        w_at = w.take(rows.indices)
        # (c u - w)^2 - w^2 = c u (c u - 2 w)
        total = m * float(w @ w) + float(np.sum(vals * (vals - 2.0 * w_at)))
        return g, max(0.0, total / (m - 1))


@dataclass(frozen=True, kw_only=True)
class QuadraticProblem(FiniteSumProblem):
    """Exact-oracle quadratics f_i(x) = 0.5 x'M_i x - b_i'x.

    Rank-one mode (V, w given): M_i = w_i * v_i v_i'.
    Shared mode (V is None):    M_i = A for every i.
    In both modes the averaged objective is 0.5 x'A x - bbar'x, and L, the
    Lipschitz constant of grad f, is A's largest eigenvalue.  lam is 0."""

    kind = "quadratic"
    dataset = None  # no feature rows (benchmarks/probe.py reads None here)
    A: np.ndarray
    B: np.ndarray  # (N, n) rows b_i
    L: float
    V: Optional[np.ndarray] = None  # (N, n) rows v_i
    w: Optional[np.ndarray] = None  # (N,) weights

    def _mean_pass(self, batch, x: np.ndarray, loss: bool, grad: bool):
        idx = (np.arange(self.N) if batch is _WHOLE_SET
               else self._batch_array(self._batch_indices(batch))[0])
        return (float(np.mean(self._losses(idx, x))) if loss else None,
                self._mean_grad(idx, x) if grad else None)

    def _grad_variance(self, batch, x: np.ndarray):
        idx, _ = self._batch_array(self._batch_indices(batch))
        x = self._variance_point(idx.size, x)
        g = self._mean_grad(idx, x)
        return g, self._two_pass_variance(self._sample_grads(idx, x), g)

    def _losses(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        lin = self.B[idx] @ x
        if self.V is not None:
            proj = self.V[idx] @ x
            return 0.5 * self.w[idx] * proj * proj - lin
        return 0.5 * float(x @ (self.A @ x)) - lin

    def _mean_grad(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        m = idx.size
        b_mean = self.B[idx].sum(axis=0) / m
        if self.V is not None:
            Vb = self.V[idx]
            return ((self.w[idx] * (Vb @ x))[:, None] * Vb).sum(axis=0) / m - b_mean
        return self.A @ x - b_mean

    def _sample_grads(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        if self.V is not None:
            Vb = self.V[idx]
            return (self.w[idx] * (Vb @ x))[:, None] * Vb - self.B[idx]
        return (self.A @ x)[None, :] - self.B[idx]

    def minimizer(self) -> np.ndarray:
        """The closed-form minimizer A^{-1} bbar."""
        return np.linalg.solve(self.A, self.B.mean(axis=0))

    def f_low(self) -> float:
        """Exact minimum of f."""
        return self.full_loss(self.minimizer())


def make_sigmoid_svm(dataset: Dataset, lam: float) -> LinearModelProblem:
    """Nonconvex SVM with sigmoid loss: f_i = 1 - tanh(v_i x'u_i) + lam||x||^2."""
    return LinearModelProblem(kind="sigmoid-svm", dataset=dataset, lam=lam)


def make_logistic(dataset: Dataset, lam: float) -> LinearModelProblem:
    """Binary logistic regression: f_i = log(1+exp(-v_i x'u_i)) + lam||x||^2."""
    return LinearModelProblem(kind="logistic", dataset=dataset, lam=lam)


def make_quadratic(A: np.ndarray, b: np.ndarray) -> QuadraticProblem:
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
    return QuadraticProblem(N=n, n=n, A=A, B=B, V=V, w=w, L=float(eigvals.max()))


def make_noisy_quadratic(A: np.ndarray, B: np.ndarray) -> QuadraticProblem:
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
    return QuadraticProblem(N=B.shape[0], n=n, A=A, B=B, L=float(eigvals.max()))
