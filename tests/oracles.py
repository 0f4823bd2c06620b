"""Independent reference implementations used to check the library.

Everything here is deliberately written from the mathematical definitions,
not by calling back into the package: finite differences for gradients, a
dense matrix build of the damped L-BFGS operator, a dense build of the
single-pair update, a looped two-pass variance, the norm-test variance as
two separate passes (gradient, then variance) compute it, a batch's
per-sample gradients written out per problem kind, a line-by-line
libsvm parser, a cell-by-cell CSV parser, the largest squared row norm over
the whole matrix, the metrics report's column rules spelled out per
algorithm, its loss and gradient norm from a fresh full pass per row (the
one helper that calls the package, for values it must match bit for bit),
the logistic loss as np.logaddexp computes it, a CSR batch's oracles
through scipy's own row gather and transpose product, and a float64
ulp distance.  Tests freeze against these, so keep them dumb and obvious.
"""

from __future__ import annotations

import csv
import math
import os
import stat

import numpy as np
import scipy.sparse as sp


def fd_gradient(fun, x: np.ndarray, h_scale: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinatewise."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        h = h_scale * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def dense_inverse_hessian(memory) -> np.ndarray:
    """Explicit matrix for the operator the two-loop recursion applies.

    Start from H0 = inv(gamma_tilde) I at the memory's current scaling and
    fold in each stored pair oldest to newest:
        H <- (I - rho s yhat') H (I - rho yhat s') + rho s s'
    """
    n = memory.pairs[0].s.size if memory.pairs else None
    if n is None:
        raise ValueError("need at least one pair to infer the dimension")
    H = np.eye(n) / memory.gamma_tilde
    for pair in memory.pairs:
        rho = pair.rho_hat
        left = np.eye(n) - rho * np.outer(pair.s, pair.y_hat)
        H = left @ H @ left.T + rho * np.outer(pair.s, pair.s)
    return H


def dense_pair_update(mu: float, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Explicit matrix of one inverse-Hessian update applied to mu*I:
    A = mu V V' + rho s s' with V = I - rho s y', rho = 1/s'y."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    n = s.size
    rho = 1.0 / float(s @ y)
    V = np.eye(n) - rho * np.outer(s, y)
    return mu * (V @ V.T) + rho * np.outer(s, s)


def looped_variance_l1(per_sample_grads: np.ndarray, g: np.ndarray) -> float:
    """Two-pass sample variance, summed over coordinates, written as loops."""
    G = np.asarray(per_sample_grads, dtype=float)
    m, n = G.shape
    total = 0.0
    for j in range(n):
        acc = 0.0
        for i in range(m):
            d = G[i, j] - g[j]
            acc += d * d
        total += acc / (m - 1)
    return total


def per_sample_grads_reference(problem, batch, x: np.ndarray) -> np.ndarray:
    """(m, n) rows grad f_i(x) for i in the sorted batch, from the
    definitions: c_i u_i + 2 lam x for the two losses, c_i = d loss_i / d z
    at the margins of one product over the batch's rows (CSR rows
    densified first), and M_i x - b_i for quadratics.  Dense rows and
    quadratics get the bits of the library's pass over the whole batch;
    stacked singleton batch_grad([i], x) rows would not, because a one-row
    matrix-vector product can round a margin otherwise."""
    idx = np.sort(np.asarray(batch, dtype=np.int64))
    if problem.kind == "quadratic":
        if problem.V is None:  # M_i = A
            return (problem.A @ x)[None, :] - problem.B[idx]
        Vb = problem.V[idx]  # M_i = w_i v_i v_i'
        return (problem.w[idx] * (Vb @ x))[:, None] * Vb - problem.B[idx]
    rows = problem.dataset.features[idx]
    rows = rows.toarray() if sp.issparse(rows) else rows
    v = problem.dataset.labels[idx]
    z = v * (rows @ x)
    if problem.kind == "sigmoid-svm":  # d/dz (1 - tanh z) = -(1 - tanh^2 z)
        t = np.tanh(z)
        coef = -v * (1.0 - t * t)
    else:  # logistic: d/dz log(1 + exp(-z)) = -1 / (1 + exp(z))
        coef = -v / (1.0 + np.exp(z))
    return coef[:, None] * rows + (2.0 * problem.lam) * x


def two_pass_variance_l1(per_sample_grads: np.ndarray, g: np.ndarray) -> float:
    """Two-pass sample variance summed over coordinates, as numpy reduces
    it: squared deviations summed down the rows, divided by m-1, summed
    across.  This is the dense norm-test statistic, bit for bit."""
    G = np.asarray(per_sample_grads, dtype=float)
    dev = G - np.asarray(g, dtype=float)[None, :]
    return float(((dev * dev).sum(axis=0) / (G.shape[0] - 1)).sum())


def csr_variance_l1_reference(features, labels, kind: str, lam: float, batch,
                              x: np.ndarray, g: np.ndarray) -> float:
    """Norm-test variance of a CSR batch at its batch gradient g, by the
    identity (w = g - 2 lam x, c_i = d loss_i / d z at z_i = v_i u_i'x)

        sum_i ||c_i u_i - w||^2 = m ||w||^2 + sum over stored (i, j) of c_i u_ij (c_i u_ij - 2 w_j),

    divided by m-1 and clamped at 0.  Duplicate stored (i, j) entries are
    summed first (after the margins), and every step runs in the same order
    as in the library, so the two agree bit for bit; test_sampling checks
    the identity itself against looped_variance_l1."""
    idx = np.sort(np.asarray(batch, dtype=np.int64))
    m = idx.size
    rows = sp.csr_matrix(features)[idx]
    v = np.asarray(labels, dtype=float)[idx]
    z = v * np.asarray(rows @ x).ravel()
    if kind == "sigmoid-svm":  # d/dz (1 - tanh z) = -(1 - tanh^2 z)
        t = np.tanh(z)
        coef = -v * (1.0 - t * t)
    else:  # logistic: d/dz log(1 + exp(-z)) = -1 / (1 + exp(z))
        coef = -v / (1.0 + np.exp(z))
    rows = rows.copy()
    rows.sum_duplicates()
    w = g - (2.0 * lam) * x
    vals = np.repeat(coef, np.diff(rows.indptr)) * rows.data
    total = m * float(w @ w) + float(np.sum(vals * (vals - 2.0 * w[rows.indices])))
    return max(0.0, total / (m - 1))


def csr_batch_reference(features, labels, kind: str, lam: float, batch,
                        x: np.ndarray):
    """(mean loss, mean gradient) of a CSR batch in scipy's form: the sorted
    batch's rows gathered by csr_matrix indexing, margins rows @ x and the
    gradient sum rows.T @ coef.  A non-canonical matrix keeps its stored
    order and duplicates, which the products add as they come.  The
    library's gathered CSR batch must agree bit for bit."""
    idx = np.sort(np.asarray(batch, dtype=np.int64).ravel())
    rows = sp.csr_matrix(features)[idx]
    v = np.asarray(labels, dtype=float)[idx]
    z = v * np.asarray(rows @ x).ravel()
    if kind == "sigmoid-svm":  # 1 - tanh z, d/dz = -(1 - tanh^2 z)
        t = np.tanh(z)
        losses, coef = 1.0 - t, -v * (1.0 - t * t)
    else:  # logistic in the library's stable form, d/dz = -1 / (1 + exp(z))
        losses = np.log1p(np.exp(-np.abs(z))) - np.minimum(z, 0.0)
        coef = -v / (1.0 + np.exp(z))
    loss = float(np.mean(losses) + lam * (x @ x))
    grad = np.asarray(rows.T @ coef).ravel() / idx.size + (2.0 * lam) * x
    return loss, grad


def logistic_losses_reference(z) -> np.ndarray:
    """Per-sample logistic loss log(1 + exp(-z)) as np.logaddexp(0, -z),
    which calls the scalar libm log1p/exp once per element."""
    with np.errstate(invalid="ignore"):
        return np.logaddexp(0.0, -np.asarray(z, dtype=float))


def ulp_distance(a, b) -> np.ndarray:
    """Elementwise count of float64 values from a to b (uint64); +0 and -0
    are 0 apart.  Meaningless where either side is NaN.

    A double's bits, read as an int64, grow with the value for positives
    and shrink for negatives; INT64_MIN - bits turns the negatives around,
    so every double maps to a point on one integer line."""

    def line(v):
        bits = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)

    ka, kb = line(a), line(b)
    # the unsigned difference of the larger minus the smaller cannot wrap
    hi, lo = np.maximum(ka, kb).astype(np.uint64), np.minimum(ka, kb).astype(np.uint64)
    return hi - lo


def enumerate_batches(N: int, m: int):
    """All size-m subsets of range(N) in lexicographic order."""
    from itertools import combinations

    return [np.array(c, dtype=np.int64) for c in combinations(range(N), m)]


def load_libsvm_reference(path, n_features=None):
    """Line-by-line, token-by-token libsvm parser: the reference for
    harness.load_libsvm's Dataset and error messages.  Checks each line in
    token order: label, then per pair the colon, the index and value
    parses, index >= 1, a finite value, and a repeated index.  A path that
    is not a regular file is refused unopened."""
    from stochopt.problems import DENSE_DIM_LIMIT, Dataset

    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path}: not a regular file")
    labels = []
    rows = []
    max_col = -1
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad label {tokens[0]!r}")
            if not math.isfinite(label):
                raise ValueError(f"{path}: line {lineno}: non-finite label {tokens[0]!r}")
            entries = []
            seen = set()
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ValueError(
                        f"{path}: line {lineno}: expected index:value, got {tok!r}"
                    )
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: bad index:value pair {tok!r}"
                    )
                if idx < 1:
                    raise ValueError(
                        f"{path}: line {lineno}: index {idx} not 1-based positive"
                    )
                if not math.isfinite(val):
                    raise ValueError(f"{path}: line {lineno}: non-finite value in {tok!r}")
                col = idx - 1
                if col in seen:
                    raise ValueError(
                        f"{path}: line {lineno}: duplicate feature index {idx}"
                    )
                seen.add(col)
                entries.append((col, val))
                max_col = max(max_col, col)
            labels.append(label)
            rows.append(entries)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    n = max_col + 1 if n_features is None else n_features
    if n_features is not None and max_col + 1 > n_features:
        raise ValueError(
            f"{path}: feature index {max_col + 1} exceeds declared width {n_features}"
        )
    if n < 1:
        raise ValueError(f"{path}: no features found")

    if n > DENSE_DIM_LIMIT:
        indptr = [0]
        indices = []
        data = []
        for entries in rows:
            for col, val in sorted(entries):
                indices.append(col)
                data.append(val)
            indptr.append(len(indices))
        features = sp.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
            shape=(len(rows), n),
        )
    else:
        features = np.zeros((len(rows), n))
        for i, entries in enumerate(rows):
            for col, val in entries:
                features[i, col] = val
    return Dataset(features=features, labels=np.array(labels, dtype=float))


def load_csv_reference(path, label_column=0, header=False):
    """Row-by-row, cell-by-cell CSV parser: the reference for
    harness.load_csv's Dataset and error messages.  Row numbers count every
    csv record, the header and blank rows included; a row's width is
    checked before its cells, and cells in column order."""
    from stochopt.problems import Dataset

    labels = []
    rows = []
    width = None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for rowno, raw in enumerate(reader, start=1):
            if header and rowno == 1:
                continue
            if not raw:
                continue
            if width is None:
                width = len(raw)
                if width < 2:
                    raise ValueError(f"{path}: row {rowno}: need >= 2 columns")
                if not -width <= label_column < width:
                    raise ValueError(
                        f"{path}: label column {label_column} outside row width {width}"
                    )
            if len(raw) != width:
                raise ValueError(
                    f"{path}: row {rowno}: expected {width} columns, got {len(raw)}"
                )
            values = []
            for colno, cell in enumerate(raw, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {rowno}, column {colno}: non-numeric {cell!r}"
                    )
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {rowno}, column {colno}: non-finite {cell!r}"
                    )
                values.append(value)
            lc = label_column % width
            labels.append(values[lc])
            rows.append(values[:lc] + values[lc + 1 :])
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    return Dataset(features=np.array(rows), labels=np.array(labels))


def max_row_sq_norm_reference(features) -> float:
    """max_i ||u_i||^2 from one whole-matrix expression: dense squares
    summed along each row; CSR multiply(features).sum(axis=1), which sums
    a repeated (i, j) entry before squaring it."""
    if sp.issparse(features):
        return float(features.multiply(features).sum(axis=1).max())
    return float((features ** 2).sum(axis=1).max())


def report_columns_reference(algorithm, trace, N, cadence):
    """The metrics report's rows for a trace, by per-algorithm rules: a tuple
    (epoch, iteration, samples, batch_size, sigma, lambda_lo, lambda_hi,
    phase, flush) for each selected step.

    ARIG steps are full-batch: epoch = k, N samples each, every step a row
    at cadence 0.  The other methods keep the last step of each epoch at
    cadence 0 and charge each step its batch; VARCHEN and SVRG also charge
    the N-sample anchor pass at each epoch's first step.  sigma is ARIG's
    and ARAS's, phase ARAS's, and the eigenvalue bounds and flush flag
    VARCHEN's and SVRG's (SVRG's H = I has bounds [1, 1] and never flushes).
    """
    rows = []
    cum = 0
    prev_epoch = None
    for i, rec in enumerate(trace):
        epoch = rec.k if algorithm == "arig" else rec.epoch
        if algorithm in ("varchen", "svrg") and epoch != prev_epoch:
            cum += N
            prev_epoch = epoch
        cum += N if algorithm == "arig" else rec.m_used
        last = i == len(trace) - 1
        if cadence > 0:
            selected = last or rec.k % cadence == 0
        elif algorithm == "arig":
            selected = True
        else:
            selected = last or trace[i + 1].epoch != rec.epoch
        if not selected:
            continue
        bounds = algorithm in ("varchen", "svrg")
        rows.append((
            epoch,
            rec.k,
            cum,
            N if algorithm == "arig" else rec.m_used,
            rec.sigma if algorithm in ("arig", "aras") else None,
            rec.lam if bounds else None,
            rec.Lam if bounds else None,
            rec.phase if algorithm == "aras" else None,
            rec.flushed if bounds else None,
        ))
    return rows


def report_values_reference(problem, trace, cadence):
    """(loss, grad_norm) of each row the metrics report keeps from a trace,
    each from one problem.loss_and_grad pass over all N samples at the row's
    iterate, whatever the record carries.  A row is kept at cadence c > 0
    when its k is a multiple of c, at cadence 0 when it is the last step of
    its epoch, and the trace's last step always."""
    values = []
    for i, rec in enumerate(trace):
        last = i == len(trace) - 1
        if cadence > 0:
            kept = last or rec.k % cadence == 0
        else:
            kept = last or trace[i + 1].epoch != rec.epoch
        if kept:
            loss, grad = problem.loss_and_grad(np.arange(problem.N), rec.x)
            values.append((loss, float(np.linalg.norm(grad))))
    return values
