"""Experiment harness: config files, dataset IO, metrics CSV, and the CLI.

Configs are INI files with a [problem] section (kind, dataset or [synthetic]
block, regularizer), a [run] section (algorithm, seed, output, cadence), and
an optional per-algorithm section overriding that algorithm's defaults.  Each
section is a dataclass: its keys are the fields, under their own names,
parsed as their annotated types, and an unset key keeps the class's default
(see _SECTION_KEYS).  A value a run would reject fails at load:
each parameter class checks its fields (VarchenParams by building the
L-BFGS memory it describes) and load_config checks [problem] and [run].  A
run writes one CSV of MetricsRecord rows (fixed column order, empty cells
for metrics an algorithm does not produce) plus a JSON manifest holding the
resolved config under the file's own key names, the seed, SHA-256 content
hashes of the training and test sets (computed on a worker thread while
the run goes ahead; see _resolve_datasets), the run's events (ARIG's
accepted and rejected steps and final and largest sigma, ARAS's trigger
step and sigma, VARCHEN's and SVRG's flush count; see _EVENTS) and the
numeric environment the bits can depend on (numpy, BLAS, SIMD level, BLAS
threads).
Everything a run writes is byte-identical across reruns on one machine
except the wall_ms column.

Every optimizer traces its steps as StepRecords (see record.py), so the
report (_trace_to_metrics) reads each row's columns and sample charge from
the record, with no reference to the algorithm.  A run records into a
record.Recorder, which keeps only the records the report makes rows of,
so a run holds one record per report row, not one per step.  The report
runs after the algorithm entry returns: the full-pass loss, gradient
norm and accuracy of its rows are evaluation, kept out of the
optimizer's time and oracle counts.  Where the run already computed the
exact loss and gradient norm at a row's iterate (ARIG's full passes with an
exact f), the record carries them and the report makes no second pass;
where it computed only the gradient (ARIG with a noisy f, a VARCHEN/SVRG
anchor), the report makes a loss-only pass.  The passes the report makes
are handed to the problem several points per call (full_losses), which
evaluates CSR rows one pass per call.  A run builds a
problems.LinearModelProblem of the config's kind.  A diverging run is
reported by its manifest and its inf cells, so numpy's overflow and
invalid-value warnings are off while a run and its report execute.

Every output file is replaced by a new file rather than truncated in place
(see _open_fresh): on ext4, truncating the previous run's not-yet-flushed
output blocks the open while the kernel writes it out.  libsvm and CSV
input are parsed in blocks with C-level string work and array checks (see
load_libsvm, load_csv); a libsvm block checks its colons with one
bytes.translate over the NUL-joined pair tokens and reads plain ASCII
indices with numpy, not int() per token.  A block's checks are the only
place a bad line is found, a label other than -1 or +1 included (both
problem kinds take +-1 labels), so every fault is reported at the first bad
line in file order, with its line or row number.  compare resolves each
distinct dataset source once and hands the datasets to its runs, which run
one after another, so each run's wall_ms is its own optimizer time; it
waits for the digests before its first run only when its configs name two
or more sources.

Generation and hashing add at most one bounded block to the dataset:
generation scales the features in place and the hash, on a worker thread
beside the run, reads the arrays' own buffers.  load_csv keeps numbers
only as float64 arrays and peaks near twice its result.  load_libsvm
counts the file's ':' bytes first and fills a CSR result's value and
column arrays in place, block by block, so it peaks at the result plus
one 256-line block's token strings: 4.74 MiB for a 2.93 MiB result on a
10,000-row file, and an RSS rise of 32.4 MiB for a 29.3 MiB result on a
100,000-row file.

CLI verbs: run, compare, gen-data, validate-config.  Exit codes: 0 success,
1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np
import scipy.sparse as sp

from .aras import ArasParams, aras_run
from .baselines import BaselineParams, MomentumParams, sgd_momentum_run, sgd_run, svrg_run
from .problems import (
    DENSE_DIM_LIMIT,
    FULL_PASS_CHUNK,
    LINEAR_MODEL_KINDS,
    Dataset,
    LinearModelProblem,
    block_rows,
)
from .record import Recorder
from .regularization import RegParams, arig_run
from .varchen import VarchenParams, varchen_run

__all__ = [
    "SyntheticSpec",
    "gen_synthetic",
    "load_libsvm",
    "save_libsvm",
    "load_csv",
    "save_csv",
    "MetricsRecord",
    "METRICS_COLUMNS",
    "write_metrics_csv",
    "read_metrics_csv",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "compare",
    "main",
]


# -- synthetic data -----------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    n_samples: int
    n_features: int
    noise: float = 0.0
    kappa: float = 1.0
    label_model: str = "linear-separable"
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need n_samples >= 2")
        if self.n_features < 1:
            raise ValueError("need n_features >= 1")
        if not self.noise >= 0:
            raise ValueError("noise must be nonnegative")
        if not self.kappa >= 1:
            raise ValueError("condition number kappa must be >= 1")
        if self.label_model not in ("linear-separable", "sigmoid-svm-planted"):
            raise ValueError(f"unknown label model {self.label_model!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Gaussian features with per-column scaling spanning condition number
    kappa, labeled by a planted linear classifier (through tanh for the
    sigmoid-svm model) plus optional Gaussian label noise.

    The columns are scaled in place, so the feature matrix is the only
    n_samples x n_features array ever allocated."""
    N, n = spec.n_samples, spec.n_features
    gen = np.random.Generator(np.random.Philox(spec.seed))
    X = gen.standard_normal((N, n))
    if n > 1 and spec.kappa > 1:
        # column variances span [1/kappa, 1] so cov(X) has condition ~ kappa
        exponents = np.linspace(0.0, 1.0, n)
        X *= spec.kappa ** (-0.5 * exponents)
    w_star = gen.standard_normal(n)
    margins = X @ w_star
    if spec.label_model == "sigmoid-svm-planted":
        margins = np.tanh(margins)
    if spec.noise > 0:
        margins = margins + spec.noise * gen.standard_normal(N)
    labels = np.where(margins >= 0, 1.0, -1.0)
    return Dataset(features=X, labels=labels)


# -- file IO ------------------------------------------------------------------


def _open_fresh(path, newline: Optional[str] = None):
    """Open a new file at `path` for UTF-8 text writing, in place of any old one.

    The path is resolved with os.path.realpath, so a symlinked output keeps
    its link and the link's target gets the new content.  The old file is
    unlinked and a new one created, instead of truncating it by an open with
    "w": on ext4 (auto_da_alloc), truncating a file whose data are not yet
    allocated, such as the previous run's output, flushes those data and
    blocks the open for tens of milliseconds.  Other hard links to the old
    file keep the old content, and the new file gets default permissions.
    Only a regular file is unlinked: a device, FIFO or terminal path (such
    as /dev/null or /dev/stdout) is opened as given, and so is a file whose
    directory does not allow the unlink.  Nothing here fsyncs: the program
    promises no durability, and this adds no flush and removes none the
    caller asks for.
    """
    target = os.path.realpath(path)
    try:
        if stat.S_ISREG(os.stat(target).st_mode):
            os.unlink(target)
            path = target
    except OSError:
        pass  # missing, or not ours to remove: the open creates or truncates it
    return open(path, "w", encoding="utf-8", newline=newline)


# Lines per load_libsvm parse block and per save_libsvm format block.  One
# block's token strings (7 to 9 KiB a line of 30 entries) are the
# transient memory beside the result, and a block's fixed cost is a few
# numpy calls.  On a 10,000-row CSR file of up to 30 entries a row, 256-line
# blocks peak 1.7 MiB under 512-line ones (tracemalloc; 0.44-0.48 MB less
# peak RSS in a whole run) and parse 1-2% slower (1.2-2.7 ms of ~100 ms), a
# difference the run's set-up time does not show.
_LIBSVM_BLOCK_LINES = 256
_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max
# Bytes per read of load_libsvm's ':' count.
_COUNT_BUFFER_BYTES = 1 << 20
# CSR index entries _dataset_hash converts to int64 at a time, through one
# reused 64 KiB block: the digest worker's own malloc arena then keeps no
# 1 MiB block, which raised aras-csr-adaptive's peak RSS by about 0.3 MB.
_HASH_INDEX_BLOCK = 8192

# Every byte but NUL and ':', for bytes.translate to delete.
_NOT_COLON_OR_NUL = bytes(b for b in range(256) if b not in b"\0:")
# Indices of at most this many ASCII digits are read with numpy; an int64
# holds every one of them exactly.
_INDEX_DIGITS = 18


def load_libsvm(path, n_features: Optional[int] = None) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based indices.

    The file is parsed in blocks of _LIBSVM_BLOCK_LINES lines, each with
    C-level work only: a split per line, one check that every pair token
    holds exactly one colon (the tokens joined with NUL, every byte but NUL
    and ':' deleted by bytes.translate, must leave ':' NUL ':' ... ':'),
    the indices read from that buffer's digit spans with numpy when each is
    1 to 18 ASCII digits (else `int` mapped over them, so a sign, '_' or
    another Unicode digit parses as int() does), `float` mapped over the
    labels and values, and array checks (index >= 1, finite numbers, no
    index twice in a row, every label -1 or +1, every index within a
    declared n_features).  Columns come out sorted within each row; rows
    wider than DENSE_DIM_LIMIT stay CSR.  A UTF-8 byte-order mark at the
    start of the file is skipped.
    Malformed input, including a non-finite value, a label other than -1
    or +1, or an index beyond n_features or int64, raises ValueError naming
    the first offending line in file order; only the block holding it is
    scanned again, token by token, to word the message.  A path that is not
    a regular file (a FIFO, a directory) raises ValueError before it is
    opened.

    A file that parses holds one ':' per entry, so a first pass counts the
    file's ':' bytes (_count_colons) and the value and column arrays of the
    result are allocated once at that size; each block writes its entries
    at a running offset (the columns as int32, copied once to int64 if an
    index needs it), and csr_matrix takes the two arrays as they are.  A
    CSR result so peaks at its own size plus one block's token strings and
    the N-long labels and row counts: on a 10,000-row file of up to 30
    entries a row, 4.74 MiB for a 2.93 MiB result (tracemalloc), and on a
    100,000-row one an RSS rise of 32.4 MiB for 29.3 MiB.  A dense result
    is scattered from the two arrays one block's rows at a time, beside
    them, so it peaks at 2.5x its size.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path}: not a regular file")
    changed = f"{path}: file changed while it was read"
    size = _count_colons(path)
    vals = np.empty(size)
    cols = np.empty(size, np.int32)
    end = 0  # entries written so far
    label_parts, count_parts = [], []
    max_col = -1
    lineno = 1
    with open(path, "r", encoding="utf-8-sig") as fh:
        while True:
            lines = list(islice(fh, _LIBSVM_BLOCK_LINES))
            if not lines:
                break
            labels, counts, block_cols, block_vals = _parse_libsvm_block(
                path, lines, lineno, n_features)
            top = int(block_cols.max(initial=-1))
            max_col = max(max_col, top)
            if top > _INT32_MAX and cols.dtype == np.int32:
                cols = cols.astype(np.int64)
            stop = end + block_vals.size
            if stop > size:
                raise ValueError(changed)
            cols[end:stop] = block_cols
            vals[end:stop] = block_vals
            end = stop
            label_parts.append(labels)
            count_parts.append(counts)
            lineno += len(lines)
    N = sum(part.size for part in label_parts)
    if N == 0:
        raise ValueError(f"{path}: empty dataset")
    n = max_col + 1 if n_features is None else n_features
    if n < 1:
        raise ValueError(f"{path}: no features found")
    if end != size:
        raise ValueError(changed)

    labels = np.concatenate(label_parts)
    if n > DENSE_DIM_LIMIT:
        # the index type scipy keeps: int32 unless a size needs int64
        index = np.int32 if max(N, n, size) <= _INT32_MAX else np.int64
        indptr = np.zeros(N + 1, dtype=index)
        np.cumsum(np.concatenate(count_parts), out=indptr[1:])
        features = sp.csr_matrix((vals, cols.astype(index, copy=False), indptr),
                                 shape=(N, n))
    else:
        features = np.zeros((N, n))
        lo = start = 0
        for block_counts in count_parts:
            hi = lo + block_counts.size
            stop = start + int(block_counts.sum())
            rows = np.repeat(np.arange(lo, hi), block_counts)
            features[rows, cols[start:stop]] = vals[start:stop]
            lo, start = hi, stop
    return Dataset(features=features, labels=labels)


def _count_colons(path) -> int:
    """The number of ':' bytes in the file, read in binary through one
    reused buffer of _COUNT_BUFFER_BYTES."""
    buf = np.empty(_COUNT_BUFFER_BYTES, np.uint8)
    total = 0
    with open(path, "rb", buffering=0) as fh:
        while k := fh.readinto(buf):
            total += int(np.count_nonzero(buf[:k] == ord(":")))
    return total


def _parse_libsvm_block(path, lines: List[str], first_lineno: int,
                        n_features: Optional[int]):
    """One block of lines -> (labels, entries per row, 0-based columns
    sorted within each row, values); raises at the block's first bad line."""
    toks = [t for t in map(str.split, lines) if t]
    pairs = list(chain.from_iterable(t[1:] for t in toks))
    joined = "\0".join(pairs).encode()
    ok = False
    try:
        labels = np.fromiter((float(t[0]) for t in toks), float, len(toks))
        # exactly one colon per pair token: deleting every other byte leaves
        # each token's ':' between the NUL separators (a NUL inside a token
        # adds one, and such a token is bad anyway)
        if joined.translate(None, _NOT_COLON_OR_NUL) == (b":\0" * len(pairs))[:-1]:
            fields = ":".join(pairs).split(":")
            idx = _ascii_indices(joined, len(pairs))
            if idx is None:
                idx = np.fromiter(map(int, fields[0::2]), np.int64, len(pairs))
            vals = np.fromiter(map(float, fields[1::2]), float, len(pairs))
            ok = (idx.min(initial=1) >= 1
                  and (n_features is None or idx.max(initial=0) <= n_features)
                  and (np.abs(labels) == 1).all() and np.isfinite(vals).all())
    except (ValueError, OverflowError):
        pass
    if ok:
        counts = np.fromiter(map(len, toks), np.int64, len(toks)) - 1
        rows = np.repeat(np.arange(len(toks)), counts)
        new_row = rows[1:] != rows[:-1]
        cols = idx - 1
        if not ((np.diff(cols) > 0) | new_row).all():
            order = np.lexsort((cols, rows))
            cols, vals = cols[order], vals[order]
            ok = ((np.diff(cols) != 0) | new_row).all()
    if not ok:
        raise ValueError(_first_libsvm_error(path, lines, first_lineno, n_features))
    return labels, counts, cols, vals


def _ascii_indices(joined: bytes, m: int) -> Optional[np.ndarray]:
    """The indices of m NUL-joined `index:value` tokens, each with one
    colon, read digit by digit with numpy when every index is 1 to
    _INDEX_DIGITS ASCII digits; None otherwise, for int() to read them (a
    sign, '_', other Unicode digits, an empty or a longer index)."""
    buf = np.frombuffer(joined, np.uint8)
    colon = np.flatnonzero(buf == ord(":"))
    start = np.zeros(m, np.int64)
    start[1:] = np.flatnonzero(buf == 0) + 1
    width = colon - start
    if m == 0 or not 1 <= width.min() <= width.max() <= _INDEX_DIGITS:
        return None
    idx = np.zeros(m, np.int64)
    for d in range(int(width.max())):
        # the d-th digit from the right, 0 where the index is shorter; a
        # byte below '0' wraps above 9
        digit = buf.take(colon - (d + 1), mode="clip") - np.uint8(ord("0"))
        digit[width <= d] = 0
        if digit.max() > 9:
            return None
        idx += digit * np.int64(10 ** d)
    return idx


def _first_libsvm_error(path, lines: List[str], first_lineno: int,
                        n_features: Optional[int]) -> str:
    """The message naming the first bad token of a block that failed its
    array checks."""
    for lineno, line in enumerate(lines, start=first_lineno):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            return f"{path}: line {lineno}: bad label {tokens[0]!r}"
        if not math.isfinite(label):
            return f"{path}: line {lineno}: non-finite label {tokens[0]!r}"
        if abs(label) != 1:
            return f"{path}: line {lineno}: label {tokens[0]!r} is not -1 or +1"
        seen = set()
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                return f"{path}: line {lineno}: expected index:value, got {tok!r}"
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                return f"{path}: line {lineno}: bad index:value pair {tok!r}"
            if idx < 1:
                return f"{path}: line {lineno}: index {idx} not 1-based positive"
            if n_features is not None and idx > n_features:
                return (f"{path}: line {lineno}: feature index {idx} "
                        f"exceeds declared width {n_features}")
            if idx > _INT64_MAX:
                return f"{path}: line {lineno}: feature index {idx} does not fit in int64"
            if not math.isfinite(val):
                return f"{path}: line {lineno}: non-finite value in {tok!r}"
            if idx in seen:
                return f"{path}: line {lineno}: duplicate feature index {idx}"
            seen.add(idx)
    raise AssertionError("the rescan found no fault the fast parse rejected")


def save_libsvm(path, dataset: Dataset) -> None:
    """Write 1-based `label idx:val` lines with columns ascending; a dense
    set drops its zeros, a CSR set writes every stored entry.  Values keep
    full precision (repr round-trip).  Lines are formatted a block at a time
    from Python numbers (tolist), with no per-row numpy call."""
    feats = dataset.features
    if sp.issparse(feats):
        feats = feats.tocsr().sorted_indices()
    labels = dataset.labels.tolist()
    with _open_fresh(path) as fh:
        for lo in range(0, dataset.N, _LIBSVM_BLOCK_LINES):
            block = feats[lo:lo + _LIBSVM_BLOCK_LINES]
            if sp.issparse(block):
                counts, cols, vals = np.diff(block.indptr), block.indices, block.data
            else:
                rows, cols = np.nonzero(block)
                vals = block[rows, cols]
                counts = np.bincount(rows, minlength=block.shape[0])
            pairs = map("{}:{!r}".format, (cols + 1).tolist(), vals.astype(float).tolist())
            fh.write("".join(
                " ".join([repr(label), *islice(pairs, count)]) + "\n"
                for label, count in zip(labels[lo:lo + _LIBSVM_BLOCK_LINES], counts.tolist())
            ))


# Records per load_csv parse block.  One block's cell strings are the
# transient memory of the parse (about 2 MB for 100-column rows); numbers
# are kept as float64 arrays only.
_CSV_BLOCK_ROWS = 256


def load_csv(path, label_column: int = 0, header: bool = False) -> Dataset:
    """Dense numeric CSV; one column holds the label, -1 or +1.  Bad cells,
    including nan and inf and a label of another value, raise ValueError
    with row and column numbers (1-based, counting the header and blank
    rows).

    csv.reader splits the cells and the file is parsed in blocks of
    _CSV_BLOCK_ROWS records, each with `float` mapped over the block's
    cells into one float64 array and checked for width, finiteness and
    labels; the features and labels are those blocks' arrays, joined once
    at the end, so the parse peaks near twice the returned arrays plus one
    block.  A block that fails a check is scanned again cell by cell, so
    the error names the first bad row or cell in file order.  A csv.Error
    (such as a field over the csv module's size limit) is raised once the
    records before it have been checked.  A UTF-8 byte-order mark at the
    start of the file, as Excel's "CSV UTF-8" export writes, is skipped."""
    label_parts: List[np.ndarray] = []
    feature_parts: List[np.ndarray] = []
    width = None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rowno = 1
        if header:
            next(reader, None)  # the header's cells are names, never parsed
            rowno = 2
        while True:
            records: List[List[str]] = []
            pending = None
            try:
                for raw in islice(reader, _CSV_BLOCK_ROWS):
                    records.append(raw)
            except csv.Error as exc:
                pending = exc
            block = [(no, raw) for no, raw in enumerate(records, start=rowno) if raw]
            rowno += len(records)
            if block:
                if width is None:
                    first_no, first = block[0]
                    width = len(first)
                    if width < 2:
                        raise ValueError(f"{path}: row {first_no}: need >= 2 columns")
                    if not -width <= label_column < width:
                        raise ValueError(
                            f"{path}: label column {label_column} outside row width {width}"
                        )
                    lc = label_column % width
                values = _parse_csv_block(path, block, width, lc)
                # copies, so the block's own array is freed
                label_parts.append(values[:, lc].copy())
                feature_parts.append(np.delete(values, lc, axis=1))
            if pending is not None:
                raise pending
            if not records:
                break
    if not label_parts:
        raise ValueError(f"{path}: empty dataset")
    return Dataset(features=np.concatenate(feature_parts),
                   labels=np.concatenate(label_parts))


def _parse_csv_block(path, block: List[Tuple[int, List[str]]], width: int,
                     lc: int) -> np.ndarray:
    """(row number, cells) records, none empty -> (rows, width) float64
    values, the labels in column lc; raises at the block's first bad row or
    cell in file order."""
    if all(len(raw) == width for _, raw in block):
        cells = list(chain.from_iterable(raw for _, raw in block))
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            pass
        else:
            values = values.reshape(len(block), width)
            if np.isfinite(values).all() and (np.abs(values[:, lc]) == 1).all():
                return values
    # some row or cell is bad: find the first, as a cell-by-cell parse would
    for rowno, raw in block:
        if len(raw) != width:
            raise ValueError(
                f"{path}: row {rowno}: expected {width} columns, got {len(raw)}"
            )
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
            if colno == lc + 1 and abs(value) != 1:
                raise ValueError(
                    f"{path}: row {rowno}, column {colno}: label {cell!r} is not -1 or +1"
                )
    raise AssertionError("the rescan found no fault the fast parse rejected")


def save_csv(path, dataset: Dataset, header: bool = False) -> None:
    """Dense CSV with the label in column 0, full-precision values (repr
    round-trip).  A CSR set is densified one block of rows at a time, so
    writing never holds a dense copy of the whole set."""
    feats = dataset.features
    step = block_rows(8 * dataset.n)
    with _open_fresh(path, newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(["label"] + [f"f{j}" for j in range(dataset.n)])
        for lo in range(0, dataset.N, step):
            block = feats[lo:lo + step]
            if sp.issparse(block):
                block = block.toarray()
            for label, row in zip(dataset.labels[lo:lo + step].tolist(), block):
                writer.writerow([repr(label), *map(repr, row.tolist())])


# -- metrics ------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsRecord:
    """One metrics CSV row; the field order is the file's column order."""

    epoch: int
    iteration: int
    samples: int
    wall_ms: float
    loss: Optional[float] = None
    grad_norm: Optional[float] = None
    batch_size: Optional[int] = None
    sigma: Optional[float] = None
    lambda_lo: Optional[float] = None
    lambda_hi: Optional[float] = None
    phase: Optional[str] = None
    flush: Optional[bool] = None
    test_accuracy: Optional[float] = None


METRICS_COLUMNS = [f.name for f in dataclasses.fields(MetricsRecord)]
_METRICS_HINTS = get_type_hints(MetricsRecord)  # column -> declared type


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_metrics_csv(path, records: Sequence[MetricsRecord]) -> None:
    with _open_fresh(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for rec in records:
            writer.writerow([_fmt_cell(getattr(rec, col)) for col in METRICS_COLUMNS])


def _parse_cell(cell: str, hint):
    """A CSV cell as its field's declared type.  Only an Optional[T] field
    (get_args: (T, NoneType)) reads an empty cell as None; an empty
    required cell fails its type's parse."""
    args = get_args(hint)
    if args and cell == "":
        return None
    typ = args[0] if args else hint
    if typ is bool and cell not in ("0", "1"):
        raise ValueError(f"flag cell must be 0 or 1, got {cell!r}")
    return cell == "1" if typ is bool else typ(cell)


def read_metrics_csv(path) -> List[MetricsRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames != METRICS_COLUMNS:
            raise ValueError(f"{path}: unexpected metrics header {reader.fieldnames}")
        return [
            MetricsRecord(**{name: _parse_cell(row[name], hint)
                             for name, hint in _METRICS_HINTS.items()})
            for row in reader
        ]


# -- configuration ------------------------------------------------------------


class ConfigError(Exception):
    """Carries every validation problem found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# Every config section is a dataclass: its keys are the fields, under their
# own names, each parsed as the field's annotated type, and a key left unset
# keeps the class's default.  [problem] and [run] are these fields of
# ExperimentConfig, [synthetic] is SyntheticSpec, and a [<algorithm>]
# section is the algorithm's parameter class.
_PROBLEM_KEYS = ("kind", "dataset", "test_dataset", "lam", "label_column", "header")
_RUN_KEYS = ("algorithm", "seed", "out", "cadence")
_ALGO_PARAMS = {
    "arig": RegParams,
    "aras": ArasParams,
    "varchen": VarchenParams,
    "sgd": BaselineParams,
    "sgd-momentum": MomentumParams,
    "svrg": BaselineParams,
}
ALGORITHMS = tuple(_ALGO_PARAMS)


@dataclass
class ExperimentConfig:
    kind: str
    algorithm: str
    out: str
    lam: float = 0.0
    seed: int = 0
    cadence: int = 0
    dataset: Optional[str] = None
    test_dataset: Optional[str] = None
    label_column: int = 0
    header: bool = False
    synthetic: Optional[SyntheticSpec] = None
    algo_params: object = None

    def as_manifest_dict(self) -> Dict:
        d = {
            "problem": {key: getattr(self, key) for key in _PROBLEM_KEYS},
            "run": {key: getattr(self, key) for key in _RUN_KEYS},
            "params": dataclasses.asdict(self.algo_params),
        }
        if self.synthetic is not None:
            d["synthetic"] = dataclasses.asdict(self.synthetic)
        return d


def _key_types(cls) -> Dict[str, type]:
    """Config key -> parse type for each field of dataclass cls: the field's
    annotation, or T for an Optional[T] field."""
    hints = get_type_hints(cls)
    return {f.name: (get_args(hints[f.name]) or (hints[f.name],))[0]
            for f in dataclasses.fields(cls)}


_CONFIG_TYPES = _key_types(ExperimentConfig)
_SECTION_KEYS = {  # section -> key -> type
    "problem": {key: _CONFIG_TYPES[key] for key in _PROBLEM_KEYS},
    "synthetic": _key_types(SyntheticSpec),
    "run": {key: _CONFIG_TYPES[key] for key in _RUN_KEYS},
    **{algorithm: _key_types(cls) for algorithm, cls in _ALGO_PARAMS.items()},
}


def _parse_section(parser, section, errors) -> Dict:
    """The keys set in `section`, as their types; unknown keys and values
    that do not parse are appended to errors."""
    out = {}
    if not parser.has_section(section):
        return out
    keyspec = _SECTION_KEYS[section]
    for key in parser.options(section):
        if key not in keyspec:
            errors.append(f"[{section}] unknown key {key!r}")
            continue
        raw = parser.get(section, key)
        typ = keyspec[key]
        try:
            out[key] = parser.getboolean(section, key) if typ is bool else typ(raw)
        except ValueError:
            errors.append(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}")
    return out


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config; every problem found is
    reported in one ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    # values are read literally: a '%' in a path or name is just a '%'
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([f"{path}: {exc}"])

    errors: List[str] = []
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            errors.append(f"unknown section [{section}]")

    prob = _parse_section(parser, "problem", errors)
    syn = _parse_section(parser, "synthetic", errors)
    run = _parse_section(parser, "run", errors)

    kind = prob.get("kind")
    if kind is None:
        errors.append("[problem] kind is required")
    elif kind not in LINEAR_MODEL_KINDS:
        errors.append(f"[problem] kind must be one of {LINEAR_MODEL_KINDS}, got {kind!r}")
    if not 0 <= prob.get("lam", 0.0) < math.inf:
        errors.append("[problem] lam must be nonnegative and finite")

    has_dataset = "dataset" in prob
    has_synthetic = parser.has_section("synthetic")
    if has_dataset == has_synthetic:
        errors.append("[problem] needs exactly one of `dataset` or a [synthetic] section")

    synthetic = None
    if has_synthetic:
        if "n_samples" not in syn or "n_features" not in syn:
            errors.append("[synthetic] n_samples and n_features are required")
        else:
            try:
                synthetic = SyntheticSpec(**syn)
            except ValueError as exc:
                errors.append(f"[synthetic] {exc}")

    algorithm = run.get("algorithm")
    if algorithm is None:
        errors.append("[run] algorithm is required")
    elif algorithm not in ALGORITHMS:
        errors.append(f"[run] algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if run.get("cadence", 0) < 0:
        errors.append("[run] cadence must be >= 0")
    if run.get("seed", 0) < 0:
        errors.append("[run] seed must be >= 0")
    out = run.get("out")
    if out is None:
        run["out"] = str(path.with_suffix(".metrics.csv"))
    elif not Path(out).is_absolute():
        run["out"] = str(path.parent / out)

    algo_params = None
    if algorithm in _ALGO_PARAMS:
        values = _parse_section(parser, algorithm, errors)
        # warn about sections for algorithms that are not being run
        for other in ALGORITHMS:
            if other != algorithm and parser.has_section(other):
                errors.append(f"section [{other}] does not match algorithm {algorithm!r}")
        try:
            algo_params = _ALGO_PARAMS[algorithm](**values)
        except ValueError as exc:
            errors.append(f"[{algorithm}] {exc}")

    # dataset paths resolve relative to the config file
    for key in ("dataset", "test_dataset"):
        if key in prob:
            prob[key] = str((path.parent / prob[key]).resolve())
            if not Path(prob[key]).is_file():
                errors.append(f"[problem] {key} not found: {prob[key]}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**prob, **run, synthetic=synthetic, algo_params=algo_params)


# -- running ------------------------------------------------------------------


def _dataset_hash(dataset: Dataset) -> str:
    """sha256 over a tag, the shape, the feature arrays and the labels.

    A CSR set hashes its data bytes as stored and its indices and indptr as
    int64; a dense set hashes its C-order float64 values.  hashlib reads
    the arrays' own buffers, and the index arrays go through one reused
    block of _HASH_INDEX_BLOCK int64 entries, so hashing adds no copy of
    the dataset; sha256 is a stream, so the digest is that of the
    concatenated bytes.  Runs call it on _resolve_datasets' worker thread,
    beside the optimizer: hashlib releases the interpreter lock for each
    buffer."""
    h = hashlib.sha256()
    feats = dataset.features
    if sp.issparse(feats):
        feats = feats.tocsr()
        h.update(b"csr")
        h.update(np.array(feats.shape, dtype=np.int64))
        h.update(np.ascontiguousarray(feats.data))
        block = np.empty(_HASH_INDEX_BLOCK, dtype=np.int64)
        for index in (feats.indices, feats.indptr):
            for lo in range(0, index.size, block.size):
                part = block[:index.size - lo]
                part[...] = index[lo:lo + block.size]
                h.update(part)
    else:
        h.update(b"dense")
        h.update(np.array(feats.shape, dtype=np.int64))
        h.update(np.ascontiguousarray(feats, dtype=float))
    h.update(np.ascontiguousarray(dataset.labels, dtype=float))
    return h.hexdigest()


def _load_dataset_file(path: str, label_column: int, header: bool,
                       n_features: Optional[int] = None) -> Dataset:
    if path.endswith(".csv"):
        return load_csv(path, label_column=label_column, header=header)
    return load_libsvm(path, n_features=n_features)


# what _resolve_datasets returns: (train, test or None, a future of their digests)
Resolved = Tuple[Dataset, Optional[Dataset], Future]


def _resolve_datasets(config: ExperimentConfig) -> Resolved:
    """The config's training and test sets, and a future of their digests.

    The digests, (_dataset_hash(train), _dataset_hash(test) or None), are
    computed on one worker thread, so the run starts without waiting for
    them: hashlib releases the interpreter lock while it reads a buffer,
    and the worker only reads arrays that nothing writes once the problem
    is built.  The future's result() waits for them and re-raises a
    digest's error."""
    if config.synthetic is not None:
        train = gen_synthetic(config.synthetic)
    else:
        train = _load_dataset_file(config.dataset, config.label_column, config.header)
    test = None
    if config.test_dataset is not None:
        test = _load_dataset_file(
            config.test_dataset, config.label_column, config.header,
            n_features=train.n,
        )
        if test.n != train.n:  # a CSV's width; a libsvm test set takes train's
            raise ValueError(f"{config.test_dataset}: test dataset width {test.n} "
                             f"!= train width {train.n}")
    worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="stochopt-digest")
    digests = worker.submit(
        lambda: (_dataset_hash(train), None if test is None else _dataset_hash(test)))
    worker.shutdown(wait=False)  # the thread ends with its one task
    return train, test, digests


def _accuracy(dataset: Dataset, x: np.ndarray) -> float:
    margins = dataset.features @ x
    margins = np.asarray(margins).ravel()
    preds = np.where(margins >= 0, 1.0, -1.0)
    return float(np.mean(preds == dataset.labels))


def _problem_fingerprint(config: ExperimentConfig, dataset_hash: str) -> str:
    h = hashlib.sha256()
    h.update(config.kind.encode())
    h.update(repr(float(config.lam)).encode())
    h.update(dataset_hash.encode())
    return h.hexdigest()[:12]


def _numeric_env() -> Dict:
    """What the bits of a run's floating-point results can depend on: numpy's
    version, its BLAS, the SIMD extensions numpy found on this machine (the
    logistic loss's vectorized exp/log1p follow them), and the BLAS thread
    variables as set, or None."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    env = {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        # numpy lists no "found" key when it dispatches to no target above
        # its baseline (NPY_DISABLE_CPU_FEATURES can switch all of them off)
        "simd_found": list(info["SIMD Extensions"].get("found", [])),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _trace_to_metrics(problem, test: Optional[Dataset], result) -> List[MetricsRecord]:
    """The metrics rows of a run's trace, one per record: the run's
    record.Recorder kept only the records the report at the config's
    cadence makes rows of (0: the last step of each epoch; see
    record.is_report_row), each charged the samples of the steps it
    replaced.  The N-cost metrics (full loss, full gradient norm, test
    accuracy) are computed at these rows only.

    A record that carries the exact loss and grad_norm at its x (ARIG with
    exact function values, see record.py) gives them to its row as they
    are.  The report evaluates the iterates of the other rows with
    problem.full_losses, FULL_PASS_CHUNK points per call:
    those of records with grad_norm alone (ARIG in "inexact-g-and-f" mode,
    the last step of a VARCHEN/SVRG epoch that another epoch's anchor
    followed) loss-only, and those of records without grad_norm (the last
    record of an ARIG run that exhausted its budget carries its loss, which
    the pass gives again) with their gradients.  Each value has the bits of
    a full_loss or loss_and_grad pass over all N samples; CSR rows take one
    pass per call."""
    trace = result.trace
    values = [(rec.loss, rec.grad_norm) for rec in trace]
    need_both = [j for j, (_, grad_norm) in enumerate(values) if grad_norm is None]
    need_loss = [j for j, (loss, grad_norm) in enumerate(values)
                 if loss is None and grad_norm is not None]
    # one chunk of points per call, its gradients dropped before the next
    # call: the report holds one chunk's gradients at a time
    for grad, need in ((True, need_both), (False, need_loss)):
        for lo in range(0, len(need), FULL_PASS_CHUNK):
            part = need[lo:lo + FULL_PASS_CHUNK]
            for j, (loss, g) in zip(part, problem.full_losses(
                    [trace[j].x for j in part], grad=grad)):
                values[j] = (loss, float(np.linalg.norm(g)) if grad else values[j][1])

    rows: List[MetricsRecord] = []
    samples = 0
    for rec, (loss, grad_norm) in zip(trace, values):
        samples += rec.samples
        rows.append(
            MetricsRecord(
                epoch=rec.epoch,
                iteration=rec.k,
                samples=samples,
                wall_ms=rec.wall_ms,
                loss=loss,
                grad_norm=grad_norm,
                batch_size=rec.m_used,
                sigma=rec.sigma,
                lambda_lo=rec.lam,
                lambda_hi=rec.Lam,
                phase=rec.phase,
                flush=rec.flushed,
                test_accuracy=_accuracy(test, rec.x) if test is not None else None,
            )
        )
    return rows


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the configured run; returns the metrics CSV path."""
    return _run(config, _resolve_datasets(config))[0]


def _dataset_source(config: ExperimentConfig) -> Tuple:
    """What _resolve_datasets reads for a config; equal keys, equal datasets."""
    train = config.synthetic if config.synthetic is not None else config.dataset
    return (train, config.test_dataset, config.label_column, config.header)


# the RunResult facts each algorithm's manifest records under "events"
_EVENTS = {
    "arig": ("n_success", "n_reject", "sigma_final", "sigma_max_observed"),
    "aras": ("trigger_k", "sigma_trigger"),
    "varchen": ("n_flush",),
    "svrg": ("n_flush",),
}


def _run(config: ExperimentConfig, resolved: Resolved) -> Tuple[str, List[MetricsRecord]]:
    """run_experiment on datasets already resolved for this config; returns
    the metrics CSV path and the rows written to it.  The run and its report
    go ahead while the digests are computed; they are waited for before
    any file is written, so a digest's error leaves no output file."""
    train, test, digests = resolved
    # the entries are looked up here, at call time, where a wrapper patched
    # onto the module's names (benchmarks/probe.py) sees the call
    run = {"arig": arig_run, "aras": aras_run, "varchen": varchen_run, "sgd": sgd_run,
           "sgd-momentum": sgd_momentum_run, "svrg": svrg_run}[config.algorithm]
    # A diverging run overflows on its way to the abort, and its report on
    # the last finite iterate; the manifest's aborted/abort_reason and the
    # inf cells report it, so numpy's warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        problem = LinearModelProblem(kind=config.kind, dataset=train, lam=config.lam)
        # the run keeps only the records the report makes rows of
        result = run(problem, config.algo_params, seed=config.seed,
                     recorder=Recorder(config.cadence))
        rows = _trace_to_metrics(problem, test, result)

    ds_hash, test_hash = digests.result()
    out_path = Path(config.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_path, rows)

    manifest = {
        "config": config.as_manifest_dict(),
        "seed": config.seed,
        "dataset_sha256": ds_hash,
        "test_dataset_sha256": test_hash,
        "problem_fingerprint": _problem_fingerprint(config, ds_hash),
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "events": {name: getattr(result, name) for name in _EVENTS.get(config.algorithm, ())},
        "numeric_env": _numeric_env(),
    }
    with _open_fresh(str(out_path) + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    return str(out_path), rows


# -- comparison ---------------------------------------------------------------


def compare(config_paths: Sequence[str]) -> List[Dict]:
    """Run >= 2 configs over the same problem and tabulate their outcomes.

    One problem is one (kind, lam, training-set digest).  When every config
    names one dataset source, the digest is common to all of them, so the
    kinds and lams decide at once and the runs start while the digest is
    computed; configs naming two or more sources wait for their digests
    before the first run.  The fingerprints a rejection lists, and the
    summaries' "problem", are computed from the digests."""
    if len(config_paths) < 2:
        raise ConfigError(["compare needs at least two --config arguments"])
    configs = [load_config(p) for p in config_paths]

    # each distinct source is read (or generated) once and shared by its runs
    by_source: Dict[Tuple, Resolved] = {}
    resolved = []
    for cfg in configs:
        key = _dataset_source(cfg)
        if key not in by_source:
            by_source[key] = _resolve_datasets(cfg)
        resolved.append(by_source[key])

    def fingerprints() -> List[str]:
        return [_problem_fingerprint(cfg, digests.result()[0])
                for cfg, (_, _, digests) in zip(configs, resolved)]

    shared = len(by_source) == 1
    problems = {(cfg.kind, repr(float(cfg.lam)), None if shared else digests.result()[0])
                for cfg, (_, _, digests) in zip(configs, resolved)}
    if len(problems) != 1:
        raise ConfigError(
            ["compare configs target different problems: "
             + ", ".join(f"{Path(p).name}={fp}" for p, fp in zip(config_paths, fingerprints()))]
        )

    # every file the runs write, CSV and manifest, by its real path: two
    # spellings of one file ('..', a symbolic link) would overwrite it
    outs = [os.path.realpath(path) for cfg in configs
            for path in (cfg.out, cfg.out + ".manifest.json")]
    if len(set(outs)) != len(outs):
        raise ConfigError(["compare configs share an output path; outputs must be distinct"])

    runs = [_run(cfg, res) for cfg, res in zip(configs, resolved)]

    summaries: List[Dict] = []
    for cfg, fp, (csv_path, rows) in zip(configs, fingerprints(), runs):
        losses = [r.loss for r in rows if r.loss is not None]
        accs = [r.test_accuracy for r in rows if r.test_accuracy is not None]
        summaries.append(
            {
                "algorithm": cfg.algorithm,
                "problem": fp,
                "final_loss": losses[-1] if losses else math.inf,
                "best_loss": min(losses) if losses else math.inf,
                "final_accuracy": accs[-1] if accs else None,
                "samples": rows[-1].samples if rows else 0,
                "wall_ms": rows[-1].wall_ms if rows else 0.0,
                "csv": csv_path,
            }
        )
    return summaries


def _print_summary_table(summaries: List[Dict]) -> None:
    table = [list(summaries[0])]  # compare's keys, in order
    for s in summaries:
        table.append([
            s["algorithm"], s["problem"],
            f"{s['final_loss']:.6e}", f"{s['best_loss']:.6e}",
            "-" if s["final_accuracy"] is None else f"{s['final_accuracy']:.4f}",
            str(s["samples"]), f"{s['wall_ms']:.1f}", s["csv"],
        ])
    widths = [max(map(len, column)) for column in zip(*table)]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


# -- CLI ----------------------------------------------------------------------


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(["--seed must be >= 0"])
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    if args.cadence is not None:
        if args.cadence < 0:
            raise ConfigError(["--cadence must be >= 0"])
        config.cadence = args.cadence
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochopt",
        description="Stochastic-optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--cadence", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="run several configs on one problem")
    p_cmp.add_argument("--config", action="append", required=True,
                       help="repeat once per experiment")

    p_gen = sub.add_parser("gen-data", help="materialize a [synthetic] dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True,
                       help=".csv writes CSV; anything else writes libsvm text")

    p_val = sub.add_parser("validate-config", help="check a config and exit")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(load_config(args.config), args)
            csv_path = run_experiment(config)
            print(csv_path)
        elif args.command == "compare":
            _print_summary_table(compare(args.config))
        elif args.command == "gen-data":
            config = load_config(args.config)
            if config.synthetic is None:
                raise ConfigError(["gen-data needs a [synthetic] section"])
            dataset = gen_synthetic(config.synthetic)
            if args.out.endswith(".csv"):
                save_csv(args.out, dataset)
            else:
                save_libsvm(args.out, dataset)
            print(args.out)
        elif args.command == "validate-config":
            load_config(args.config)
            print("ok")
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
