"""Experiment harness: config files, dataset IO, metrics CSV, and the CLI.

Configs are INI files with a [problem] section (kind, dataset or [synthetic]
block, regularizer), a [run] section (algorithm, seed, output, cadence), and
an optional per-algorithm section overriding that algorithm's defaults.  Each
section is a dataclass: its keys are the fields, parsed as their annotated
types, and an unset key keeps the class's default (see _SECTION_KEYS for the
renamed and flattened keys).  A value a run would reject fails at load:
each parameter class checks its fields (VarchenParams by building the
L-BFGS memory it describes) and load_config checks [problem] and [run].  A
run writes one CSV of MetricsRecord rows (fixed column order, empty cells
for metrics an algorithm does not produce) plus a JSON manifest holding the
resolved config, the seed, a content hash of the dataset, the run's events
(ARIG's accepted and rejected steps and final and largest sigma, ARAS's
trigger step and sigma, VARCHEN's and SVRG's flush count; see _EVENTS) and
the numeric environment the bits can depend on (numpy, BLAS, SIMD level,
BLAS threads).
Everything a run writes is byte-identical across reruns on one machine
except the wall_ms column.

Every optimizer traces its steps as StepRecords (see record.py), so the
report (_trace_to_metrics) reads each row's columns and sample charge from
the record, with no reference to the algorithm.  A run records into a
record.Recorder, which keeps a record's iterate only when the report will
read it, so a run holds one iterate per report row, not one per step.  The
report runs after the algorithm entry returns: the full-pass loss, gradient
norm and accuracy of the selected rows are evaluation, kept out of the
optimizer's time and oracle counts.  Where the run already computed the exact loss and gradient
norm at a row's iterate (ARIG's full passes), the record carries them and
the report makes no second pass; where it computed only the gradient
(a VARCHEN/SVRG anchor), the report makes a loss-only pass.  The passes
the report makes are handed to the problem several points per call
(full_losses), which evaluates CSR rows one pass per call.

Every output file is replaced by a new file rather than truncated in place
(see _open_fresh): on ext4, truncating the previous run's not-yet-flushed
output blocks the open while the kernel writes it out.  libsvm and CSV
input are parsed in blocks with C-level string work and array checks (see
load_libsvm, load_csv); a libsvm block checks its colons with one
bytes.translate over the NUL-joined pair tokens and reads plain ASCII
indices with numpy, not int() per token.  compare resolves each distinct
dataset source once and hands the datasets to its runs, which run one after
another, so each run's wall_ms is its own optimizer time.

Generation and hashing add at most one bounded block to the dataset:
generation scales the features in place and the hash reads the arrays' own
buffers.  load_csv keeps numbers only as float64 arrays and peaks near
twice its result.  load_libsvm counts the file's ':' bytes first and
fills a CSR result's value and column arrays in place, block by block, so
it peaks at the result plus one 256-line block's token strings: 4.74 MiB
for a 2.93 MiB result on a 10,000-row file, and an RSS rise of 32.4 MiB
for a 29.3 MiB result on a 100,000-row file.

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
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np
import scipy.sparse as sp

from .aras import ArasParams, aras_run
from .baselines import BaselineParams, sgd_momentum_run, sgd_run, svrg_run
from .problems import (
    DENSE_DIM_LIMIT,
    FULL_PASS_CHUNK,
    Dataset,
    block_rows,
    make_logistic,
    make_sigmoid_svm,
)
from .record import Recorder, is_report_row
from .regularization import ARIG_MODES, RegParams, arig_run
from .varchen import StepSchedule, VarchenParams, varchen_run

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
    N: int
    n: int
    noise: float = 0.0
    kappa: float = 1.0
    label_model: str = "linear-separable"
    seed: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need N >= 2")
        if self.n < 1:
            raise ValueError("need n >= 1")
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
    N x n array ever allocated."""
    gen = np.random.Generator(np.random.Philox(spec.seed))
    X = gen.standard_normal((spec.N, spec.n))
    if spec.n > 1 and spec.kappa > 1:
        # column variances span [1/kappa, 1] so cov(X) has condition ~ kappa
        exponents = np.linspace(0.0, 1.0, spec.n)
        X *= spec.kappa ** (-0.5 * exponents)
    w_star = gen.standard_normal(spec.n)
    margins = X @ w_star
    if spec.label_model == "sigmoid-svm-planted":
        margins = np.tanh(margins)
    if spec.noise > 0:
        margins = margins + spec.noise * gen.standard_normal(spec.N)
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
# Bytes per read of load_libsvm's ':' count.
_COUNT_BUFFER_BYTES = 1 << 20

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
    index twice in a row).  Columns come out sorted within each row; rows
    wider than DENSE_DIM_LIMIT stay CSR.  A UTF-8 byte-order mark at the
    start of the file is skipped.
    Malformed input, including a non-finite label or value, raises
    ValueError naming the first offending line in file order; only the
    block holding it is scanned again, token by token, to word the message.
    An index beyond int64 raises OverflowError, but only once the rest of
    the file and the declared width have been checked, so a later bad line
    or a too-small n_features is reported first, as by a whole-file parse.
    A path that is not a regular file (a FIFO, a directory) raises
    ValueError before it is opened.

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
    huge = 0  # largest index that overflowed int64, 0 if none did
    lineno = 1
    with open(path, "r", encoding="utf-8-sig") as fh:
        while True:
            lines = list(islice(fh, _LIBSVM_BLOCK_LINES))
            if not lines:
                break
            try:
                labels, counts, block_cols, block_vals = _parse_libsvm_block(
                    path, lines, lineno)
            except _IndexOverflow as exc:
                huge = max(huge, exc.args[0])
            else:
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
    if N == 0 and not huge:
        raise ValueError(f"{path}: empty dataset")
    max_col = max(max_col, huge - 1)
    n = max_col + 1 if n_features is None else n_features
    if n_features is not None and max_col + 1 > n_features:
        raise ValueError(
            f"{path}: feature index {max_col + 1} exceeds declared width {n_features}"
        )
    if n < 1:
        raise ValueError(f"{path}: no features found")
    if huge:
        raise OverflowError(f"{path}: feature index {huge} does not fit in int64")
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


def _parse_libsvm_block(path, lines: List[str], first_lineno: int):
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
            ok = (idx.min(initial=1) >= 1 and np.isfinite(labels).all()
                  and np.isfinite(vals).all())
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
        raise ValueError(_first_libsvm_error(path, lines, first_lineno))
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


class _IndexOverflow(Exception):
    """A block whose tokens are all valid but whose largest index, args[0],
    does not fit in int64."""


def _first_libsvm_error(path, lines: List[str], first_lineno: int) -> str:
    """The message naming the first bad token of a block that failed its
    array checks.  With every token valid, an index overflowed int64:
    raises _IndexOverflow with the block's largest index."""
    top = 0
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
            if not math.isfinite(val):
                return f"{path}: line {lineno}: non-finite value in {tok!r}"
            if idx in seen:
                return f"{path}: line {lineno}: duplicate feature index {idx}"
            seen.add(idx)
            top = max(top, idx)
    raise _IndexOverflow(top)


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
    """Dense numeric CSV; one column holds the label.  Bad cells, including
    nan and inf, raise ValueError with row and column numbers (1-based,
    counting the header and blank rows).

    csv.reader splits the cells and the file is parsed in blocks of
    _CSV_BLOCK_ROWS records, each with `float` mapped over the block's
    cells into one float64 array and checked for width and finiteness; the
    features and labels are those blocks' arrays, joined once at the end,
    so the parse peaks near twice the returned arrays plus one block.  A
    block that fails a check is scanned again cell by cell, so the error
    names the first bad row or cell in file order.  A csv.Error (such as a
    field over the csv module's size limit) is raised once the records
    before it have been checked.  A UTF-8 byte-order mark at the start of
    the file, as Excel's "CSV UTF-8" export writes, is skipped."""
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
                values = _parse_csv_block(path, block, width)
                lc = label_column % width
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


def _parse_csv_block(path, block: List[Tuple[int, List[str]]], width: int) -> np.ndarray:
    """(row number, cells) records, none empty -> (rows, width) float64
    values; raises at the block's first bad row or cell in file order."""
    if all(len(raw) == width for _, raw in block):
        cells = list(chain.from_iterable(raw for _, raw in block))
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values.reshape(len(block), width)
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


PROBLEM_KINDS = ("logistic", "sigmoid-svm")

# Every config section is a dataclass: its keys are the fields, each parsed
# as the field's annotated type, and a key left unset keeps the class's
# default.  [problem] and [run] are these fields of ExperimentConfig, and
# [synthetic] is SyntheticSpec with N and n named n_samples and n_features.
# A [<algorithm>] section is the algorithm's parameter class, with three
# exceptions: `momentum` is a key only under [sgd-momentum], [arig] `mode` is
# ExperimentConfig.arig_mode, and [varchen] flattens its StepSchedule into
# `schedule`, `step_c` and `step_beta`.
_PROBLEM_KEYS = ("kind", "dataset", "test_dataset", "lam", "label_column", "header")
_RUN_KEYS = ("algorithm", "seed", "out", "cadence")
_SYNTHETIC_NAMES = {"n_samples": "N", "n_features": "n"}  # key -> field
_SCHEDULE_NAMES = {"schedule": "kind", "step_c": "c", "step_beta": "beta"}
_ALGO_PARAMS = {
    "arig": RegParams,
    "aras": ArasParams,
    "varchen": VarchenParams,
    "sgd": BaselineParams,
    "sgd-momentum": BaselineParams,
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
    arig_mode: str = "exact"

    def as_manifest_dict(self) -> Dict:
        d = {
            "problem": {key: getattr(self, key) for key in _PROBLEM_KEYS},
            "run": {key: getattr(self, key) for key in _RUN_KEYS},
            "params": dataclasses.asdict(self.algo_params),
        }
        if self.synthetic is not None:
            d["synthetic"] = dataclasses.asdict(self.synthetic)
        if self.algorithm == "arig":
            d["run"]["arig_mode"] = self.arig_mode
        return d


def _key_types(cls, names: Optional[Dict[str, str]] = None) -> Dict[str, type]:
    """Config key -> parse type for each field of dataclass cls: the field's
    annotation, or T for an Optional[T] field.  `names` maps a key to its
    field where the two differ."""
    hints = get_type_hints(cls)
    keys = {name: key for key, name in (names or {}).items()}
    return {keys.get(f.name, f.name): (get_args(hints[f.name]) or (hints[f.name],))[0]
            for f in dataclasses.fields(cls)}


_CONFIG_TYPES = _key_types(ExperimentConfig)


def _algo_keys(algorithm: str) -> Dict[str, type]:
    keys = _key_types(_ALGO_PARAMS[algorithm])
    if algorithm in ("sgd", "svrg"):
        del keys["momentum"]
    elif algorithm == "arig":
        keys["mode"] = _CONFIG_TYPES["arig_mode"]
    elif algorithm == "varchen":
        del keys["schedule"]
        keys.update(_key_types(StepSchedule, _SCHEDULE_NAMES))
    return keys


_SECTION_KEYS = {  # section -> key -> type
    "problem": {key: _CONFIG_TYPES[key] for key in _PROBLEM_KEYS},
    "synthetic": _key_types(SyntheticSpec, _SYNTHETIC_NAMES),
    "run": {key: _CONFIG_TYPES[key] for key in _RUN_KEYS},
    **{algorithm: _algo_keys(algorithm) for algorithm in ALGORITHMS},
}


def _fields(values: Dict, names: Dict[str, str]) -> Dict:
    """A parsed section's values keyed by field instead of by config key."""
    return {names.get(key, key): value for key, value in values.items()}


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
            if typ is bool:
                lowered = raw.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    out[key] = True
                elif lowered in ("0", "false", "no", "off"):
                    out[key] = False
                else:
                    raise ValueError(raw)
            else:
                out[key] = typ(raw)
        except ValueError:
            errors.append(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}")
    return out


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config; every problem found is
    reported in one ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
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
    elif kind not in PROBLEM_KINDS:
        errors.append(f"[problem] kind must be one of {PROBLEM_KINDS}, got {kind!r}")
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
                synthetic = SyntheticSpec(**_fields(syn, _SYNTHETIC_NAMES))
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
    arig_mode = ExperimentConfig.arig_mode
    if algorithm in _ALGO_PARAMS:
        values = _parse_section(parser, algorithm, errors)
        # warn about sections for algorithms that are not being run
        for other in ALGORITHMS:
            if other != algorithm and parser.has_section(other):
                errors.append(f"section [{other}] does not match algorithm {algorithm!r}")
        if algorithm == "arig":
            arig_mode = values.pop("mode", arig_mode)
            if arig_mode not in ARIG_MODES:
                errors.append(f"[arig] mode must be one of {ARIG_MODES}")
            elif (arig_mode == "inexact-g-and-f") != (values.get("eta0") is not None):
                # arig_run raises without it in that mode and drops it in the
                # others, where the manifest would still record it
                errors.append("[arig] eta0 is required by mode = inexact-g-and-f "
                              "and read by no other mode")
        try:
            if algorithm == "varchen":
                schedule = {key: values.pop(key) for key in _SCHEDULE_NAMES if key in values}
                values["schedule"] = dataclasses.replace(
                    VarchenParams.schedule, **_fields(schedule, _SCHEDULE_NAMES))
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
    return ExperimentConfig(**prob, **run, synthetic=synthetic,
                            algo_params=algo_params, arig_mode=arig_mode)


# -- running ------------------------------------------------------------------


def _dataset_hash(dataset: Dataset) -> str:
    """sha256 over a tag, the shape, the feature arrays and the labels.

    A CSR set hashes its data bytes as stored and its indices and indptr as
    int64; a dense set hashes its C-order float64 values.  hashlib reads
    the arrays' own buffers, and an index array of another integer type is
    converted to int64 one block at a time, so hashing adds no copy of the
    dataset; sha256 is a stream, so the digest is that of the concatenated
    bytes."""
    h = hashlib.sha256()
    feats = dataset.features
    if sp.issparse(feats):
        feats = feats.tocsr()
        h.update(b"csr")
        h.update(np.array(feats.shape, dtype=np.int64))
        h.update(np.ascontiguousarray(feats.data))
        step = block_rows(8)
        for index in (feats.indices, feats.indptr):
            for lo in range(0, index.size, step):
                h.update(np.ascontiguousarray(index[lo:lo + step], dtype=np.int64))
    else:
        h.update(b"dense")
        h.update(np.array(feats.shape, dtype=np.int64))
        h.update(np.ascontiguousarray(feats, dtype=float))
    h.update(np.ascontiguousarray(dataset.labels, dtype=float))
    return h.hexdigest()


def _load_dataset_file(path: str, label_column: int, header: bool,
                       n_features: Optional[int] = None) -> Dataset:
    if path.endswith(".csv"):
        dataset = load_csv(path, label_column=label_column, header=header)
    else:
        dataset = load_libsvm(path, n_features=n_features)
    # both problem kinds take -1/+1 labels: a file with others fails here,
    # naming its line, not in the problem's build
    bad = np.flatnonzero(np.abs(dataset.labels) != 1)
    if bad.size:
        raise ValueError(_label_location(path, int(bad[0]), label_column, header))
    return dataset


def _label_location(path: str, row: int, label_column: int, header: bool) -> str:
    """The message naming the label of data row `row` (0-based) of a file
    its loader has read: by line in libsvm (a blank line holds no row), by
    row and column in CSV (counting the header and blank rows, as load_csv
    does)."""
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            records = enumerate(csv.reader(fh), start=1)
            rowno, raw = next(islice(((no, raw) for no, raw in records
                                      if raw and not (header and no == 1)), row, None))
        col = label_column % len(raw)
        return f"{path}: row {rowno}, column {col + 1}: label {raw[col]!r} is not -1 or +1"
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = ((no, line.split()) for no, line in enumerate(fh, start=1))
        lineno, tokens = next(islice(((no, t) for no, t in lines if t), row, None))
    return f"{path}: line {lineno}: label {tokens[0]!r} is not -1 or +1"


def _resolve_datasets(config: ExperimentConfig) -> Tuple[Dataset, Optional[Dataset], str]:
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
        if test.n != train.n:
            raise ConfigError(
                [f"test dataset width {test.n} != train width {train.n}"]
            )
    return train, test, _dataset_hash(train)


def _build_problem(config: ExperimentConfig, dataset: Dataset):
    if config.kind == "logistic":
        return make_logistic(dataset, lam=config.lam)
    return make_sigmoid_svm(dataset, lam=config.lam)


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


def _trace_to_metrics(
    config: ExperimentConfig, problem, test: Optional[Dataset], result
) -> List[MetricsRecord]:
    """Downsample a trace of StepRecords at the configured cadence (0: the
    last step of each epoch; record.is_report_row, the rule by which the
    run's Recorder kept x on these records only), computing the N-cost
    metrics (full loss, full gradient norm, test accuracy) only at the
    selected rows.

    A record that carries the exact loss and grad_norm at its x (ARIG with
    exact function values, see record.py) gives them to its row as they
    are.  The report first selects its rows, then evaluates the iterates of
    the rest with problem.full_losses, FULL_PASS_CHUNK points per call:
    those of records with grad_norm alone (the last step of a VARCHEN/SVRG
    epoch that another epoch's anchor followed) loss-only, and those of
    records with neither with their gradients.  Each value has the bits of
    a full_loss or loss_and_grad pass over all N samples; CSR rows take one
    pass per call."""
    trace = result.trace
    selected = []  # (record, cumulative samples)
    cum_samples = 0
    for rec, nxt in zip(trace, [*trace[1:], None]):
        cum_samples += rec.samples
        if is_report_row(rec, nxt, config.cadence):
            selected.append((rec, cum_samples))

    values = [(rec.loss, rec.grad_norm) for rec, _ in selected]
    need_both = [j for j, (_, grad_norm) in enumerate(values) if grad_norm is None]
    need_loss = [j for j, (loss, grad_norm) in enumerate(values)
                 if loss is None and grad_norm is not None]
    # one chunk of points per call, its gradients dropped before the next
    # call: the report holds one chunk's gradients at a time
    for grad, need in ((True, need_both), (False, need_loss)):
        for lo in range(0, len(need), FULL_PASS_CHUNK):
            part = need[lo:lo + FULL_PASS_CHUNK]
            for j, (loss, g) in zip(part, problem.full_losses(
                    [selected[j][0].x for j in part], grad=grad)):
                values[j] = (loss, float(np.linalg.norm(g)) if grad else values[j][1])

    rows: List[MetricsRecord] = []
    for (rec, samples), (loss, grad_norm) in zip(selected, values):
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


def _run(config: ExperimentConfig, resolved: Tuple[Dataset, Optional[Dataset], str]
         ) -> Tuple[str, List[MetricsRecord]]:
    """run_experiment on datasets already resolved for this config; returns
    the metrics CSV path and the rows written to it."""
    train, test, ds_hash = resolved
    problem = _build_problem(config, train)
    # the entries are looked up here, at call time, where a wrapper patched
    # onto the module's names (benchmarks/probe.py) sees the call
    run = {"arig": arig_run, "aras": aras_run, "varchen": varchen_run, "sgd": sgd_run,
           "sgd-momentum": sgd_momentum_run, "svrg": svrg_run}[config.algorithm]
    kwargs = {"mode": config.arig_mode} if config.algorithm == "arig" else {}
    # the run keeps x only on the records the report reads
    result = run(problem, config.algo_params, seed=config.seed,
                 recorder=Recorder(config.cadence), **kwargs)

    rows = _trace_to_metrics(config, problem, test, result)
    out_path = Path(config.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_path, rows)

    manifest = {
        "config": config.as_manifest_dict(),
        "seed": config.seed,
        "dataset_sha256": ds_hash,
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
    """Run >= 2 configs over the same problem and tabulate their outcomes."""
    if len(config_paths) < 2:
        raise ConfigError(["compare needs at least two --config arguments"])
    configs = [load_config(p) for p in config_paths]

    # each distinct source is read (or generated) once and shared by its runs
    by_source: Dict[Tuple, Tuple[Dataset, Optional[Dataset], str]] = {}
    resolved = []
    for cfg in configs:
        key = _dataset_source(cfg)
        if key not in by_source:
            by_source[key] = _resolve_datasets(cfg)
        resolved.append(by_source[key])
    fingerprints = [_problem_fingerprint(cfg, ds_hash)
                    for cfg, (_, _, ds_hash) in zip(configs, resolved)]
    if len(set(fingerprints)) != 1:
        raise ConfigError(
            ["compare configs target different problems: "
             + ", ".join(f"{Path(p).name}={fp}" for p, fp in zip(config_paths, fingerprints))]
        )

    # every file the runs write, CSV and manifest, by its real path: two
    # spellings of one file ('..', a symbolic link) would overwrite it
    outs = [os.path.realpath(path) for cfg in configs
            for path in (cfg.out, cfg.out + ".manifest.json")]
    if len(set(outs)) != len(outs):
        raise ConfigError(["compare configs share an output path; outputs must be distinct"])

    runs = [_run(cfg, res) for cfg, res in zip(configs, resolved)]

    summaries: List[Dict] = []
    for cfg, fp, (csv_path, rows) in zip(configs, fingerprints, runs):
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
