"""Experiment harness: config files, dataset IO, metrics CSV, and the CLI.

Configs are INI files with a [problem] section (kind, dataset or [synthetic]
block, regularizer), a [run] section (algorithm, seed, output, cadence), and
an optional per-algorithm section overriding that algorithm's defaults.  A
run writes one CSV of MetricsRecord rows (fixed column order, empty cells
for metrics an algorithm does not produce) plus a JSON manifest holding the
resolved config, the seed, and a content hash of the dataset.  Everything a
run writes is byte-identical across reruns except the wall_ms column.

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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .aras import ArasParams, aras_run
from .baselines import BaselineParams, sgd_momentum_run, sgd_run, svrg_run
from .problems import DENSE_DIM_LIMIT, Dataset, make_logistic, make_sigmoid_svm
from .regularization import RegParams, arig_run
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
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not self.kappa >= 1:
            raise ValueError("condition number kappa must be >= 1")
        if self.label_model not in ("linear-separable", "sigmoid-svm-planted"):
            raise ValueError(f"unknown label model {self.label_model!r}")


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Gaussian features with per-column scaling spanning condition number
    kappa, labeled by a planted linear classifier (through tanh for the
    sigmoid-svm model) plus optional Gaussian label noise."""
    gen = np.random.Generator(np.random.Philox(spec.seed))
    X = gen.standard_normal((spec.N, spec.n))
    if spec.n > 1 and spec.kappa > 1:
        # column variances span [1/kappa, 1] so cov(X) has condition ~ kappa
        exponents = np.linspace(0.0, 1.0, spec.n)
        X = X * (spec.kappa ** (-0.5 * exponents))[None, :]
    w_star = gen.standard_normal(spec.n)
    margins = X @ w_star
    if spec.label_model == "sigmoid-svm-planted":
        margins = np.tanh(margins)
    if spec.noise > 0:
        margins = margins + spec.noise * gen.standard_normal(spec.N)
    labels = np.where(margins >= 0, 1.0, -1.0)
    return Dataset(features=X, labels=labels)


# -- dataset file IO ----------------------------------------------------------


def load_libsvm(path, n_features: Optional[int] = None) -> Dataset:
    """Parse `label idx:val ...` lines with 1-based indices; malformed input
    raises with the offending line number."""
    labels: List[float] = []
    rows: List[List[Tuple[int, float]]] = []
    max_col = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad label {tokens[0]!r}")
            entries: List[Tuple[int, float]] = []
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
        indices: List[int] = []
        data: List[float] = []
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


def save_libsvm(path, dataset: Dataset) -> None:
    """Write 1-based `label idx:val` lines; zeros are dropped, values keep
    full precision (repr round-trip)."""
    feats = dataset.features
    sparse = sp.issparse(feats)
    if sparse:
        feats = feats.tocsr()
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(dataset.N):
            parts = [repr(float(dataset.labels[i]))]
            if sparse:
                start, stop = feats.indptr[i], feats.indptr[i + 1]
                cols = feats.indices[start:stop]
                vals = feats.data[start:stop]
                order = np.argsort(cols)
                cols, vals = cols[order], vals[order]
            else:
                row = feats[i]
                cols = np.nonzero(row)[0]
                vals = row[cols]
            for col, val in zip(cols, vals):
                parts.append(f"{col + 1}:{repr(float(val))}")
            fh.write(" ".join(parts) + "\n")


def load_csv(path, label_column: int = 0, header: bool = False) -> Dataset:
    """Dense numeric CSV; one column holds the label.  Bad cells raise with
    row and column numbers (1-based, counting the header if present)."""
    labels: List[float] = []
    rows: List[List[float]] = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {rowno}, column {colno}: non-numeric {cell!r}"
                    )
            lc = label_column % width
            labels.append(values[lc])
            rows.append(values[:lc] + values[lc + 1 :])
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    return Dataset(features=np.array(rows), labels=np.array(labels))


def save_csv(path, dataset: Dataset, header: bool = False) -> None:
    """Dense CSV with the label in column 0, full-precision values."""
    feats = dataset.features
    if sp.issparse(feats):
        feats = feats.toarray()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(["label"] + [f"f{j}" for j in range(dataset.n)])
        for i in range(dataset.N):
            writer.writerow(
                [repr(float(dataset.labels[i]))]
                + [repr(float(v)) for v in feats[i]]
            )


# -- metrics ------------------------------------------------------------------

METRICS_COLUMNS = [
    "epoch",
    "iteration",
    "samples",
    "wall_ms",
    "loss",
    "grad_norm",
    "batch_size",
    "sigma",
    "lambda_lo",
    "lambda_hi",
    "phase",
    "flush",
    "test_accuracy",
]


@dataclass(frozen=True)
class MetricsRecord:
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for rec in records:
            writer.writerow([_fmt_cell(getattr(rec, col)) for col in METRICS_COLUMNS])


def read_metrics_csv(path) -> List[MetricsRecord]:
    out: List[MetricsRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_COLUMNS:
            raise ValueError(f"{path}: unexpected metrics header {reader.fieldnames}")
        for row in reader:
            out.append(
                MetricsRecord(
                    epoch=int(row["epoch"]),
                    iteration=int(row["iteration"]),
                    samples=int(row["samples"]),
                    wall_ms=float(row["wall_ms"]),
                    loss=float(row["loss"]) if row["loss"] else None,
                    grad_norm=float(row["grad_norm"]) if row["grad_norm"] else None,
                    batch_size=int(row["batch_size"]) if row["batch_size"] else None,
                    sigma=float(row["sigma"]) if row["sigma"] else None,
                    lambda_lo=float(row["lambda_lo"]) if row["lambda_lo"] else None,
                    lambda_hi=float(row["lambda_hi"]) if row["lambda_hi"] else None,
                    phase=row["phase"] or None,
                    flush=(row["flush"] == "1") if row["flush"] else None,
                    test_accuracy=(
                        float(row["test_accuracy"]) if row["test_accuracy"] else None
                    ),
                )
            )
    return out


# -- configuration ------------------------------------------------------------


class ConfigError(Exception):
    """Carries every validation problem found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


ALGORITHMS = ("arig", "aras", "varchen", "sgd", "sgd-momentum", "svrg")
PROBLEM_KINDS = ("logistic", "sigmoid-svm")
ARIG_MODES = ("exact", "inexact-g", "inexact-g-and-f")

# section -> key -> parser
_PROBLEM_KEYS = {
    "kind": str,
    "dataset": str,
    "test_dataset": str,
    "lam": float,
    "label_column": int,
    "header": bool,
}
_SYNTHETIC_KEYS = {
    "n_samples": int,
    "n_features": int,
    "noise": float,
    "kappa": float,
    "label_model": str,
    "seed": int,
}
_RUN_KEYS = {"algorithm": str, "seed": int, "out": str, "cadence": int}
_ALGO_KEYS = {
    "arig": {
        "eps": float, "sigma0": float, "sigma_min": float, "eta1": float,
        "eta2": float, "gamma1": float, "gamma2": float, "gamma3": float,
        "eta0": float, "max_iters": int, "mode": str,
    },
    "aras": {
        "sigma0": float, "sigma_min": float, "eta": float, "gamma1": float,
        "gamma2": float, "m0": int, "m_max": int, "burn_in": int,
        "n_epochs": int,
    },
    "varchen": {
        "p": int, "eta": float, "lam_min": float, "lam_max": float,
        "gamma_under": float, "gamma_over": float, "m": int,
        "schedule": str, "step_c": float, "step_beta": float, "n_epochs": int,
    },
    "sgd": {"alpha": float, "m": int, "n_epochs": int},
    "sgd-momentum": {"alpha": float, "momentum": float, "m": int, "n_epochs": int},
    "svrg": {"alpha": float, "m": int, "n_epochs": int},
}


@dataclass
class ExperimentConfig:
    kind: str
    lam: float
    algorithm: str
    seed: int
    out: str
    cadence: int
    dataset: Optional[str] = None
    test_dataset: Optional[str] = None
    label_column: int = 0
    header: bool = False
    synthetic: Optional[SyntheticSpec] = None
    algo_params: object = None
    arig_mode: str = "exact"

    def as_manifest_dict(self) -> Dict:
        d = {
            "problem": {
                "kind": self.kind,
                "lam": self.lam,
                "dataset": self.dataset,
                "test_dataset": self.test_dataset,
                "label_column": self.label_column,
                "header": self.header,
            },
            "run": {
                "algorithm": self.algorithm,
                "seed": self.seed,
                "out": self.out,
                "cadence": self.cadence,
            },
            "params": dataclasses.asdict(self.algo_params),
        }
        if self.synthetic is not None:
            d["synthetic"] = dataclasses.asdict(self.synthetic)
        if self.algorithm == "arig":
            d["run"]["arig_mode"] = self.arig_mode
        return d


def _parse_section(parser, section, keyspec, errors) -> Dict:
    out = {}
    if not parser.has_section(section):
        return out
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
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([f"{path}: {exc}"])

    errors: List[str] = []
    known_sections = {"problem", "synthetic", "run", *_ALGO_KEYS}
    for section in parser.sections():
        if section not in known_sections:
            errors.append(f"unknown section [{section}]")

    prob = _parse_section(parser, "problem", _PROBLEM_KEYS, errors)
    syn = _parse_section(parser, "synthetic", _SYNTHETIC_KEYS, errors)
    run = _parse_section(parser, "run", _RUN_KEYS, errors)

    kind = prob.get("kind")
    if kind is None:
        errors.append("[problem] kind is required")
    elif kind not in PROBLEM_KINDS:
        errors.append(f"[problem] kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    lam = prob.get("lam", 0.0)
    if lam < 0:
        errors.append("[problem] lam must be nonnegative")

    has_dataset = "dataset" in prob
    has_synthetic = parser.has_section("synthetic")
    if has_dataset == has_synthetic:
        errors.append("[problem] needs exactly one of `dataset` or a [synthetic] section")

    synthetic = None
    if has_synthetic:
        syn_kwargs = {
            "N": syn.get("n_samples"),
            "n": syn.get("n_features"),
            "noise": syn.get("noise", 0.0),
            "kappa": syn.get("kappa", 1.0),
            "label_model": syn.get("label_model", "linear-separable"),
            "seed": syn.get("seed", 0),
        }
        if syn_kwargs["N"] is None or syn_kwargs["n"] is None:
            errors.append("[synthetic] n_samples and n_features are required")
        else:
            try:
                synthetic = SyntheticSpec(**syn_kwargs)
            except ValueError as exc:
                errors.append(f"[synthetic] {exc}")

    algorithm = run.get("algorithm")
    if algorithm is None:
        errors.append("[run] algorithm is required")
    elif algorithm not in ALGORITHMS:
        errors.append(f"[run] algorithm must be one of {ALGORITHMS}, got {algorithm!r}")

    cadence = run.get("cadence", 0)
    if cadence < 0:
        errors.append("[run] cadence must be >= 0")
    seed = run.get("seed", 0)
    out_raw = run.get("out")
    if out_raw is None:
        out = str(path.with_suffix(".metrics.csv"))
    elif Path(out_raw).is_absolute():
        out = out_raw
    else:
        out = str(path.parent / out_raw)

    algo_params = None
    arig_mode = "exact"
    if algorithm in _ALGO_KEYS:
        algo_kwargs = _parse_section(parser, algorithm, _ALGO_KEYS[algorithm], errors)
        # warn about sections for algorithms that are not being run
        for other in _ALGO_KEYS:
            if other != algorithm and parser.has_section(other):
                errors.append(f"section [{other}] does not match algorithm {algorithm!r}")
        try:
            if algorithm == "arig":
                arig_mode = algo_kwargs.pop("mode", "exact")
                if arig_mode not in ARIG_MODES:
                    errors.append(f"[arig] mode must be one of {ARIG_MODES}")
                algo_params = RegParams(**algo_kwargs)
            elif algorithm == "aras":
                algo_params = ArasParams(**algo_kwargs)
            elif algorithm == "varchen":
                sched_kind = algo_kwargs.pop("schedule", "constant")
                sched_c = algo_kwargs.pop("step_c", 0.1)
                sched_beta = algo_kwargs.pop("step_beta", 0.75)
                schedule = StepSchedule(kind=sched_kind, c=sched_c, beta=sched_beta)
                algo_params = VarchenParams(schedule=schedule, **algo_kwargs)
            else:
                algo_params = BaselineParams(**algo_kwargs)
        except ValueError as exc:
            errors.append(f"[{algorithm}] {exc}")

    # dataset paths resolve relative to the config file
    dataset = prob.get("dataset")
    test_dataset = prob.get("test_dataset")
    if dataset is not None:
        dataset = str((path.parent / dataset).resolve())
        if not Path(dataset).is_file():
            errors.append(f"[problem] dataset not found: {dataset}")
    if test_dataset is not None:
        test_dataset = str((path.parent / test_dataset).resolve())
        if not Path(test_dataset).is_file():
            errors.append(f"[problem] test_dataset not found: {test_dataset}")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        kind=kind,
        lam=lam,
        algorithm=algorithm,
        seed=seed,
        out=out,
        cadence=cadence,
        dataset=dataset,
        test_dataset=test_dataset,
        label_column=prob.get("label_column", 0),
        header=prob.get("header", False),
        synthetic=synthetic,
        algo_params=algo_params,
        arig_mode=arig_mode,
    )


# -- running ------------------------------------------------------------------


def _dataset_hash(dataset: Dataset) -> str:
    h = hashlib.sha256()
    feats = dataset.features
    if sp.issparse(feats):
        feats = feats.tocsr()
        h.update(b"csr")
        h.update(np.array(feats.shape, dtype=np.int64).tobytes())
        h.update(feats.data.tobytes())
        h.update(np.asarray(feats.indices, dtype=np.int64).tobytes())
        h.update(np.asarray(feats.indptr, dtype=np.int64).tobytes())
    else:
        h.update(b"dense")
        h.update(np.array(feats.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(feats, dtype=float).tobytes())
    h.update(np.ascontiguousarray(dataset.labels, dtype=float).tobytes())
    return h.hexdigest()


def _load_dataset_file(path: str, label_column: int, header: bool,
                       n_features: Optional[int] = None) -> Dataset:
    if path.endswith(".csv"):
        return load_csv(path, label_column=label_column, header=header)
    return load_libsvm(path, n_features=n_features)


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


def _trace_to_metrics(
    config: ExperimentConfig, problem, test: Optional[Dataset], result
) -> List[MetricsRecord]:
    """Downsample a rich trace at the configured cadence, computing the
    N-cost metrics (full loss, full gradient norm, test accuracy) only at
    the selected rows."""
    trace = result.trace
    cadence = config.cadence
    algo = config.algorithm
    N = problem.N
    rows: List[MetricsRecord] = []
    cum_samples = 0
    prev_epoch = None
    for i, rec in enumerate(trace):
        epoch = rec.k if algo == "arig" else rec.epoch
        if algo in ("varchen", "svrg") and epoch != prev_epoch:
            cum_samples += N  # anchor full-gradient pass
            prev_epoch = epoch
        cum_samples += N if algo == "arig" else rec.m_used

        last = i == len(trace) - 1
        if cadence > 0:
            selected = last or rec.k % cadence == 0
        else:
            nxt = trace[i + 1] if not last else None
            selected = last or (
                algo != "arig" and nxt is not None and nxt.epoch != rec.epoch
            ) or algo == "arig"
        if not selected:
            continue

        loss, grad = problem.loss_and_grad(np.arange(N), rec.x)
        gnorm = float(np.linalg.norm(grad))
        rows.append(
            MetricsRecord(
                epoch=epoch,
                iteration=rec.k,
                samples=cum_samples,
                wall_ms=rec.wall_ms,
                loss=loss,
                grad_norm=gnorm,
                batch_size=N if algo == "arig" else rec.m_used,
                sigma=rec.sigma if algo in ("arig", "aras") else None,
                lambda_lo=rec.lam if algo == "varchen" else None,
                lambda_hi=rec.Lam if algo == "varchen" else None,
                phase=rec.phase if algo == "aras" else None,
                flush=rec.flushed if algo == "varchen" else None,
                test_accuracy=_accuracy(test, rec.x) if test is not None else None,
            )
        )
    return rows


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the configured run; returns the metrics CSV path."""
    train, test, ds_hash = _resolve_datasets(config)
    problem = _build_problem(config, train)
    params = config.algo_params

    if config.algorithm == "arig":
        result = arig_run(problem, params, mode=config.arig_mode, seed=config.seed)
    elif config.algorithm == "aras":
        result = aras_run(problem, params, seed=config.seed)
    elif config.algorithm == "varchen":
        result = varchen_run(problem, params, seed=config.seed)
    elif config.algorithm == "sgd":
        result = sgd_run(problem, params, seed=config.seed)
    elif config.algorithm == "sgd-momentum":
        result = sgd_momentum_run(problem, params, seed=config.seed)
    elif config.algorithm == "svrg":
        result = svrg_run(problem, params, seed=config.seed)
    else:  # pragma: no cover - load_config already rejects this
        raise ConfigError([f"unknown algorithm {config.algorithm!r}"])

    rows = _trace_to_metrics(config, problem, test, result)
    out_path = Path(config.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_path, rows)

    manifest = {
        "config": config.as_manifest_dict(),
        "seed": config.seed,
        "dataset_sha256": ds_hash,
        "problem_fingerprint": _problem_fingerprint(config, ds_hash),
        "aborted": bool(getattr(result, "aborted", False)),
    }
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    return str(out_path)


# -- comparison ---------------------------------------------------------------


def compare(config_paths: Sequence[str]) -> List[Dict]:
    """Run >= 2 configs over the same problem and tabulate their outcomes."""
    if len(config_paths) < 2:
        raise ConfigError(["compare needs at least two --config arguments"])
    configs = [load_config(p) for p in config_paths]

    fingerprints = []
    for cfg in configs:
        train, _, ds_hash = _resolve_datasets(cfg)
        fingerprints.append(_problem_fingerprint(cfg, ds_hash))
    if len(set(fingerprints)) != 1:
        raise ConfigError(
            ["compare configs target different problems: "
             + ", ".join(f"{Path(p).name}={fp}" for p, fp in zip(config_paths, fingerprints))]
        )

    outs = {Path(cfg.out) for cfg in configs}
    if len(outs) != len(configs):
        raise ConfigError(["compare configs share an output path; outputs must be distinct"])

    try:
        threads = int(os.environ.get("STOCHOPT_THREADS", "2"))
    except ValueError:
        raise ConfigError(["STOCHOPT_THREADS must be an integer"])
    threads = max(1, min(threads, len(configs)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        csv_paths = list(pool.map(run_experiment, configs))

    summaries: List[Dict] = []
    for cfg, fp, csv_path in zip(configs, fingerprints, csv_paths):
        rows = read_metrics_csv(csv_path)
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
    headers = ["algorithm", "problem", "final_loss", "best_loss",
               "final_accuracy", "samples", "wall_ms", "csv"]
    table = [headers]
    for s in summaries:
        table.append([
            s["algorithm"], s["problem"],
            f"{s['final_loss']:.6e}", f"{s['best_loss']:.6e}",
            "-" if s["final_accuracy"] is None else f"{s['final_accuracy']:.4f}",
            str(s["samples"]), f"{s['wall_ms']:.1f}", s["csv"],
        ])
    widths = [max(len(row[j]) for row in table) for j in range(len(headers))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


# -- CLI ----------------------------------------------------------------------


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
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
