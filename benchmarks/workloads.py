"""The benchmark's four workloads: seeded inputs and output checks.

Each workload writes its experiment configs (and, for the CSR workload, a
libsvm data file) from the benchmark seed before any timing starts; the
program receives only those files.  One workload runs through
``harness.load_config`` -> ``harness.run_experiment``; a workload with
several configs runs through ``harness.compare``.

Each is built so that one module does most of its work and little of
another workload's, so a gain, or a cost that lands elsewhere, shows up:

* ``arig-inexact-fullbatch``: full-pass ``full_grad``/``full_loss``
  kernels, and a metrics row per iteration; no sampler, L-BFGS, per-sample
  gradients or CSR.
* ``varchen-svm-minibatch``: small-batch oracle passes plus ``lbfgs_core``
  with frequent memory flushes; one anchor gradient per epoch, light report.
* ``aras-csr-adaptive``: the only CSR workload: row gather, per-sample
  gradient densification, ``sample_variance_l1``, batch resizing, and
  ``load_libsvm`` in set-up.
* ``compare-logistic-trio``: the only workload running ``baselines`` and
  ``harness.compare``: thousands of tiny steps, so per-call overhead
  dominates and two pool threads contend for the interpreter lock.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, workdir, sizes) -> config paths, written before timing
    write_inputs: Callable[[int, Path, Dict], List[Path]]
    # outcome -> list of failed checks
    check: Callable[["Outcome"], List[str]]
    sizes: Dict[str, Dict]  # "full" and "tiny"


@dataclass
class Outcome:
    """What one repetition produced, gathered after the timed region."""

    entries: list  # probe.Entry per algorithm call
    final_loss: Dict[str, float]  # algorithm -> f(returned x)
    f_x0: Dict[str, float]  # algorithm -> f(zeros)
    csv_rows: Dict[str, List[Dict[str, str]]]  # algorithm -> metrics CSV rows
    summaries: list  # compare()'s summaries, or []


def _write_ini(path: Path, sections: Dict[str, Dict]) -> Path:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


# -- arig-inexact-fullbatch ---------------------------------------------------

ARIG_EPS = 1e-6


def _arig_inputs(seed: int, workdir: Path, z: Dict) -> List[Path]:
    return [_write_ini(workdir / "arig.ini", {
        "problem": {"kind": "logistic", "lam": 0.05},
        "synthetic": {"n_samples": z["N"], "n_features": z["n"], "noise": 0.5, "seed": seed},
        "run": {"algorithm": "arig", "seed": seed + 1, "cadence": 0, "out": "arig.metrics.csv"},
        "arig": {"eps": ARIG_EPS, "mode": "inexact-g", "max_iters": 100000},
    })]


def _logistic_grad(problem, x: np.ndarray) -> np.ndarray:
    """Independent recomputation of the full logistic gradient."""
    X = problem.dataset.features
    v = problem.dataset.labels
    z = v * (X @ x)
    # d/dz log(1+exp(-z)) = -1/(1+exp(z)), evaluated without overflow
    coef = -v * np.exp(-np.logaddexp(0.0, z))
    return X.T @ coef / problem.N + 2.0 * problem.lam * x


def _arig_check(out: Outcome) -> List[str]:
    (entry,) = out.entries
    errors = []
    if not entry.result.terminated:
        errors.append("arig did not terminate")
    gnorm = float(np.linalg.norm(_logistic_grad(entry.problem, entry.result.x)))
    if not gnorm <= ARIG_EPS:
        errors.append(f"arig: recomputed ||grad f(x)|| = {gnorm!r} > eps = {ARIG_EPS!r}")
    return errors


# -- varchen-svm-minibatch ----------------------------------------------------


def _varchen_inputs(seed: int, workdir: Path, z: Dict) -> List[Path]:
    return [_write_ini(workdir / "varchen.ini", {
        "problem": {"kind": "sigmoid-svm", "lam": 0.01},
        "synthetic": {"n_samples": z["N"], "n_features": z["n"], "kappa": 1000,
                      "label_model": "sigmoid-svm-planted", "seed": seed},
        "run": {"algorithm": "varchen", "seed": seed + 1, "cadence": 0,
                "out": "varchen.metrics.csv"},
        "varchen": {"p": 10, "m": 64, "schedule": "constant", "step_c": 0.1,
                    "n_epochs": z["epochs"]},
    })]


def _varchen_check(out: Outcome) -> List[str]:
    (entry,) = out.entries
    errors = []
    if entry.result.aborted:
        errors.append(f"varchen aborted: {entry.result.abort_reason}")
    for i, row in enumerate(out.csv_rows["varchen"]):
        lo, hi = float(row["lambda_lo"]), float(row["lambda_hi"])
        if not 0.0 < lo <= hi:
            errors.append(f"varchen row {i}: need 0 < lambda_lo <= lambda_hi, got {lo!r}, {hi!r}")
    if not out.final_loss["varchen"] < out.f_x0["varchen"]:
        errors.append(f"varchen: final loss {out.final_loss['varchen']!r} not below f(x0)")
    return errors


# -- aras-csr-adaptive ----------------------------------------------------------


def write_sparse_libsvm(path: Path, seed: int, N: int, n: int, nnz: int) -> None:
    """Text-like CSR data: each row draws `nnz` columns out of n with
    Zipf(1) popularity (duplicates merged away), unit-scale values rounded
    to 6 decimals, and labels from a planted linear classifier plus noise."""
    gen = np.random.Generator(np.random.Philox(seed))
    popularity = 1.0 / np.arange(1, n + 1)
    cols = np.sort(gen.choice(n, size=(N, nnz), p=popularity / popularity.sum()), axis=1)
    fresh = np.ones_like(cols, dtype=bool)
    fresh[:, 1:] = cols[:, 1:] != cols[:, :-1]
    vals = np.round(gen.standard_normal((N, nnz)) / math.sqrt(nnz), 6)
    w_star = gen.standard_normal(n)
    margins = (vals * w_star[cols] * fresh).sum(axis=1) + 0.3 * gen.standard_normal(N)
    labels = np.where(margins >= 0, 1, -1)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(N):
            keep = fresh[i]
            pairs = " ".join(f"{c + 1}:{v!r}"
                             for c, v in zip(cols[i][keep].tolist(), vals[i][keep].tolist()))
            fh.write(f"{labels[i]} {pairs}\n")


def _aras_inputs(seed: int, workdir: Path, z: Dict) -> List[Path]:
    write_sparse_libsvm(workdir / "aras.libsvm", seed, z["N"], z["n"], z["nnz"])
    return [_write_ini(workdir / "aras.ini", {
        "problem": {"kind": "logistic", "lam": z["lam"], "dataset": "aras.libsvm"},
        "run": {"algorithm": "aras", "seed": seed + 1, "cadence": 10, "out": "aras.metrics.csv"},
        "aras": {key: z[key] for key in ("sigma0", "sigma_min", "m0", "m_max", "burn_in")}
        | {"n_epochs": z["epochs"]},
    })]


def _aras_check(out: Outcome) -> List[str]:
    (entry,) = out.entries
    errors = []
    if not entry.result.triggered:
        errors.append("aras never reached the stationary phase")
    if not out.final_loss["aras"] < out.f_x0["aras"]:
        errors.append(f"aras: final loss {out.final_loss['aras']!r} not below f(x0)")
    return errors


# -- compare-logistic-trio -------------------------------------------------------

_TRIO = {
    "aras": {"sigma0": 30.0, "m0": 32, "m_max": 1024, "burn_in": 50},
    "sgd": {"alpha": 0.1, "m": 32},
    "svrg": {"alpha": 0.05, "m": 32},
}


def _trio_inputs(seed: int, workdir: Path, z: Dict) -> List[Path]:
    return [
        _write_ini(workdir / f"trio_{algo}.ini", {
            "problem": {"kind": "logistic", "lam": 0.1},
            "synthetic": {"n_samples": z["N"], "n_features": z["n"], "noise": 0.5,
                          "seed": seed},
            "run": {"algorithm": algo, "seed": seed + 1, "cadence": 0,
                    "out": f"trio_{algo}.metrics.csv"},
            algo: params | {"n_epochs": z["epochs"]},
        })
        for algo, params in _TRIO.items()
    ]


def _trio_check(out: Outcome) -> List[str]:
    errors = []
    if sorted(e.algorithm for e in out.entries) != sorted(_TRIO):
        errors.append(f"compare ran {[e.algorithm for e in out.entries]}, expected {list(_TRIO)}")
    fingerprints = {s["problem"] for s in out.summaries}
    if len(fingerprints) != 1:
        errors.append(f"compare runs have problem fingerprints {sorted(fingerprints)}")
    for s in out.summaries:
        if not math.isfinite(s["final_loss"]):
            errors.append(f"compare: {s['algorithm']} final loss {s['final_loss']!r}")
    return errors


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "arig-inexact-fullbatch",
            "full_grad/full_loss passes and a metrics row per iteration, no sampler, "
            "lbfgs_core, per-sample grads or CSR; moves problems.full_*, harness.report.*, "
            "regularization.*",
            _arig_inputs, _arig_check,
            {"full": {"N": 10000, "n": 100}, "tiny": {"N": 200, "n": 5}},
        ),
        Workload(
            "varchen-svm-minibatch",
            "4 batch_grad + 1 batch_loss per step and lbfgs_core with flushes on half "
            "the steps, light report; moves problems.batch_*, lbfgs_core.*, varchen.*",
            _varchen_inputs, _varchen_check,
            {"full": {"N": 20000, "n": 100, "epochs": 5},
             "tiny": {"N": 256, "n": 5, "epochs": 2}},
        ),
        Workload(
            "aras-csr-adaptive",
            "only CSR workload: row gather, per_sample_grads densification, "
            "sample_variance_l1, batch resizing, load_libsvm in set-up; moves sampling.*, "
            "aras.*, harness.load_libsvm.*",
            _aras_inputs, _aras_check,
            {"full": {"N": 10000, "n": 3000, "nnz": 30, "lam": 0.003, "sigma0": 1.0,
                      "sigma_min": 0.01, "m0": 32, "m_max": 256, "burn_in": 100,
                      "epochs": 3},
             "tiny": {"N": 400, "n": 600, "nnz": 10, "lam": 0.003, "sigma0": 1.0,
                      "sigma_min": 0.01, "m0": 8, "m_max": 64, "burn_in": 10,
                      "epochs": 3}},
        ),
        Workload(
            "compare-logistic-trio",
            "only baselines and harness.compare run: thousands of tiny steps, so "
            "per-call overhead dominates, 2 pool threads share the GIL; moves run-loop "
            "self_s, sampling.next_chunk, compare.*",
            _trio_inputs, _trio_check,
            {"full": {"N": 20000, "n": 100, "epochs": 4},
             "tiny": {"N": 256, "n": 5, "epochs": 2}},
        ),
    )
}


def read_csv_rows(path) -> List[Dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
