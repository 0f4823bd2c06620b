"""Instrumentation installed on stochopt from outside the package.

Two layers of wrappers, both patched onto the names the callers look up at
call time and both removed again by :meth:`Probe.uninstall`:

* Always on (the end-to-end run): a two-clock-read timer on each algorithm
  entry the harness calls (``stochopt.harness.aras_run`` and friends), and a
  counting wrapper on every public method of ``FiniteSumProblem``.  The
  counter adds the rows of each *outermost* problem call made inside an
  algorithm entry to ``grad_evals`` when the method name contains ``grad``
  and to ``loss_evals`` when it contains ``loss`` (a fused method counts
  toward both).  Nested problem calls (``full_grad`` -> ``batch_grad``,
  ``sample_variance_l1`` -> ``per_sample_grads`` -> ...) are not counted
  again.  A counting call whose row count cannot be read from its arguments
  raises.
* Traced run only: spans (name, start, end, parent) around the public
  functions of each module, kept in memory per thread and reduced to
  per-layer metrics (:meth:`Probe.layer_metrics`) after the workload.  Self
  time of a span is its duration minus the durations of its direct children.

A wrapped name that no longer exists raises ``LookupError`` at install time.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from pathlib import Path
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np
import scipy.sparse as sp

# algorithm entry names the harness calls -> (config algorithm, span name)
ALGO_ENTRIES = {
    "arig_run": ("arig", "regularization.arig_run"),
    "aras_run": ("aras", "aras.aras_run"),
    "varchen_run": ("varchen", "varchen.varchen_run"),
    "sgd_run": ("sgd", "baselines.sgd_run"),
    "sgd_momentum_run": ("sgd-momentum", "baselines.sgd_momentum_run"),
    "svrg_run": ("svrg", "baselines.svrg_run"),
}
RUN_LOOPS = tuple(span for _, span in ALGO_ENTRIES.values() if span != "baselines.sgd_momentum_run")

# problem methods reported by name; any other public method lands in "other"
PROBLEM_METHODS = ("batch_grad", "batch_loss", "full_grad", "full_loss", "per_sample_grads")

# every per-layer metric the traced run emits, with its unit
PER_LAYER: Dict[str, str] = {}
for _m in PROBLEM_METHODS + ("other",):
    PER_LAYER.update({f"problems.{_m}.calls": "count", f"problems.{_m}.rows": "count",
                      f"problems.{_m}.self_s": "s"})
PER_LAYER.update({
    "problems.bytes_gathered": "B",
    "problems.per_sample_grads.max_block_bytes": "B",
    "sampling.draw_batch.calls": "count",
    "sampling.draw_batch.self_s": "s",
    "sampling.next_chunk.calls": "count",
    "sampling.next_chunk.self_s": "s",
    "sampling.sample_variance_l1.calls": "count",
    "sampling.sample_variance_l1.self_s": "s",
    "sampling.norm_test.calls": "count",
    "sampling.norm_test.pass_ratio": "ratio",
    "sampling.discarded_rows": "count",
    "lbfgs_core.two_loop_apply.calls": "count",
    "lbfgs_core.two_loop_apply.self_s": "s",
    "lbfgs_core.enforce_bounds.calls": "count",
    "lbfgs_core.enforce_bounds.self_s": "s",
    "lbfgs_core.hessian_bounds.calls": "count",
    "lbfgs_core.hessian_bounds.self_s": "s",
    "lbfgs_core.push_pair.calls": "count",
    "lbfgs_core.push_pair.self_s": "s",
    "lbfgs_core.flush_ratio": "ratio",
    "lbfgs_core.mean_pairs": "count",
    "regularization.arig_step.calls": "count",
    "regularization.arig_step.self_s": "s",
    "regularization.accept_ratio": "ratio",
    "regularization.grad_oracle.calls": "count",
    "regularization.grad_oracle.self_s": "s",
    "regularization.fun_oracle.calls": "count",
    "regularization.fun_oracle.self_s": "s",
    "aras.transient_step.calls": "count",
    "aras.transient_step.self_s": "s",
    "aras.stationary_step.calls": "count",
    "aras.stationary_step.self_s": "s",
    "aras.trigger_k": "count",
    "varchen.svrg_gradient.calls": "count",
    "varchen.svrg_gradient.self_s": "s",
    "varchen.oracle_calls_per_step": "count",
})
for _loop in RUN_LOOPS:
    PER_LAYER.update({f"{_loop}.self_s": "s", f"{_loop}.steps": "count"})
PER_LAYER.update({
    "harness.load_config.self_s": "s",
    "harness.resolve_datasets.calls": "count",
    "harness.resolve_datasets.self_s": "s",
    "harness.gen_synthetic.self_s": "s",
    "harness.load_libsvm.self_s": "s",
    "harness.load_libsvm.bytes": "B",
    "harness.report.self_s": "s",
    "harness.report.oracle_s": "s",
    "harness.report.full_passes": "count",
    "harness.write_metrics_csv.self_s": "s",
    "harness.trace_bytes": "B",
    "harness.samples_reported_ratio": "ratio",
    "harness.compare.concurrency": "ratio",
    "trace_overhead_s": "s",
})


@dataclass
class Entry:
    """One algorithm entry call as the harness made it."""

    algorithm: str
    t0: float
    t1: float
    problem: object
    result: object


def _resolve(path: str):
    """'stochopt.mod:Attr.sub' -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"wrapped name {path} no longer exists")
    return owner, attr


def _selector(name: str, fn) -> Callable:
    """Return f(problem, args, kwargs) -> the sample indices one call reads,
    or None for a full pass over all N samples."""
    params = list(inspect.signature(fn).parameters)[1:]  # drop self
    if "batch" in params:
        pos = params.index("batch")
        return lambda problem, args, kwargs: (
            args[pos] if len(args) > pos else kwargs["batch"])
    if params[:1] == ["i"]:
        return lambda problem, args, kwargs: [args[0] if args else kwargs["i"]]
    if name.startswith("full_"):
        return lambda problem, args, kwargs: None

    def unknown(problem, args, kwargs):
        raise RuntimeError(f"cannot determine the rows of FiniteSumProblem.{name}")

    return unknown


class Probe:
    """Counters, entry timers and (optionally) spans over one workload."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[tuple] = []
        self.entries: List[Entry] = []
        self.grad_evals = 0
        self.loss_evals = 0
        # traced-run state
        self._threads: List[list] = []
        self._row_nnz: Dict[int, np.ndarray] = {}
        self.counts: Dict[str, float] = {}

    # -- patching ---------------------------------------------------------

    def _patch(self, path: str, make: Callable):
        owner, attr = _resolve(path)
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def install(self) -> "Probe":
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self) -> None:
        from stochopt.problems import FiniteSumProblem

        for name, fn in list(vars(FiniteSumProblem).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                self._patch(f"stochopt.problems:FiniteSumProblem.{name}",
                            lambda f, name=name: self._problem_wrapper(name, f))
        for entry, (algorithm, span) in ALGO_ENTRIES.items():
            self._patch(f"stochopt.harness:{entry}",
                        lambda f, a=algorithm, s=span: self._entry_wrapper(a, s, f))
        if self.trace:
            self._install_spans()

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _tl(self):
        tl = self._local
        if not hasattr(tl, "problem_depth"):
            tl.problem_depth = 0
            tl.algo_depth = 0
            tl.stack = []
            tl.spans = []
            with self._lock:
                self._threads.append(tl.spans)
        return tl

    def _bump(self, key: str, by: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + by

    # -- always-on wrappers -------------------------------------------------

    def _problem_wrapper(self, name: str, fn):
        counts_grad = "grad" in name
        counts_loss = "loss" in name
        select = _selector(name, fn)
        span_name = f"problems.{name if name in PROBLEM_METHODS else 'other'}"
        probe = self

        def wrapper(problem, *args, **kwargs):
            tl = probe._tl()
            if tl.problem_depth:
                tl.problem_depth += 1
                try:
                    return fn(problem, *args, **kwargs)
                finally:
                    tl.problem_depth -= 1
            rows, batch = 0, None
            if counts_grad or counts_loss:
                batch = select(problem, args, kwargs)
                rows = problem.N if batch is None else int(np.asarray(batch).size)
                if tl.algo_depth:
                    with probe._lock:
                        if counts_grad:
                            probe.grad_evals += rows
                        if counts_loss:
                            probe.loss_evals += rows
            span = None
            if probe.trace:
                probe._gathered(problem, name, batch, rows)
                span = probe._open(span_name, rows, rows == problem.N)
            tl.problem_depth = 1
            try:
                return fn(problem, *args, **kwargs)
            finally:
                tl.problem_depth = 0
                if span is not None:
                    probe._close(span)

        return wrapper

    def _entry_wrapper(self, algorithm: str, span_name: str, fn):
        probe = self

        def wrapper(*args, **kwargs):
            tl = probe._tl()
            span = probe._open(span_name) if probe.trace else None
            tl.algo_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tl.algo_depth -= 1
                if span is not None:
                    probe._close(span)
            with probe._lock:
                probe.entries.append(Entry(algorithm, t0, t1, args[0], result))
            if probe.trace:
                probe._bump(f"{span_name}.steps", result.iterations)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, rows: int = 0, full: bool = False) -> tuple:
        tl = self._tl()
        spans = tl.spans
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, tl.stack[-1] if tl.stack else -1,
                      rows, full])
        tl.stack.append(idx)
        return tl, idx

    def _close(self, span: tuple) -> None:
        tl, idx = span
        tl.spans[idx][2] = time.perf_counter()
        tl.stack.pop()

    def _span_wrapper(self, name: str, fn, after=None):
        probe = self

        def wrapper(*args, **kwargs):
            span = probe._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                probe._close(span)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _factory_wrapper(self, name: str, factory):
        """Wrap the oracle closures a factory returns in spans named `name`."""
        probe = self

        def wrapper(*args, **kwargs):
            return probe._span_wrapper(name, factory(*args, **kwargs))

        return wrapper

    def _gathered(self, problem, name, batch, rows) -> None:
        """Computed bytes of feature rows the call reads: dense n*8 B per
        row, CSR nnz*16 B (value + index) per row."""
        if problem.dataset is None or rows == 0:
            return
        feats = problem.dataset.features
        if not sp.issparse(feats):
            nbytes = rows * problem.n * 8
        elif batch is None:
            nbytes = feats.nnz * 16
        else:
            row_nnz = self._row_nnz.get(id(feats))
            if row_nnz is None:
                row_nnz = self._row_nnz[id(feats)] = np.diff(feats.indptr)
            nbytes = int(row_nnz[np.asarray(batch, dtype=np.int64)].sum()) * 16
        self._bump("problems.bytes_gathered", nbytes)
        if name == "per_sample_grads":
            block = rows * problem.n * 8
            key = "problems.per_sample_grads.max_block_bytes"
            with self._lock:
                self.counts[key] = max(self.counts.get(key, 0.0), block)

    def _install_spans(self) -> None:
        bump = self._bump

        def norm_test_after(args, kwargs, passed):
            if passed:
                bump("sampling.norm_test.passes")
            else:
                bump("sampling.discarded_rows", args[1])

        def enforce_after(args, kwargs, out):
            bump("lbfgs_core.enforce_bounds.flushes", 1.0 if out[2] else 0.0)

        def two_loop_after(args, kwargs, out):
            bump("lbfgs_core.two_loop_apply.pairs", len(args[0].pairs))

        def arig_step_after(args, kwargs, out):
            if out.status != "terminated":
                bump("regularization.arig_step.decided")
                if out.status == "accepted":
                    bump("regularization.arig_step.accepted")

        def libsvm_after(args, kwargs, out):
            bump("harness.load_libsvm.bytes", Path(args[0]).stat().st_size)

        def steps_after(name):
            return lambda args, kwargs, out: bump(f"{name}.steps", out.iterations)

        spans = {
            "stochopt.harness:load_config": ("harness.load_config", None),
            "stochopt.harness:_resolve_datasets": ("harness.resolve_datasets", None),
            "stochopt.harness:gen_synthetic": ("harness.gen_synthetic", None),
            "stochopt.harness:load_libsvm": ("harness.load_libsvm", libsvm_after),
            "stochopt.harness:_trace_to_metrics": ("harness.report", None),
            "stochopt.harness:write_metrics_csv": ("harness.write_metrics_csv", None),
            "stochopt.harness:run_experiment": ("harness.run_experiment", None),
            "stochopt.harness:compare": ("harness.compare", None),
            "stochopt.sampling:SamplerState.draw_batch": ("sampling.draw_batch", None),
            "stochopt.sampling:SamplerState.next_chunk": ("sampling.next_chunk", None),
            "stochopt.aras:sample_variance_l1": ("sampling.sample_variance_l1", None),
            "stochopt.aras:norm_test": ("sampling.norm_test", norm_test_after),
            "stochopt.aras:transient_step": ("aras.transient_step", None),
            "stochopt.aras:stationary_step": ("aras.stationary_step", None),
            "stochopt.varchen:svrg_gradient": ("varchen.svrg_gradient", None),
            "stochopt.varchen:enforce_bounds": ("lbfgs_core.enforce_bounds", enforce_after),
            "stochopt.varchen:two_loop_apply": ("lbfgs_core.two_loop_apply", two_loop_after),
            "stochopt.varchen:push_pair": ("lbfgs_core.push_pair", None),
            "stochopt.lbfgs_core:hessian_bounds": ("lbfgs_core.hessian_bounds", None),
            "stochopt.regularization:arig_step": ("regularization.arig_step", arig_step_after),
            "stochopt.baselines:varchen_run": (
                "varchen.varchen_run", steps_after("varchen.varchen_run")),
        }
        for path, (name, after) in spans.items():
            self._patch(path, lambda f, n=name, a=after: self._span_wrapper(n, f, a))
        for path, name in {
            "stochopt.regularization:exact_grad_oracle": "regularization.grad_oracle",
            "stochopt.regularization:adversarial_grad_oracle": "regularization.grad_oracle",
            "stochopt.regularization:exact_fun_oracle": "regularization.fun_oracle",
            "stochopt.regularization:noisy_fun_oracle": "regularization.fun_oracle",
        }.items():
            self._patch(path, lambda f, n=name: self._factory_wrapper(n, f))

    # -- reduction ------------------------------------------------------------

    def spans(self) -> List[list]:
        """All spans as [name, t0, t1, parent, rows, full, thread]."""
        out = []
        for tid, spans in enumerate(self._threads):
            base = len(out)
            for name, t0, t1, parent, rows, full in spans:
                out.append([name, t0, t1, parent + base if parent >= 0 else -1, rows, full, tid])
        return out

    def layer_metrics(self, samples_reported: int) -> Dict[str, float]:
        """Reduce spans and counters to the PER_LAYER metrics.

        trace_overhead_s reads 0 here: it needs the untraced repetitions."""
        spans = self.spans()
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        rows: Dict[str, float] = {}
        for i, (name, t0, t1, parent, nrows, *_) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            rows[name] = rows.get(name, 0) + nrows

        def ancestor(i, names):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return spans[parent][0]
                parent = spans[parent][3]
            return None

        report_oracle_s = 0.0
        report_full = 0
        varchen_oracle_calls = 0
        for i, (name, t0, t1, parent, nrows, full, _) in enumerate(spans):
            if not name.startswith("problems."):
                continue
            loop = ancestor(i, ("harness.report",) + RUN_LOOPS)
            if loop == "harness.report":
                report_oracle_s += t1 - t0
                report_full += int(full)
            elif loop == "varchen.varchen_run" and not full:
                varchen_oracle_calls += 1

        c = self.counts
        out: Dict[str, float] = {}
        for key in PER_LAYER:
            head, _, stat = key.rpartition(".")
            table = {"calls": calls, "self_s": self_s, "rows": rows}.get(stat)
            out[key] = table.get(head, 0) if table is not None else c.get(key, 0)
        out["sampling.norm_test.pass_ratio"] = _ratio(
            c.get("sampling.norm_test.passes", 0), calls.get("sampling.norm_test", 0))
        out["lbfgs_core.flush_ratio"] = _ratio(
            c.get("lbfgs_core.enforce_bounds.flushes", 0),
            calls.get("lbfgs_core.enforce_bounds", 0))
        out["lbfgs_core.mean_pairs"] = _ratio(
            c.get("lbfgs_core.two_loop_apply.pairs", 0),
            calls.get("lbfgs_core.two_loop_apply", 0))
        out["regularization.accept_ratio"] = _ratio(
            c.get("regularization.arig_step.accepted", 0),
            c.get("regularization.arig_step.decided", 0))
        out["aras.trigger_k"] = max(
            [e.result.trigger_k or 0 for e in self.entries if e.algorithm == "aras"], default=0)
        out["varchen.oracle_calls_per_step"] = _ratio(
            varchen_oracle_calls, c.get("varchen.varchen_run.steps", 0))
        out["harness.report.oracle_s"] = report_oracle_s
        out["harness.report.full_passes"] = report_full
        out["harness.trace_bytes"] = sum(
            rec.x.nbytes for e in self.entries for rec in e.result.trace)
        out["harness.samples_reported_ratio"] = _ratio(samples_reported, self.grad_evals)
        out["harness.compare.concurrency"] = _ratio(
            sum(e.t1 - e.t0 for e in self.entries),
            sum(t1 - t0 for name, t0, t1, *_ in spans if name == "harness.compare"))
        return out


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted (den == 0)."""
    return float(num) / float(den) if den else 0.0
