"""A harness run's trace holds exactly its metrics report's rows
(record.Recorder, record.is_report_row): a record the next one shows to be
no row is removed, its samples charge moves into the next record and its
event fields into the Recorder's tallies.  So a run's memory follows its
report rows, not its step count, and the manifest's events equal the
library run's, which keeps every record."""

import dataclasses
import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import stochopt.harness as harness
from stochopt.problems import FULL_PASS_CHUNK, Dataset
from stochopt.record import Recorder, RunResult, StepRecord, is_report_row
from test_harness import ini_text, library_run, write_config

# runs of 17-30 steps on a 40 x 4 problem, each with its algorithm's events:
# ARIG rejects steps, ARAS reaches the stationary phase, VARCHEN flushes
PARAMS = {
    "arig": {"eps": 1e-8, "sigma0": 0.05, "sigma_min": 0.01, "max_iters": 30},
    "aras": {"m0": 4, "m_max": 16, "burn_in": 3, "n_epochs": 3},
    "varchen": {"p": 3, "m": 12, "n_epochs": 3, "step_c": 0.05, "lam_min": 0.05,
                "lam_max": 3.0, "gamma_over": 2.0},
    "sgd": {"alpha": 0.1, "m": 12, "n_epochs": 3},
    "sgd-momentum": {"alpha": 0.1, "momentum": 0.5, "m": 12, "n_epochs": 3},
    "svrg": {"alpha": 0.1, "m": 12, "n_epochs": 3},
}

# the RunResult facts the manifest records, by algorithm
EVENTS = {
    "arig": ("n_success", "n_reject", "sigma_final", "sigma_max_observed"),
    "aras": ("trigger_k", "sigma_trigger"),
    "varchen": ("n_flush",),
    "sgd": (),
    "sgd-momentum": (),
    "svrg": ("n_flush",),
}


def config_path(tmp_path, algorithm, cadence):
    return write_config(tmp_path, ini_text({
        "problem": {"kind": "logistic", "lam": 0.1},
        "synthetic": {"n_samples": 40, "n_features": 4, "noise": 0.5, "seed": 2},
        "run": {"algorithm": algorithm, "seed": 1, "out": "r.csv", "cadence": cadence},
        algorithm: PARAMS[algorithm],
    }))


def captured_results(monkeypatch):
    """The list each harness run's RunResult is appended to as its report
    reads it."""
    seen = []
    report = harness._trace_to_metrics

    def capture(problem, test, result):
        seen.append(result)
        return report(problem, test, result)

    monkeypatch.setattr(harness, "_trace_to_metrics", capture)
    return seen


def harness_run(monkeypatch, path):
    """The config, CSV rows, manifest and RunResult of a run_experiment."""
    seen = captured_results(monkeypatch)
    config = harness.load_config(path)
    out = harness.run_experiment(config)
    (result,) = seen
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    return config, harness.read_metrics_csv(out), manifest, result


def fields(rec: StepRecord) -> dict:
    """A record's fields but its samples charge, its x and its clock."""
    return {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)
            if f.name not in ("samples", "x", "wall_ms")}


def assert_trace_is_its_rows(config, rows, result, n):
    """The trace holds one record per CSV row, each the library run's
    record at that step with the samples of the steps since the row
    before."""
    assert [rec.k for rec in result.trace] == [row.iteration for row in rows]
    assert list(np.cumsum([rec.samples for rec in result.trace])) == [
        row.samples for row in rows]
    library = library_run(config)
    assert library.iterations == result.iterations == len(library.trace)
    by_k = {rec.k: rec for rec in library.trace}
    for rec, row in zip(result.trace, rows):
        want = by_k[rec.k]
        assert fields(rec) == fields(want)
        assert want.x.shape == (n,) and rec.x.tobytes() == want.x.tobytes()
        assert row.samples == sum(r.samples for r in library.trace if r.k <= rec.k)


class TestRule:
    def rec(self, k, epoch, **events):
        return StepRecord(k=k, epoch=epoch, m_used=1, samples=k, x=np.full(2, float(k)),
                          **events)

    @pytest.mark.parametrize("cadence, kept", [(0, [2, 4, 5]), (1, [1, 2, 3, 4, 5]),
                                               (2, [2, 4, 5]), (3, [3, 5])])
    def test_recorder_keeps_report_rows(self, cadence, kept):
        steps = [self.rec(k, epoch) for k, epoch in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]]
        rows = [rec.k for rec, nxt in zip(steps, [*steps[1:], None])
                if is_report_row(rec, nxt, cadence)]
        assert rows == kept
        trace = Recorder(cadence)
        for rec in steps:
            trace.append(self.rec(rec.k, rec.epoch))
        assert [rec.k for rec in trace] == kept
        # each row is charged its own samples and those of the steps removed
        # before it, so the running sum at a row is the sum over every step
        assert list(np.cumsum([rec.samples for rec in trace])) == [
            sum(range(1, k + 1)) for k in kept]

    def test_field_set_on_the_newest_record_is_kept(self):
        # VARCHEN puts the next anchor's gradient norm on the newest record
        trace = Recorder(0)
        trace.append(self.rec(1, 0))
        trace[-1].grad_norm = 2.0
        trace.append(self.rec(2, 1))
        assert [rec.k for rec in trace] == [1, 2] and trace[0].grad_norm == 2.0

    def test_events_fold_into_the_tallies(self):
        """The removed records' events, with the ones the trace keeps, give
        what a trace of every record gives."""
        gen = np.random.default_rng(3)
        # the largest sigma, 22, and the trigger are both at k = 9
        steps = [self.rec(k, k // 4, accepted=bool(gen.random() < 0.6),
                          flushed=bool(gen.random() < 0.3), sigma=float(5 * k % 23),
                          triggered_now=(k == 9), sigma_after=float(k))
                 for k in range(1, 24)]
        trace = Recorder(5)
        for rec in steps:
            trace.append(dataclasses.replace(rec))
        assert len(trace) == 5
        assert 9 not in [rec.k for rec in trace]
        full = RunResult(x=np.zeros(2), iterations=23, trace=steps, sigma_final=0.5)
        kept = RunResult(x=np.zeros(2), iterations=23, trace=trace, sigma_final=0.5)
        assert kept.events() == full.events()
        for name in ("n_success", "n_reject", "n_flush", "sigma_max_observed",
                     "trigger_k", "sigma_trigger", "triggered"):
            assert getattr(kept, name) == getattr(full, name), name
        assert (kept.trigger_k, kept.sigma_trigger, kept.sigma_max_observed) == (
            9, 9.0, 22.0)


class TestHarnessTraceIsItsRows:
    @pytest.mark.parametrize("cadence", [0, 1, 7])
    @pytest.mark.parametrize("algorithm", sorted(PARAMS))
    def test_trace_is_its_csv_rows(self, tmp_path, monkeypatch, algorithm, cadence):
        config, rows, _, result = harness_run(
            monkeypatch, config_path(tmp_path, algorithm, cadence))
        assert result.iterations > 7
        assert_trace_is_its_rows(config, rows, result, 4)

    def test_aborted_run(self, tmp_path, monkeypatch):
        """Features scaled by 1e154 make ARIG reject every step until the
        rejection limit; the aborted run's last record is a row."""
        gen = np.random.default_rng(0)
        X = 1e154 * gen.standard_normal((50, 3))
        y = np.where(gen.standard_normal(50) >= 0, 1.0, -1.0)
        harness.save_libsvm(tmp_path / "huge.libsvm", Dataset(features=X, labels=y))
        path = write_config(tmp_path, ini_text({
            "problem": {"kind": "logistic", "lam": 0.0, "dataset": "huge.libsvm"},
            "run": {"algorithm": "arig", "seed": 1, "out": "run.csv", "cadence": 7},
            "arig": {"eps": 1e-6},
        }))
        with np.errstate(over="ignore"):
            config, rows, manifest, result = harness_run(monkeypatch, path)
            assert manifest["aborted"] is True and rows[-1].iteration == 100
            assert_trace_is_its_rows(config, rows, result, 3)
            assert manifest["events"]["n_reject"] == 100

    @pytest.mark.parametrize("cadence", [0, 1, 7])
    @pytest.mark.parametrize("algorithm", sorted(PARAMS))
    def test_manifest_events_equal_the_library_run(self, tmp_path, monkeypatch,
                                                   algorithm, cadence):
        config, _, manifest, result = harness_run(
            monkeypatch, config_path(tmp_path, algorithm, cadence))
        library = library_run(config)
        assert manifest["events"] == {name: getattr(library, name)
                                      for name in EVENTS[algorithm]}
        kept = [rec.k for rec in result.trace]
        if algorithm == "arig":
            assert library.n_reject > 0 and library.n_success > 0
            # at cadence 7 the step that held the largest sigma was folded
            top = max(library.trace, key=lambda rec: rec.sigma)
            assert top.sigma > library.sigma_final
            assert (top.k in kept) is (cadence != 7)
        elif algorithm == "aras":
            # the trigger step is a row at cadence 1 only
            assert library.trigger_k is not None
            assert (library.trigger_k in kept) is (cadence == 1)
        elif algorithm == "varchen":
            assert library.n_flush > 0
        # every step is a row at cadence 1, and ARIG's at cadence 0 too
        every_step = cadence == 1 or (algorithm, cadence) == ("arig", 0)
        assert (len(kept) == library.iterations) is every_step


def retained_trace_bytes(config, seen):
    """The bytes a harness run's RunResult keeps once the run has ended,
    the traced memory that releasing it frees, and the run's row count;
    seen is the captured_results list."""
    resolved = harness._resolve_datasets(config)
    resolved[2].result()
    tracemalloc.start()
    try:
        _, rows = harness._run(config, resolved)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        seen.clear()
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], len(rows)
    finally:
        tracemalloc.stop()


class TestRunMemory:
    @pytest.mark.parametrize("cadence", [0, 7])
    def test_trace_bytes_follow_rows_not_epochs(self, tmp_path, monkeypatch, cadence):
        """SGD of batch 2 on 600 samples takes 300 steps an epoch.  From 2
        to 8 epochs the trace a run keeps grows by at most 1 KiB a report
        row, where a record kept per step would add 1,800 of them."""
        seen = captured_results(monkeypatch)
        held = {}
        for n_epochs in (2, 8):
            config = harness.load_config(write_config(tmp_path, ini_text({
                "problem": {"kind": "logistic", "lam": 0.1},
                "synthetic": {"n_samples": 600, "n_features": 4, "seed": 2},
                "run": {"algorithm": "sgd", "seed": 1, "out": "run.csv",
                        "cadence": cadence},
                "sgd": {"m": 2, "n_epochs": n_epochs},
            })))
            held[n_epochs] = retained_trace_bytes(config, seen)
        (small, rows_small), (large, rows_large) = held[2], held[8]
        assert rows_large - rows_small == (6 if cadence == 0 else 257)
        assert 0 < small < large <= small + (rows_large - rows_small) * 1024, held

    @pytest.mark.parametrize("cadence", [0, 7])
    def test_peak_follows_rows_not_steps(self, tmp_path, traced_peak, cadence):
        """300 SGD steps of batch 2 over a 600 x 4000 CSR problem: the run
        and its report peak at O(rows * n + batch), where an iterate kept
        per step would take steps * n * 8 bytes (9.6 MB)."""
        N, n = 600, 4000
        X = sp.random(N, n, density=10 / n, format="csr", random_state=1)
        y = np.where(np.random.default_rng(0).standard_normal(N) >= 0, 1.0, -1.0)
        harness.save_libsvm(tmp_path / "wide.libsvm", Dataset(features=X, labels=y))
        config = harness.load_config(write_config(tmp_path, ini_text({
            "problem": {"kind": "logistic", "lam": 0.1, "dataset": "wide.libsvm"},
            "run": {"algorithm": "sgd", "seed": 1, "out": "run.csv", "cadence": cadence},
            "sgd": {"m": 2, "n_epochs": 1},
        })))
        resolved = harness._resolve_datasets(config)
        (_, rows), peak = traced_peak(harness._run, config, resolved)
        steps = N // 2
        assert rows[-1].iteration == steps
        # each kept iterate, and the report's gradients, FULL_PASS_CHUNK at a time
        bound = 2 * (len(rows) + FULL_PASS_CHUNK) * n * 8 + (1 << 19)
        assert peak < bound < steps * n * 8 / 2, f"peak {peak / 2**20:.2f} MB"
