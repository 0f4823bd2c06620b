"""A harness run keeps a record's iterate only where its metrics report reads
it (record.Recorder, record.is_report_row), and every other field of every
record; a library call keeps every iterate.  So a run's memory follows its
report rows, not its step count, and the manifest's events, read from the
bounded trace, equal the library run's."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import stochopt.harness as harness
from stochopt.problems import FULL_PASS_CHUNK, Dataset
from stochopt.record import NO_X, Recorder, StepRecord, is_report_row
from test_harness import ini_text, write_config

ENTRIES = {"arig": "arig_run", "aras": "aras_run", "varchen": "varchen_run",
           "sgd": "sgd_run", "sgd-momentum": "sgd_momentum_run", "svrg": "svrg_run"}

# runs of 20-30 steps on a 40 x 4 problem, each with its algorithm's events:
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


def harness_run(monkeypatch, path):
    """The config, CSV rows, manifest and RunResult of a run_experiment."""
    seen = []
    report = harness._trace_to_metrics

    def capture(config, problem, test, result):
        seen.append(result)
        return report(config, problem, test, result)

    monkeypatch.setattr(harness, "_trace_to_metrics", capture)
    config = harness.load_config(path)
    out = harness.run_experiment(config)
    (result,) = seen
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    return config, harness.read_metrics_csv(out), manifest, result


def library_run(config):
    """The same run as a library call: the algorithm entry on the problem,
    with no recorder."""
    train, _, _ = harness._resolve_datasets(config)
    problem = harness._build_problem(config, train)
    kwargs = {"mode": config.arig_mode} if config.algorithm == "arig" else {}
    run = getattr(harness, ENTRIES[config.algorithm])
    return run(problem, config.algo_params, seed=config.seed, **kwargs)


def scalars(rec: StepRecord) -> dict:
    """A record's fields but its x and its clock."""
    return {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)
            if f.name not in ("x", "wall_ms")}


def assert_x_on_report_rows_only(config, rows, result, n):
    """x kept on exactly the records the report made rows of, every other
    field kept on every record, both as the library run has them."""
    assert [rec.k for rec in result.trace if rec.x.size] == [row.iteration for row in rows]
    assert all(rec.x is NO_X for rec in result.trace if not rec.x.size)
    library = library_run(config)
    assert len(result.trace) == len(library.trace) == result.iterations
    for got, want in zip(result.trace, library.trace):
        assert want.x.shape == (n,)
        assert scalars(got) == scalars(want)
        if got.x.size:
            assert got.x.tobytes() == want.x.tobytes()


class TestRule:
    def rec(self, k, epoch):
        return StepRecord(k=k, epoch=epoch, m_used=1, samples=1, x=np.full(2, float(k)))

    @pytest.mark.parametrize("cadence, kept", [(0, [2, 4, 5]), (1, [1, 2, 3, 4, 5]),
                                               (2, [2, 4, 5]), (3, [3, 5])])
    def test_recorder_keeps_x_on_report_rows(self, cadence, kept):
        trace = Recorder(cadence)
        for k, epoch in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]:
            trace.append(self.rec(k, epoch))
        assert [rec.k for rec in trace if rec.x.size] == kept
        rows = [rec.k for rec, nxt in zip(trace, [*trace[1:], None])
                if is_report_row(rec, nxt, cadence)]
        assert rows == kept
        assert [rec.k for rec in trace] == [1, 2, 3, 4, 5]

    def test_field_set_on_the_newest_record_is_kept(self):
        # VARCHEN puts the next anchor's gradient norm on the newest record
        trace = Recorder(0)
        trace.append(self.rec(1, 0))
        trace[-1].grad_norm = 2.0
        assert trace[-1].x.shape == (2,)
        trace.append(self.rec(2, 0))
        assert trace[0].x is NO_X and trace[0].grad_norm == 2.0

    def test_dropped_x_is_shared_empty_and_read_only(self):
        assert NO_X.shape == (0,) and NO_X.dtype == np.float64 and NO_X.nbytes == 0
        with pytest.raises(ValueError, match="read-only"):
            NO_X[:] = 1.0


class TestHarnessRunKeepsRowIterates:
    @pytest.mark.parametrize("cadence", [0, 1, 7])
    @pytest.mark.parametrize("algorithm", sorted(PARAMS))
    def test_x_on_report_rows_only(self, tmp_path, monkeypatch, algorithm, cadence):
        config, rows, _, result = harness_run(
            monkeypatch, config_path(tmp_path, algorithm, cadence))
        assert len(result.trace) > 7
        assert_x_on_report_rows_only(config, rows, result, 4)

    def test_aborted_run(self, tmp_path, monkeypatch):
        """Features scaled by 1e154 make ARIG reject every step until the
        rejection limit; the aborted run's last record keeps its x."""
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
            assert_x_on_report_rows_only(config, rows, result, 3)

    @pytest.mark.parametrize("algorithm", sorted(PARAMS))
    def test_manifest_events_equal_the_library_run(self, tmp_path, monkeypatch, algorithm):
        config, _, manifest, _ = harness_run(monkeypatch, config_path(tmp_path, algorithm, 7))
        library = library_run(config)
        assert manifest["events"] == {name: getattr(library, name)
                                      for name in EVENTS[algorithm]}
        if algorithm == "arig":
            assert library.n_reject > 0 and library.n_success > 0
        elif algorithm == "aras":
            assert library.trigger_k is not None
        elif algorithm == "varchen":
            assert library.n_flush > 0


class TestRunMemory:
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
