"""Oracle calls per step: each algorithm asks the problem for exactly the
batch passes its update reads, and nothing else; and the metrics report
makes a full pass only for a row whose record lacks exact values."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stochopt.aras
from stochopt import (
    ArasParams,
    BaselineParams,
    Dataset,
    MomentumParams,
    RegParams,
    VarchenParams,
    aras_run,
    arig_run,
    make_logistic,
    sgd_momentum_run,
    sgd_run,
    svrg_run,
    varchen_run,
)
from stochopt.harness import _trace_to_metrics, gen_synthetic, load_config
from stochopt.problems import FULL_PASS_CHUNK
from stochopt.record import Recorder

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


class CountingProblem:
    """Delegates to a real problem and counts the calls made on it by name,
    and the sample rows they read (N for a full pass, else the batch size).
    full_losses also counts its points, by what it returns for them and
    the bytes of each: ("full_loss" or "loss_and_grad", x.tobytes()).

    Calls the wrapped problem makes on itself (full_grad -> batch_grad) are
    not counted: only what the algorithm asks for."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()
        self.rows = Counter()
        self.points = Counter()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            self.rows[name] += self._inner.N if name.startswith("full_") else np.size(args[0])
            if name == "full_losses":
                grad = kwargs.get("grad", args[1] if len(args) > 1 else False)
                kind = "loss_and_grad" if grad else "full_loss"
                self.points.update((kind, np.asarray(x).tobytes()) for x in args[0])
            return attr(*args, **kwargs)

        return counted


def _problem(seed=0, N=40, n=4):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((N, n))
    y = np.where(X @ gen.standard_normal(n) + 0.5 * gen.standard_normal(N) > 0, 1.0, -1.0)
    return CountingProblem(make_logistic(Dataset(features=X, labels=y), lam=0.01))


def _recorded(res, cadence):
    """A library run's result as a harness run at `cadence` holds it: its
    records, copied, appended to a Recorder, which keeps the report rows."""
    trace = Recorder(cadence)
    for rec in res.trace:
        trace.append(dataclasses.replace(rec))
    return dataclasses.replace(res, trace=trace)


def _report_passes(prob, trace, rows):
    """The report's full passes by kind, one per point full_losses
    evaluated.  Checks that the report made no other problem call, one
    full_losses call per FULL_PASS_CHUNK points of a kind, and that the
    points are exactly the iterates of the rows whose record lacks a value,
    each once: loss-only where the record carries grad_norm alone, with the
    gradient where it carries neither."""
    by_k = {rec.k: rec for rec in trace}
    want = Counter()
    for row in rows:
        rec = by_k[row.iteration]
        if rec.grad_norm is None:
            want["loss_and_grad", rec.x.tobytes()] += 1
        elif rec.loss is None:
            want["full_loss", rec.x.tobytes()] += 1
    assert prob.points == want
    passes = Counter(kind for kind, _ in want.elements())
    assert set(prob.calls) <= {"full_losses"}
    assert prob.calls["full_losses"] == sum(-(-k // FULL_PASS_CHUNK) for k in passes.values())
    return dict(passes)


N_EPOCHS = 2


def _batch_calls(prob):
    """Per-name counts without the epoch-level full passes."""
    return {k: v for k, v in prob.calls.items() if k not in ("full_loss", "full_grad")}


class TestVarchenCalls:
    """The batch passes of a step share one gather (the problem keeps the
    batch it gathered last); the anchors read the whole set in place."""

    def test_three_batch_grads_and_no_loss_per_step(self, gathers):
        prob = _problem()
        params = VarchenParams(p=5, m=8, step_c=0.05, n_epochs=N_EPOCHS)
        res = varchen_run(prob, params, seed=3)
        assert not res.aborted and res.iterations == N_EPOCHS * 5
        # one full gradient per epoch anchor, then 3 batch passes a step
        assert prob.calls["full_grad"] == N_EPOCHS and "full_loss" not in prob.calls
        assert _batch_calls(prob) == {"batch_grad": 3 * res.iterations}
        assert gathers.count(False) == res.iterations and gathers.count(True) == N_EPOCHS

    def test_svrg_two_batch_grads_per_step(self, gathers):
        prob = _problem()
        res = svrg_run(prob, BaselineParams(alpha=0.05, m=8, n_epochs=N_EPOCHS), seed=3)
        assert res.iterations == N_EPOCHS * 5
        assert prob.calls["full_grad"] == N_EPOCHS and "full_loss" not in prob.calls
        assert _batch_calls(prob) == {"batch_grad": 2 * res.iterations}
        assert gathers.count(False) == res.iterations and gathers.count(True) == N_EPOCHS


ANCHORED_EPOCHS = 3


def _anchored_runs():
    params = VarchenParams(p=5, m=8, step_c=0.05, n_epochs=ANCHORED_EPOCHS)
    baseline = BaselineParams(alpha=0.05, m=8, n_epochs=ANCHORED_EPOCHS)
    return {
        "varchen": lambda prob: varchen_run(prob, params, seed=3),
        "svrg": lambda prob: svrg_run(prob, baseline, seed=3),
    }


class TestAnchorNormOnEpochEnd:
    """VARCHEN and SVRG anchor each epoch's full gradient at the previous
    epoch's last iterate; its norm goes on that epoch's last record, and the
    report makes a loss-only pass for the row instead of a full one."""

    @pytest.mark.parametrize("algo", sorted(_anchored_runs()))
    def test_epoch_end_records_carry_the_anchor_norm(self, algo):
        res = _anchored_runs()[algo](_problem())
        fresh = _problem()._inner
        trace = res.trace
        ends = {i for i in range(len(trace) - 1) if trace[i + 1].epoch != trace[i].epoch}
        assert len(ends) == ANCHORED_EPOCHS - 1
        for i, rec in enumerate(trace):
            assert rec.loss is None
            if i in ends:
                want = float(np.linalg.norm(fresh.full_grad(rec.x)))
                assert np.float64(rec.grad_norm).tobytes() == np.float64(want).tobytes()
            else:
                assert rec.grad_norm is None

    # 5 steps an epoch: at cadence 2 one epoch end is kept (k = 10), at 1 both
    @pytest.mark.parametrize("cadence", [0, 1, 2])
    @pytest.mark.parametrize("algo", sorted(_anchored_runs()))
    def test_report_makes_a_loss_pass_for_an_epoch_end_row(self, algo, cadence):
        prob = _problem()
        res = _anchored_runs()[algo](prob)
        prob.calls.clear()
        rows = _trace_to_metrics(prob, None, _recorded(res, cadence))
        passes = _report_passes(prob, res.trace, rows)
        carried = sum(rec.grad_norm is not None and (cadence == 0 or rec.k % cadence == 0)
                      for rec in res.trace)
        if cadence == 0:
            assert len(rows) == ANCHORED_EPOCHS and carried == ANCHORED_EPOCHS - 1
        else:
            assert 0 < carried < len(rows)
        assert passes == {"full_loss": carried, "loss_and_grad": len(rows) - carried}
        # every row has the bits of a full pass on a fresh problem
        fresh = _problem()._inner
        by_k = {rec.k: rec for rec in res.trace}
        for row in rows:
            loss, grad = fresh.loss_and_grad(np.arange(fresh.N), by_k[row.iteration].x)
            assert np.float64(row.loss).tobytes() == np.float64(loss).tobytes()
            assert (np.float64(row.grad_norm).tobytes()
                    == np.float64(np.linalg.norm(grad)).tobytes())


class TestBaselineCalls:
    @pytest.mark.parametrize("run, params", [
        (sgd_run, BaselineParams(alpha=0.05, m=8, n_epochs=N_EPOCHS)),
        (sgd_momentum_run, MomentumParams(alpha=0.05, momentum=0.9, m=8, n_epochs=N_EPOCHS)),
    ])
    def test_one_batch_grad_per_step(self, run, params):
        prob = _problem()
        res = run(prob, params, seed=3)
        assert res.iterations == N_EPOCHS * 5
        assert prob.calls == {"batch_grad": res.iterations}


class TestArasCalls:
    def test_transient_step_is_two_fused_passes(self, gathers):
        prob = _problem()
        params = ArasParams(sigma0=2.0, m0=4, m_max=8, burn_in=10_000, n_epochs=N_EPOCHS)
        res = aras_run(prob, params, seed=3)
        assert not res.triggered
        assert all(rec.phase == "transient" and rec.gnorm > 0 for rec in res.trace)
        assert _batch_calls(prob) == {"loss_and_grad": 2 * res.iterations}
        # the two passes over the step's batch share one gather
        assert gathers == [False] * res.iterations

    def test_stationary_step_reads_the_variance_not_per_sample_grads(self):
        prob = _problem()
        params = ArasParams(sigma0=2.0, m0=4, m_max=8, burn_in=1, n_epochs=6)
        res = aras_run(prob, params, seed=3)
        stationary = sum(rec.phase == "stationary" for rec in res.trace)
        assert res.triggered and stationary > 0
        calls = _batch_calls(prob)
        assert calls["grad_variance_l1"] == stationary
        assert "per_sample_grads" not in calls and "batch_loss" not in calls

    def test_stationary_step_is_one_fused_pass_plus_redraw_on_resize(self, monkeypatch):
        prob = _problem()
        failed = []
        steps = []
        real_norm_test = stochopt.aras.norm_test
        real_step = stochopt.aras.stationary_step

        def norm_test(*args):
            passed = real_norm_test(*args)
            failed.append(not passed)
            return passed

        def stationary_step(*args, **kwargs):
            before = Counter(prob.calls)
            failed.clear()
            rec = real_step(*args, **kwargs)
            steps.append((dict(prob.calls - before), failed[:]))
            return rec

        monkeypatch.setattr(stochopt.aras, "norm_test", norm_test)
        monkeypatch.setattr(stochopt.aras, "stationary_step", stationary_step)
        params = ArasParams(sigma0=2.0, m0=4, m_max=8, burn_in=1, n_epochs=6)
        res = aras_run(prob, params, seed=3)
        assert len(steps) == sum(rec.phase == "stationary" for rec in res.trace)
        resized = 0
        for calls, norm_tests in steps:
            assert len(norm_tests) == 1
            if norm_tests[0]:
                resized += 1
                assert calls == {"grad_variance_l1": 1, "batch_grad": 1}
            else:
                assert calls == {"grad_variance_l1": 1}
        # both branches ran
        assert 0 < resized < len(steps)


class TestArasCountedRows:
    def test_logistic_aras_config_gradient_rows(self):
        """Per-sample gradient rows the example ARAS run evaluates."""
        config = load_config(CONFIG_DIR / "logistic_aras.ini")
        assert config.kind == "logistic"
        prob = CountingProblem(make_logistic(gen_synthetic(config.synthetic), config.lam))
        res = aras_run(prob, config.algo_params, seed=config.seed)
        assert res.triggered
        grad_rows = sum(v for k, v in prob.rows.items() if "grad" in k)
        # 59,037 when the variance took its own pass over each stationary batch
        assert grad_rows <= 41_000, dict(prob.rows)


class TestArigReportCalls:
    """_trace_to_metrics on an ARIG result: rows whose record carries the
    exact f and ||grad f|| cost no problem call.  An "inexact-g-and-f"
    record carries ||grad f|| alone, from the gradient oracle, and its row
    costs a loss-only pass; the last record of an exhausted run carries f
    alone, and its row costs one pass with the gradient."""

    # sigma0 below the curvature makes exact mode reject steps, so records
    # whose x is unchanged (a stale-gradient re-entry follows) are covered
    PARAMS = RegParams(eps=1e-6, sigma0=0.01, sigma_min=0.005)

    def report_passes(self, mode, cadence, max_iters=None):
        prob = _problem()
        params = dataclasses.replace(self.PARAMS, mode=mode,
                                     eta0=0.1 if mode == "inexact-g-and-f" else None)
        if max_iters is not None:
            params = dataclasses.replace(params, max_iters=max_iters)
        res = arig_run(prob, params, seed=3)
        prob.calls.clear()
        rows = _trace_to_metrics(prob, None, _recorded(res, cadence))
        assert len(rows) > 1
        return res, rows, _report_passes(prob, res.trace, rows), prob

    @pytest.mark.parametrize("cadence", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["exact", "inexact-g"])
    def test_exact_f_modes_make_no_report_pass(self, mode, cadence):
        res, rows, passes, _ = self.report_passes(mode, cadence)
        assert res.terminated
        if mode == "exact":
            assert res.n_reject > 0
        assert passes == {}

    @pytest.mark.parametrize("cadence", [0, 1, 3])
    def test_noisy_f_mode_makes_one_pass_per_row(self, cadence):
        res, rows, passes, prob = self.report_passes("inexact-g-and-f", cadence)
        assert res.terminated
        assert all(rec.loss is None and rec.grad_norm is not None for rec in res.trace)
        assert passes == {"full_loss": len(rows)}
        # the oracle's norm has the bits of the report's own gradient pass
        bare = dataclasses.replace(res, trace=[dataclasses.replace(rec, grad_norm=None)
                                               for rec in res.trace])
        assert _trace_to_metrics(prob, None, _recorded(bare, cadence)) == rows

    @pytest.mark.parametrize("cadence", [0, 1, 3])
    def test_exhausted_run_makes_one_pass_for_its_last_row(self, cadence):
        res, rows, passes, prob = self.report_passes("exact", cadence, max_iters=7)
        assert not res.terminated and res.iterations == 7
        assert passes == {"loss_and_grad": 1}
        assert [rec.grad_norm is None for rec in res.trace] == [False] * 6 + [True]
        last = res.trace[-1]
        assert last.loss == rows[-1].loss == prob.full_loss(last.x)
