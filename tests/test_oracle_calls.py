"""Oracle calls per step: each algorithm asks the problem for exactly the
batch passes its update reads, and nothing else."""

from collections import Counter

import numpy as np
import pytest

from stochopt import (
    ArasParams,
    BaselineParams,
    Dataset,
    StepSchedule,
    VarchenParams,
    aras_run,
    make_logistic,
    sgd_momentum_run,
    sgd_run,
    svrg_run,
    varchen_run,
)


class CountingProblem:
    """Delegates to a real problem and counts the calls made on it by name.

    Calls the wrapped problem makes on itself (full_grad -> batch_grad) are
    not counted: only what the algorithm asks for."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def _problem(seed=0, N=40, n=4):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((N, n))
    y = np.where(X @ gen.standard_normal(n) + 0.5 * gen.standard_normal(N) > 0, 1.0, -1.0)
    return CountingProblem(make_logistic(Dataset(features=X, labels=y), lam=0.01))


N_EPOCHS = 2


def _batch_calls(prob):
    """Per-name counts without the epoch-level full passes."""
    return {k: v for k, v in prob.calls.items() if k not in ("full_loss", "full_grad")}


class TestVarchenCalls:
    def test_three_batch_grads_and_no_loss_per_step(self):
        prob = _problem()
        params = VarchenParams(p=5, m=8, n_epochs=N_EPOCHS,
                               schedule=StepSchedule(kind="constant", c=0.05))
        res = varchen_run(prob, params, seed=3)
        assert not res.aborted and res.iterations == N_EPOCHS * 5
        # one fused full pass per epoch anchor, then 3 batch passes a step
        assert _batch_calls(prob) == {"loss_and_grad": N_EPOCHS,
                                      "batch_grad": 3 * res.iterations}

    def test_svrg_two_batch_grads_per_step(self):
        prob = _problem()
        res = svrg_run(prob, BaselineParams(alpha=0.05, m=8, n_epochs=N_EPOCHS), seed=3)
        assert res.iterations == N_EPOCHS * 5
        assert _batch_calls(prob) == {"loss_and_grad": N_EPOCHS,
                                      "batch_grad": 2 * res.iterations}


class TestBaselineCalls:
    @pytest.mark.parametrize("run, momentum", [(sgd_run, 0.0), (sgd_momentum_run, 0.9)])
    def test_one_batch_grad_per_step(self, run, momentum):
        prob = _problem()
        params = BaselineParams(alpha=0.05, momentum=momentum, m=8, n_epochs=N_EPOCHS)
        res = run(prob, params, seed=3)
        assert res.iterations == N_EPOCHS * 5
        assert _batch_calls(prob) == {"batch_grad": res.iterations}
        # epoch losses at each epoch start, plus the final loss
        assert prob.calls["full_loss"] == N_EPOCHS + 1


class TestArasCalls:
    def test_transient_step_is_two_fused_passes(self):
        prob = _problem()
        params = ArasParams(sigma0=2.0, m0=4, m_max=8, burn_in=10_000, n_epochs=N_EPOCHS)
        res = aras_run(prob, params, seed=3)
        assert not res.triggered
        assert all(rec.phase == "transient" and rec.gnorm > 0 for rec in res.trace)
        assert _batch_calls(prob) == {"loss_and_grad": 2 * res.iterations}

    def test_stationary_step_reads_the_variance_not_per_sample_grads(self):
        prob = _problem()
        params = ArasParams(sigma0=2.0, m0=4, m_max=8, burn_in=1, n_epochs=6)
        res = aras_run(prob, params, seed=3)
        stationary = sum(rec.phase == "stationary" for rec in res.trace)
        assert res.triggered and stationary > 0
        calls = _batch_calls(prob)
        assert calls["grad_variance_l1"] == stationary
        assert "per_sample_grads" not in calls and "batch_loss" not in calls
