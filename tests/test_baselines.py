"""Tests for the reference optimizers (SGD, momentum SGD, SVRG)."""

import numpy as np
import pytest

from stochopt import (
    BaselineParams,
    MomentumParams,
    VarchenParams,
    make_noisy_quadratic,
    make_quadratic,
    sgd_momentum_run,
    sgd_run,
    svrg_run,
    varchen_run,
)


def noisy_problem(rng, N=12, n=3):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ q.T
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((N, n))
    return make_noisy_quadratic(A, B)


class TestBaselineParams:
    def test_defaults_valid(self):
        p = BaselineParams()
        assert p.alpha == 0.1 and p.m == 256 and p.n_epochs == 20
        assert MomentumParams().momentum == 0.0

    @pytest.mark.parametrize("cls", [BaselineParams, MomentumParams])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},  # constant iterates are disallowed by construction
            {"alpha": -0.1},
            {"m": 0},
            {"n_epochs": 0},
        ],
    )
    def test_validation(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    @pytest.mark.parametrize("momentum", [1.0, -0.1])
    def test_momentum_validation(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            MomentumParams(momentum=momentum)

    def test_momentum_is_no_field_of_sgd_or_svrg(self):
        # sgd_run and svrg_run read no momentum, so their class has none
        with pytest.raises(TypeError):
            BaselineParams(momentum=0.9)

    @pytest.mark.parametrize("entry", [sgd_run, svrg_run])
    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    def test_sgd_and_svrg_refuse_momentum_params(self, rng, entry, momentum):
        # a MomentumParams is a BaselineParams, but these entries would
        # drop its momentum and run without it
        params = MomentumParams(alpha=0.05, momentum=momentum, m=4, n_epochs=1)
        with pytest.raises(TypeError, match="sgd_momentum_run"):
            entry(noisy_problem(rng), params, seed=0)


class TestSgd:
    def test_one_full_batch_step_exact(self, rng):
        prob = noisy_problem(rng)
        alpha = 0.07
        params = BaselineParams(alpha=alpha, m=prob.N, n_epochs=1)
        x0 = rng.standard_normal(prob.n)
        res = sgd_run(prob, params, seed=0, x0=x0)
        np.testing.assert_array_equal(res.trace[0].x, x0 - alpha * prob.full_grad(x0))

    def test_full_batch_monotone_decrease(self, rng):
        prob = noisy_problem(rng)
        alpha = 1.0 / prob.L  # well inside the 2/L stability limit
        params = BaselineParams(alpha=alpha, m=prob.N, n_epochs=15)
        x0 = np.ones(prob.n)
        res = sgd_run(prob, params, seed=0, x0=x0)
        assert not res.aborted
        losses = [prob.full_loss(x) for x in [x0] + [r.x for r in res.trace]]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_epoch_chunking(self, rng):
        prob = noisy_problem(rng, N=10)
        params = BaselineParams(alpha=0.05, m=4, n_epochs=3)
        res = sgd_run(prob, params, seed=1)
        assert res.iterations == 3 * 3  # chunks of 4, 4, 2 per epoch
        for e in range(3):
            sizes = [r.m_used for r in res.trace if r.epoch == e]
            assert sizes == [4, 4, 2]

    def test_deterministic_given_seed(self, rng):
        prob = noisy_problem(rng)
        params = BaselineParams(alpha=0.05, m=3, n_epochs=4)
        r1 = sgd_run(prob, params, seed=7)
        r2 = sgd_run(prob, params, seed=7)
        np.testing.assert_array_equal(r1.x, r2.x)


class TestMomentum:
    def test_first_step_matches_sgd(self, rng):
        prob = noisy_problem(rng)
        params = MomentumParams(alpha=0.05, momentum=0.9, m=prob.N, n_epochs=1)
        x0 = rng.standard_normal(prob.n)
        res = sgd_momentum_run(prob, params, seed=0, x0=x0)
        np.testing.assert_array_equal(res.trace[0].x, x0 - 0.05 * prob.full_grad(x0))

    def test_two_hand_steps_on_1d_quadratic(self):
        # f(x) = 0.5 a x^2 - b x; heavy ball with v0 = 0:
        #   v1 = -alpha g(x0),        x1 = x0 + v1
        #   v2 = mu v1 - alpha g(x1), x2 = x1 + v2
        prob = make_quadratic(np.array([[2.0]]), np.array([1.0]))
        alpha, mu = 0.1, 0.5
        params = MomentumParams(alpha=alpha, momentum=mu, m=1, n_epochs=2)
        x0 = np.array([2.0])
        res = sgd_momentum_run(prob, params, seed=0, x0=x0)
        v1 = mu * np.zeros(1) - alpha * prob.full_grad(x0)
        x1 = x0 + v1
        v2 = mu * v1 - alpha * prob.full_grad(x1)
        x2 = x1 + v2
        np.testing.assert_array_equal(res.trace[0].x, x1)
        np.testing.assert_array_equal(res.trace[1].x, x2)
        # closed form for reference: x1 = 2 - 0.1*3 = 1.7, v2 = -0.15-0.24
        np.testing.assert_allclose(x1, [1.7])
        np.testing.assert_allclose(x2, [1.31])

    def test_zero_momentum_reduces_to_sgd_bitwise(self, rng):
        prob = noisy_problem(rng)
        params0 = MomentumParams(alpha=0.05, momentum=0.0, m=3, n_epochs=5)
        res_m = sgd_momentum_run(prob, params0, seed=3, x0=np.ones(prob.n))
        res_s = sgd_run(prob, BaselineParams(alpha=0.05, m=3, n_epochs=5), seed=3,
                        x0=np.ones(prob.n))
        assert len(res_m.trace) == len(res_s.trace)
        for a, b in zip(res_m.trace, res_s.trace):
            np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(res_m.x, res_s.x)
        assert prob.full_loss(res_m.x) == prob.full_loss(res_s.x)

    def test_velocity_persists_across_epochs(self, rng):
        # With momentum, the first step of epoch 2 differs from a plain SGD
        # step because v carries over the epoch boundary.
        prob = noisy_problem(rng)
        params = MomentumParams(alpha=0.05, momentum=0.9, m=prob.N, n_epochs=2)
        res = sgd_momentum_run(prob, params, seed=0, x0=np.ones(prob.n))
        x1 = res.trace[0].x
        plain_next = x1 - 0.05 * prob.full_grad(x1)
        assert not np.array_equal(res.trace[1].x, plain_next)


class TestSvrg:
    def test_reduction_to_varchen_is_bitwise(self, rng):
        prob = noisy_problem(rng)
        params = BaselineParams(alpha=0.05, m=4, n_epochs=4)
        res_svrg = svrg_run(prob, params, seed=5, x0=np.ones(prob.n))
        res_ref = varchen_run(
            prob,
            VarchenParams(p=0, m=4, step_c=0.05, n_epochs=4),
            seed=5,
            x0=np.ones(prob.n),
        )
        assert len(res_svrg.trace) == len(res_ref.trace)
        for a, b in zip(res_svrg.trace, res_ref.trace):
            np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(res_svrg.x, res_ref.x)
        assert prob.full_loss(res_svrg.x) == prob.full_loss(res_ref.x)

    def test_first_step_uses_exact_full_gradient(self, rng):
        # At the epoch anchor the variance-reduced gradient equals the stored
        # full gradient bit-for-bit, even on a partial batch.
        prob = noisy_problem(rng)
        alpha = 0.05
        params = BaselineParams(alpha=alpha, m=4, n_epochs=1)
        x0 = rng.standard_normal(prob.n)
        res = svrg_run(prob, params, seed=2, x0=x0)
        np.testing.assert_array_equal(
            res.trace[0].x, x0 + alpha * (-prob.full_grad(x0))
        )

    def test_converges_on_strongly_convex_problem(self, rng):
        prob = noisy_problem(rng)
        params = BaselineParams(alpha=0.5 / prob.L, m=4, n_epochs=60)
        res = svrg_run(prob, params, seed=0, x0=np.ones(prob.n))
        assert not res.aborted
        assert np.linalg.norm(prob.full_grad(res.x)) < 1e-4


def _varchen(prob, params, seed, x0):
    vr = VarchenParams(p=2, m=params.m, step_c=params.alpha, n_epochs=params.n_epochs)
    return varchen_run(prob, vr, seed=seed, x0=x0)


class TestAbortRule:
    """SGD, momentum, SVRG and VARCHEN run one epoch loop and abort one way:
    the reason names the epoch and iteration, and x is the last finite
    iterate."""

    @pytest.mark.parametrize("run", [sgd_run, sgd_momentum_run, svrg_run, _varchen],
                             ids=["sgd", "momentum", "svrg", "varchen"])
    @pytest.mark.parametrize(
        "alpha, epoch, k",
        [
            (1e200, 1, 1),  # epoch 0's one step lands near 1e200; the next overflows
            (1e308, 0, 0),  # the first step overflows: x stays x0
        ],
    )
    def test_non_finite_iterate_ends_run(self, rng, run, alpha, epoch, k):
        prob = noisy_problem(rng)
        params = BaselineParams(alpha=alpha, m=prob.N, n_epochs=5)
        if run is sgd_momentum_run:
            params = MomentumParams(alpha=alpha, momentum=0.5, m=prob.N, n_epochs=5)
        x0 = np.ones(prob.n)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(prob, params, seed=0, x0=x0)
        assert res.aborted
        assert res.abort_reason == f"non-finite iterate at epoch {epoch}, iteration {k}"
        assert res.iterations == len(res.trace) == k
        assert np.isfinite(res.x).all()
        np.testing.assert_array_equal(res.x, res.trace[-1].x if res.trace else x0)
