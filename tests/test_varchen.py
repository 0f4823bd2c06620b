"""Tests for the variance-reduced, bound-controlled quasi-Newton driver."""

import numpy as np
import pytest

from stochopt import (
    AnchorState,
    Dataset,
    LBFGSMemory,
    SamplerState,
    VarchenParams,
    harmonic_schedule_from_L,
    make_logistic,
    make_noisy_quadratic,
    make_quadratic,
    power_schedule_from_L,
    push_pair,
    svrg_gradient,
    two_loop_apply,
    varchen_run,
)
from oracles import enumerate_batches


def random_spd_quadratic(rng, n=8, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    diag = rng.uniform(lo, hi, size=n)
    A = q @ np.diag(diag) @ q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    return make_quadratic(A, b)


class TestVarchenSchedule:
    def test_constant(self):
        params = VarchenParams(schedule="constant", step_c=0.1)
        assert [params.step_size(k) for k in (0, 1, 7)] == [0.1, 0.1, 0.1]

    def test_harmonic(self):
        params = VarchenParams(schedule="harmonic", step_c=1.0)
        assert params.step_size(3) == pytest.approx(0.25)
        assert params.step_size(0) == pytest.approx(1.0)

    def test_power(self):
        params = VarchenParams(schedule="power", step_c=1.0, step_beta=0.6)
        assert params.step_size(1) == pytest.approx(1.0)
        assert params.step_size(4) == pytest.approx(4.0 ** -0.6)
        # the decay starts at 1: k=0 maps to the k=1 value
        assert params.step_size(0) == params.step_size(1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            VarchenParams(step_c=0.1).step_size(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"schedule": "bogus"},
            {"schedule": "constant", "step_c": 0.0},
            {"schedule": "constant", "step_c": -1.0},
            {"schedule": "power", "step_beta": 0.5},
            {"schedule": "power", "step_beta": 1.0},
            {"schedule": "power", "step_beta": 0.2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            VarchenParams(**kwargs)

    def test_harmonic_from_L(self):
        assert harmonic_schedule_from_L(2.0, lam_min=0.01, lam_max=10.0) == pytest.approx(
            0.01 / 20.0)

    def test_power_from_L(self):
        assert power_schedule_from_L(2.0, lam_min=0.01, lam_max=10.0) == pytest.approx(
            0.01 / 200.0)

    def test_from_L_validation(self):
        with pytest.raises(ValueError):
            harmonic_schedule_from_L(0.0, 0.01, 10.0)
        with pytest.raises(ValueError):
            harmonic_schedule_from_L(1.0, 0.01, float("inf"))
        with pytest.raises(ValueError):
            power_schedule_from_L(1.0, 0.0, 10.0)


class TestVarchenParams:
    def test_defaults_valid(self):
        p = VarchenParams()
        assert p.p == 10 and p.eta == 0.25
        assert (p.lam_min, p.lam_max) == (1e-5, 1e5)
        assert (p.gamma_under, p.gamma_over) == (0.1, 1e5)

    def test_disabled_control_allowed(self):
        p = VarchenParams(lam_min=0.0, lam_max=float("inf"))
        assert p.lam_min == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam_min": 0.5},  # not below gamma_under
            {"lam_max": 1e4},  # below gamma_over
            {"gamma_under": 0.0},
            {"gamma_under": 2e5},  # above gamma_over
            {"p": -1},
            {"eta": 0.0},
            {"eta": 1.0},
            {"m": 0},
            {"n_epochs": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            VarchenParams(**kwargs)


class TestSvrgGradient:
    def make_problem(self, rng):
        X = rng.standard_normal((6, 3))
        y = np.where(rng.standard_normal(6) >= 0, 1.0, -1.0)
        return make_logistic(Dataset(X, y), lam=0.1)

    def test_identity_at_anchor(self, rng):
        prob = self.make_problem(rng)
        x = rng.standard_normal(3)
        anchor = AnchorState(x_anchor=x.copy(), full_grad_anchor=prob.full_grad(x))
        batch = np.array([0, 2, 5])
        g = svrg_gradient(prob, batch, x, anchor)
        np.testing.assert_array_equal(g, anchor.full_grad_anchor)

    def test_full_batch_correction_cancels(self, rng):
        prob = self.make_problem(rng)
        anchor_x = rng.standard_normal(3)
        anchor = AnchorState(
            x_anchor=anchor_x, full_grad_anchor=prob.full_grad(anchor_x)
        )
        x = rng.standard_normal(3)
        g = svrg_gradient(prob, np.arange(prob.N), x, anchor)
        # cancellation is exact in exact arithmetic; a rounding ulp survives
        np.testing.assert_allclose(g, prob.full_grad(x), rtol=1e-13, atol=1e-15)

    def test_unbiased_over_enumerated_batches(self, rng):
        X = rng.standard_normal((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        prob = make_logistic(Dataset(X, y), lam=0.05)
        anchor_x = rng.standard_normal(2)
        anchor = AnchorState(
            x_anchor=anchor_x, full_grad_anchor=prob.full_grad(anchor_x)
        )
        x = rng.standard_normal(2)
        batches = enumerate_batches(4, 2)
        assert len(batches) == 6
        mean_g = np.mean([svrg_gradient(prob, b, x, anchor) for b in batches], axis=0)
        np.testing.assert_allclose(mean_g, prob.full_grad(x), rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        prob = self.make_problem(rng)
        anchor = AnchorState(x_anchor=np.zeros(3), full_grad_anchor=np.zeros(3))
        with pytest.raises(ValueError, match="mismatch"):
            svrg_gradient(prob, np.array([0]), np.zeros(4), anchor)


class TestVarchenRun:
    def test_first_step_is_plain_gradient_step(self, rng):
        # Empty memory and unit scaling: d = -gtilde, and at the anchor the
        # variance-reduced gradient is the full gradient bit-for-bit.
        prob = random_spd_quadratic(rng, n=4)
        alpha = 0.05
        params = VarchenParams(p=5, m=prob.N, step_c=alpha, n_epochs=1)
        x0 = rng.standard_normal(4)
        res = varchen_run(prob, params, seed=0, x0=x0)
        expected_first = x0 + alpha * (-prob.full_grad(x0))
        np.testing.assert_array_equal(res.trace[0].x, expected_first)

    def test_epoch_structure(self, rng):
        prob = random_spd_quadratic(rng, n=3)  # N = 3? no: N = n for quadratics
        params = VarchenParams(p=4, m=2, step_c=0.05, n_epochs=4)
        res = varchen_run(prob, params, seed=1)
        assert not res.aborted
        assert sorted({r.epoch for r in res.trace}) == list(range(params.n_epochs))
        for e in range(params.n_epochs):
            batch_sizes = [r.m_used for r in res.trace if r.epoch == e]
            assert sum(batch_sizes) == prob.N  # truncated final chunk
            assert all(b <= params.m for b in batch_sizes)

    def test_epochs_anchor_at_previous_iterate(self, rng, monkeypatch):
        prob = random_spd_quadratic(rng, n=4)
        params = VarchenParams(p=4, m=2, step_c=0.05, n_epochs=3)
        x0 = rng.standard_normal(4)
        anchors = []
        full_grad = type(prob).full_grad

        def spy(self, x):
            anchors.append(np.array(x, copy=True))
            return full_grad(self, x)

        monkeypatch.setattr(type(prob), "full_grad", spy)
        res = varchen_run(prob, params, seed=2, x0=x0)
        assert len(anchors) == params.n_epochs
        np.testing.assert_array_equal(anchors[0], x0)
        # each later epoch anchors at the last iterate of the previous epoch
        for e in range(1, params.n_epochs):
            last_prev = [r for r in res.trace if r.epoch == e - 1][-1]
            np.testing.assert_array_equal(anchors[e], last_prev.x)

    def test_strongly_convex_quadratic_converges(self):
        # N=64 samples sharing an SPD Hessian (n=8) with mild linear-term
        # noise; the constant step obeys the guarantee c <= lam_min/(L*lam_max)
        # for the memory's bound limits.
        gen = np.random.default_rng(7)
        n, N = 8, 64
        q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        A = q @ np.diag(gen.uniform(0.5, 2.0, size=n)) @ q.T
        A = 0.5 * (A + A.T)
        noise = gen.standard_normal((N, n)) * 0.05
        noise -= noise.mean(axis=0)
        B = gen.standard_normal(n)[None, :] + noise
        prob = make_noisy_quadratic(A, B)
        lam_min, lam_max = 0.09, 2.0
        c = lam_min / (prob.L * lam_max)
        params = VarchenParams(
            p=10,
            lam_min=lam_min,
            lam_max=lam_max,
            gamma_under=0.1,
            gamma_over=2.0,
            m=4,
            step_c=c,
            n_epochs=200,
        )
        res = varchen_run(prob, params, seed=3, x0=np.ones(n))
        assert not res.aborted
        assert np.linalg.norm(prob.full_grad(res.x)) < 1e-6

    def test_recorded_bounds_respect_limits_unless_flushed(self, rng):
        prob = random_spd_quadratic(rng, n=6)
        params = VarchenParams(
            p=5,
            lam_min=1e-3,
            lam_max=1e3,
            gamma_under=0.1,
            gamma_over=1e3,
            m=2,
            step_c=0.05,
            n_epochs=10,
        )
        res = varchen_run(prob, params, seed=4)
        assert res.trace
        for rec in res.trace:
            if not rec.flushed:
                assert rec.lam >= params.lam_min
                assert rec.Lam <= params.lam_max

    def test_non_finite_iterate_aborts_with_diagnostic(self, rng):
        prob = random_spd_quadratic(rng, n=3)
        params = VarchenParams(p=0, m=prob.N, step_c=1e200, n_epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            res = varchen_run(prob, params, seed=5, x0=np.ones(3))
        assert res.aborted
        assert np.isfinite(res.x).all()
        assert "non-finite" in res.abort_reason
        assert res.iterations < 5 * 1  # stopped well short of the budget

    def test_zero_memory_never_pushes(self, rng):
        prob = random_spd_quadratic(rng, n=4)
        params = VarchenParams(p=0, m=2, step_c=0.05, n_epochs=2)
        res = varchen_run(prob, params, seed=6)
        assert all(r.gamma_tilde == 1.0 for r in res.trace)
        assert all(r.lam == 1.0 and r.Lam == 1.0 for r in res.trace)

    def test_batch_size_capped_at_N(self, rng):
        prob = random_spd_quadratic(rng, n=4)
        params = VarchenParams(p=2, m=10 * prob.N, step_c=0.05, n_epochs=2)
        res = varchen_run(prob, params, seed=7)
        assert all(r.m_used == prob.N for r in res.trace)

    def test_deterministic_given_seed(self, rng):
        prob = random_spd_quadratic(rng, n=5)
        params = VarchenParams(p=3, m=2, step_c=0.05, n_epochs=3)
        r1 = varchen_run(prob, params, seed=11)
        r2 = varchen_run(prob, params, seed=11)
        np.testing.assert_array_equal(r1.x, r2.x)
        for a, b in zip(r1.trace, r2.trace):
            np.testing.assert_array_equal(a.x, b.x)

    def test_disabled_control_matches_reference_path(self, rng):
        # With lam_min = 0 and lam_max = inf the bound control must be
        # completely inert: a hand-rolled loop without any enforcement
        # produces bit-identical iterates on the same seed.
        prob = random_spd_quadratic(rng, n=5)
        alpha = 0.05
        p, m, n_epochs, seed = 4, 2, 3, 13
        params = VarchenParams(
            p=p,
            lam_min=0.0,
            lam_max=float("inf"),
            m=m,
            step_c=alpha,
            n_epochs=n_epochs,
        )
        x0 = rng.standard_normal(5)
        res = varchen_run(prob, params, seed=seed, x0=x0)

        N = prob.N
        m_eff = min(m, N)
        sampler = SamplerState(N=N, seed=seed)
        memory = LBFGSMemory(
            p=p, lam_min=0.0, lam_max=float("inf"),
            gamma_under=params.gamma_under, gamma_over=params.gamma_over,
            eta=params.eta,
        )
        x = x0.copy()
        ref_xs = []
        for _ in range(n_epochs):
            anchor = AnchorState(x_anchor=x.copy(), full_grad_anchor=prob.full_grad(x))
            sampler.start_epoch()
            consumed = 0
            while consumed < N:
                m_k = min(m_eff, N - consumed)
                batch = sampler.next_chunk(m_k)
                g_tilde = svrg_gradient(prob, batch, x, anchor)
                d = two_loop_apply(memory, g_tilde)
                x_new = x + alpha * d
                push_pair(memory, x_new - x,
                          prob.batch_grad(batch, x_new) - prob.batch_grad(batch, x))
                x = x_new
                consumed += m_k
                ref_xs.append(x.copy())

        assert len(ref_xs) == len(res.trace)
        for rec, ref in zip(res.trace, ref_xs):
            np.testing.assert_array_equal(rec.x, ref)
        np.testing.assert_array_equal(res.x, x)
