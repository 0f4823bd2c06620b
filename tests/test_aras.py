"""Tests for the two-phase adaptive regularization/sampling method (ARAS)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    ArasParams,
    ArasState,
    Dataset,
    PflugState,
    SamplerState,
    adaptive_batch_size,
    aras_run,
    make_logistic,
    make_noisy_quadratic,
    make_quadratic,
    pflug_triggered,
    pflug_update,
    stationary_step,
    transient_step,
    update_sigma_two_branch,
)

DEFAULTS = ArasParams()


class _StubProblem:
    """Scripted problem: batch_grad returns preset vectors in call order,
    batch_loss preset scalars, loss_and_grad one of each, and
    grad_variance_l1 the next preset vector g with the two-pass variance of
    the next preset row block around it."""

    def __init__(self, N=16, n=2, grads=None, losses=None, grad_rows=None):
        self.N = N
        self.n = n
        self._grads = list(grads or [])
        self._losses = list(losses or [])
        self._grad_rows = list(grad_rows or [])

    def batch_grad(self, batch, x):
        return np.asarray(self._grads.pop(0), dtype=float)

    def batch_loss(self, batch, x):
        return float(self._losses.pop(0))

    def loss_and_grad(self, batch, x):
        return self.batch_loss(batch, x), self.batch_grad(batch, x)

    def per_sample_grads(self, batch, x):
        rows = np.asarray(self._grad_rows.pop(0), dtype=float)
        reps = int(np.ceil(len(batch) / rows.shape[0]))
        return np.tile(rows, (reps, 1))[: len(batch)]

    def grad_variance_l1(self, batch, x):
        g = self.batch_grad(batch, x)
        dev = self.per_sample_grads(batch, x) - g[None, :]
        return g, float(((dev * dev).sum(axis=0) / (len(batch) - 1)).sum())


def fresh_state(problem_N=16, m=2, sigma=1.0, burn_in=5, transient=True, n=2, seed=0):
    return ArasState(
        x=np.zeros(n),
        sigma=sigma,
        m=m,
        pflug=PflugState(burn_in=burn_in),
        sampler=SamplerState(N=problem_N, seed=seed),
        transient=transient,
    )


class TestPflug:
    def test_aligned_gradients_increase_S(self):
        st_ = PflugState(burn_in=5)
        pflug_update(st_, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert st_.S == 1.0 and st_.k == 1

    def test_opposed_gradients_decrease_S(self):
        st_ = PflugState(burn_in=5)
        pflug_update(st_, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        assert st_.S == -1.0

    def test_orthogonal_gradients_leave_S(self):
        st_ = PflugState(burn_in=5, S=0.25)
        pflug_update(st_, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert st_.S == 0.25
        assert st_.k == 1

    def test_dimension_mismatch(self):
        st_ = PflugState(burn_in=5)
        with pytest.raises(ValueError, match="shapes"):
            pflug_update(st_, np.ones(3), np.ones(2))

    def test_burn_in_validation(self):
        with pytest.raises(ValueError):
            PflugState(burn_in=0)

    @pytest.mark.parametrize(
        "k,burn_in,S,expected",
        [
            (1, 5, -3.0, False),  # inside burn-in
            (5, 5, -3.0, False),  # boundary: k must exceed burn_in
            (6, 5, -0.5, True),
            (6, 5, 0.0, False),  # strict negativity
            (6, 5, 0.5, False),
        ],
    )
    def test_trigger_table(self, k, burn_in, S, expected):
        st_ = PflugState(burn_in=burn_in, S=S, k=k)
        assert pflug_triggered(st_) is expected


class TestTwoBranchSigma:
    @pytest.mark.parametrize(
        "sigma,rho,expected",
        [
            (1.0, 0.5, 0.5),
            (1.0, 0.1, 2.0),
            (0.15, 0.9, 0.1),  # clamped at sigma_min
            (1.0, 0.25, 0.5),  # rho == eta counts as success
        ],
    )
    def test_examples(self, sigma, rho, expected):
        assert update_sigma_two_branch(sigma, rho, 0.25, 0.5, 2.0, 0.1) == pytest.approx(
            expected
        )

    def test_sigma_below_floor_rejected(self):
        with pytest.raises(ValueError):
            update_sigma_two_branch(0.05, 0.5, 0.25, 0.5, 2.0, 0.1)

    @given(
        sigma=st.floats(min_value=0.1, max_value=1e6),
        rho=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_output_in_branch_interval(self, sigma, rho):
        out = update_sigma_two_branch(sigma, rho, 0.25, 0.5, 2.0, 0.1)
        assert out >= 0.1
        if rho >= 0.25:
            assert max(0.1, 0.5 * sigma) <= out <= sigma
        else:
            assert out == pytest.approx(2.0 * sigma)


class TestTransientStep:
    def test_full_batch_moves_by_scaled_gradient(self):
        prob = make_quadratic(np.diag([1.0, 3.0]), np.zeros(2))
        state = fresh_state(problem_N=prob.N, m=prob.N, sigma=10.0, n=prob.n)
        state.x = np.array([1.0, 1.0])
        g = prob.full_grad(state.x)
        expected = state.x - g / 10.0
        rec = transient_step(state, prob, DEFAULTS)
        np.testing.assert_array_equal(state.x, expected)
        assert rec.phase == "transient"
        assert rec.m_used == prob.N

    def test_two_iteration_hand_trace(self):
        # Full-batch quadratic f = 0.5 x'Ax, A = diag(1,3), x0 = (1,1),
        # sigma0 = 1: the two Pflug increments are -18 and -18.
        prob = make_quadratic(np.diag([1.0, 3.0]), np.zeros(2))
        params = ArasParams(sigma0=1.0, sigma_min=0.1, eta=0.25, gamma1=0.5, gamma2=2.0)
        state = fresh_state(problem_N=prob.N, m=prob.N, sigma=1.0, n=prob.n)
        state.x = np.array([1.0, 1.0])

        rec1 = transient_step(state, prob, params)
        # x1 = (0,-2); rho = (2-6)*1/10 = -0.4 < eta so sigma doubles;
        # S1 = <A x1, A x0> = <(0,-6),(1,3)> = -18
        np.testing.assert_allclose(state.x, [0.0, -2.0], atol=1e-14)
        assert rec1.rho == pytest.approx(-0.4, rel=1e-12)
        assert state.sigma == pytest.approx(2.0)
        assert state.pflug.S == pytest.approx(-18.0, rel=1e-12)

        rec2 = transient_step(state, prob, params)
        # x2 = (0,1); rho = (6-1.5)*2/36 = 0.25 >= eta so sigma halves back;
        # S2 = S1 + <(0,3),(0,-6)> = -36
        np.testing.assert_allclose(state.x, [0.0, 1.0], atol=1e-14)
        assert rec2.rho == pytest.approx(0.25, rel=1e-12)
        assert state.sigma == pytest.approx(1.0)
        assert state.pflug.S == pytest.approx(-36.0, rel=1e-12)
        assert state.pflug.k == 2

    def test_phase_flips_exactly_on_first_trigger(self):
        # Scripted gradients make each Pflug increment -1; with burn_in=1 the
        # trigger fires at k=2 and not before.
        prob = _StubProblem(
            grads=[(1.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)],
            losses=[0.0] * 4,
        )
        params = ArasParams(burn_in=1)
        state = fresh_state(problem_N=prob.N, m=2, burn_in=1)
        rec1 = transient_step(state, prob, params)
        assert not rec1.triggered_now and state.transient
        assert state.pflug.S == -1.0
        rec2 = transient_step(state, prob, params)
        assert rec2.triggered_now and not state.transient
        assert rec2.k == 2
        assert rec2.sigma_after == state.sigma
        assert state.pflug.S == -2.0

    def test_zero_gradient_is_inert(self):
        prob = _StubProblem(grads=[(0.0, 0.0)], losses=[0.0])  # loss unread
        state = fresh_state(problem_N=prob.N, m=2, sigma=3.0)
        state.pflug.S = -0.5
        state.pflug.k = 3
        x_before = state.x.copy()
        rec = transient_step(state, prob, DEFAULTS)
        assert state.k == 1  # the iteration still counts
        np.testing.assert_array_equal(state.x, x_before)
        assert state.sigma == 3.0
        assert state.pflug.S == -0.5 and state.pflug.k == 3
        assert rec.rho is None and rec.gnorm == 0.0

    def test_wrong_phase_guard(self):
        prob = _StubProblem(grads=[(1.0, 0.0)])
        state = fresh_state(problem_N=prob.N, transient=False)
        with pytest.raises(RuntimeError, match="stationary"):
            transient_step(state, prob, DEFAULTS)


class TestStationaryStep:
    def test_sigma_grows_linearly(self):
        prob = _StubProblem(
            grads=[(1.0, 0.0)] * 2,
            grad_rows=[[(1.0, 0.0)], [(1.0, 0.0)]],  # zero variance: no resize
        )
        state = fresh_state(problem_N=prob.N, m=2, sigma=1.0, transient=False)
        rec1 = stationary_step(state, prob, DEFAULTS)
        assert rec1.sigma == 1.0 and rec1.sigma_after == 2.0
        assert state.t == 3
        rec2 = stationary_step(state, prob, DEFAULTS)
        assert rec2.sigma == 2.0 and rec2.sigma_after == 3.0
        assert state.t == 4

    def test_norm_test_failure_resizes_to_formula_value(self):
        # var_l1 = 8 and ||g||^2 = 4 at sigma = 2 fail the norm test for
        # m = 2 and resize to ceil(sigma^2 var / ||g||^2) = 8.
        prob = _StubProblem(
            grads=[(2.0, 0.0), (2.0, 0.0)],
            grad_rows=[[(4.0, 0.0), (0.0, 0.0)]],  # tiled: variance 8, mean g
        )
        state = fresh_state(problem_N=prob.N, m=2, sigma=2.0, transient=False)
        rec = stationary_step(state, prob, DEFAULTS)
        assert state.m == 8
        assert rec.m == 8 and rec.m_used == 8
        assert adaptive_batch_size(2.0, 8.0, 4.0, 16) == 8
        np.testing.assert_allclose(state.x, [-1.0, 0.0])

    def test_resized_batch_size_persists(self):
        prob = _StubProblem(
            grads=[(2.0, 0.0), (2.0, 0.0), (2.0, 0.0)],
            grad_rows=[
                [(4.0, 0.0), (0.0, 0.0)],  # first step: variance 8 -> resize
                [(2.0, 0.0)],  # second step: zero variance -> keep m
            ],
        )
        state = fresh_state(problem_N=prob.N, m=2, sigma=2.0, transient=False)
        stationary_step(state, prob, DEFAULTS)
        assert state.m == 8
        rec2 = stationary_step(state, prob, DEFAULTS)
        assert rec2.m_used == 8 and state.m == 8

    def test_norm_test_pass_keeps_batch_size(self):
        prob = _StubProblem(
            grads=[(2.0, 0.0)],
            grad_rows=[[(2.0, 0.0)]],  # zero variance passes any norm test
        )
        state = fresh_state(problem_N=prob.N, m=4, sigma=2.0, transient=False)
        rec = stationary_step(state, prob, DEFAULTS)
        assert state.m == 4 and rec.m_used == 4
        # the step is taken along the fused call's gradient
        np.testing.assert_array_equal(state.x, [-1.0, 0.0])

    def test_single_sample_population_takes_plain_gradient(self):
        # N == 1: a one-row batch has no variance; the stub has no row block
        # to give one, so a variance call would fail
        prob = _StubProblem(N=1, grads=[(2.0, 0.0)])
        state = fresh_state(problem_N=1, m=1, sigma=2.0, transient=False)
        rec = stationary_step(state, prob, DEFAULTS)
        assert rec.m_used == 1 and state.m == 1
        np.testing.assert_array_equal(state.x, [-1.0, 0.0])

    def test_zero_gradient_still_grows_sigma(self):
        # a nonzero variance would fail the norm test: only the zero
        # gradient keeps the step from resizing
        prob = _StubProblem(grads=[(0.0, 0.0)], grad_rows=[[(1.0, 0.0), (-1.0, 0.0)]])
        state = fresh_state(problem_N=prob.N, m=4, sigma=1.5, transient=False)
        x_before = state.x.copy()
        rec = stationary_step(state, prob, DEFAULTS)
        np.testing.assert_array_equal(state.x, x_before)
        assert rec.sigma_after == pytest.approx(3.0)  # 1.5 * 2/1
        assert state.t == 3
        assert state.m == 4  # resize skipped

    def test_draw_is_floored_at_two(self):
        prob = _StubProblem(
            grads=[(2.0, 0.0)],
            grad_rows=[[(2.0, 0.0)]],
        )
        state = fresh_state(problem_N=prob.N, m=1, sigma=2.0, transient=False)
        rec = stationary_step(state, prob, DEFAULTS)
        assert rec.m_used == 2

    def test_wrong_phase_guard(self):
        prob = _StubProblem(grads=[(1.0, 0.0)])
        state = fresh_state(problem_N=prob.N, transient=True)
        with pytest.raises(RuntimeError, match="transient"):
            stationary_step(state, prob, DEFAULTS)

    def test_harmonic_sigma_product(self):
        # After j steps, sigma = sigma_trigger * (j+1): the per-step factors
        # t/(t-1) telescope.  Float division makes this approximate.
        prob = _StubProblem(
            grads=[(1.0, 0.0)] * 30,
            grad_rows=[[(1.0, 0.0)]] * 30,
        )
        sigma_trigger = 0.7
        state = fresh_state(problem_N=prob.N, m=2, sigma=sigma_trigger, transient=False)
        for j in range(1, 31):
            stationary_step(state, prob, DEFAULTS)
            assert state.sigma == pytest.approx(sigma_trigger * (j + 1), rel=1e-10)


def pure_noise_problem():
    """Mean-zero per-sample linear terms around A = I: the full gradient at
    the origin vanishes, so single-sample SGD is pure noise there."""
    A = np.array([[1.0]])
    B = np.array([[1.0], [-1.0], [2.0], [-2.0]])
    return make_noisy_quadratic(A, B)


class TestArasRun:
    def test_noiseless_quadratic_keeps_positive_S(self):
        # With sigma pinned at L the full-batch map is a contraction with
        # nonnegative factors, so successive gradients stay aligned.
        prob = make_quadratic(np.diag([1.0, 1.2]), np.zeros(2))
        params = ArasParams(sigma0=1.2, sigma_min=1.2, m0=2, n_epochs=5, burn_in=2)
        res = aras_run(prob, params, seed=0, x0=np.array([1.0, 1.0]))
        assert not res.triggered
        assert all(r.S > 0 for r in res.trace)
        assert all(r.phase == "transient" for r in res.trace)

    def test_pure_noise_triggers_quickly(self):
        prob = pure_noise_problem()
        params = ArasParams(m0=1, burn_in=5, n_epochs=20, sigma_min=0.1)
        res = aras_run(prob, params, seed=1)
        assert res.triggered
        assert res.trigger_k is not None and res.trigger_k <= 10 * params.burn_in
        assert res.sigma_trigger is not None

    def test_phase_flips_at_most_once(self):
        prob = pure_noise_problem()
        params = ArasParams(m0=1, burn_in=5, n_epochs=20)
        res = aras_run(prob, params, seed=2)
        phases = [r.phase for r in res.trace]
        flips = sum(
            1 for a, b in zip(phases, phases[1:]) if (a, b) == ("transient", "stationary")
        )
        assert flips == 1
        assert sum(r.triggered_now for r in res.trace) == 1
        # once stationary, never transient again
        first_stat = phases.index("stationary")
        assert all(p == "stationary" for p in phases[first_stat:])

    def test_stationary_invariants_after_trigger(self):
        prob = pure_noise_problem()
        params = ArasParams(m0=1, burn_in=5, n_epochs=30)
        res = aras_run(prob, params, seed=3)
        stat = [r for r in res.trace if r.phase == "stationary"]
        assert stat, "run never triggered"
        # sigma nondecreasing, m nondecreasing and capped, S frozen
        for a, b in zip(stat, stat[1:]):
            assert b.sigma >= a.sigma
            assert b.m >= a.m
            assert b.S == a.S
        assert all(r.m <= min(params.m_max, prob.N) for r in stat)
        # harmonic growth: j-th stationary step starts at sigma_trigger*j
        for j, r in enumerate(stat, start=1):
            assert r.sigma == pytest.approx(res.sigma_trigger * j, rel=1e-10)

    def test_epoch_accounting(self):
        prob = pure_noise_problem()
        params = ArasParams(m0=1, burn_in=5, n_epochs=7)
        res = aras_run(prob, params, seed=4)
        epochs = sorted({r.epoch for r in res.trace})
        assert epochs == list(range(params.n_epochs))
        for e in epochs:
            used = sum(r.m_used for r in res.trace if r.epoch == e)
            assert used >= prob.N
            # the epoch closes as soon as the budget is met
            last = [r for r in res.trace if r.epoch == e][-1]
            assert used - last.m_used < prob.N

    def test_deterministic_given_seed(self):
        prob = pure_noise_problem()
        params = ArasParams(m0=1, burn_in=5, n_epochs=10)
        r1 = aras_run(prob, params, seed=9)
        r2 = aras_run(prob, params, seed=9)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert len(r1.trace) == len(r2.trace)
        for a, b in zip(r1.trace, r2.trace):
            assert a.S == b.S and a.sigma == b.sigma and a.m_used == b.m_used
            np.testing.assert_array_equal(a.x, b.x)

    def test_m0_capped_by_problem_size(self):
        prob = pure_noise_problem()  # N = 4
        params = ArasParams(m0=512, m_max=1024, burn_in=5, n_epochs=2)
        res = aras_run(prob, params, seed=0)
        assert all(r.m_used <= prob.N for r in res.trace)

    def test_pflug_replay_from_trace(self):
        # Successive S values in the transient trace must differ by exactly
        # one inner-product increment each; replay the cumulative sum.
        prob = pure_noise_problem()
        params = ArasParams(m0=1, burn_in=5, n_epochs=20)
        res = aras_run(prob, params, seed=5)
        transient = [r for r in res.trace if r.phase == "transient"]
        increments = []
        prev = 0.0
        for r in transient:
            increments.append(r.S - prev)
            prev = r.S
        assert sum(increments) == pytest.approx(transient[-1].S, rel=1e-12)
        # the last transient record is the trigger point
        assert transient[-1].triggered_now
        assert transient[-1].S < 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ArasParams(sigma0=0.05, sigma_min=0.1)
        with pytest.raises(ValueError):
            ArasParams(eta=1.0)
        with pytest.raises(ValueError):
            ArasParams(gamma1=1.5)
        with pytest.raises(ValueError):
            ArasParams(gamma2=0.5)
        with pytest.raises(ValueError):
            ArasParams(m0=100, m_max=10)
        with pytest.raises(ValueError):
            ArasParams(burn_in=0)
        with pytest.raises(ValueError):
            ArasParams(n_epochs=0)


class TestAbortRule:
    """ARAS aborts as the epoch-loop algorithms do: a non-finite new iterate
    ends the run with aborted=True, a reason naming the epoch and iteration,
    and x the last finite iterate; the step that found it changes nothing."""

    def test_run_aborts_at_first_step(self, rng):
        # sigma0 = sigma_min = 1e-310 overflows the very first step
        X = rng.standard_normal((40, 3))
        y = np.where(rng.standard_normal(40) >= 0, 1.0, -1.0)
        prob = make_logistic(Dataset(features=X, labels=y), 0.01)
        params = ArasParams(sigma0=1e-310, sigma_min=1e-310, m0=8, m_max=40, n_epochs=3)
        with np.errstate(over="ignore"):
            res = aras_run(prob, params, seed=0)
        assert res.aborted
        assert res.abort_reason == "non-finite iterate at epoch 0, iteration 0"
        assert res.iterations == 0 and res.trace == []
        np.testing.assert_array_equal(res.x, np.zeros(prob.n))

    @pytest.mark.parametrize("sigma, epoch, k", [(1e-200, 1, 1), (1e-150, 2, 2)])
    def test_run_aborts_after_finite_steps(self, sigma, epoch, k):
        # one full-batch step per epoch; the iterate grows by about 1/sigma
        # a step until it overflows
        prob = make_quadratic(np.diag([1.0, 3.0]), np.zeros(2))
        params = ArasParams(sigma0=sigma, sigma_min=sigma, m0=2, m_max=2, n_epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            res = aras_run(prob, params, seed=0, x0=np.ones(2))
        assert res.aborted
        assert res.abort_reason == f"non-finite iterate at epoch {epoch}, iteration {k}"
        assert res.iterations == len(res.trace) == k
        assert np.isfinite(res.x).all()
        np.testing.assert_array_equal(res.x, res.trace[-1].x)

    def test_finished_run_is_not_aborted(self):
        res = aras_run(pure_noise_problem(), ArasParams(m0=1, n_epochs=2), seed=0)
        assert not res.aborted and res.abort_reason is None

    def test_transient_step_makes_no_second_pass(self):
        # the stub holds one loss and one gradient: a pass at the
        # non-finite point would fail on the empty script
        prob = _StubProblem(grads=[(1e300, 0.0)], losses=[0.0])
        state = fresh_state(problem_N=prob.N, m=2, sigma=1e-10)
        before = (state.x.copy(), state.sigma, state.k, state.pflug.S, state.pflug.k)
        with np.errstate(over="ignore"):
            assert transient_step(state, prob, DEFAULTS) is None
        np.testing.assert_array_equal(state.x, before[0])
        assert (state.sigma, state.k, state.pflug.S, state.pflug.k) == before[1:]

    def test_stationary_step_leaves_the_state(self):
        # the norm test fails and resizes to 8 (as in TestStationaryStep),
        # then the re-drawn gradient is infinite: neither the iterate nor
        # the batch size moves
        prob = _StubProblem(grads=[(2.0, 0.0), (np.inf, 0.0)],
                            grad_rows=[[(4.0, 0.0), (0.0, 0.0)]])
        state = fresh_state(problem_N=prob.N, m=2, sigma=2.0, transient=False)
        before = (state.x.copy(), state.sigma, state.k, state.t, state.m)
        with np.errstate(over="ignore"):
            assert stationary_step(state, prob, DEFAULTS) is None
        assert prob._grads == []  # the re-draw's pass ran
        np.testing.assert_array_equal(state.x, before[0])
        assert (state.sigma, state.k, state.t, state.m) == before[1:]
