"""Tests for the adaptive quadratic regularization method (ARIG)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    Dataset,
    RegParams,
    RegState,
    RunResult,
    adversarial_grad_oracle,
    arig_run,
    arig_step,
    check_inexact_decrease,
    complexity_budget,
    exact_fun_oracle,
    exact_grad_oracle,
    make_logistic,
    make_quadratic,
    model_decrease,
    noisy_fun_oracle,
    rho_ratio,
    sigma_max_bound,
    update_sigma,
)
from stochopt.regularization import REJECTION_LIMIT

DEFAULTS = RegParams()


def diag_quadratic(diag, b=None):
    A = np.diag(np.asarray(diag, dtype=float))
    b = np.zeros(len(diag)) if b is None else np.asarray(b, dtype=float)
    return make_quadratic(A, b)


class TestRegParams:
    def test_defaults_valid(self):
        p = RegParams()
        assert p.sigma0 == 1.0 and p.sigma_min == 0.1
        assert (p.eta1, p.eta2) == (0.25, 0.75)
        assert (p.gamma1, p.gamma2, p.gamma3) == (0.5, 1.5, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"eps": -1.0},
            {"sigma_min": 0.0},
            {"sigma_min": 2.0, "sigma0": 1.0},
            {"eta1": 0.0},
            {"eta1": 0.8, "eta2": 0.5},
            {"eta2": 1.0},
            {"gamma1": 1.0},
            {"gamma1": 0.0},
            {"gamma2": 1.0},
            {"gamma2": 0.9},
            {"gamma3": 1.5, "gamma2": 1.5},
            {"gamma3": 1.2, "gamma2": 1.5},
            {"mode": "bogus"},
            {"mode": "inexact-g-and-f", "eta0": 0.125},  # must be strictly below eta1/2
            {"mode": "inexact-g-and-f", "eta0": 0.3},
            {"mode": "inexact-g-and-f", "eta0": 0.0},
            {"max_iters": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RegParams(**kwargs)

    def test_eta0_strictly_inside(self):
        assert RegParams(mode="inexact-g-and-f", eta0=0.1).eta0 == 0.1
        assert RegParams(mode="inexact-g-and-f", eta0=0.124).eta0 == 0.124

    @pytest.mark.parametrize("kwargs", [
        {"eta0": 0.1},
        {"mode": "inexact-g", "eta0": 0.1},
        {"mode": "inexact-g-and-f"},
    ])
    def test_eta0_set_exactly_in_inexact_f_mode(self, kwargs):
        # eta0 is the noisy-f accuracy factor: no other mode reads it
        with pytest.raises(ValueError, match="eta0 is required by mode = inexact-g-and-f"):
            RegParams(**kwargs)


class TestModelDecrease:
    def test_examples(self):
        assert model_decrease(1.0, 4.0) == 4.0
        assert model_decrease(2.0, 4.0) == 2.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            model_decrease(0.0, 1.0)
        with pytest.raises(ValueError):
            model_decrease(-1.0, 1.0)

    def test_matches_linear_model_evaluated_at_step(self, rng):
        # For the linear model T(s) = f + g's and the step s = -g/sigma, the
        # predicted decrease T(0) - T(s) is exactly -g's.
        for _ in range(50):
            n = int(rng.integers(1, 8))
            g = rng.standard_normal(n)
            sigma = float(rng.uniform(0.1, 10.0))
            f0 = float(rng.standard_normal())
            s = -g / sigma
            decrease = f0 - (f0 + g @ s)
            expected = model_decrease(sigma, float(g @ g))
            assert decrease == pytest.approx(expected, rel=1e-12)


class TestRhoRatio:
    def test_no_change_gives_zero(self):
        assert rho_ratio(1.0, 1.0, 2.0, 4.0) == 0.0

    def test_exact_model_decrease_gives_one(self):
        sigma, gnorm_sq = 2.0, 4.0
        dec = model_decrease(sigma, gnorm_sq)
        assert rho_ratio(5.0, 5.0 - dec, sigma, gnorm_sq) == pytest.approx(1.0)

    def test_hand_quadratic(self):
        # f = 0.5||x||^2 at x=(1,0) with sigma=2: s=(-0.5,0), f drops from
        # 0.5 to 0.125, and the model predicts ||g||^2/sigma = 0.5.
        x = np.array([1.0, 0.0])
        g = x.copy()
        sigma = 2.0
        s = -g / sigma
        f_old = 0.5 * float(x @ x)
        f_new = 0.5 * float((x + s) @ (x + s))
        assert rho_ratio(f_old, f_new, sigma, float(g @ g)) == pytest.approx(0.75)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            rho_ratio(1.0, 0.5, 1.0, 0.0)


class TestUpdateSigma:
    @pytest.mark.parametrize(
        "sigma,rho,expected",
        [
            (1.0, 0.9, 0.5),  # very successful: gamma1 * sigma
            (1.0, 0.5, 1.5),  # successful: gamma2 * sigma
            (1.0, 0.1, 2.0),  # rejected: gamma3 * sigma
            (1.0, 0.75, 0.5),  # rho == eta2 counts as very successful
            (1.0, 0.25, 1.5),  # rho == eta1 counts as successful
            (0.15, 0.9, 0.1),  # shrink clamped at sigma_min
            (1.0, -3.0, 2.0),  # arbitrarily bad rho still just gamma3
        ],
    )
    def test_branch_table(self, sigma, rho, expected):
        assert update_sigma(sigma, rho, DEFAULTS) == pytest.approx(expected)

    @given(
        sigma=st.floats(min_value=0.1, max_value=1e6),
        rho=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_output_in_branch_interval(self, sigma, rho):
        p = DEFAULTS
        out = update_sigma(sigma, rho, p)
        assert out >= p.sigma_min
        if rho >= p.eta2:
            assert max(p.sigma_min, p.gamma1 * sigma) <= out <= sigma
        elif rho >= p.eta1:
            assert sigma <= out <= p.gamma2 * sigma
        else:
            assert p.gamma2 * sigma <= out <= p.gamma3 * sigma


class TestCheckInexactDecrease:
    def test_exact_values_pass(self):
        assert check_inexact_decrease(0.0, 0.0, 0.1, 1.0)

    def test_too_noisy_fails(self):
        assert not check_inexact_decrease(0.2, 0.0, 0.1, 1.0)
        assert not check_inexact_decrease(0.0, 0.2, 0.1, 1.0)

    def test_boundary_passes(self):
        assert check_inexact_decrease(0.1, 0.1, 0.1, 1.0)

    def test_nonpositive_model_decrease_rejected(self):
        with pytest.raises(ValueError):
            check_inexact_decrease(0.0, 0.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            check_inexact_decrease(0.0, 0.0, 0.1, -1.0)


class TestSigmaMaxBound:
    def test_sigma0_branch(self):
        p = RegParams(sigma0=1e9, sigma_min=0.1)
        assert sigma_max_bound(2.0, p) == 1e9

    def test_formula_branch(self):
        # gamma3 (L/2 + 1)/(1 - eta2) = 2 * 2 / 0.25 = 16
        assert sigma_max_bound(2.0, DEFAULTS) == pytest.approx(16.0)

    def test_invalid_L(self):
        with pytest.raises(ValueError):
            sigma_max_bound(0.0, DEFAULTS)

    def test_run_never_exceeds_bound(self):
        prob = diag_quadratic([1.0, 3.0, 5.0], b=[1.0, -2.0, 0.5])
        res = arig_run(prob, RegParams(eps=1e-6), x0=np.ones(3))
        assert res.terminated
        assert res.sigma_max_observed <= sigma_max_bound(prob.L, DEFAULTS) + 1e-12


class TestComplexityBudget:
    def test_kappa_s_example(self):
        # L=2 under the defaults gives sigma_max=16, so
        # kappa_s = (1+16)^2/(0.25*0.1) = 11560, and with f0-f_low = eps^2
        # the successful-iteration bound is exactly floor(kappa_s).
        eps = 1e-3
        max_succ, _ = complexity_budget(eps * eps, 0.0, eps, DEFAULTS, L=2.0)
        assert max_succ == 11560

    def test_floor_to_zero_when_eps_large(self):
        max_succ, max_total = complexity_budget(1.0, 0.0, 1e6, DEFAULTS, L=2.0)
        assert max_succ == 0
        assert max_total == pytest.approx(math.log(16.0) / math.log(1.5))

    def test_total_formula(self):
        f0, eps, L = 7.0, 0.01, 2.0
        max_succ, max_total = complexity_budget(f0, 0.0, eps, DEFAULTS, L=L)
        kappa_s = (1.0 + 16.0) ** 2 / (0.25 * 0.1)
        assert max_succ == math.floor(kappa_s * f0 / eps**2)
        expected_total = max_succ * (
            1.0 + abs(math.log(0.5)) / math.log(1.5)
        ) + math.log(16.0) / math.log(1.5)
        assert max_total == pytest.approx(expected_total, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_budget(0.0, 1.0, 1e-3, DEFAULTS, L=2.0)
        with pytest.raises(ValueError):
            complexity_budget(1.0, 0.0, 0.0, DEFAULTS, L=2.0)

    def test_run_within_budget(self):
        prob = diag_quadratic([0.5, 2.0, 4.0], b=[1.0, 1.0, -1.0])
        params = RegParams(eps=1e-5)
        x0 = np.zeros(3)
        res = arig_run(prob, params, x0=x0)
        assert res.terminated
        max_succ, max_total = complexity_budget(
            prob.full_loss(x0), prob.f_low(), params.eps, params, prob.L
        )
        assert res.n_success <= max_succ
        assert res.iterations <= max_total


def half_norm_squared_oracles():
    """Hand oracles for f(x) = 0.5 ||x||^2 (gradient is x itself)."""
    grad = lambda x, w: (x.copy(), 0.0, float(np.linalg.norm(x)))
    fun = lambda x, w: (0.5 * float(x @ x), 0.0)
    return grad, fun


class TestArigStep:
    def test_zero_gradient_terminates(self):
        grad, fun = half_norm_squared_oracles()
        state = RegState(x=np.zeros(2), sigma=1.0)
        out = arig_step(state, DEFAULTS, grad, fun)
        assert out.status == "terminated"
        assert out.gnorm == 0.0
        assert state.k == 0  # termination consumes no iteration

    def test_hand_quadratic_accepted(self):
        grad, fun = half_norm_squared_oracles()
        state = RegState(x=np.array([1.0, 0.0]), sigma=2.0)
        out = arig_step(state, DEFAULTS, grad, fun)
        assert out.status == "accepted"
        assert out.rho == pytest.approx(0.75)
        np.testing.assert_allclose(state.x, [0.5, 0.0])
        # rho hit eta2 exactly, so sigma shrinks: max(0.1, 0.5*2) = 1
        assert state.sigma == pytest.approx(1.0)
        assert state.k == 1 and state.consec_rejects == 0
        assert state.pending_g is None

    def test_rejection_keeps_x_and_inflates_sigma(self):
        grad = lambda x, w: (np.array([1.0]), 0.0, None)
        fun = lambda x, w: (0.0, 0.0)  # flat f: rho = 0 < eta1
        state = RegState(x=np.array([3.0]), sigma=1.0)
        out = arig_step(state, DEFAULTS, grad, fun)
        assert out.status == "rejected"
        assert out.rho == 0.0
        assert state.x[0] == 3.0
        assert state.sigma == pytest.approx(2.0)  # gamma3 * sigma
        assert state.k == 1 and state.consec_rejects == 1
        assert state.pending_g is not None

    def test_rejected_step_reuses_stale_gradient(self):
        calls = {"n": 0}

        def counting_grad(x, w):
            calls["n"] += 1
            return np.array([1.0]), 0.0, None

        fun = lambda x, w: (0.0, 0.0)
        state = RegState(x=np.array([3.0]), sigma=1.0)
        arig_step(state, DEFAULTS, counting_grad, fun)
        arig_step(state, DEFAULTS, counting_grad, fun)
        assert calls["n"] == 1  # second pass re-entered with the stale g
        assert state.sigma == pytest.approx(4.0)

    def test_stale_gradient_never_triggers_termination(self):
        # A pending gradient below the termination threshold must still be
        # used for a step; only fresh gradients may terminate.
        grad = lambda x, w: (np.array([1.0]), 0.0, None)
        fun = lambda x, w: (0.0, 0.0)
        state = RegState(x=np.array([3.0]), sigma=1.0)
        state.pending_g = np.array([1e-12])
        out = arig_step(state, DEFAULTS, grad, fun)
        assert out.status == "rejected"

    def test_acceptance_resets_consecutive_rejections(self):
        grad, fun = half_norm_squared_oracles()
        state = RegState(x=np.array([1.0, 0.0]), sigma=2.0)
        state.consec_rejects = 5
        arig_step(state, DEFAULTS, grad, fun)
        assert state.consec_rejects == 0

    def test_rejection_limit_aborts(self):
        """arig_step counts consecutive rejections past the limit; arig_run
        is what stops at it, returning the iterate it started from."""
        grad = lambda x, w: (np.array([1.0]), 0.0, None)
        fun = lambda x, w: (0.0, 0.0)
        state = RegState(x=np.array([3.0]), sigma=1.0)
        for _ in range(REJECTION_LIMIT + 1):
            assert arig_step(state, DEFAULTS, grad, fun).status == "rejected"
        assert state.consec_rejects == REJECTION_LIMIT + 1 and state.x.tolist() == [3.0]
        res = arig_run(_FlatProblem(), DEFAULTS, x0=np.array([3.0]))
        assert res.aborted and not res.terminated
        assert res.abort_reason == (f"{REJECTION_LIMIT} consecutive rejected steps "
                                    f"at iteration {REJECTION_LIMIT}")
        assert res.iterations == len(res.trace) == res.n_reject == REJECTION_LIMIT
        assert res.x.tolist() == [3.0]

    def test_non_finite_trial_point_is_not_evaluated(self):
        seen = []

        def fun(x, w):
            seen.append(x)
            return 0.5 * float(x @ x), 0.0

        grad = lambda x, w: (np.array([1e300, 0.0]), 0.0, 1e300)
        state = RegState(x=np.array([1.0, 2.0]), sigma=1e-10)
        with np.errstate(over="ignore"):
            out = arig_step(state, DEFAULTS, grad, fun)
        assert out.status == "non-finite" and seen == []
        assert state.k == 0 and state.pending_g is None and state.x.tolist() == [1.0, 2.0]

    def test_dishonest_function_oracle_detected(self):
        grad, _ = half_norm_squared_oracles()
        fun = lambda x, w: (0.5 * float(x @ x), w * 2.0 + 1.0)
        params = RegParams(mode="inexact-g-and-f", eta0=0.1)
        state = RegState(x=np.array([1.0, 0.0]), sigma=2.0)
        with pytest.raises(RuntimeError, match="did not honor"):
            arig_step(state, params, grad, fun)

    def test_requested_function_accuracy_scales_with_model_decrease(self):
        seen = []

        def recording_fun(x, w):
            seen.append(w)
            return 0.5 * float(x @ x), w

        grad, _ = half_norm_squared_oracles()
        params = RegParams(mode="inexact-g-and-f", eta0=0.1)
        state = RegState(x=np.array([2.0, 0.0]), sigma=2.0)
        arig_step(state, params, grad, recording_fun)
        # model decrease = ||g||^2/sigma = 4/2 = 2; request eta0 * 2 = 0.2
        assert seen == [pytest.approx(0.2)] * 2


class _FlatProblem:
    """One coordinate, gradient 1 and loss 0 everywhere: no step decreases
    f, so every step is rejected."""

    n = N = 1

    def full_grad(self, x):
        return np.array([1.0])

    def full_loss(self, x):
        return 0.0


def _overflowing_logistic(scale):
    gen = np.random.default_rng(0)
    X = gen.standard_normal((50, 3))
    y = np.where(gen.standard_normal(50) >= 0, 1.0, -1.0)
    with np.errstate(over="ignore"):  # the row norms behind L overflow
        return make_logistic(Dataset(features=X * scale, labels=y), lam=0.0)


class TestArigRun:
    def test_exact_mode_reaches_tolerance(self):
        # Homogeneous quadratic: function values shrink with the iterates, so
        # the decrease ratio stays numerically meaningful down to eps=1e-8.
        prob = diag_quadratic([1.0, 2.0, 3.0, 4.0])
        res = arig_run(prob, RegParams(eps=1e-8), x0=np.ones(4))
        assert res.terminated
        assert np.linalg.norm(prob.full_grad(res.x)) <= 1e-8

    def test_inexact_gradient_mode_reaches_tolerance(self):
        prob = diag_quadratic([1.0, 2.0, 3.0], b=[0.5, -0.5, 1.0])
        res = arig_run(prob, RegParams(mode="inexact-g", eps=1e-6), seed=3, x0=np.ones(3))
        assert res.terminated
        # the guarantee is on the exact gradient at the returned point
        assert np.linalg.norm(prob.full_grad(res.x)) <= 1e-6

    def test_inexact_g_and_f_mode_reaches_tolerance(self):
        prob = diag_quadratic([1.0, 2.0], b=[1.0, 1.0])
        params = RegParams(mode="inexact-g-and-f", eps=1e-6, eta0=0.1)
        res = arig_run(prob, params, seed=7, x0=np.zeros(2))
        assert res.terminated
        assert np.linalg.norm(prob.full_grad(res.x)) <= 1e-6

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            RegParams(mode="bogus")

    def test_inexact_f_requires_eta0(self):
        with pytest.raises(ValueError, match="eta0"):
            RegParams(mode="inexact-g-and-f")

    def test_eta0_rejected_outside_inexact_f_mode(self):
        # no mode but inexact-g-and-f reads eta0, so setting it elsewhere is
        # an error at construction, not a value the run drops
        with pytest.raises(ValueError, match="eta0"):
            RegParams(eps=1e-8, eta0=0.1)

    def test_trace_consistency(self):
        prob = diag_quadratic([0.5, 5.0], b=[2.0, 1.0])
        res = arig_run(prob, RegParams(eps=1e-7), x0=np.zeros(2))
        assert isinstance(res, RunResult)
        assert len(res.trace) == res.iterations
        ks = [r.k for r in res.trace]
        assert ks == list(range(1, res.iterations + 1))
        assert res.n_success == sum(1 for r in res.trace if r.accepted)
        assert res.n_reject == sum(1 for r in res.trace if not r.accepted)
        # rejected iterations must not move the iterate
        prev_x = np.zeros(2)
        for rec in res.trace:
            if not rec.accepted:
                np.testing.assert_array_equal(rec.x, prev_x)
            prev_x = rec.x
        # sigma stays above the floor throughout
        assert all(r.sigma >= DEFAULTS.sigma_min for r in res.trace)
        assert res.sigma_final >= DEFAULTS.sigma_min

    def test_rejection_limit_on_huge_features_aborts(self):
        """Features scaled by 1e154 make every trial point's loss too large
        to decrease: the run ends aborted at x0 instead of raising."""
        res = arig_run(_overflowing_logistic(1e154), RegParams(eps=1e-6))
        assert res.aborted and not res.terminated
        assert res.abort_reason.startswith(f"{REJECTION_LIMIT} consecutive rejected steps")
        assert res.iterations == REJECTION_LIMIT and res.n_success == 0
        assert np.all(np.isfinite(res.x))

    def test_sigma_max_observed_counts_sigma_after_the_last_step(self):
        """A rejected step doubles sigma, so a run that ends on rejected steps
        holds its largest sigma after the last step, which no record shows."""
        params = RegParams(eps=1e-6, max_iters=3)
        res = arig_run(_overflowing_logistic(1e154), params)
        assert [rec.sigma for rec in res.trace] == [1.0, 2.0, 4.0] and res.n_reject == 3
        assert res.sigma_max_observed == res.sigma_final == 8.0

    def test_non_finite_trial_point_aborts(self):
        """A gradient of order 1e300 over sigma 1e-10 overflows the first
        trial point: the run ends aborted at x0 before evaluating it."""
        prob = _LossCounter(_overflowing_logistic(1e300))
        params = RegParams(eps=1e-6, sigma0=1e-10, sigma_min=1e-10)
        with np.errstate(over="ignore"):
            res = arig_run(prob, params)
        assert res.aborted and not res.terminated
        assert res.abort_reason == "non-finite trial iterate at iteration 0"
        assert res.iterations == 0 and res.trace == [] and prob.loss_calls == 0
        assert res.x.tolist() == [0.0, 0.0, 0.0]

    def test_converging_run_is_not_aborted(self):
        prob = diag_quadratic([1.0, 2.0])
        res = arig_run(prob, RegParams(eps=1e-8), x0=np.ones(2))
        assert res.terminated and not res.aborted and res.abort_reason is None

    def test_budget_exhaustion_is_flagged_not_fatal(self):
        prob = diag_quadratic([1.0, 3.0], b=[1.0, 1.0])
        res = arig_run(prob, RegParams(eps=1e-12, max_iters=3), x0=np.zeros(2))
        assert not res.terminated
        assert res.iterations == 3

    def test_sigma_trace_replay(self):
        # Recompute the sigma sequence from the recorded rho values and
        # compare against the recorded sigmas.
        prob = diag_quadratic([0.5, 5.0], b=[2.0, 1.0])
        res = arig_run(prob, RegParams(eps=1e-7), x0=np.zeros(2))
        sigma = DEFAULTS.sigma0
        for rec in res.trace:
            assert rec.sigma == pytest.approx(sigma, rel=1e-12)
            sigma = update_sigma(sigma, rec.rho, DEFAULTS)
        assert res.sigma_final == pytest.approx(sigma, rel=1e-12)


class _LossCounter:
    """Problem proxy counting full_loss calls."""

    def __init__(self, problem):
        self._problem = problem
        self.loss_calls = 0

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def full_loss(self, x):
        self.loss_calls += 1
        return self._problem.full_loss(x)


class TestArigFunctionOracleCalls:
    @pytest.mark.parametrize("mode", ["exact", "inexact-g"])
    def test_exact_f_evaluated_once_per_iterate(self, mode):
        prob = diag_quadratic([0.5, 5.0], b=[2.0, 1.0])
        counter = _LossCounter(prob)
        x0 = np.zeros(2)
        res = arig_run(counter, RegParams(mode=mode, eps=1e-7), seed=3, x0=x0)
        accepted = [r.accepted for r in res.trace]
        assert any(accepted) and not all(accepted)  # both reuse paths ran
        assert counter.loss_calls == res.iterations + 1
        prev_x = x0
        for rec in res.trace:
            assert rec.f_val == prob.full_loss(prev_x)
            prev_x = rec.x

    def test_noisy_f_still_evaluated_twice_per_step(self):
        prob = diag_quadratic([1.0, 2.0], b=[1.0, 1.0])
        counter = _LossCounter(prob)
        params = RegParams(mode="inexact-g-and-f", eps=1e-6, eta0=0.1)
        res = arig_run(counter, params, seed=7, x0=np.zeros(2))
        assert res.iterations > 0
        assert counter.loss_calls == 2 * res.iterations


class TestOracles:
    def test_exact_oracles_report_zero_error(self):
        prob = diag_quadratic([1.0, 2.0], b=[1.0, 0.0])
        x = np.array([0.3, -0.7])
        g, w, gn = exact_grad_oracle(prob)(x, 0.5)
        assert w == 0.0
        np.testing.assert_array_equal(g, prob.full_grad(x))
        assert gn == float(np.linalg.norm(prob.full_grad(x)))
        f, wf = exact_fun_oracle(prob)(x, 0.5)
        assert wf == 0.0
        assert f == prob.full_loss(x)

    @pytest.mark.parametrize("omega", [0.1, 0.5, 0.9])
    def test_adversarial_error_is_exactly_relative(self, omega):
        prob = diag_quadratic([1.0, 3.0, 0.5], b=[1.0, -1.0, 2.0])
        oracle = adversarial_grad_oracle(prob, seed=11)
        x = np.array([0.4, 1.2, -0.3])
        g_true = prob.full_grad(x)
        g, w, gn = oracle(x, omega)
        assert w == omega
        assert gn == float(np.linalg.norm(g_true))
        err = np.linalg.norm(g - g_true)
        assert err == pytest.approx(omega * np.linalg.norm(g), rel=1e-12)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.5])
    def test_adversarial_shrink_fallback_in_1d(self, omega):
        prob = diag_quadratic([2.0], b=[1.0])
        oracle = adversarial_grad_oracle(prob, seed=0)
        x = np.array([4.0])
        g_true = prob.full_grad(x)
        g, w, gn = oracle(x, omega)
        assert gn == float(np.linalg.norm(g_true))
        np.testing.assert_allclose(g, g_true / (1.0 + omega))
        assert np.linalg.norm(g - g_true) == pytest.approx(
            omega * np.linalg.norm(g), rel=1e-12
        )

    def test_adversarial_zero_gradient_passthrough(self):
        prob = diag_quadratic([1.0, 1.0])  # minimizer at the origin
        oracle = adversarial_grad_oracle(prob, seed=0)
        g, w, gn = oracle(np.zeros(2), 0.5)
        assert w == 0.0 and gn == 0.0
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_noisy_fun_oracle_bounded(self):
        prob = diag_quadratic([1.0, 2.0], b=[1.0, 1.0])
        oracle = noisy_fun_oracle(prob, seed=5)
        x = np.array([0.2, -0.1])
        f_true = prob.full_loss(x)
        for _ in range(200):
            f, w = oracle(x, 1e-3)
            assert w == 1e-3
            assert abs(f - f_true) <= 1e-3

    def test_noisy_fun_oracle_exact_when_unrequested(self):
        prob = diag_quadratic([1.0])
        oracle = noisy_fun_oracle(prob, seed=5)
        x = np.array([0.7])
        f, w = oracle(x, 0.0)
        assert w == 0.0
        assert f == prob.full_loss(x)

    def test_adversarial_oracle_deterministic_per_seed(self):
        prob = diag_quadratic([1.0, 2.0, 3.0], b=[1.0, 0.0, -1.0])
        x = np.array([0.5, 0.5, 0.5])
        g1, _, _ = adversarial_grad_oracle(prob, seed=42)(x, 0.5)
        g2, _, _ = adversarial_grad_oracle(prob, seed=42)(x, 0.5)
        np.testing.assert_array_equal(g1, g2)


class TestRunProperties:
    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_exact_runs_terminate_within_bound(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 5))
        diag = gen.uniform(0.5, 4.0, size=n)
        b = gen.standard_normal(n)
        prob = diag_quadratic(diag, b)
        params = RegParams(eps=1e-6)
        x0 = gen.standard_normal(n)
        res = arig_run(prob, params, x0=x0)
        assert res.terminated
        assert np.linalg.norm(prob.full_grad(res.x)) <= params.eps
        assert res.sigma_max_observed <= sigma_max_bound(prob.L, params) + 1e-12
        f0 = prob.full_loss(x0)
        max_succ, max_total = complexity_budget(
            f0, prob.f_low(), params.eps, params, prob.L
        )
        assert res.n_success <= max_succ
        assert res.iterations <= max_total
