"""Tests for the damped L-BFGS core and its eigenvalue-bound estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    LBFGSMemory,
    damped_y,
    damping_theta,
    enforce_bounds,
    estimate_Lg,
    hessian_bounds,
    pair_update_eigen_bounds,
    push_pair,
    two_loop_apply,
    update_scaling,
)
from stochopt.lbfgs_core import _interval_update
from oracles import dense_inverse_hessian, dense_pair_update

ETA = 0.25


def random_memory(rng, n, n_pairs, p=None, scale=1.0):
    mem = LBFGSMemory(p=n_pairs if p is None else p, eta=ETA)
    for _ in range(n_pairs):
        s = rng.standard_normal(n) * scale
        y = rng.standard_normal(n) * scale
        push_pair(mem, s, y)
    return mem


class TestMemoryValidation:
    def test_defaults_valid(self):
        mem = LBFGSMemory(p=10)
        assert len(mem.pairs) == 0
        assert mem.L_g_est() == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": -1},
            {"p": 5, "gamma_under": 0.0},
            {"p": 5, "gamma_under": 2.0, "gamma_over": 1.0},
            {"p": 5, "eta": 0.0},
            {"p": 5, "eta": 1.0},
            {"p": 5, "lam_min": 0.1},  # must stay below gamma_under
            {"p": 5, "lam_min": -1.0},
            {"p": 5, "lam_max": 1e4},  # must dominate gamma_over
            {"p": 5, "gamma_tilde": 1e9},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LBFGSMemory(**kwargs)

    def test_disabled_control_limits_allowed(self):
        mem = LBFGSMemory(p=5, lam_min=0.0, lam_max=float("inf"))
        assert mem.lam_min == 0.0 and mem.lam_max == float("inf")

    def test_zero_capacity_allowed(self):
        assert LBFGSMemory(p=0).pairs.maxlen == 0


class TestDamping:
    @pytest.mark.parametrize(
        "sTy,sTB0s,expected",
        [
            (1.0, 1.0, 1.0),
            (0.0, 1.0, 0.75),
            (-1.0, 1.0, 0.375),
            (0.25, 1.0, 1.0),  # boundary: sTy == eta * sTB0s keeps theta = 1
        ],
    )
    def test_theta_table(self, sTy, sTB0s, expected):
        assert damping_theta(sTy, sTB0s, ETA) == pytest.approx(expected)

    def test_theta_requires_positive_sTB0s(self):
        with pytest.raises(ValueError):
            damping_theta(1.0, 0.0, ETA)

    def test_adequate_curvature_returns_y_unchanged(self):
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 1.0])  # s'y = 2 >= 0.25 * 1
        y_hat, theta = damped_y(y, s, 1.0, ETA)
        assert theta == 1.0
        np.testing.assert_array_equal(y_hat, y)

    def test_opposed_y_hand_example(self):
        # y = -s, gamma=1: theta = 0.75/2 = 0.375 and
        # yhat = 0.375*(-s) + 0.625*s = 0.25*s
        s = np.array([2.0, -1.0, 0.5])
        y_hat, theta = damped_y(-s, s, 1.0, ETA)
        assert theta == pytest.approx(0.375)
        np.testing.assert_allclose(y_hat, 0.25 * s, rtol=1e-14)

    def test_zero_s_rejected(self):
        with pytest.raises(ValueError):
            damped_y(np.ones(2), np.zeros(2), 1.0, ETA)

    def test_damped_curvature_floor_1000_random(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            s = rng.standard_normal(n)
            y = rng.standard_normal(n) * float(rng.uniform(0.1, 10))
            gamma = float(rng.uniform(0.1, 10))
            y_hat, theta = damped_y(y, s, gamma, ETA)
            assert 0 < theta <= 1
            floor = ETA * gamma * float(s @ s)
            assert float(s @ y_hat) >= floor * (1 - 1e-9)


class TestScaling:
    def test_collinear(self):
        s = np.array([1.0, 2.0])
        assert update_scaling(s, 2 * s, 0.1, 1e5) == pytest.approx(2.0)

    def test_clamped_above(self):
        s = np.array([1.0, 0.0])
        assert update_scaling(s, 1e9 * s, 0.1, 1e5) == 1e5

    def test_clamped_below(self):
        s = np.array([1.0, 0.0])
        assert update_scaling(s, 0.01 * s, 0.1, 1e5) == 0.1

    def test_nonpositive_curvature_uses_gamma_over(self):
        s = np.array([1.0, 0.0])
        assert update_scaling(s, -s, 0.1, 1e5) == 1e5
        assert update_scaling(s, np.array([0.0, 1.0]), 0.1, 1e5) == 1e5

    def test_zero_s_rejected(self):
        with pytest.raises(ValueError):
            update_scaling(np.zeros(2), np.ones(2), 0.1, 1e5)

    def test_raw_scaling_dominates_lipschitz_estimate(self, rng):
        # y'y/s'y >= ||y||/||s|| by Cauchy-Schwarz whenever s'y > 0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0:
                y = -y
            if float(s @ y) == 0.0:
                continue
            gamma_raw = float(y @ y) / float(s @ y)
            assert gamma_raw >= estimate_Lg(s, y) * (1 - 1e-12)


class TestEstimateLg:
    def test_collinear(self):
        s = np.array([1.0, -2.0])
        assert estimate_Lg(s, 3 * s) == pytest.approx(3.0)

    def test_zero_y(self):
        assert estimate_Lg(np.ones(3), np.zeros(3)) == 0.0

    def test_zero_s_rejected(self):
        with pytest.raises(ValueError):
            estimate_Lg(np.zeros(3), np.ones(3))

    def test_bounded_by_spectral_norm_on_quadratics(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        diag = rng.uniform(0.5, 4.0, size=5)
        A = q @ np.diag(diag) @ q.T
        lam_max = diag.max()
        for _ in range(100):
            s = rng.standard_normal(5)
            assert estimate_Lg(s, A @ s) <= lam_max * (1 + 1e-12)


class TestPushPair:
    def test_single_push(self, rng):
        mem = LBFGSMemory(p=3)
        assert push_pair(mem, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert len(mem.pairs) == 1
        pair = mem.pairs[0]
        assert pair.gamma_tilde == mem.gamma_tilde == pytest.approx(2.0)  # y'y/s'y
        assert pair.rho_hat == pytest.approx(1.0 / float(pair.s @ pair.y_hat))
        assert pair.lg == pytest.approx(2.0)

    def test_ring_semantics(self, rng):
        mem = LBFGSMemory(p=3)
        markers = []
        for i in range(4):
            s = np.zeros(4)
            s[i] = 1.0
            markers.append(s.copy())
            push_pair(mem, s, 2.0 * s)
        assert len(mem.pairs) == 3
        stored_first_coords = [int(np.argmax(pair.s)) for pair in mem.pairs]
        assert stored_first_coords == [1, 2, 3]  # oldest push evicted

    def test_zero_capacity_is_noop(self):
        mem = LBFGSMemory(p=0)
        before = mem.gamma_tilde
        assert not push_pair(mem, np.ones(2), np.ones(2))
        assert len(mem.pairs) == 0 and mem.gamma_tilde == before

    def test_zero_step_is_noop(self):
        mem = LBFGSMemory(p=3)
        before = mem.gamma_tilde
        assert not push_pair(mem, np.zeros(2), np.ones(2))
        assert len(mem.pairs) == 0 and mem.gamma_tilde == before

    def test_stored_pair_is_a_copy(self):
        mem = LBFGSMemory(p=2)
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 0.0])
        push_pair(mem, s, y)
        s[0] = 99.0
        assert mem.pairs[0].s[0] == 1.0

    def test_curvature_invariant_random_pushes(self, rng):
        mem = LBFGSMemory(p=5)
        for _ in range(500):
            n = 6
            s = rng.standard_normal(n)
            y = rng.standard_normal(n) * float(rng.uniform(0.01, 100))
            push_pair(mem, s, y)
            pair = mem.pairs[-1]
            floor = ETA * pair.gamma_tilde * float(pair.s @ pair.s)
            curv = float(pair.s @ pair.y_hat)
            assert curv > 0
            assert curv >= floor * (1 - 1e-9)


class TestTwoLoop:
    def test_empty_memory_scales_gradient(self):
        mem = LBFGSMemory(p=3, gamma_tilde=2.0)
        g = np.array([4.0, -2.0])
        np.testing.assert_allclose(two_loop_apply(mem, g), -g / 2.0, rtol=1e-15)

    def test_zero_gradient_maps_to_zero(self, rng):
        mem = random_memory(rng, n=4, n_pairs=3)
        np.testing.assert_array_equal(two_loop_apply(mem, np.zeros(4)), np.zeros(4))

    def test_matches_dense_reconstruction(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            n_pairs = int(rng.integers(1, 5))
            mem = random_memory(rng, n=n, n_pairs=n_pairs)
            H = dense_inverse_hessian(mem)
            g = rng.standard_normal(n)
            d = two_loop_apply(mem, g)
            expected = -H @ g
            assert np.linalg.norm(d - expected) <= 1e-10 * max(
                1.0, np.linalg.norm(expected)
            )

    def test_descent_direction(self, rng):
        mem = random_memory(rng, n=5, n_pairs=4)
        for _ in range(1000):
            g = rng.standard_normal(5)
            assert float(g @ two_loop_apply(mem, g)) < 0

    def test_single_collinear_pair_acts_as_inverse(self):
        # s = y: scaling 1, no damping; H has eigenvalue 1 on span(s) and
        # 1/gamma = 1 elsewhere, so H g = g.
        mem = LBFGSMemory(p=2)
        s = np.array([3.0, 4.0])
        push_pair(mem, s, s.copy())
        g = np.array([1.0, 2.0])
        np.testing.assert_allclose(two_loop_apply(mem, g), -g, rtol=1e-12)


class TestPairUpdateEigenBounds:
    def test_unit_example(self):
        lower, upper = pair_update_eigen_bounds(1.0, 1.0, 1.0)
        assert lower == pytest.approx(0.5)
        assert upper == pytest.approx(1.5)

    def test_vanishing_mu_limit(self):
        lower, upper = pair_update_eigen_bounds(1e-12, 2.0, 3.0)
        assert 0 < lower <= 1e-12
        assert upper == pytest.approx(0.5, rel=1e-6)  # -> 1/gamma

    def test_lower_always_positive(self, rng):
        for _ in range(200):
            mu = float(rng.uniform(1e-6, 1e3))
            gamma = float(rng.uniform(1e-3, 1e3))
            L = float(rng.uniform(1e-3, 1e3))
            lower, upper = pair_update_eigen_bounds(mu, gamma, L)
            assert lower > 0
            assert upper >= 1.0 / gamma

    def test_validation(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 1, 1)]:
            with pytest.raises(ValueError):
                pair_update_eigen_bounds(*bad)

    def test_dense_eigenvalues_contained_random(self, rng):
        # Tight hypotheses: gamma = s'y/||s||^2 and L_y = ||y||/||s|| exactly.
        n = 5
        for _ in range(1000):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0:
                y = y - 2.0 * (float(s @ y) / float(s @ s)) * s
            sTy = float(s @ y)
            if sTy <= 1e-12:
                continue
            mu = float(rng.uniform(0.05, 20.0))
            gamma = sTy / float(s @ s)
            L_y = np.linalg.norm(y) / np.linalg.norm(s)
            lower, upper = pair_update_eigen_bounds(mu, gamma, L_y)
            eigs = np.linalg.eigvalsh(dense_pair_update(mu, s, y))
            # eigvalsh carries absolute error on the scale of ||A||
            guard = 1e-10 * max(1.0, float(np.abs(eigs).max()))
            assert eigs.min() >= lower - guard
            assert eigs.max() <= upper + guard

    def test_collinear_special_case(self):
        s = np.array([1.0, 1.0, 0.0])
        lower, upper = pair_update_eigen_bounds(1.0, 1.0, 1.0)
        eigs = np.linalg.eigvalsh(dense_pair_update(1.0, s, s))
        assert np.all(eigs >= lower - 1e-12) and np.all(eigs <= upper + 1e-12)
        assert eigs.max() == pytest.approx(1.0)  # rho ||s||^2 = 1


class TestIntervalUpdate:
    def test_point_interval_is_the_pair_update(self, rng):
        for _ in range(200):
            mu, gamma, L = rng.uniform(1e-3, 1e3, size=3)
            assert _interval_update(mu, mu, gamma, L) == pair_update_eigen_bounds(mu, gamma, L)

    def test_dense_updates_across_the_interval_contained(self, rng):
        # hessian_bounds feeds a whole interval [lam, Lam] into one update:
        # the result must bracket the update of mu*I for every mu in it.
        n = 5
        for _ in range(300):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0:
                y = y - 2.0 * (float(s @ y) / float(s @ s)) * s
            sTy = float(s @ y)
            if sTy <= 1e-12:
                continue
            gamma = sTy / float(s @ s)
            L_y = np.linalg.norm(y) / np.linalg.norm(s)
            lam = float(rng.uniform(0.05, 5.0))
            Lam = lam * float(rng.uniform(1.0, 50.0))
            lower, upper = _interval_update(lam, Lam, gamma, L_y)
            for mu in (lam, np.sqrt(lam * Lam), Lam):
                eigs = np.linalg.eigvalsh(dense_pair_update(mu, s, y))
                guard = 1e-10 * max(1.0, float(np.abs(eigs).max()))
                assert eigs.min() >= lower - guard
                assert eigs.max() <= upper + guard


class TestHessianBounds:
    def test_empty_memory_returns_h0_spectrum(self):
        mem = LBFGSMemory(p=3, gamma_tilde=4.0)
        assert hessian_bounds(mem, 0.0) == (0.25, 0.25)

    def test_single_pair_equals_pair_update(self, rng):
        mem = LBFGSMemory(p=3)
        s = rng.standard_normal(4)
        y = rng.standard_normal(4)
        push_pair(mem, s, y)
        pair = mem.pairs[0]
        L = mem.L_g_est()
        expected = pair_update_eigen_bounds(
            1.0 / mem.gamma_tilde, ETA * pair.gamma_tilde, L + pair.gamma_tilde
        )
        assert hessian_bounds(mem, L) == pytest.approx(expected, rel=1e-12)

    def test_negative_L_rejected(self):
        with pytest.raises(ValueError):
            hessian_bounds(LBFGSMemory(p=1), -1.0)

    def test_dense_eigenvalues_contained(self, rng):
        # Honest L_g_est (the memory's own running max) must bracket the
        # dense operator's spectrum.
        for _ in range(60):
            n = int(rng.integers(2, 7))
            n_pairs = int(rng.integers(1, 5))
            mem = random_memory(rng, n=n, n_pairs=n_pairs)
            lam, Lam = hessian_bounds(mem, mem.L_g_est())
            eigs = np.linalg.eigvalsh(dense_inverse_hessian(mem))
            guard = 1e-10 * max(1.0, float(np.abs(eigs).max()))
            assert eigs.min() >= lam - guard
            assert eigs.max() <= Lam + guard

    def test_bounds_widen_as_pairs_accumulate(self, rng):
        # On a fixed instance (base scaling and per-pair constants frozen),
        # running the recursion over longer pair prefixes can only push the
        # lower estimate down and the upper estimate up.
        n = 5
        mem = LBFGSMemory(p=10)
        for _ in range(6):
            push_pair(mem, rng.standard_normal(n), rng.standard_normal(n))
        L_const = mem.L_g_est()
        lams, Lams = [], []
        for j in range(1, len(mem.pairs) + 1):
            prefix = LBFGSMemory(p=10, gamma_tilde=mem.gamma_tilde, eta=mem.eta)
            prefix.pairs.extend(list(mem.pairs)[:j])
            lam, Lam = hessian_bounds(prefix, L_const)
            lams.append(lam)
            Lams.append(Lam)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))
        assert all(b >= a * (1 - 1e-12) for a, b in zip(Lams, Lams[1:]))


class TestEnforceBounds:
    def test_within_limits_unchanged(self):
        mem = LBFGSMemory(p=3)
        s = np.array([1.0, 0.0])
        push_pair(mem, s, 2.0 * s)
        lam, Lam = hessian_bounds(mem, mem.L_g_est())
        assert lam >= mem.lam_min and Lam <= mem.lam_max
        lam2, Lam2, flushed = enforce_bounds(mem)
        assert not flushed
        assert (lam2, Lam2) == (lam, Lam)
        assert len(mem.pairs) == 1
        assert (mem.lam_lo, mem.lam_hi) == (lam, Lam)

    def test_violation_keeps_only_newest_pair(self, rng):
        mem = random_memory(rng, n=5, n_pairs=5, p=5)
        lam, Lam = hessian_bounds(mem, mem.L_g_est())
        # five random damped pairs blow the default upper limit
        assert Lam > mem.lam_max or lam < mem.lam_min
        newest = mem.pairs[-1]
        lam2, Lam2, flushed = enforce_bounds(mem)
        assert flushed
        assert len(mem.pairs) == 1
        assert mem.pairs[0] is newest
        single = hessian_bounds(mem, mem.L_g_est())
        assert (lam2, Lam2) == single
        assert (mem.lam_lo, mem.lam_hi) == single

    def test_empty_memory_never_flushes(self):
        mem = LBFGSMemory(p=3, gamma_tilde=2.0)
        lam, Lam, flushed = enforce_bounds(mem)
        assert not flushed
        assert (lam, Lam) == (0.5, 0.5)
        assert len(mem.pairs) == 0

    def test_explicit_limits_override_memory_limits(self, rng):
        mem = LBFGSMemory(p=3)
        s = np.array([1.0, 0.0])
        push_pair(mem, s, 2.0 * s)
        lam, Lam = hessian_bounds(mem, mem.L_g_est())
        # squeeze the allowed interval so the current upper bound violates it
        lam2, Lam2, flushed = enforce_bounds(mem, lam_min=0.0, lam_max=Lam / 2)
        assert flushed
        assert len(mem.pairs) == 1

    def test_disabled_limits_never_flush(self, rng):
        mem = random_memory(rng, n=5, n_pairs=5, p=5)
        _, _, flushed = enforce_bounds(mem, lam_min=0.0, lam_max=float("inf"))
        assert not flushed
        assert len(mem.pairs) == 5

    def test_flush_length_contract(self, rng):
        for n_pairs in [1, 2, 5]:
            mem = random_memory(rng, n=4, n_pairs=n_pairs, p=8)
            before = len(mem.pairs)
            enforce_bounds(mem, lam_min=0.0, lam_max=1e-12)  # force flush
            assert len(mem.pairs) == min(1, before)


class TestPushProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_two_loop_dense_agreement_property(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 8))
        n_pairs = int(gen.integers(1, 6))
        mem = LBFGSMemory(p=n_pairs, eta=float(gen.uniform(0.05, 0.9)))
        for _ in range(n_pairs):
            push_pair(mem, gen.standard_normal(n), gen.standard_normal(n))
        g = gen.standard_normal(n)
        d = two_loop_apply(mem, g)
        expected = -dense_inverse_hessian(mem) @ g
        assert np.linalg.norm(d - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))
        if np.any(g):
            assert float(g @ d) < 0
