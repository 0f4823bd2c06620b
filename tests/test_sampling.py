import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stochopt import (
    Dataset,
    SamplerState,
    adaptive_batch_size,
    make_logistic,
    make_noisy_quadratic,
    make_quadratic,
    make_sigmoid_svm,
    norm_test,
    sample_variance_l1,
)

from oracles import csr_variance_l1_reference, looped_variance_l1, two_pass_variance_l1


class TestDrawBatch:
    def test_full_draw_is_whole_population(self):
        s = SamplerState(N=10, m=5, m_max=10, seed=0)
        batch = s.draw_batch(10)
        np.testing.assert_array_equal(batch, np.arange(10))

    def test_no_repeats_and_sorted(self):
        s = SamplerState(N=50, m=5, m_max=50, seed=3)
        for _ in range(100):
            b = s.draw_batch(7)
            assert len(set(b.tolist())) == 7
            assert np.all(np.diff(b) > 0)

    def test_deterministic_per_seed(self):
        a = SamplerState(N=30, m=4, m_max=30, seed=42)
        b = SamplerState(N=30, m=4, m_max=30, seed=42)
        for _ in range(20):
            np.testing.assert_array_equal(a.draw_batch(4), b.draw_batch(4))

    def test_seed_changes_stream(self):
        a = SamplerState(N=30, m=4, m_max=30, seed=1)
        b = SamplerState(N=30, m=4, m_max=30, seed=2)
        draws_a = np.concatenate([a.draw_batch(4) for _ in range(10)])
        draws_b = np.concatenate([b.draw_batch(4) for _ in range(10)])
        assert not np.array_equal(draws_a, draws_b)

    def test_uniformity_5_sigma(self):
        s = SamplerState(N=10, m=1, m_max=10, seed=7)
        counts = np.zeros(10)
        n_draws = 10_000
        for _ in range(n_draws):
            counts[s.draw_batch(1)[0]] += 1
        expect = n_draws / 10
        sigma = math.sqrt(n_draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - expect) <= 5 * sigma)

    def test_oversized_batch_rejected(self):
        s = SamplerState(N=5, m=2, m_max=5, seed=0)
        with pytest.raises(ValueError):
            s.draw_batch(6)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SamplerState(N=5, m=0, m_max=5, seed=0)
        with pytest.raises(ValueError):
            SamplerState(N=5, m=3, m_max=6, seed=0)


class TestEpochShuffle:
    def test_epoch_covers_population(self):
        s = SamplerState(N=13, m=4, m_max=13, seed=5)
        s.start_epoch()
        seen = []
        while s.remaining_in_epoch:
            seen.extend(s.next_chunk(min(4, s.remaining_in_epoch)).tolist())
        assert sorted(seen) == list(range(13))

    def test_chunk_overrun_rejected(self):
        s = SamplerState(N=6, m=3, m_max=6, seed=0)
        s.start_epoch()
        s.next_chunk(4)
        with pytest.raises(ValueError):
            s.next_chunk(3)  # only 2 left

    def test_exhausted_epoch_rejected(self):
        s = SamplerState(N=4, m=2, m_max=4, seed=0)
        s.start_epoch()
        s.next_chunk(4)
        with pytest.raises(RuntimeError):
            s.next_chunk(1)


def _sparse_features(kind, X):
    if kind == "csr":
        return sp.csr_matrix(X)
    # non-canonical CSR: each row's first coordinate stored twice, halved
    N, n = X.shape
    cols = np.tile(np.r_[np.arange(n), 0], N)
    data = np.hstack([0.5 * X[:, :1], X[:, 1:], 0.5 * X[:, :1]]).ravel()
    return sp.csr_matrix((data, cols, np.arange(N + 1) * (n + 1)), shape=(N, n))


def _variance_scale(prob, batch, x, g):
    """(m ||w||^2 + sum_i c_i^2 ||u_i||^2) / (m-1) with w = g - 2 lam x: the
    size of the terms the sparse identity adds up."""
    m = len(batch)
    C = prob.per_sample_grads(batch, x) - 2.0 * prob.lam * x  # rows c_i u_i
    w = g - 2.0 * prob.lam * x
    return (m * float(w @ w) + float((C * C).sum())) / (m - 1)


class TestSampleVariance:
    def _problem(self, rng, N=6, n=3, kind="dense"):
        X = rng.standard_normal((N, n))
        y = np.where(rng.standard_normal(N) >= 0, 1.0, -1.0)
        if kind != "dense":
            X[np.arange(N), np.arange(N) % n] = 0.0  # a zero in every row
            X = _sparse_features(kind, X)
        return make_logistic(Dataset(features=X, labels=y), lam=0.1)

    def test_identical_gradients_zero_variance(self):
        # two copies of one sample: per-sample gradients coincide
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([1.0, 1.0])
        prob = make_logistic(Dataset(features=X, labels=y), lam=0.0)
        x = np.array([0.3, -0.2])
        batch = np.array([0, 1])
        g = prob.batch_grad(batch, x)
        g_fused, var = sample_variance_l1(prob, batch, x)
        np.testing.assert_array_equal(g_fused, g)
        assert var == 0.0

    def test_hand_example_two_points(self):
        # gradients (0) and (2) in 1-D, mean (1): variance (1+1)/(2-1) = 2.
        # quadratic with A=[2], b_i rows (2) and (0): grad_i = 2x - b_i; at
        # x = 1 the two sample gradients are 0 and 2.
        from stochopt import make_noisy_quadratic

        prob = make_noisy_quadratic(np.array([[2.0]]), np.array([[2.0], [0.0]]))
        x = np.array([1.0])
        batch = np.array([0, 1])
        g = prob.batch_grad(batch, x)
        np.testing.assert_array_equal(g, np.array([1.0]))
        g_fused, var = sample_variance_l1(prob, batch, x)
        np.testing.assert_array_equal(g_fused, g)
        assert var == 2.0

    def test_matches_two_pass_oracle(self, rng):
        prob = self._problem(rng)
        x = rng.standard_normal(prob.n)
        batch = np.array([0, 1, 3, 4, 5])
        g = prob.batch_grad(batch, x)
        g_fused, ours = sample_variance_l1(prob, batch, x)
        np.testing.assert_array_equal(g_fused, g)
        ref = looped_variance_l1(prob.per_sample_grads(batch, x), g)
        assert ours == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("kind", ["csr", "csr-duplicates"])
    @pytest.mark.parametrize("batch", [[0, 1, 3, 4, 5], [0, 1, 2, 3, 4, 5], [2, 2, 4, 0]])
    def test_sparse_matches_two_pass_oracle(self, rng, kind, batch):
        prob = self._problem(rng, kind=kind)
        x = rng.standard_normal(prob.n)
        batch = np.array(batch)
        g = prob.batch_grad(batch, x)
        g_fused, ours = sample_variance_l1(prob, batch, x)
        np.testing.assert_array_equal(g_fused, g)
        ref = looped_variance_l1(prob.per_sample_grads(batch, x), g)
        assert abs(ours - ref) <= 1e-12 * _variance_scale(prob, batch, x, g)

    def test_near_cancellation_csr(self):
        # eight identical rows and one scaled by 1 + 1e-7: the true variance
        # is ~1e-14 of the terms the sparse identity cancels
        gen = np.random.default_rng(7)
        for _ in range(20):
            u = np.zeros(40)
            u[gen.choice(40, 6, replace=False)] = gen.standard_normal(6)
            X = sp.csr_matrix(np.vstack([u] * 8 + [u * (1.0 + 1e-7)]))
            prob = make_logistic(Dataset(features=X, labels=np.ones(9)), lam=0.1)
            x = gen.standard_normal(40)
            batch = np.arange(9)
            g = prob.batch_grad(batch, x)
            g_fused, ours = sample_variance_l1(prob, batch, x)
            np.testing.assert_array_equal(g_fused, g)
            ref = looped_variance_l1(prob.per_sample_grads(batch, x), g)
            assert ours >= 0.0
            assert abs(ours - ref) <= 1e-12 * _variance_scale(prob, batch, x, g)

    def test_csr_memory_stays_sparse(self, traced_peak):
        # the dense m x n block of the per-sample gradients alone is 82 MB
        N, n, m = 1024, 20_000, 512
        gen = np.random.default_rng(11)
        X = sp.random(N, n, density=30 / n, format="csr", random_state=gen)
        y = np.where(gen.standard_normal(N) >= 0, 1.0, -1.0)
        prob = make_logistic(Dataset(features=X, labels=y), lam=0.01)
        x = gen.standard_normal(n)
        batch = np.sort(gen.choice(N, size=m, replace=False))
        (_, var), peak = traced_peak(sample_variance_l1, prob, batch, x)
        assert var > 0.0
        assert peak < 8 * 2**20

    def test_batch_too_small(self, rng):
        prob = self._problem(rng)
        with pytest.raises(ValueError):
            sample_variance_l1(prob, np.array([0]), np.zeros(prob.n))


def _fused_problems(gen, N=9, n=4):
    """Dense, CSR and non-canonical CSR logistic and sigmoid-SVM problems,
    a rank-one quadratic and a shared-Hessian quadratic, all with N rows."""
    X = gen.standard_normal((N, n))
    X[np.arange(N), np.arange(N) % n] = 0.0
    y = np.where(gen.standard_normal(N) >= 0, 1.0, -1.0)
    probs = []
    for kind in ("dense", "csr", "csr-duplicates"):
        feats = X if kind == "dense" else _sparse_features(kind, X)
        for make in (make_logistic, make_sigmoid_svm):
            probs.append(make(Dataset(features=feats, labels=y), lam=0.1))
    M = gen.standard_normal((N, N))
    probs.append(make_quadratic(M @ M.T + 0.5 * np.eye(N), gen.standard_normal(N)))
    probs.append(make_noisy_quadratic(np.eye(n) + 0.1, gen.standard_normal((N, n))))
    return probs


class TestFusedGradVariance:
    """grad_variance_l1 returns batch_grad's bits and the variance that the
    separate two-pass (dense, quadratic) or sparse-identity (CSR) reference
    computes at that gradient, bit for bit."""

    @staticmethod
    def _reference(prob, batch, x, g):
        ds = prob.dataset
        if ds is not None and sp.issparse(ds.features):
            return csr_variance_l1_reference(
                ds.features, ds.labels, prob.kind, prob.lam, batch, x, g)
        return two_pass_variance_l1(prob.per_sample_grads(batch, x), g)

    def test_bitwise_equal_to_separate_passes(self):
        gen = np.random.default_rng(3)
        for prob in _fused_problems(gen):
            N = prob.N
            repeated = np.arange(N)
            repeated[-1] = 2
            batches = [gen.choice(N, size=int(gen.integers(2, N)), replace=False)
                       for _ in range(4)]
            batches += [np.arange(N), gen.permutation(N), repeated, np.array([5, 1, 5])]
            for batch in batches:
                x = gen.standard_normal(prob.n)
                g, var = prob.grad_variance_l1(batch, x)
                assert np.array_equal(g, prob.batch_grad(batch, x))
                assert var == self._reference(prob, batch, x, g), (prob.kind, batch)
                g_s, var_s = sample_variance_l1(prob, batch, x)
                assert np.array_equal(g_s, g) and var_s == var

    def test_dense_memory_is_the_gathered_block_and_one_buffer(self, traced_peak):
        # the per-sample gradients, their deviations and the squares share
        # one m x n buffer besides the gathered rows
        N, n, m = 4096, 500, 2048
        gen = np.random.default_rng(4)
        ds = Dataset(features=gen.standard_normal((N, n)),
                     labels=np.where(gen.standard_normal(N) >= 0, 1.0, -1.0))
        prob = make_logistic(ds, lam=0.01)
        batch = np.sort(gen.choice(N, size=m, replace=False))
        x = gen.standard_normal(n)
        (g, var), peak = traced_peak(prob.grad_variance_l1, batch, x)
        assert var == self._reference(prob, batch, x, g)
        block = m * n * 8
        assert peak <= 2 * block + 2**18, f"peak {peak / block:.2f} blocks"

    def test_problem_rejects_single_row_batch(self):
        prob = _fused_problems(np.random.default_rng(0))[0]
        with pytest.raises(ValueError, match="at least 2"):
            prob.grad_variance_l1([3], np.zeros(prob.n))


class TestNormTest:
    def test_boundary_passes(self):
        assert norm_test(var_l1=2.0, m=2, sigma=1.0, gnorm_sq=1.0) is True

    def test_fails_when_variance_dominates(self):
        assert norm_test(var_l1=2.0, m=1, sigma=2.0, gnorm_sq=1.0) is False

    def test_zero_variance_always_passes(self):
        assert norm_test(var_l1=0.0, m=1, sigma=100.0, gnorm_sq=1e-12) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            norm_test(1.0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            norm_test(1.0, 1, 0.0, 1.0)


class TestAdaptiveBatchSize:
    def test_direct_formula(self):
        assert adaptive_batch_size(sigma=2.0, var_l1=8.0, gnorm_sq=4.0, m_max=100) == 8

    def test_cap(self):
        assert adaptive_batch_size(sigma=10.0, var_l1=8.0, gnorm_sq=4.0, m_max=10) == 10

    def test_zero_variance_clamps_to_one(self):
        assert adaptive_batch_size(sigma=2.0, var_l1=0.0, gnorm_sq=4.0, m_max=10) == 1

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            adaptive_batch_size(1.0, 1.0, 0.0, 10)

    def test_overflowing_ratio_returns_cap(self):
        assert adaptive_batch_size(1e200, 1e200, 1e-200, 7) == 7

    def test_monotonicity(self):
        base = adaptive_batch_size(2.0, 8.0, 4.0, 10**9)
        assert adaptive_batch_size(3.0, 8.0, 4.0, 10**9) >= base
        assert adaptive_batch_size(2.0, 9.0, 4.0, 10**9) >= base
        assert adaptive_batch_size(2.0, 8.0, 5.0, 10**9) <= base


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.floats(1e-8, 1e8),
    var_l1=st.floats(0.0, 1e12),
    gnorm_sq=st.floats(1e-12, 1e12),
    m_max=st.integers(1, 10**6),
)
def test_property_resize_then_norm_test_passes(sigma, var_l1, gnorm_sq, m_max):
    """The returned size always passes the norm test on the same frozen
    statistics, unless the cap m_max binds."""
    m = adaptive_batch_size(sigma, var_l1, gnorm_sq, m_max)
    assert 1 <= m <= m_max
    ratio = sigma * sigma * var_l1 / gnorm_sq
    if m < m_max or ratio <= m_max:
        assert norm_test(var_l1, m, sigma, gnorm_sq)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 20), m=st.integers(2, 10))
def test_property_draws_are_valid_subsets(seed, n, m):
    m = min(m, n)
    s = SamplerState(N=n, m=m, m_max=n, seed=seed)
    b = s.draw_batch(m)
    assert b.size == m
    assert np.all((0 <= b) & (b < n))
    assert len(np.unique(b)) == m
