import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import stochopt
from stochopt import (
    Dataset,
    make_logistic,
    make_noisy_quadratic,
    make_quadratic,
    make_sigmoid_svm,
)

from oracles import enumerate_batches, fd_gradient


def _random_dataset(rng, N=7, n=4):
    X = rng.standard_normal((N, n))
    y = np.where(rng.standard_normal(N) >= 0, 1.0, -1.0)
    return Dataset(features=X, labels=y)


def _random_quadratic(rng, n=4):
    M = rng.standard_normal((n, n))
    A = M @ M.T + 0.5 * np.eye(n)
    b = rng.standard_normal(n)
    return make_quadratic(A, b)


def _all_problems(rng):
    ds = _random_dataset(rng)
    quad = _random_quadratic(rng)
    B = rng.standard_normal((6, 4))
    A = np.eye(4) + 0.1 * np.ones((4, 4))
    return [
        make_sigmoid_svm(ds, lam=0.05),
        make_logistic(ds, lam=0.05),
        quad,
        make_noisy_quadratic(A, B),
    ]


class TestEvalLoss:
    def test_sigmoid_svm_at_zero(self, rng):
        prob = make_sigmoid_svm(_random_dataset(rng), lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            assert prob.eval_loss_i(i, x) == pytest.approx(1.0, abs=0)

    def test_logistic_at_zero(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            assert prob.eval_loss_i(i, x) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_quadratic_identity_mean(self):
        # f(x) = 0.5 x'x at x = (3, 4): the mean over summands is 12.5
        prob = make_quadratic(np.eye(2), np.zeros(2))
        x = np.array([3.0, 4.0])
        assert prob.full_loss(x) == pytest.approx(12.5, abs=0)
        assert prob.batch_loss(np.arange(prob.N), x) == pytest.approx(12.5, abs=0)

    def test_index_out_of_range(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        with pytest.raises((IndexError, ValueError)):
            prob.eval_loss_i(prob.N, np.zeros(prob.n))

    def test_non_finite_x_rejected(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        x = np.zeros(prob.n)
        x[0] = np.nan
        with pytest.raises(ValueError):
            prob.eval_loss_i(0, x)


class TestEvalGrad:
    def test_sigmoid_svm_grad_at_zero(self, rng):
        ds = _random_dataset(rng)
        prob = make_sigmoid_svm(ds, lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            expected = -ds.labels[i] * ds.features[i]
            np.testing.assert_allclose(prob.eval_grad_i(i, x), expected, rtol=1e-14)

    def test_logistic_grad_at_zero(self, rng):
        ds = _random_dataset(rng)
        prob = make_logistic(ds, lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            expected = -0.5 * ds.labels[i] * ds.features[i]
            np.testing.assert_allclose(prob.eval_grad_i(i, x), expected, rtol=1e-14)

    def test_finite_differences_all_kinds(self, rng):
        for prob in _all_problems(rng):
            for _ in range(10):
                i = int(rng.integers(prob.N))
                x = rng.standard_normal(prob.n)
                g = prob.eval_grad_i(i, x)
                g_fd = fd_gradient(lambda z: prob.eval_loss_i(i, z), x, h_scale=1e-5)
                err = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
                assert err <= 1e-6, f"{prob.kind}: FD mismatch {err:.2e}"


class TestBatchOps:
    def test_full_batch_equals_full_grad_bitwise(self, rng):
        for prob in _all_problems(rng):
            x = rng.standard_normal(prob.n)
            all_idx = np.arange(prob.N)
            assert np.array_equal(prob.batch_grad(all_idx, x), prob.full_grad(x))
            assert prob.batch_loss(all_idx, x) == prob.full_loss(x)

    def test_singleton_batch(self, rng):
        for prob in _all_problems(rng):
            x = rng.standard_normal(prob.n)
            i = int(rng.integers(prob.N))
            np.testing.assert_array_equal(
                prob.batch_grad(np.array([i]), x), prob.eval_grad_i(i, x)
            )
            assert prob.batch_loss(np.array([i]), x) == pytest.approx(
                prob.eval_loss_i(i, x), rel=1e-14
            )

    def test_batch_mean_unbiased(self, rng):
        """Mean over all size-m subsets equals the full gradient."""
        ds = _random_dataset(rng, N=3, n=3)
        for prob in (make_sigmoid_svm(ds, 0.01), make_logistic(ds, 0.01)):
            x = rng.standard_normal(prob.n)
            batches = enumerate_batches(3, 2)
            mean = np.mean([prob.batch_grad(b, x) for b in batches], axis=0)
            np.testing.assert_allclose(mean, prob.full_grad(x), atol=1e-12)

    def test_batch_loss_additivity(self, rng):
        for prob in _all_problems(rng):
            x = rng.standard_normal(prob.n)
            batch = np.array([0, 2, 3])
            direct = np.mean([prob.eval_loss_i(int(i), x) for i in batch])
            assert prob.batch_loss(batch, x) == pytest.approx(direct, rel=1e-12)

    def test_batch_grad_is_mean_of_sample_grads(self, rng):
        for prob in _all_problems(rng):
            x = rng.standard_normal(prob.n)
            batch = np.sort(rng.choice(prob.N, size=min(3, prob.N), replace=False))
            direct = np.mean([prob.eval_grad_i(int(i), x) for i in batch], axis=0)
            np.testing.assert_allclose(prob.batch_grad(batch, x), direct, atol=1e-12)

    def test_loss_and_grad_equals_separate_calls_bitwise(self, rng):
        ds = _random_dataset(rng)
        csr = Dataset(features=sp.csr_matrix(ds.features), labels=ds.labels)
        probs = _all_problems(rng) + [make_logistic(csr, 0.05), make_sigmoid_svm(csr, 0.05)]
        for prob in probs:
            x = rng.standard_normal(prob.n)
            N = prob.N
            dup = np.arange(N)
            dup[-1] = 0
            batches = [rng.choice(N, size=int(rng.integers(1, N + 1))) for _ in range(5)]
            batches += [np.arange(N), rng.permutation(N), dup]
            for batch in batches:
                f, g = prob.loss_and_grad(batch, x)
                assert f == prob.batch_loss(batch, x)
                assert np.array_equal(g, prob.batch_grad(batch, x))

    def test_whole_index_set_in_place_and_repeats_gathered(self, rng):
        ds = _random_dataset(rng)
        csr = Dataset(features=sp.csr_matrix(ds.features), labels=ds.labels)
        for data in (ds, csr):
            for make in (make_logistic, make_sigmoid_svm):
                prob = make(data, 0.05)
                x = rng.standard_normal(prob.n)
                full_f, full_g = prob.full_loss(x), prob.full_grad(x)
                perm = rng.permutation(prob.N)
                assert prob.batch_loss(perm, x) == full_f
                assert np.array_equal(prob.batch_grad(perm, x), full_g)
                # size N but one repeat: the gathered rows, not the dataset
                dup = np.arange(prob.N)
                dup[-1] = 0
                rows = np.sort(dup)
                gathered = make(
                    Dataset(features=data.features[rows], labels=data.labels[rows]), 0.05
                )
                assert prob.batch_loss(dup, x) == gathered.full_loss(x)
                assert np.array_equal(prob.batch_grad(dup, x), gathered.full_grad(x))
                assert not np.array_equal(prob.batch_grad(dup, x), full_g)

    def test_empty_batch_rejected(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        with pytest.raises(ValueError):
            prob.batch_grad(np.array([], dtype=int), np.zeros(prob.n))

    def test_entry_checks_types_messages_and_order(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        x, bad_x = np.zeros(prob.n), np.full(prob.n, np.inf)
        N = prob.N
        with pytest.raises(ValueError, match="^empty batch$"):
            prob.batch_grad([], x)
        # unsorted batches whose bad index is neither first nor last
        for batch in ([2, N, 0], [3, -1, 4], [1, N + 7, -2, 0]):
            with pytest.raises(IndexError, match="^sample index out of range$"):
                prob.batch_grad(batch, x)
            with pytest.raises(IndexError, match="^sample index out of range$"):
                prob.grad_variance_l1(batch, x)
        # the point is checked before the batch
        with pytest.raises(ValueError, match="^non-finite point x$"):
            prob.batch_grad([N], bad_x)
        # the variance checks its batch, then its size, then the point
        with pytest.raises(ValueError, match="^empty batch$"):
            prob.grad_variance_l1([], bad_x)
        with pytest.raises(ValueError, match="at least 2"):
            prob.grad_variance_l1([0], bad_x)
        with pytest.raises(ValueError, match="^non-finite point x$"):
            prob.grad_variance_l1([0, 1], bad_x)

    def test_per_sample_grads_rows(self, rng):
        for prob in _all_problems(rng):
            x = rng.standard_normal(prob.n)
            batch = np.array([0, 2])
            G = prob.per_sample_grads(batch, x)
            assert G.shape == (2, prob.n)
            np.testing.assert_allclose(G[0], prob.eval_grad_i(0, x), atol=1e-12)
            np.testing.assert_allclose(G[1], prob.eval_grad_i(2, x), atol=1e-12)


_THREAD_PROBE = """
import sys
import numpy as np
from stochopt import Dataset, make_logistic
rng = np.random.default_rng(2024)
X = rng.standard_normal((10000, 100))
y = np.where(rng.standard_normal(10000) >= 0, 1.0, -1.0)
prob = make_logistic(Dataset(features=X, labels=y), lam=0.01)
x = rng.standard_normal(100)
sys.stdout.write(prob.full_grad(x).tobytes().hex() + " "
                 + np.float64(prob.full_loss(x)).tobytes().hex())
"""


class TestFullGrad:
    def test_identity_quadratic(self):
        prob = make_quadratic(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(prob.full_grad(x), x)

    def test_logistic_mirrored_symmetry(self, rng):
        u = rng.standard_normal((3, 4))
        # interleave each row with its mirror so cancellation is exact under
        # the left-to-right accumulation order
        X = np.repeat(u, 2, axis=0)
        X[1::2] *= -1.0
        y = np.ones(6)
        prob = make_logistic(Dataset(features=X, labels=y), lam=0.3)
        np.testing.assert_array_equal(prob.full_grad(np.zeros(4)), np.zeros(4))

    def test_full_pass_bits_independent_of_blas_threads(self):
        """A BLAS gemv row reduction would split its sum across threads."""
        src = str(Path(stochopt.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestQuadratics:
    def test_identity_minimizer(self):
        prob = make_quadratic(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(prob.minimizer(), np.zeros(2), atol=0)

    def test_diag_minimizer(self):
        prob = make_quadratic(np.diag([1.0, 10.0]), np.array([1.0, 10.0]))
        np.testing.assert_allclose(prob.minimizer(), np.ones(2), atol=1e-12)
        assert prob.L == pytest.approx(10.0, rel=1e-12)

    def test_f_low_is_min(self, rng):
        prob = _random_quadratic(rng)
        x_star = prob.minimizer()
        f_star = prob.f_low()
        assert prob.full_loss(x_star) == pytest.approx(f_star, rel=1e-12)
        for _ in range(5):
            assert prob.full_loss(x_star + 0.1 * rng.standard_normal(prob.n)) >= f_star

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic(-np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_noisy_quadratic_centered_noise(self, rng):
        B = rng.standard_normal((8, 3))
        B -= B.mean(axis=0)
        prob = make_noisy_quadratic(np.eye(3), B)
        np.testing.assert_allclose(prob.minimizer(), np.zeros(3), atol=1e-12)
        # full gradient at x is A x - mean(b); with centered noise it is x
        x = rng.standard_normal(3)
        np.testing.assert_allclose(prob.full_grad(x), x, atol=1e-12)


class TestDatasetValidation:
    def test_label_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            Dataset(features=rng.standard_normal((3, 2)), labels=np.ones(4))

    def test_sigmoid_svm_rejects_bad_labels(self, rng):
        ds = Dataset(features=rng.standard_normal((3, 2)), labels=np.array([1.0, 0.0, -1.0]))
        with pytest.raises(ValueError):
            make_sigmoid_svm(ds, lam=0.0)

    def test_sparse_matches_dense(self, rng):
        X = rng.standard_normal((6, 5))
        X[X < 0.3] = 0.0
        y = np.where(rng.standard_normal(6) >= 0, 1.0, -1.0)
        dense = make_logistic(Dataset(features=X, labels=y), lam=0.01)
        sparse = make_logistic(Dataset(features=sp.csr_matrix(X), labels=y), lam=0.01)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(sparse.full_grad(x), dense.full_grad(x), atol=1e-12)
        assert sparse.full_loss(x) == pytest.approx(dense.full_loss(x), rel=1e-12)
        np.testing.assert_allclose(
            sparse.per_sample_grads(np.array([0, 3]), x),
            dense.per_sample_grads(np.array([0, 3]), x),
            atol=1e-12,
        )


class TestLipschitzBounds:
    @pytest.mark.parametrize("maker", [make_sigmoid_svm, make_logistic])
    def test_hessian_spectral_norm_below_documented_L(self, rng, maker):
        ds = _random_dataset(rng, N=10, n=3)
        prob = maker(ds, lam=0.1)
        for _ in range(20):
            x = rng.standard_normal(3)
            # numeric Hessian via FD of the gradient
            Hm = np.zeros((3, 3))
            h = 1e-5
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                Hm[:, j] = (prob.full_grad(x + e) - prob.full_grad(x - e)) / (2 * h)
            top = np.max(np.abs(np.linalg.eigvalsh(0.5 * (Hm + Hm.T))))
            assert top <= prob.L * (1 + 1e-6)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.0, 1.0),
    kind=st.sampled_from(["logistic", "sigmoid-svm"]),
)
def test_property_batch_decomposition(seed, lam, kind):
    """batch ops agree with per-sample sums for arbitrary instances."""
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng, N=int(rng.integers(2, 8)), n=int(rng.integers(1, 5)))
    prob = (make_logistic if kind == "logistic" else make_sigmoid_svm)(ds, lam=lam)
    x = rng.standard_normal(prob.n)
    m = int(rng.integers(1, prob.N + 1))
    batch = np.sort(rng.choice(prob.N, size=m, replace=False))
    direct_g = np.mean([prob.eval_grad_i(int(i), x) for i in batch], axis=0)
    np.testing.assert_allclose(prob.batch_grad(batch, x), direct_g, atol=1e-10)
    direct_l = np.mean([prob.eval_loss_i(int(i), x) for i in batch])
    assert prob.batch_loss(batch, x) == pytest.approx(direct_l, rel=1e-10, abs=1e-12)
