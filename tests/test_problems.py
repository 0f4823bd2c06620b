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

import stochopt.problems as problems
from oracles import (
    csr_batch_reference,
    csr_variance_l1_reference,
    enumerate_batches,
    fd_gradient,
    logistic_losses_reference,
    per_sample_grads_reference,
    ulp_distance,
)


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
            assert prob.batch_loss([i], x) == pytest.approx(1.0, abs=0)

    def test_logistic_at_zero(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            assert prob.batch_loss([i], x) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_quadratic_identity_mean(self):
        # f(x) = 0.5 x'x at x = (3, 4): the mean over summands is 12.5
        prob = make_quadratic(np.eye(2), np.zeros(2))
        x = np.array([3.0, 4.0])
        assert prob.full_loss(x) == pytest.approx(12.5, abs=0)
        assert prob.batch_loss(np.arange(prob.N), x) == pytest.approx(12.5, abs=0)

    def test_index_out_of_range(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        with pytest.raises((IndexError, ValueError)):
            prob.batch_loss([prob.N], np.zeros(prob.n))

    def test_non_finite_x_rejected(self, rng):
        prob = make_logistic(_random_dataset(rng), lam=0.0)
        x = np.zeros(prob.n)
        x[0] = np.nan
        with pytest.raises(ValueError):
            prob.batch_loss([0], x)


class TestEvalGrad:
    def test_sigmoid_svm_grad_at_zero(self, rng):
        ds = _random_dataset(rng)
        prob = make_sigmoid_svm(ds, lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            expected = -ds.labels[i] * ds.features[i]
            np.testing.assert_allclose(prob.batch_grad([i], x), expected, rtol=1e-14)

    def test_logistic_grad_at_zero(self, rng):
        ds = _random_dataset(rng)
        prob = make_logistic(ds, lam=0.0)
        x = np.zeros(prob.n)
        for i in range(prob.N):
            expected = -0.5 * ds.labels[i] * ds.features[i]
            np.testing.assert_allclose(prob.batch_grad([i], x), expected, rtol=1e-14)

    def test_finite_differences_all_kinds(self, rng):
        for prob in _all_problems(rng):
            for _ in range(10):
                i = int(rng.integers(prob.N))
                x = rng.standard_normal(prob.n)
                g = prob.batch_grad([i], x)
                g_fd = fd_gradient(lambda z: prob.batch_loss([i], z), x, h_scale=1e-5)
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
                prob.batch_grad(np.array([i]), x), per_sample_grads_reference(prob, [i], x)[0]
            )
            assert prob.batch_loss(np.array([i]), x) == pytest.approx(
                prob.batch_loss([i], x), rel=1e-14
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
            direct = np.mean([prob.batch_loss([i], x) for i in batch])
            assert prob.batch_loss(batch, x) == pytest.approx(direct, rel=1e-12)

    def test_batch_grad_is_mean_of_sample_grads(self, rng):
        for prob in _all_problems(rng):
            x = rng.standard_normal(prob.n)
            batch = np.sort(rng.choice(prob.N, size=min(3, prob.N), replace=False))
            direct = np.mean([prob.batch_grad([i], x) for i in batch], axis=0)
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

    def test_non_integer_batch_rejected(self, rng):
        """A float or boolean batch raises TypeError naming its dtype on
        every entry point, before the batch memo is read: a float batch
        whose bytes are the memo's key hits nothing."""
        csr = _csr_variants(rng)["canonical-int32"]
        y = np.where(rng.standard_normal(csr.shape[0]) >= 0, 1.0, -1.0)
        for prob in [*_all_problems(rng), make_logistic(Dataset(features=csr, labels=y), 0.05)]:
            x = rng.standard_normal(prob.n)
            prob.batch_grad([1, 2], x)
            for batch, dtype in (([1.7, 2.2], "float64"),
                                 ([True, False, True, False], "bool"),
                                 (np.array([1, 2], dtype=np.float32), "float32"),
                                 (np.array([1, 2]).view(np.float64), "float64")):
                message = f"^batch indices must be integers, not {dtype}$"
                for call in (prob.batch_grad, prob.batch_loss, prob.loss_and_grad,
                             prob.grad_variance_l1):
                    with pytest.raises(TypeError, match=message):
                        call(batch, x)
            with pytest.raises(TypeError, match="not float64$"):
                prob.batch_loss([1.0], x)
            for dtype in (np.int8, np.uint16, np.int32, np.uint64):
                batch = np.array([2, 1], dtype=dtype)
                assert np.array_equal(prob.batch_grad(batch, x), prob.batch_grad([1, 2], x))

    def test_point_of_wrong_length_rejected(self, rng):
        """CSR passes read x by column index in compiled code, so a point
        of another length must fail before it, as dense ones do."""
        csr = _csr_variants(rng)["canonical-int32"]
        y = np.where(rng.standard_normal(csr.shape[0]) >= 0, 1.0, -1.0)
        for prob in [*_all_problems(rng), make_logistic(Dataset(features=csr, labels=y), 0.05)]:
            for x in (np.zeros(prob.n - 1), np.zeros(prob.n + 1)):
                for call in (prob.full_loss, prob.full_grad,
                             lambda x: prob.loss_and_grad([0, 1], x),
                             lambda x: prob.grad_variance_l1([0, 1], x),
                             lambda x: prob.full_losses([x, x], grad=True)):
                    with pytest.raises(ValueError, match="coordinates"):
                        call(x)


# margins that probe the logistic loss's branches, underflow and overflow:
# signed zeros, subnormals, where exp(-|z|) falls below eps (36/37), where
# it turns subnormal (709/710) and zero (745/746), huge and infinite margins
SPECIAL_MARGINS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.0, -36.0,
                   37.0, -37.0, 709.0, -709.0, 710.0, -710.0, 745.0, -745.0,
                   746.0, -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan]


class TestLogisticLossKernel:
    """The vectorized logistic loss against np.logaddexp(0, -z).  The
    tolerances follow from float64 alone: numpy's SIMD exp/log1p are not
    correctly rounded, and each may add about one ulp to the loss, so a
    per-sample loss stays within 2 ulp; a mean of positive terms each within
    2 ulp, pairwise summed, stays within 4 eps of the reference mean."""

    @staticmethod
    def _margins():
        gen = np.random.default_rng(8)
        scales = (1e-2, 1e-1, 1.0, 10.0, 100.0, 300.0)
        return np.concatenate([s * gen.standard_normal(2000) for s in scales]
                              + [np.array(SPECIAL_MARGINS)])

    def test_per_sample_losses_within_2_ulp(self):
        z = self._margins()
        # one feature equal to the margin, label +1 and x = 1: z = v * u'x
        ds = Dataset(features=z[:, None], labels=np.ones(z.size))
        with np.errstate(over="ignore", invalid="ignore"):  # L's row norms
            prob = make_logistic(ds, lam=0.0)
        losses, _ = prob._margins_and_coefs(ds.features, ds.labels, np.ones(1),
                                            losses=True, coefs=False)
        ref = logistic_losses_reference(z)
        nan, inf = np.isnan(ref), np.isinf(ref)
        assert np.array_equal(np.isnan(losses), nan)
        assert np.array_equal(losses[inf], ref[inf])
        finite = ~(nan | inf)
        assert np.isfinite(losses[finite]).all()
        assert int(ulp_distance(losses[finite], ref[finite]).max()) <= 2
        # a single sample takes the same kernel
        for i in np.flatnonzero(finite)[::97]:
            d = ulp_distance(prob.batch_loss([i], np.ones(1)), ref[i])
            assert int(d) <= 2, z[i]

    def test_full_loss_within_4_eps_of_reference_mean(self, rng):
        X = rng.standard_normal((3000, 20))
        y = np.where(rng.standard_normal(3000) >= 0, 1.0, -1.0)
        lam = 0.01
        for feats in (X, sp.csr_matrix(X)):
            prob = make_logistic(Dataset(features=feats, labels=y), lam=lam)
            for scale in (1e-3, 1.0, 30.0):
                x = scale * rng.standard_normal(20)
                z = y * np.asarray(feats @ x).ravel()
                ref = float(np.mean(logistic_losses_reference(z)) + lam * (x @ x))
                f = prob.full_loss(x)
                assert abs(f - ref) <= 4 * np.finfo(float).eps * abs(ref), (scale, f, ref)


class _SortCountingNumpy:
    """numpy for stochopt.problems, with its np.sort calls counted."""

    def __init__(self):
        self.sorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sort(self, *args, **kwargs):
        self.sorts += 1
        return np.sort(*args, **kwargs)


class TestWholeSetTakesNoSort:
    def test_ordered_whole_set_is_not_sorted(self, rng, monkeypatch):
        counting = _SortCountingNumpy()
        monkeypatch.setattr(problems, "np", counting)
        ds = _random_dataset(rng, N=40, n=5)
        csr = Dataset(features=sp.csr_matrix(ds.features), labels=ds.labels)
        for data in (ds, csr):
            for make in (make_logistic, make_sigmoid_svm):
                prob = make(data, 0.05)
                N, x = prob.N, rng.standard_normal(prob.n)

                def sorts(fn, *args):
                    before = counting.sorts
                    out = fn(*args)
                    return counting.sorts - before, out

                n_sorts, f = sorts(prob.full_loss, x)
                assert n_sorts == 0
                n_sorts, g = sorts(prob.full_grad, x)
                assert n_sorts == 0
                n_sorts, (f2, g2) = sorts(prob.loss_and_grad, np.arange(N), x)
                assert n_sorts == 0 and f2 == f and np.array_equal(g2, g)
                n_sorts, (gv, _) = sorts(prob.grad_variance_l1, np.arange(N), x)
                assert n_sorts == 0 and np.array_equal(gv, g)

                # any other size-N batch is sorted once, with the sorted bits
                n_sorts, (fr, gr) = sorts(prob.loss_and_grad, np.arange(N)[::-1], x)
                assert n_sorts == 1 and fr == f and np.array_equal(gr, g)
                dup = np.arange(N)[::-1].copy()
                dup[0] = 3
                n_sorts, (fd, gd) = sorts(prob.loss_and_grad, dup, x)
                assert n_sorts == 1
                fs, gs = prob.loss_and_grad(np.sort(dup), x)
                assert fd == fs and np.array_equal(gd, gs)
                assert not np.array_equal(gd, g)


def _count_products(prob, monkeypatch):
    """Record the rows of every margin product prob makes over its own
    feature matrix; returns that list.  Dense features become a subclass
    that records rows @ x (a gathered dense batch keeps the subclass).  CSR
    features become a copy of their own, and the module's csr_matvec calls
    on that copy's arrays are recorded.  Dataset.__post_init__ would drop a
    subclass, hence object.__setattr__."""
    products = []
    feats = prob.dataset.features
    if sp.issparse(feats):
        counted = feats.copy()
        kernels = problems._sparsetools

        class Spy:
            def __getattr__(self, name):
                return getattr(kernels, name)

            def csr_matvec(self, m, n, indptr, *args):
                if indptr is counted.indptr:
                    products.append(m)
                return kernels.csr_matvec(m, n, indptr, *args)

        monkeypatch.setattr(problems, "_sparsetools", Spy())
    else:
        class Counting(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape[0])
                return np.ndarray.__matmul__(self, other)

        counted = feats.view(Counting)
    object.__setattr__(prob.dataset, "features", counted)
    return products


class TestWholeSetMarginMemo:
    """Whole-set passes at one x share one margin product; any other x, and
    every gathered batch, computes its own, with the bits of a fresh
    problem."""

    @staticmethod
    def _cases(rng):
        ds = _random_dataset(rng, N=30, n=5)
        ds.features[ds.features < -1.0] = 0.0
        csr = Dataset(features=sp.csr_matrix(ds.features), labels=ds.labels)
        for data in (ds, csr):
            for make in (make_logistic, make_sigmoid_svm):
                # each problem its own Dataset, so counting one counts no other
                yield lambda data=data, make=make: make(
                    Dataset(features=data.features, labels=data.labels), 0.05)

    def test_full_grad_after_full_loss_reuses_the_margins(self, rng, monkeypatch):
        for build in self._cases(rng):
            prob = build()
            products = _count_products(prob, monkeypatch)
            x = rng.standard_normal(prob.n)
            f = prob.full_loss(x)
            g = prob.full_grad(x)
            f2, g2 = prob.loss_and_grad(np.arange(prob.N), x)
            gv, var = prob.grad_variance_l1(np.arange(prob.N), x)
            assert products == [prob.N]
            assert np.array_equal(_bits(g), _bits(build().full_grad(x)))
            assert _bits(f) == _bits(build().full_loss(x))
            assert _bits(f2) == _bits(f) and np.array_equal(_bits(g2), _bits(g))
            gv_ref, var_ref = build().grad_variance_l1(np.arange(prob.N), x)
            assert np.array_equal(_bits(gv), _bits(gv_ref)) and _bits(var) == _bits(var_ref)

    def test_x_changed_in_place_is_recomputed(self, rng, monkeypatch):
        for build in self._cases(rng):
            prob = build()
            products = _count_products(prob, monkeypatch)
            x = rng.standard_normal(prob.n)
            prob.full_loss(x)
            x[1] += 0.5
            g = prob.full_grad(x)
            assert products == [prob.N, prob.N]
            assert np.array_equal(_bits(g), _bits(build().full_grad(x)))

    def test_negative_zero_is_another_point(self, rng, monkeypatch):
        for build in self._cases(rng):
            prob = build()
            products = _count_products(prob, monkeypatch)
            x = rng.standard_normal(prob.n)
            x[2] = 0.0
            prob.full_loss(x)
            y = x.copy()
            y[2] = -0.0
            g = prob.full_grad(y)
            assert products == [prob.N, prob.N]
            assert np.array_equal(_bits(g), _bits(build().full_grad(y)))

    def test_gathered_batch_neither_reads_nor_writes_the_memo(self, rng, monkeypatch):
        for build in self._cases(rng):
            prob = build()
            products = _count_products(prob, monkeypatch)
            x, z = rng.standard_normal(prob.n), rng.standard_normal(prob.n)
            prob.full_loss(x)
            memo = prob._margins_memo
            for batch, at in (([3, 0, 7], x), ([5, 1], z), (np.arange(prob.N - 1), x)):
                f, g = prob.loss_and_grad(batch, at)
                f_ref, g_ref = build().loss_and_grad(batch, at)
                assert _bits(f) == _bits(f_ref) and np.array_equal(_bits(g), _bits(g_ref))
                assert prob._margins_memo is memo
            # gathered dense rows keep the subclass, so their products show;
            # the whole set's product is still the first and only one
            dense = not sp.issparse(prob.dataset.features)
            assert products == [prob.N] + ([3, 2, prob.N - 1] if dense else [])
            prob.full_grad(x)
            assert products.count(prob.N) == 1

    def test_quadratics_keep_no_memo(self, rng):
        B = rng.standard_normal((6, 4))
        for prob in (_random_quadratic(rng), make_noisy_quadratic(np.eye(4), B)):
            x = rng.standard_normal(prob.n)
            prob.full_loss(x)
            prob.full_grad(x)
            prob.loss_and_grad(np.arange(prob.N), x)
            prob.batch_grad([1, 0], x)
            prob.grad_variance_l1([1, 0], x)
            assert not hasattr(prob, "_margins_memo") and not hasattr(prob, "_batch_memo")

    @pytest.mark.parametrize("mode", ["exact", "inexact-g"])
    def test_arig_makes_one_margin_product_per_iterate(self, rng, monkeypatch, mode):
        X = rng.standard_normal((200, 5))
        y = np.where(X @ rng.standard_normal(5) + 0.5 * rng.standard_normal(200) > 0, 1.0, -1.0)
        prob = make_logistic(Dataset(features=X, labels=y), lam=0.01)
        products = _count_products(prob, monkeypatch)
        # sigma0 this small makes the exact run reject some trial points
        params = stochopt.RegParams(mode=mode, eps=1e-6, sigma0=0.01, sigma_min=0.01)
        res = stochopt.arig_run(prob, params, seed=3)
        assert res.terminated and res.iterations > 5
        assert mode != "exact" or res.n_success < res.iterations
        # x0 and each step's trial point, accepted or rejected
        assert products == [prob.N] * (res.iterations + 1)


def _csr_variants(rng, N=9, n=6):
    """{name: CSR features} over one random matrix whose rows 2 and 5 hold
    no entries: canonical and non-canonical (each row's entries stored in
    reverse order, its last column stored once more), each with int32 and
    with int64 index arrays."""
    X = rng.standard_normal((N, n))
    X[rng.random((N, n)) < 0.4] = 0.0
    X[[2, 5]] = 0.0
    canonical = sp.csr_matrix(X)
    data, indices, indptr = [], [], [0]
    for i in range(N):
        lo, hi = canonical.indptr[i], canonical.indptr[i + 1]
        cols = list(canonical.indices[lo:hi][::-1])
        vals = list(canonical.data[lo:hi][::-1])
        if cols:
            cols.append(cols[0])
            vals.append(float(rng.standard_normal()))
        indices += cols
        data += vals
        indptr.append(len(indices))
    variants = {}
    for name, (vals, cols, ptr) in {
        "canonical": (canonical.data, canonical.indices, canonical.indptr),
        "non-canonical": (np.array(data), np.array(indices), np.array(indptr)),
    }.items():
        for itype in (np.int32, np.int64):
            feats = sp.csr_matrix((vals.copy(), cols.astype(itype), ptr.astype(itype)),
                                  shape=(N, n))
            # the constructor picks the narrowest index type; set the asked one
            feats.indices, feats.indptr = cols.astype(itype), ptr.astype(itype)
            variants[f"{name}-{np.dtype(itype).name}"] = feats
    return variants


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestCsrGatheredBatch:
    """A CSR batch that is not the whole index set is gathered from the
    matrix's arrays and reduced by scipy's compiled loops; its bits equal
    scipy's row gather and transpose product (oracles.csr_batch_reference)."""

    BATCHES = {
        "sorted": [0, 1, 3, 4, 8],
        "unsorted": [7, 0, 4, 6, 1],
        "repeated": [3, 1, 3, 8, 1, 1],
        "empty-rows": [2, 5, 6],
        "only-empty-rows": [5, 2],
        "m=1": [4],
        "m=1-empty": [2],
        "whole": list(range(9)),
    }

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid-svm"])
    def test_bitwise_equal_to_scipy_form(self, rng, kind):
        y = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
        lam = 0.05
        make = make_logistic if kind == "logistic" else make_sigmoid_svm
        variants = _csr_variants(rng)
        assert variants["canonical-int64"].indices.dtype == np.int64
        assert not variants["non-canonical-int32"].has_canonical_format
        for name, feats in variants.items():
            prob = make(Dataset(features=feats, labels=y), lam)
            for batch in self.BATCHES.values():
                for _ in range(3):
                    x = 3.0 * rng.standard_normal(prob.n)
                    f_ref, g_ref = csr_batch_reference(feats, y, kind, lam, batch, x)
                    where = (name, batch)
                    assert _bits(prob.batch_loss(batch, x)) == _bits(f_ref), where
                    assert np.array_equal(_bits(prob.batch_grad(batch, x)), _bits(g_ref)), where
                    f, g = prob.loss_and_grad(batch, x)
                    assert _bits(f) == _bits(f_ref), where
                    assert np.array_equal(_bits(g), _bits(g_ref)), where
                    if len(batch) < 2:
                        continue
                    gv, var = prob.grad_variance_l1(batch, x)
                    assert np.array_equal(_bits(gv), _bits(g_ref)), where
                    var_ref = csr_variance_l1_reference(feats, y, kind, lam, batch, x, g_ref)
                    assert _bits(var) == _bits(var_ref), where

    def test_batch_builds_no_scipy_object(self, rng, monkeypatch):
        feats = _csr_variants(rng, N=12, n=7)["canonical-int32"]
        y = np.where(rng.standard_normal(12) >= 0, 1.0, -1.0)
        x = rng.standard_normal(7)
        batch = np.array([9, 0, 4, 4, 11])
        for make in (make_logistic, make_sigmoid_svm):
            prob = make(Dataset(features=feats, labels=y), 0.05)
            expected = (prob.batch_grad(batch, x), prob.batch_loss(batch, x),
                        prob.loss_and_grad(batch, x), prob.grad_variance_l1(batch, x))
            # a fresh problem, so the patched calls gather the batch themselves
            prob = make(Dataset(features=feats, labels=y), 0.05)

            def refuse(*args, **kwargs):
                raise AssertionError("a mini-batch call built a scipy object")

            with monkeypatch.context() as patched:
                for attr in ("__getitem__", "transpose", "__init__"):
                    patched.setattr(sp.csr_matrix, attr, refuse)
                got = (prob.batch_grad(batch, x), prob.batch_loss(batch, x),
                       prob.loss_and_grad(batch, x), prob.grad_variance_l1(batch, x))
            assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
            assert got[2][0] == expected[2][0] and np.array_equal(got[2][1], expected[2][1])
            assert np.array_equal(got[3][0], expected[3][0]) and got[3][1] == expected[3][1]


    def test_gather_equals_scipy_row_indexing(self, rng):
        """_CsrBatch.gather fills the arrays feats[idx] holds, in the
        dataset's index dtype, for any index order and repeats."""
        for name, feats in _csr_variants(rng).items():
            for batch in self.BATCHES.values():
                idx = np.asarray(batch, dtype=np.int64)
                got, want = problems._CsrBatch.gather(feats, idx), feats[idx]
                where = (name, batch)
                assert got.shape == want.shape, where
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, attr), getattr(want, attr)), (where, attr)
                assert got.indptr.dtype == got.indices.dtype == feats.indices.dtype, where
                assert got.data.dtype == feats.data.dtype, where

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid-svm"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_value_dtypes_equal_scipy_form(self, rng, kind, dtype):
        """CSR values stored as int64 or float32: every pass, the whole set
        included, has the bits of scipy's public operators."""
        y = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
        lam = 0.05
        make = make_logistic if kind == "logistic" else make_sigmoid_svm
        for name, base in _csr_variants(rng).items():
            feats = base.copy()
            vals = np.round(3.0 * feats.data) if dtype == np.int64 else feats.data
            # copy() narrows the index arrays; keep the variant's
            feats.data, feats.indices, feats.indptr = vals.astype(dtype), base.indices, base.indptr
            prob = make(Dataset(features=feats, labels=y), lam)
            assert prob.dataset.features.dtype == dtype
            assert prob.dataset.features.indices.dtype == base.indices.dtype
            for batch in self.BATCHES.values():
                x = 3.0 * rng.standard_normal(prob.n)
                f_ref, g_ref = csr_batch_reference(feats, y, kind, lam, batch, x)
                where = (name, batch)
                f, g = prob.loss_and_grad(batch, x)
                assert _bits(f) == _bits(f_ref), where
                assert np.array_equal(_bits(g), _bits(g_ref)), where
                if len(batch) > 1:
                    gv, var = prob.grad_variance_l1(batch, x)
                    var_ref = csr_variance_l1_reference(feats, y, kind, lam, batch, x, g_ref)
                    assert np.array_equal(_bits(gv), _bits(g_ref)), where
                    assert _bits(var) == _bits(var_ref), where
            f_ref, g_ref = csr_batch_reference(feats, y, kind, lam, range(9), x)
            assert _bits(prob.full_loss(x)) == _bits(f_ref), name
            assert np.array_equal(_bits(prob.full_grad(x)), _bits(g_ref)), name


class TestGatheredBatchMemo:
    """A problem keeps the batch it gathered last, keyed by the bytes of its
    int64 indices: the next call on those indices gathers nothing, and every
    result has the bits of a fresh problem's."""

    @staticmethod
    def _builds(rng):
        """(name, build) over dense and CSR (canonical and not) features,
        for both losses; each build makes a fresh problem."""
        dense = _random_dataset(rng, N=9, n=6)
        variants = _csr_variants(rng)
        feats = {"dense": dense.features, "csr": variants["canonical-int32"],
                 "csr-non-canonical": variants["non-canonical-int64"]}
        for name, f in feats.items():
            for make in (make_logistic, make_sigmoid_svm):
                yield f"{name}-{make.__name__}", (
                    lambda f=f, make=make: make(Dataset(features=f, labels=dense.labels), 0.05))

    @staticmethod
    def _calls(get, batch, x, z):
        """Every gathering entry point on one batch, at two points, each on
        the problem get() returns."""
        return [get().batch_grad(batch, x), get().batch_loss(batch, z),
                *get().loss_and_grad(batch, x),
                *get().grad_variance_l1(batch, x), get().batch_grad(batch, z)]

    def _assert_bits_equal(self, got, want, where):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b)), where

    def test_one_gather_for_repeated_calls(self, rng, gathers):
        x, z = rng.standard_normal(6), rng.standard_normal(6)
        batch = np.array([7, 0, 3, 3, 5])
        for name, build in self._builds(rng):
            want = self._calls(build, batch, x, z)
            prob = build()
            gathers.clear()
            got = self._calls(lambda: prob, batch, x, z)
            assert gathers == [False], name
            self._assert_bits_equal(got, want, name)

    def test_batch_changed_in_place_is_gathered_again(self, rng, gathers):
        x = rng.standard_normal(6)
        for name, build in self._builds(rng):
            batch = np.array([4, 1, 8])
            prob = build()
            gathers.clear()
            prob.batch_grad(batch, x)
            batch[1] = 6
            g = prob.batch_grad(batch, x)
            assert gathers == [False, False], name
            self._assert_bits_equal([g], [build().batch_grad(batch, x)], name)

    def test_int32_and_int64_indices_share_the_memo(self, rng, gathers):
        x = rng.standard_normal(6)
        for name, build in self._builds(rng):
            prob = build()
            gathers.clear()
            got = [prob.batch_grad(np.array([5, 2, 0], dtype=dtype), x)
                   for dtype in (np.int64, np.int32)]
            got.append(prob.batch_grad([5, 2, 0], x))
            assert gathers == [False], name
            want = build().batch_grad(np.array([5, 2, 0], dtype=np.int32), x)
            self._assert_bits_equal(got, [want] * 3, name)

    def test_memo_arrays_are_read_only(self, rng):
        x = rng.standard_normal(6)
        for name, build in self._builds(rng):
            prob = build()
            prob.loss_and_grad([3, 1, 4, 1], x)
            key, (idx, rows, labels) = prob._batch_memo
            assert key == np.array([3, 1, 4, 1], dtype=np.int64).tobytes()
            csr = isinstance(rows, problems._CsrBatch)
            arrays = [idx, labels, *([rows.indptr, rows.indices, rows.data] if csr else [rows])]
            for arr in arrays:
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[:1] = 0

    def test_non_canonical_variance_leaves_the_memo_intact(self, rng):
        """grad_variance_l1 sums the duplicates of non-canonical CSR on a
        copy, so a later call on the memo's batch keeps its bits."""
        x, z = rng.standard_normal(6), rng.standard_normal(6)
        for name, feats in _csr_variants(rng).items():
            if feats.has_canonical_format:
                continue
            y = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
            for make in (make_logistic, make_sigmoid_svm):
                prob = make(Dataset(features=feats, labels=y), 0.05)
                fresh = make(Dataset(features=feats, labels=y), 0.05)
                batch = [8, 0, 3, 0, 4]
                gv, var = prob.grad_variance_l1(batch, x)
                self._assert_bits_equal([prob.batch_grad(batch, x), prob.batch_grad(batch, z)],
                                        [gv, fresh.batch_grad(batch, z)], name)
                self._assert_bits_equal([prob.grad_variance_l1(batch, z)[1]],
                                        [fresh.grad_variance_l1(batch, z)[1]], name)

    def test_whole_set_passes_drop_the_memo(self, rng, gathers):
        x = rng.standard_normal(6)
        for name, build in self._builds(rng):
            prob = build()
            gathers.clear()
            for whole_pass in (prob.full_grad, prob.full_loss,
                               lambda x: prob.batch_loss(np.arange(prob.N)[::-1], x)):
                prob.batch_grad([2, 7], x)
                assert prob._batch_memo is not None
                whole_pass(x)
                assert prob._batch_memo is None, name
            assert gathers == [False, True] * 3, name

    def test_failed_batch_is_not_kept(self, rng):
        x = rng.standard_normal(6)
        for name, build in self._builds(rng):
            prob = build()
            for _ in range(2):
                with pytest.raises(IndexError):
                    prob.batch_grad([0, 9], x)
                with pytest.raises(ValueError):
                    prob.batch_grad([], x)
            assert prob._batch_memo is None, name


class TestFullLosses:
    """full_losses evaluates several points over the whole set; each value
    has the bits of a single-point pass on a fresh problem.  CSR points go
    through one (N, k) block, FULL_PASS_CHUNK at a time."""

    COUNTS = (1, 7, 8, 9, 31)

    @staticmethod
    def _csr_features(rng):
        """{name: CSR features}: every _csr_variants matrix, its values
        stored as float64, float32 and int64."""
        out = {}
        for name, base in _csr_variants(rng).items():
            for dtype in (np.float64, np.float32, np.int64):
                feats = base.copy()
                vals = np.round(3.0 * feats.data) if dtype == np.int64 else feats.data
                # copy() narrows the index arrays; keep the variant's
                feats.data, feats.indices, feats.indptr = vals.astype(dtype), base.indices, base.indptr
                out[f"{name}-{np.dtype(dtype).name}"] = feats
        return out

    @staticmethod
    def _assert_single_point_bits(build, xs, grad, where):
        got = build().full_losses(xs, grad=grad)
        assert len(got) == len(xs), where
        N = build().N
        for x, (f, g) in zip(xs, got):
            if grad:
                f_ref, g_ref = build().loss_and_grad(np.arange(N), x)
                assert np.array_equal(_bits(g), _bits(g_ref)), where
            else:
                f_ref = build().full_loss(x)
                assert g is None, where
            assert _bits(f) == _bits(f_ref), where

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("kind", ["logistic", "sigmoid-svm"])
    def test_csr_points_have_single_point_bits(self, rng, kind, grad):
        y = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
        make = make_logistic if kind == "logistic" else make_sigmoid_svm
        for name, feats in self._csr_features(rng).items():
            def build(feats=feats):
                prob = make(Dataset(features=feats, labels=y), 0.05)
                assert prob.dataset.features.dtype == feats.dtype
                assert prob.dataset.features.indices.dtype == feats.indices.dtype
                return prob

            for count in self.COUNTS:
                xs = [3.0 * rng.standard_normal(6) for _ in range(count)]
                self._assert_single_point_bits(build, xs, grad, (name, count))

    @pytest.mark.parametrize("grad", [False, True])
    def test_dense_and_quadratic_points_have_single_point_bits(self, rng, grad):
        for prob in _all_problems(rng):
            xs = [rng.standard_normal(prob.n) for _ in range(9)]
            self._assert_single_point_bits(lambda prob=prob: prob, xs, grad, prob.kind)

    def test_csr_chunk_neither_reads_nor_writes_the_margin_memo(self, rng):
        feats = _csr_variants(rng)["canonical-int32"]
        y = np.where(rng.standard_normal(9) >= 0, 1.0, -1.0)
        xs = [rng.standard_normal(6) for _ in range(problems.FULL_PASS_CHUNK)]
        for make in (make_logistic, make_sigmoid_svm):
            prob = make(Dataset(features=feats, labels=y), 0.05)
            prob.batch_grad([1, 4], xs[0])
            # wrong margins under the first point's key: read, they would show
            stale = (xs[0].tobytes(), np.zeros(prob.N))
            object.__setattr__(prob, "_margins_memo", stale)
            got = prob.full_losses(xs, grad=True)
            assert prob._margins_memo is stale and prob._batch_memo is None
            fresh = make(Dataset(features=feats, labels=y), 0.05).full_losses(xs, grad=True)
            for (f, g), (f_ref, g_ref) in zip(got, fresh):
                assert _bits(f) == _bits(f_ref) and np.array_equal(_bits(g), _bits(g_ref))

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("make", [make_logistic, make_sigmoid_svm])
    def test_csr_chunk_holds_one_block(self, traced_peak, make, grad):
        """A chunk keeps one (N, k) block of margins, then coefficients,
        beside O(N) vectors and O(n k) points and gradients."""
        N, n, k = 20_000, 600, problems.FULL_PASS_CHUNK
        gen = np.random.default_rng(3)
        feats = sp.random(N, n, density=0.01, format="csr", random_state=gen)
        y = np.where(gen.standard_normal(N) >= 0, 1.0, -1.0)
        prob = make(Dataset(features=feats, labels=y), 0.01)
        xs = [gen.standard_normal(n) for _ in range(k)]
        out, peak = traced_peak(prob.full_losses, xs, grad=grad)
        assert len(out) == k
        # a single-point pass holds about 7 N-vectors at its peak
        assert peak <= 8 * N * k + 8 * 10 * N + 8 * 3 * n * k, peak


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

    @pytest.mark.parametrize("kind, labels, lam, message", [
        ("logistic", [1.0, 0.0, -1.0], 0.0, "labels must lie in"),
        ("sigmoid-svm", [1.0, 1.0, -1.0], -0.1, "lam must be nonnegative"),
        ("sigmoid-svm", [1.0, 1.0, -1.0], np.inf, "lam must be nonnegative"),
        ("quadratic", [1.0, 1.0, -1.0], 0.0, "unknown linear model kind"),
    ])
    def test_linear_model_built_directly_is_checked(self, rng, kind, labels, lam, message):
        """The class checks its own input, so building it without make_*
        skips no check."""
        ds = Dataset(features=rng.standard_normal((3, 2)), labels=np.array(labels))
        with pytest.raises(ValueError, match=message):
            problems.LinearModelProblem(kind=kind, dataset=ds, lam=lam)

    def test_sparse_matches_dense(self, rng):
        X = rng.standard_normal((6, 5))
        X[X < 0.3] = 0.0
        y = np.where(rng.standard_normal(6) >= 0, 1.0, -1.0)
        dense = make_logistic(Dataset(features=X, labels=y), lam=0.01)
        sparse = make_logistic(Dataset(features=sp.csr_matrix(X), labels=y), lam=0.01)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(sparse.full_grad(x), dense.full_grad(x), atol=1e-12)
        assert sparse.full_loss(x) == pytest.approx(dense.full_loss(x), rel=1e-12)
        for i in (0, 3):
            np.testing.assert_allclose(sparse.batch_grad([i], x), dense.batch_grad([i], x),
                                       atol=1e-12)


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
    direct_g = np.mean([prob.batch_grad([i], x) for i in batch], axis=0)
    np.testing.assert_allclose(prob.batch_grad(batch, x), direct_g, atol=1e-10)
    direct_l = np.mean([prob.batch_loss([i], x) for i in batch])
    assert prob.batch_loss(batch, x) == pytest.approx(direct_l, rel=1e-10, abs=1e-12)
