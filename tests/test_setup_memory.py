"""Set-up memory: data generation, hashing, the problem build's row norms and
CSV writing each hold at most one copy of the dataset plus one bounded
block (problems.BLOCK_BYTES for the passes over a built dataset), load_csv
about twice its result, and load_libsvm a CSR result plus one block,
measured with tracemalloc; and the row norms do not depend on the block."""

import numpy as np
import pytest
import scipy.sparse as sp

import stochopt.harness as harness
import stochopt.problems as problems
from oracles import max_row_sq_norm_reference
from stochopt.harness import (
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    load_libsvm,
    save_csv,
    save_libsvm,
)
from stochopt.problems import BLOCK_BYTES, Dataset, make_logistic, make_sigmoid_svm
from test_harness_io import write_text_csr

# room for the few N- or n-length vectors a stage keeps besides its block
SLACK = 1 << 18


def nbytes(ds: Dataset) -> int:
    feats = ds.features
    if sp.issparse(feats):
        return feats.data.nbytes + feats.indices.nbytes + feats.indptr.nbytes + ds.labels.nbytes
    return feats.nbytes + ds.labels.nbytes


def dense_dataset(N=10000, n=100, seed=0) -> Dataset:
    gen = np.random.default_rng(seed)
    return Dataset(features=gen.standard_normal((N, n)),
                   labels=np.where(gen.random(N) < 0.5, 1.0, -1.0))


def csr_dataset(N=20000, n=3000, per_row=50, index_dtype=np.int32, canonical=True,
                seed=0) -> Dataset:
    """per_row entries a row: strictly increasing columns, or, if not
    canonical, sorted random columns that repeat within some rows."""
    gen = np.random.default_rng(seed)
    if canonical:
        stride = n // per_row
        cols = np.arange(per_row) * stride + gen.integers(0, stride, (N, per_row))
    else:
        cols = np.sort(gen.integers(0, n, (N, per_row)), axis=1)
    feats = sp.csr_matrix(
        (gen.standard_normal(N * per_row), cols.ravel(),
         np.arange(0, N * per_row + 1, per_row)),
        shape=(N, n),
    )
    feats.indices = feats.indices.astype(index_dtype)
    feats.indptr = feats.indptr.astype(index_dtype)
    return Dataset(features=feats, labels=np.where(gen.random(N) < 0.5, 1.0, -1.0))


class TestGenerationScalesInPlace:
    def test_kappa_scaling_adds_no_copy(self, traced_peak):
        spec = SyntheticSpec(n_samples=10000, n_features=100, noise=0.1, kappa=100.0, seed=3)
        ds, peak = traced_peak(gen_synthetic, spec)
        # a scaled copy would be another 7.6 MiB
        assert peak <= nbytes(ds) + BLOCK_BYTES, f"peak {peak / 2**20:.1f} MiB"


class TestDatasetHashReadsBuffers:
    @pytest.mark.parametrize("make", [
        dense_dataset,
        lambda: csr_dataset(index_dtype=np.int32),
        lambda: csr_dataset(index_dtype=np.int64),
    ])
    def test_hash_adds_at_most_one_block(self, traced_peak, make):
        ds = make()
        _, peak = traced_peak(harness._dataset_hash, ds)
        assert peak <= BLOCK_BYTES + SLACK, f"peak {peak / 2**20:.1f} MiB"


class TestRowNorms:
    @pytest.mark.parametrize("make", [dense_dataset, csr_dataset])
    def test_adds_at_most_one_block(self, traced_peak, make):
        ds = make()
        L, peak = traced_peak(ds.max_row_sq_norm)
        assert L == max_row_sq_norm_reference(ds.features)
        assert peak <= BLOCK_BYTES + SLACK, f"peak {peak / 2**20:.1f} MiB"

    def test_canonical_rows_of_noncanonical_csr(self, monkeypatch):
        # multiply() sums row 0's squares in another order when its operand
        # is canonical, as a one-row block of this matrix would be
        feats = sp.csr_matrix(
            (np.array([1.0, 1e-8, 1e-8, 0.1, 0.1]), np.array([0, 1, 2, 0, 0]),
             np.array([0, 3, 5])),
            shape=(2, 3),
        )
        row = feats[0:1]
        assert row.has_canonical_format and not feats.has_canonical_format
        assert max_row_sq_norm_reference(row) != max_row_sq_norm_reference(feats)
        monkeypatch.setattr(problems, "BLOCK_BYTES", 1)
        ds = Dataset(features=feats, labels=np.ones(2))
        assert ds.max_row_sq_norm() == max_row_sq_norm_reference(feats)

    @staticmethod
    def csr_variants(gen, N, n):
        """Canonical CSR in float64 and float32, and CSR with repeated
        (i, j) entries and unsorted columns, kept as stored; all with
        explicit zeros, squares that underflow to 0, and empty rows."""
        nnz = int(gen.integers(0, 4 * N * n // 3 + 1))
        rows = np.sort(gen.integers(0, N, nnz))
        cols = gen.integers(0, n, nnz)
        vals = gen.standard_normal(nnz) * 10.0 ** gen.uniform(-3, 3, nnz)
        vals[gen.random(nnz) < 0.1] = 0.0
        vals[gen.random(nnz) < 0.1] *= 1e-170
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=N))])
        canonical = sp.csr_matrix((vals, (rows, cols)), shape=(N, n))
        raw = sp.csr_matrix((vals, cols, indptr), shape=(N, n))
        assert canonical.has_canonical_format
        return canonical, canonical.astype(np.float32), raw

    @pytest.mark.parametrize("block_bytes", [1, 100, 4096, 1 << 20])
    def test_L_bitwise_for_dense_csr_and_noncanonical_csr(self, monkeypatch, block_bytes):
        monkeypatch.setattr(problems, "BLOCK_BYTES", block_bytes)
        gen = np.random.default_rng(7)
        for _ in range(20):
            N, n = int(gen.integers(1, 40)), int(gen.integers(1, 30))
            dense = gen.standard_normal((N, n)) * 10.0 ** gen.uniform(-3, 3, n)
            for feats in (dense, *self.csr_variants(gen, N, n)):
                ds = Dataset(features=feats, labels=np.ones(N))
                want = max_row_sq_norm_reference(ds.features)
                assert ds.max_row_sq_norm() == want
                assert make_logistic(ds, lam=0.1).L == 0.25 * want + 0.2
                svm = make_sigmoid_svm(ds, lam=0.0)
                assert svm.L == 4.0 / (3.0 * np.sqrt(3.0)) * want

    def test_nan_row_gives_nan(self):
        feats = np.ones((5, 3))
        feats[3, 1] = np.nan
        assert np.isnan(Dataset(features=feats, labels=np.ones(5)).max_row_sq_norm())


class TestLoadCsvMemory:
    def test_peak_at_most_twice_the_result_plus_a_block(self, tmp_path, traced_peak):
        path = tmp_path / "d.csv"
        save_csv(path, dense_dataset(N=5000, n=100))
        ds, peak = traced_peak(load_csv, path)
        assert ds.N == 5000 and ds.n == 100
        # a list of Python floats per cell peaks near 5x the result
        assert peak <= 2 * nbytes(ds) + BLOCK_BYTES, f"peak {peak / nbytes(ds):.2f}x"


class TestLoadLibsvmPeak:
    """The result's value and column arrays are allocated once, at the
    file's ':' count, and each block writes its entries into them.  Short
    blocks keep one block's token strings small beside the result."""

    @pytest.fixture(autouse=True)
    def short_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", 64)

    def test_csr_peak_at_most_twice_the_result_plus_a_block(self, tmp_path, traced_peak):
        path = tmp_path / "wide.libsvm"
        write_text_csr(path, rows=5000)
        ds, peak = traced_peak(load_libsvm, path)
        assert sp.issparse(ds.features)
        # concatenated int64 blocks and scipy's int32 copy peaked near 3x
        assert peak <= 2 * nbytes(ds) + BLOCK_BYTES, f"peak {peak / nbytes(ds):.2f}x"

    def test_csr_peak_at_most_the_result_plus_a_block(self, tmp_path, traced_peak):
        path = tmp_path / "wide.libsvm"
        write_text_csr(path, rows=10000)
        ds, peak = traced_peak(load_libsvm, path)
        assert sp.issparse(ds.features) and ds.N == 10000
        # the result + 0.67 MiB; parsed blocks kept until one final
        # concatenation peaked at the result + 2.55 MiB
        assert peak <= nbytes(ds) + BLOCK_BYTES, f"peak {(peak - nbytes(ds)) / 2**20:.2f} MiB over"

    def test_dense_peak_at_most_the_blocks_and_the_result(self, tmp_path, traced_peak):
        path = tmp_path / "narrow.libsvm"
        save_libsvm(path, dense_dataset(N=5000, n=100))
        ds, peak = traced_peak(load_libsvm, path)
        assert not sp.issparse(ds.features) and ds.features.shape == (5000, 100)
        # 12-byte entries besides the 8-byte dense cells; the concatenated
        # blocks and one whole-set scatter peaked near 6x
        assert peak <= 2.5 * nbytes(ds) + BLOCK_BYTES, f"peak {peak / nbytes(ds):.2f}x"


class TestSaveCsvStreamsCsr:
    def test_csr_writes_its_dense_twin_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(problems, "BLOCK_BYTES", 256)  # 4 rows per block
        gen = np.random.default_rng(5)
        feats = sp.random(11, 8, density=0.3, format="csr", random_state=gen)
        feats.data[::3] *= -1e-300
        labels = np.where(gen.random(11) < 0.5, 1.0, -1.0)
        for header in (False, True):
            save_csv(tmp_path / "csr.csv", Dataset(features=feats, labels=labels), header)
            save_csv(tmp_path / "dense.csv",
                     Dataset(features=feats.toarray(), labels=labels), header)
            assert (tmp_path / "csr.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_csr_is_densified_a_block_at_a_time(self, tmp_path, traced_peak):
        N, n = 130, 4096  # a dense copy is 4.1 MiB
        gen = np.random.default_rng(6)
        feats = sp.random(N, n, density=0.002, format="csr", random_state=gen)
        ds = Dataset(features=feats, labels=np.ones(N))
        _, peak = traced_peak(save_csv, tmp_path / "wide.csv", ds)
        assert load_csv(tmp_path / "wide.csv").features.tobytes() == feats.toarray().tobytes()
        # one dense block, plus one row's strings and the writer's buffers
        assert peak <= 3 * BLOCK_BYTES, f"peak {peak / 2**20:.1f} MiB"
