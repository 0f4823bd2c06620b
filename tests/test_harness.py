"""Tests for the experiment harness: synthetic data, dataset IO, metrics CSV,
config parsing, experiment runs, comparison, and the CLI."""

import configparser
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import stochopt.harness as harness
import stochopt.problems as problems
from oracles import report_columns_reference, report_values_reference
from stochopt.harness import (
    ConfigError,
    METRICS_COLUMNS,
    MetricsRecord,
    SyntheticSpec,
    compare,
    gen_synthetic,
    load_config,
    load_csv,
    load_libsvm,
    main,
    read_metrics_csv,
    run_experiment,
    save_csv,
    save_libsvm,
    write_metrics_csv,
)
from stochopt.problems import Dataset

EXAMPLE_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.ini"))


def write_config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


BASE_SGD = """\
    [problem]
    kind = logistic
    lam = 0.1

    [synthetic]
    n_samples = 64
    n_features = 5
    seed = 3

    [run]
    algorithm = sgd
    seed = 1
    out = run.csv

    [sgd]
    alpha = 0.1
    m = 16
    n_epochs = 3
    """


# Every config key, by section, with a valid value that is not its default.
CONFIG_SURFACE = {
    "problem": {"kind": "sigmoid-svm", "dataset": "train.csv", "test_dataset": "test.csv",
                "lam": 0.5, "label_column": 1, "header": True},
    "synthetic": {"n_samples": 40, "n_features": 3, "noise": 0.2, "kappa": 10.0,
                  "label_model": "sigmoid-svm-planted", "seed": 5},
    "run": {"algorithm": "sgd", "seed": 4, "out": "o.csv", "cadence": 3},
    "arig": {"eps": 1e-4, "sigma0": 2.0, "sigma_min": 0.5, "eta1": 0.3, "eta2": 0.8,
             "gamma1": 0.4, "gamma2": 1.7, "gamma3": 2.5, "eta0": 0.1,
             "max_iters": 77, "mode": "inexact-g-and-f"},
    "aras": {"sigma0": 3.0, "sigma_min": 0.2, "eta": 0.3, "gamma1": 0.6, "gamma2": 2.5,
             "m0": 16, "m_max": 512, "burn_in": 20, "n_epochs": 4},
    "varchen": {"p": 5, "eta": 0.3, "lam_min": 1e-4, "lam_max": math.inf,
                "gamma_under": 0.2, "gamma_over": 1e4, "m": 32, "schedule": "power",
                "step_c": 0.3, "step_beta": 0.6, "n_epochs": 3},
    "sgd": {"alpha": 0.3, "m": 8, "n_epochs": 2},
    "sgd-momentum": {"alpha": 0.3, "momentum": 0.9, "m": 8, "n_epochs": 2},
    "svrg": {"alpha": 0.3, "m": 8, "n_epochs": 2},
}
ALGORITHM_SECTIONS = [s for s in CONFIG_SURFACE if s not in ("problem", "synthetic", "run")]


def ini_text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def landed(cfg, section, key):
    """Where load_config put the value of `key` in `section`."""
    if section in ("problem", "run"):
        value = getattr(cfg, key)
        return Path(value).name if key in ("dataset", "test_dataset", "out") else value
    return getattr(cfg.synthetic if section == "synthetic" else cfg.algo_params, key)


class TestSynthetic:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 1, "n_features": 2},
            {"n_samples": 10, "n_features": 0},
            {"n_samples": 10, "n_features": 2, "noise": -0.1},
            {"n_samples": 10, "n_features": 2, "kappa": 0.5},
            {"n_samples": 10, "n_features": 2, "label_model": "bogus"},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    def test_deterministic(self):
        spec = SyntheticSpec(n_samples=50, n_features=4, noise=0.3, kappa=10.0, seed=11)
        d1 = gen_synthetic(spec)
        d2 = gen_synthetic(spec)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_labels_are_signs(self):
        d = gen_synthetic(SyntheticSpec(n_samples=100, n_features=3, noise=0.5, seed=2))
        assert set(np.unique(d.labels)) <= {-1.0, 1.0}

    def test_noiseless_data_is_linearly_separable(self):
        # feasibility LP: exists w with y_i <x_i, w> >= 1 for all i
        d = gen_synthetic(SyntheticSpec(n_samples=200, n_features=4, noise=0.0, seed=5))
        res = scipy.optimize.linprog(
            c=np.zeros(d.n),
            A_ub=-(d.labels[:, None] * d.features),
            b_ub=-np.ones(d.N),
            bounds=[(None, None)] * d.n,
            method="highs",
        )
        assert res.status == 0

    def test_kappa_scales_column_spread(self):
        kappa = 100.0
        d = gen_synthetic(SyntheticSpec(n_samples=4000, n_features=3, kappa=kappa, seed=0))
        stds = d.features.std(axis=0)
        # column scales span kappa**0 .. kappa**-0.5
        assert stds[0] / stds[-1] == pytest.approx(np.sqrt(kappa), rel=0.25)
        d1 = gen_synthetic(SyntheticSpec(n_samples=4000, n_features=3, kappa=1.0, seed=0))
        stds1 = d1.features.std(axis=0)
        assert stds1.max() / stds1.min() < 1.2

    def test_sigmoid_svm_label_model(self):
        d = gen_synthetic(
            SyntheticSpec(n_samples=60, n_features=3, label_model="sigmoid-svm-planted", seed=4)
        )
        assert d.N == 60 and set(np.unique(d.labels)) <= {-1.0, 1.0}


class TestLibsvmIO:
    def test_dense_round_trip(self, tmp_path):
        feats = np.array([[1.5, 0.0, -2.25], [0.0, 0.0, 0.125], [3.0, -1.0, 7.0]])
        ds = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0]))
        path = tmp_path / "data.libsvm"
        save_libsvm(path, ds)
        back = load_libsvm(path)
        assert not sp.issparse(back.features)
        np.testing.assert_array_equal(back.features, feats)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_sparse_round_trip(self, tmp_path):
        n = 600  # above the dense-width limit, so loading yields CSR
        rows = np.array([0, 0, 1, 2, 3])
        cols = np.array([0, 599, 5, 300, 599])
        vals = np.array([1.0, 2.5, -3.0, 0.75, 4.0])
        feats = sp.csr_matrix((vals, (rows, cols)), shape=(4, n))
        ds = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0, -1.0]))
        path = tmp_path / "sparse.libsvm"
        save_libsvm(path, ds)
        back = load_libsvm(path, n_features=n)
        assert sp.issparse(back.features)
        np.testing.assert_array_equal(back.features.toarray(), feats.toarray())
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_save_dense_text(self, tmp_path):
        feats = np.array([
            [0.1, 0.0, -2.5, 1e-300],
            [0.0, -0.0, 0.0, 0.0],
            [3.0, 1.0 / 3.0, 0.0, -7e22],
        ])
        ds = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0]))
        path = tmp_path / "d.libsvm"
        save_libsvm(path, ds)
        assert path.read_bytes() == (
            b"1.0 1:0.1 3:-2.5 4:1e-300\n"
            b"-1.0\n"
            b"1.0 1:3.0 2:0.3333333333333333 4:-7e+22\n"
        )

    def test_save_csr_text_sorts_unsorted_rows(self, tmp_path):
        # row 0 stores its columns out of order and an explicit zero; row 1
        # is empty; the matrix is not touched by the write
        data = np.array([2.5, -1.0, 0.0, 0.125, 4.0])
        indices = np.array([599, 0, 7, 300, 5])
        indptr = np.array([0, 3, 3, 5])
        feats = sp.csr_matrix((data, indices, indptr), shape=(3, 600))
        assert not feats.has_sorted_indices
        ds = Dataset(features=feats, labels=np.array([-1.0, 1.0, 1.0]))
        path = tmp_path / "s.libsvm"
        save_libsvm(path, ds)
        assert path.read_bytes() == (
            b"-1.0 1:-1.0 8:0.0 600:2.5\n"
            b"1.0\n"
            b"1.0 6:4.0 301:0.125\n"
        )
        np.testing.assert_array_equal(ds.features.indices, [599, 0, 7, 300, 5])

    def test_one_based_indexing(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 2:5.0\n-1 1:3.0\n")
        ds = load_libsvm(path)
        np.testing.assert_array_equal(ds.features, [[0.0, 5.0], [3.0, 0.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:2.0\n\n\n-1 1:4.0\n")
        assert load_libsvm(path).N == 2

    @pytest.mark.parametrize(
        "content, lineno, fragment",
        [
            ("abc 1:2.0\n", 1, "bad label"),
            ("1 1:2.0\n-1 23\n", 2, "expected index:value"),
            ("1 a:b\n", 1, "bad index:value"),
            ("1 0:1.0\n", 1, "not 1-based"),
            ("1 -3:1.0\n", 1, "not 1-based"),
            ("1 1:2.0 1:3.0\n", 1, "duplicate feature index"),
        ],
    )
    def test_malformed_lines_report_position(self, tmp_path, content, lineno, fragment):
        path = tmp_path / "bad.libsvm"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"line {lineno}"):
            load_libsvm(path)
        with pytest.raises(ValueError, match=fragment):
            load_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.libsvm"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_libsvm(path)

    def test_declared_width_too_small(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 5:1.0\n")
        with pytest.raises(ValueError, match="exceeds declared width"):
            load_libsvm(path, n_features=3)

    def test_label_outside_pm1_names_its_line(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1\n2 1:1\n0 1:2\n")
        with pytest.raises(ValueError, match="line 2: label '2' is not -1 or \\+1"):
            load_libsvm(path)


class TestCsvIO:
    def make_ds(self):
        feats = np.array([[1.25, -2.0], [0.5, 3.75], [0.0, -1.125]])
        return Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0]))

    def test_round_trip_no_header(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "d.csv"
        save_csv(path, ds)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_round_trip_with_header(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "d.csv"
        save_csv(path, ds, header=True)
        assert path.read_text().splitlines()[0] == "label,f0,f1"
        back = load_csv(path, header=True)
        np.testing.assert_array_equal(back.features, ds.features)

    def test_label_column_selection(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,-1.0\n3.0,4.0,1.0\n")
        ds = load_csv(path, label_column=-1)
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n-1.0,oops\n")
        with pytest.raises(ValueError, match=r"row 2, column 2"):
            load_csv(path)

    def test_nan_feature_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3.0\n-1.0,nan,4.0\n")
        with pytest.raises(ValueError, match=r"row 2, column 2: non-finite 'nan'"):
            load_csv(path)

    def test_inf_label_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n-inf,3.0\n")
        with pytest.raises(ValueError, match=r"row 2, column 1: non-finite '-inf'"):
            load_csv(path, label_column=0)

    def test_non_finite_row_number_counts_header(self, tmp_path):
        # the header's cells are names, never parsed as numbers
        path = tmp_path / "d.csv"
        path.write_text("label,nan\n1.0,2.0\n-1.0,inf\n")
        with pytest.raises(ValueError, match=r"row 3, column 2: non-finite 'inf'"):
            load_csv(path, header=True)
        path.write_text("label,nan\n1.0,2.0\n")
        np.testing.assert_array_equal(load_csv(path, header=True).features, [[2.0]])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n-1.0,3.0,4.0\n")
        with pytest.raises(ValueError, match="expected 2 columns, got 3"):
            load_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n")
        with pytest.raises(ValueError, match="need >= 2 columns"):
            load_csv(path)

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, label_column=5)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(path)


class TestMetricsCsv:
    def records(self):
        return [
            MetricsRecord(
                epoch=0, iteration=1, samples=64, wall_ms=1.5,
                loss=0.123456789123456, grad_norm=1e-3, batch_size=16,
            ),
            MetricsRecord(
                epoch=1, iteration=2, samples=128, wall_ms=2.25,
                sigma=0.5, lambda_lo=1e-5, lambda_hi=1e5,
                phase="transient", flush=True, test_accuracy=0.875,
            ),
        ]

    def test_round_trip_preserves_values_and_nones(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = self.records()
        write_metrics_csv(path, recs)
        assert read_metrics_csv(path) == recs

    def test_header_is_fixed_column_order(self, tmp_path):
        # the file format, spelled out: reordering MetricsRecord must fail here
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.records())
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "epoch", "iteration", "samples", "wall_ms", "loss", "grad_norm",
            "batch_size", "sigma", "lambda_lo", "lambda_hi", "phase", "flush",
            "test_accuracy",
        ]

    def write_rows(self, path, *rows):
        path.write_text("\n".join([",".join(METRICS_COLUMNS), *rows]) + "\n")

    def test_empty_required_cell_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        self.write_rows(path, ",1,64,1.5,0.5,,,,,,,,")
        with pytest.raises(ValueError):
            read_metrics_csv(path)

    def test_empty_optional_cells_read_as_none(self, tmp_path):
        path = tmp_path / "m.csv"
        self.write_rows(path, "0,1,64,1.5,,,,,,,,,")
        (rec,) = read_metrics_csv(path)
        assert rec == MetricsRecord(epoch=0, iteration=1, samples=64, wall_ms=1.5)
        assert type(rec.epoch) is int and type(rec.wall_ms) is float

    def test_flush_cells_read_as_bools(self, tmp_path):
        path = tmp_path / "m.csv"
        self.write_rows(path, "0,1,64,1.5,,,,,,,,0,", "0,2,96,2.5,,,,,,,,1,")
        assert [r.flush for r in read_metrics_csv(path)] == [False, True]

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,iteration\n0,1\n")
        with pytest.raises(ValueError, match="unexpected metrics header"):
            read_metrics_csv(path)

    def test_flush_encoding(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.records())
        rows = path.read_text().splitlines()
        assert rows[2].split(",")[METRICS_COLUMNS.index("flush")] == "1"
        assert rows[1].split(",")[METRICS_COLUMNS.index("flush")] == ""


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_SGD))
        assert cfg.kind == "logistic" and cfg.lam == 0.1
        assert cfg.algorithm == "sgd" and cfg.seed == 1
        assert cfg.algo_params.alpha == 0.1 and cfg.algo_params.m == 16
        assert Path(cfg.out) == tmp_path / "run.csv"

    def test_default_out_derives_from_config_path(self, tmp_path):
        text = BASE_SGD.replace("out = run.csv\n", "")
        cfg = load_config(write_config(tmp_path, text))
        assert Path(cfg.out) == tmp_path / "exp.metrics.csv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_errors_are_collected_not_first_only(self, tmp_path):
        text = """\
            [problem]
            kind = bogus
            lam = -1

            [run]
            cadence = -2

            [mystery]
            x = 1
            """
        with pytest.raises(ConfigError) as exc_info:
            load_config(write_config(tmp_path, text))
        errors = exc_info.value.errors
        assert len(errors) >= 5
        joined = "; ".join(errors)
        assert "kind must be one of" in joined
        assert "lam must be nonnegative" in joined
        assert "cadence must be >= 0" in joined
        assert "unknown section [mystery]" in joined
        assert "algorithm is required" in joined
        assert "exactly one of" in joined

    def test_unknown_key_rejected(self, tmp_path):
        text = BASE_SGD + "turbo = yes\n"  # appended to the [sgd] section
        with pytest.raises(ConfigError, match="unknown key 'turbo'"):
            load_config(write_config(tmp_path, text))

    def test_dataset_and_synthetic_both_rejected(self, tmp_path):
        data = tmp_path / "d.libsvm"
        data.write_text("1 1:2.0\n-1 1:3.0\n")
        text = BASE_SGD.replace(
            "kind = logistic", "kind = logistic\n    dataset = d.libsvm"
        )
        with pytest.raises(ConfigError, match="exactly one of"):
            load_config(write_config(tmp_path, text))

    def test_dataset_path_resolves_relative_to_config(self, tmp_path):
        sub = tmp_path / "cfgs"
        sub.mkdir()
        data = sub / "d.libsvm"
        data.write_text("1 1:2.0\n-1 1:3.0\n")
        text = """\
            [problem]
            kind = logistic
            dataset = d.libsvm

            [run]
            algorithm = sgd
            """
        cfg = load_config(write_config(sub, text))
        assert cfg.dataset == str(data.resolve())

    def test_missing_dataset_file_reported(self, tmp_path):
        text = """\
            [problem]
            kind = logistic
            dataset = ghost.libsvm

            [run]
            algorithm = sgd
            """
        with pytest.raises(ConfigError, match="dataset not found"):
            load_config(write_config(tmp_path, text))

    def test_varchen_schedule_passthrough(self, tmp_path):
        text = """\
            [problem]
            kind = sigmoid-svm
            lam = 0.01

            [synthetic]
            n_samples = 32
            n_features = 4

            [run]
            algorithm = varchen

            [varchen]
            schedule = harmonic
            step_c = 0.5
            p = 7
            """
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.algo_params.schedule == "harmonic"
        assert cfg.algo_params.step_c == 0.5
        assert cfg.algo_params.p == 7

    def test_mismatched_algorithm_section_rejected(self, tmp_path):
        text = BASE_SGD.replace("algorithm = sgd", "algorithm = aras")
        with pytest.raises(ConfigError, match=r"section \[sgd\] does not match"):
            load_config(write_config(tmp_path, text))

    def test_invalid_param_values_collected(self, tmp_path):
        text = BASE_SGD.replace("alpha = 0.1", "alpha = -3")
        with pytest.raises(ConfigError, match=r"\[sgd\]"):
            load_config(write_config(tmp_path, text))

    def test_arig_mode_validated(self, tmp_path):
        text = """\
            [problem]
            kind = logistic

            [synthetic]
            n_samples = 16
            n_features = 2

            [run]
            algorithm = arig

            [arig]
            mode = telepathic
            """
        with pytest.raises(ConfigError, match="mode must be one of"):
            load_config(write_config(tmp_path, text))

    def test_unparseable_value_reported_with_type(self, tmp_path):
        text = BASE_SGD.replace("m = 16", "m = sixteen")
        with pytest.raises(ConfigError, match="cannot parse 'sixteen' as int"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("algorithm", ALGORITHM_SECTIONS)
    def test_every_key_reaches_the_config(self, tmp_path, algorithm):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("x,label\n1.0,1\n")
        run = dict(CONFIG_SURFACE["run"], algorithm=algorithm)
        section = CONFIG_SURFACE[algorithm]
        cfg = load_config(write_config(tmp_path, ini_text(
            {"problem": CONFIG_SURFACE["problem"], "run": run, algorithm: section})))
        syn = load_config(write_config(tmp_path, ini_text(
            {"problem": {"kind": "logistic"}, "synthetic": CONFIG_SURFACE["synthetic"],
             "run": {"algorithm": algorithm}}), name="syn.ini"))
        for name, keys in [("problem", CONFIG_SURFACE["problem"]), ("run", run)]:
            for key, value in keys.items():
                assert landed(cfg, name, key) == value, key
        for key, value in CONFIG_SURFACE["synthetic"].items():
            assert landed(syn, "synthetic", key) == value, key
        for key, value in section.items():
            # syn's [algorithm] section is empty, so it holds the defaults
            assert landed(cfg, algorithm, key) == value != landed(syn, algorithm, key), key

        # no key beyond these: each manifest section is its config section,
        # key for key, and its class has no field without a key
        manifest = cfg.as_manifest_dict()
        assert set(manifest["problem"]) == set(CONFIG_SURFACE["problem"])
        assert set(manifest["run"]) == set(run)
        assert syn.as_manifest_dict()["synthetic"] == CONFIG_SURFACE["synthetic"]
        assert manifest["params"] == section
        if algorithm in ("sgd", "svrg"):
            # momentum is a field of [sgd-momentum]'s class only
            text = ini_text({"problem": {"kind": "logistic"},
                             "synthetic": CONFIG_SURFACE["synthetic"], "run": run,
                             algorithm: dict(section, momentum=0.9)})
            with pytest.raises(ConfigError, match=rf"\[{algorithm}\] unknown key 'momentum'"):
                load_config(write_config(tmp_path, text, name="momentum.ini"))


def strip_wall(path):
    """CSV rows with the wall_ms column blanked, for rerun comparisons."""
    wall = METRICS_COLUMNS.index("wall_ms")
    with open(path, newline="") as fh:
        rows = [row[:wall] + row[wall + 1 :] for row in csv.reader(fh)]
    return rows


class TestRunExperiment:
    def test_sgd_run_writes_csv_and_manifest(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE_SGD))
        out = run_experiment(cfg)
        assert Path(out) == tmp_path / "run.csv"
        rows = read_metrics_csv(out)
        # default cadence: one row per epoch boundary
        assert [r.epoch for r in rows] == [0, 1, 2]
        assert all(r.loss is not None and r.grad_norm is not None for r in rows)
        samples = [r.samples for r in rows]
        assert samples == sorted(samples) and samples[-1] == 3 * 64

        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["seed"] == 1
        assert len(manifest["dataset_sha256"]) == 64
        assert len(manifest["problem_fingerprint"]) == 12
        assert manifest["aborted"] is False
        assert manifest["config"]["run"]["algorithm"] == "sgd"

    def test_manifest_records_numeric_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = run_experiment(load_config(write_config(tmp_path, BASE_SGD)))
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        # the keys written before numeric_env existed stay as they were
        assert set(manifest) == {"config", "seed", "dataset_sha256", "test_dataset_sha256",
                                 "problem_fingerprint", "aborted", "abort_reason", "events",
                                 "numeric_env"}
        assert manifest["abort_reason"] is None
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        assert manifest["numeric_env"] == {
            "numpy": np.__version__,
            "blas": blas["name"],
            "blas_version": blas["version"],
            "simd_found": info["SIMD Extensions"]["found"],
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "3",
            "MKL_NUM_THREADS": None,
        }

    def test_rerun_is_byte_identical_except_wall_ms(self, tmp_path):
        c1 = write_config(tmp_path, BASE_SGD, name="a.ini")
        c2 = write_config(
            tmp_path, BASE_SGD.replace("out = run.csv", "out = run2.csv"), name="b.ini"
        )
        out1 = run_experiment(load_config(c1))
        out2 = run_experiment(load_config(c2))
        assert strip_wall(out1) == strip_wall(out2)
        m1 = json.loads(Path(out1 + ".manifest.json").read_text())
        m2 = json.loads(Path(out2 + ".manifest.json").read_text())
        m1["config"]["run"].pop("out")
        m2["config"]["run"].pop("out")
        assert m1 == m2

    def test_cadence_downsampling(self, tmp_path):
        text = BASE_SGD.replace("seed = 1", "seed = 1\n    cadence = 5")
        cfg = load_config(write_config(tmp_path, text))
        rows = read_metrics_csv(run_experiment(cfg))
        assert len(rows) >= 2
        for r in rows[:-1]:
            assert r.iteration % 5 == 0
        iters = [r.iteration for r in rows]
        assert iters == sorted(iters)

    def test_aras_phase_column_is_monotone(self, tmp_path):
        text = """\
            [problem]
            kind = logistic
            lam = 0.05

            [synthetic]
            n_samples = 96
            n_features = 4
            noise = 0.6
            seed = 9

            [run]
            algorithm = aras
            seed = 2
            out = aras.csv
            cadence = 1

            [aras]
            m0 = 4
            m_max = 64
            burn_in = 5
            n_epochs = 6
            """
        cfg = load_config(write_config(tmp_path, text))
        rows = read_metrics_csv(run_experiment(cfg))
        phases = [r.phase for r in rows]
        assert set(phases) <= {"transient", "stationary"}
        flips = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
        assert flips <= 1
        if "stationary" in phases:
            first = phases.index("stationary")
            assert all(p == "stationary" for p in phases[first:])
        assert all(r.sigma is not None for r in rows)

    def test_varchen_columns(self, tmp_path):
        text = """\
            [problem]
            kind = sigmoid-svm
            lam = 0.01

            [synthetic]
            n_samples = 48
            n_features = 4
            seed = 1

            [run]
            algorithm = varchen
            seed = 0
            out = v.csv
            cadence = 1

            [varchen]
            p = 5
            m = 16
            n_epochs = 2
            step_c = 0.05
            """
        cfg = load_config(write_config(tmp_path, text))
        rows = read_metrics_csv(run_experiment(cfg))
        assert all(r.lambda_lo is not None and r.lambda_hi is not None for r in rows)
        assert all(isinstance(r.flush, bool) for r in rows)
        assert all(r.lambda_lo <= r.lambda_hi for r in rows)
        # anchor pass charges N samples at each epoch start
        assert rows[-1].samples == 2 * (48 + 48)

    def test_arig_rows_per_iteration(self, tmp_path):
        text = """\
            [problem]
            kind = logistic
            lam = 0.1

            [synthetic]
            n_samples = 32
            n_features = 3
            seed = 7

            [run]
            algorithm = arig
            out = arig.csv

            [arig]
            eps = 1e-3
            max_iters = 50
            """
        cfg = load_config(write_config(tmp_path, text))
        rows = read_metrics_csv(run_experiment(cfg))
        assert all(r.batch_size == 32 for r in rows)
        assert all(r.sigma is not None for r in rows)
        assert all(r.epoch == r.iteration for r in rows)
        assert [r.iteration for r in rows] == list(range(1, len(rows) + 1))

    def test_test_accuracy_column(self, tmp_path):
        test_ds = gen_synthetic(SyntheticSpec(n_samples=40, n_features=5, seed=99))
        save_csv(tmp_path / "test.csv", test_ds)
        text = BASE_SGD.replace(
            "kind = logistic", "kind = logistic\n    test_dataset = test.csv"
        )
        cfg = load_config(write_config(tmp_path, text))
        rows = read_metrics_csv(run_experiment(cfg))
        assert all(r.test_accuracy is not None for r in rows)
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in rows)

    def test_test_dataset_width_mismatch(self, tmp_path):
        bad = Dataset(
            features=np.array([[1.0, 2.0], [3.0, 4.0]]),
            labels=np.array([1.0, -1.0]),
        )
        save_csv(tmp_path / "test.csv", bad)
        text = BASE_SGD.replace(
            "kind = logistic", "kind = logistic\n    test_dataset = test.csv"
        )
        cfg = load_config(write_config(tmp_path, text))
        with pytest.raises(ValueError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == f"{cfg.test_dataset}: test dataset width 2 != train width 5"


REPORT_ALGO_SECTIONS = {
    "arig": "eps = 1e-8\n    max_iters = 10",
    "aras": "m0 = 4\n    m_max = 16\n    burn_in = 3\n    n_epochs = 3",
    "varchen": "p = 3\n    m = 12\n    n_epochs = 3\n    step_c = 0.05",
    "sgd": "alpha = 0.1\n    m = 12\n    n_epochs = 3",
    "sgd-momentum": "alpha = 0.1\n    momentum = 0.5\n    m = 12\n    n_epochs = 3",
    "svrg": "alpha = 0.1\n    m = 12\n    n_epochs = 3",
}


class TestReport:
    """The metrics CSV against the per-algorithm column rules in
    oracles.report_columns_reference, and its loss and grad_norm columns
    against oracles.report_values_reference, applied to the run's own trace."""

    @staticmethod
    def run(tmp_path, monkeypatch, algorithm, cadence, section=None):
        """The CSV rows of a run on a 40 x 4 logistic problem, with the
        problem and the result its report read."""
        section = REPORT_ALGO_SECTIONS[algorithm] if section is None else section
        text = f"""\
    [problem]
    kind = logistic
    lam = 0.1

    [synthetic]
    n_samples = 40
    n_features = 4
    noise = 0.5
    seed = 2

    [run]
    algorithm = {algorithm}
    seed = 1
    out = r.csv
    cadence = {cadence}

    [{algorithm}]
    {section}
    """
        seen = []
        report = harness._trace_to_metrics

        def capture(config, problem, test, result):
            seen.append((problem, result))
            return report(config, problem, test, result)

        monkeypatch.setattr(harness, "_trace_to_metrics", capture)
        rows = read_metrics_csv(run_experiment(load_config(write_config(tmp_path, text))))
        (problem, result), = seen
        assert len(result.trace) > 3
        return rows, problem, result

    @staticmethod
    def check(rows, problem, result, algorithm, cadence):
        got = [(r.epoch, r.iteration, r.samples, r.batch_size, r.sigma,
                r.lambda_lo, r.lambda_hi, r.phase, r.flush) for r in rows]
        assert got == report_columns_reference(algorithm, result.trace, 40, cadence)
        # bit for bit, whether the record carried the values or the report
        # made its own pass
        got = [(r.loss, r.grad_norm) for r in rows]
        assert got == report_values_reference(problem, result.trace, cadence)

    @pytest.mark.parametrize("cadence", [0, 1, 3])
    @pytest.mark.parametrize("algorithm", sorted(REPORT_ALGO_SECTIONS))
    def test_columns_follow_per_algorithm_rules(self, tmp_path, monkeypatch,
                                                algorithm, cadence):
        rows, problem, result = self.run(tmp_path, monkeypatch, algorithm, cadence)
        self.check(rows, problem, result, algorithm, cadence)

    @pytest.mark.parametrize("cadence", [0, 1, 3])
    @pytest.mark.parametrize("section", [
        "eps = 1e-6\n    mode = exact\n    sigma0 = 0.01\n    sigma_min = 0.005",
        "eps = 1e-6\n    mode = inexact-g",
        "eps = 1e-6\n    mode = inexact-g-and-f\n    eta0 = 0.1",
        "eps = 1e-12\n    mode = inexact-g\n    max_iters = 8",
    ], ids=["exact", "inexact-g", "inexact-g-and-f", "exhausted"])
    def test_arig_modes_follow_the_same_rules(self, tmp_path, monkeypatch,
                                              section, cadence):
        """Rows copied from the run's exact values and rows the report
        evaluates itself, in each oracle mode."""
        rows, problem, result = self.run(tmp_path, monkeypatch, "arig", cadence, section)
        assert result.terminated == ("max_iters" not in section)
        self.check(rows, problem, result, "arig", cadence)


class TestCompare:
    def two_configs(self, tmp_path):
        svrg = (
            BASE_SGD.replace("algorithm = sgd", "algorithm = svrg")
            .replace("out = run.csv", "out = svrg.csv")
            .replace("[sgd]", "[svrg]")
        )
        c1 = write_config(tmp_path, BASE_SGD, name="sgd.ini")
        c2 = write_config(tmp_path, svrg, name="svrg.ini")
        return c1, c2

    def test_compare_runs_both_and_summarizes(self, tmp_path):
        c1, c2 = self.two_configs(tmp_path)
        summaries = compare([c1, c2])
        assert [s["algorithm"] for s in summaries] == ["sgd", "svrg"]
        assert summaries[0]["problem"] == summaries[1]["problem"]
        for s in summaries:
            assert Path(s["csv"]).is_file()
            assert np.isfinite(s["final_loss"]) and s["best_loss"] <= s["final_loss"]

    def test_compare_runs_one_after_another(self, tmp_path, monkeypatch):
        intervals = []

        def timed(real):
            def entry(*args, **kwargs):
                t0 = time.perf_counter()
                result = real(*args, **kwargs)
                time.sleep(0.05)  # a waiting run lets any concurrent run start
                intervals.append((t0, time.perf_counter()))
                return result
            return entry

        for name in ("arig_run", "aras_run", "varchen_run", "sgd_run",
                     "sgd_momentum_run", "svrg_run"):
            monkeypatch.setattr(harness, name, timed(getattr(harness, name)))
        compare(self.two_configs(tmp_path))
        (_, end_first), (start_second, _) = sorted(intervals)
        assert end_first <= start_second

    def test_compare_summarises_its_rows_without_rereading(self, tmp_path, monkeypatch):
        def no_reread(path):
            raise RuntimeError(f"compare re-read {path}")

        monkeypatch.setattr(harness, "read_metrics_csv", no_reread)
        summaries = compare(self.two_configs(tmp_path))
        monkeypatch.undo()
        for s in summaries:
            rows = read_metrics_csv(s["csv"])
            assert s == {
                "algorithm": s["algorithm"], "problem": s["problem"],
                "final_loss": rows[-1].loss, "best_loss": min(r.loss for r in rows),
                "final_accuracy": None, "samples": rows[-1].samples,
                "wall_ms": rows[-1].wall_ms, "csv": s["csv"],
            }

    def test_compare_rejects_single_config(self, tmp_path):
        c1, _ = self.two_configs(tmp_path)
        with pytest.raises(ConfigError, match="at least two"):
            compare([c1])

    def test_compare_rejects_different_problems(self, tmp_path):
        c1 = write_config(tmp_path, BASE_SGD, name="a.ini")
        c2 = write_config(
            tmp_path,
            BASE_SGD.replace("lam = 0.1", "lam = 0.2").replace(
                "out = run.csv", "out = run2.csv"
            ),
            name="b.ini",
        )
        # one source: the message's fingerprints wait for the common digest
        digest = harness._dataset_hash(gen_synthetic(load_config(c1).synthetic))
        fps = [harness._problem_fingerprint(load_config(c), digest) for c in (c1, c2)]
        with pytest.raises(ConfigError, match="different problems") as info:
            compare([c1, c2])
        assert f"a.ini={fps[0]}, b.ini={fps[1]}" in info.value.errors[0]

    def test_compare_rejects_shared_output(self, tmp_path):
        c1 = write_config(tmp_path, BASE_SGD, name="a.ini")
        c2 = write_config(
            tmp_path, BASE_SGD.replace("seed = 1", "seed = 2"), name="b.ini"
        )
        with pytest.raises(ConfigError, match="outputs must be distinct"):
            compare([c1, c2])

    def test_compare_rejects_outputs_that_resolve_to_one_file(self, tmp_path):
        """Paths that differ as text but name one file: through '..',
        through a symbolic link, and one run's CSV at the other's manifest."""
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "run.csv")
        c1 = write_config(tmp_path, BASE_SGD, name="a.ini")
        for alias in ("sub/../run.csv", "link.csv", "run.csv.manifest.json"):
            c2 = write_config(tmp_path, BASE_SGD.replace("seed = 1", "seed = 2").replace(
                "out = run.csv", f"out = {alias}"), name="b.ini")
            with pytest.raises(ConfigError, match="outputs must be distinct"):
                compare([c1, c2])
        assert not (tmp_path / "run.csv").exists()


CSR_ALGORITHM_SECTIONS = {
    "arig": {"eps": 1e-5, "max_iters": 40},
    "aras": {"sigma0": 1.0, "m0": 8, "m_max": 64, "burn_in": 5, "n_epochs": 2},
    "varchen": {"p": 3, "m": 16, "n_epochs": 2},
    "sgd": {"alpha": 0.5, "m": 16, "n_epochs": 2},
    "sgd-momentum": {"alpha": 0.5, "momentum": 0.5, "m": 16, "n_epochs": 2},
    "svrg": {"alpha": 0.5, "m": 16, "n_epochs": 2},
}


def write_csr_libsvm(path, N=150, n=700, nnz=10, seed=4):
    """A libsvm file wider than DENSE_DIM_LIMIT, so that it loads as CSR:
    each row holds up to `nnz` random columns, a few rows none at all."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    lines = []
    for i in range(N):
        cols = np.unique(rng.integers(0, n, size=0 if i % 37 == 5 else nnz))
        vals = np.round(rng.standard_normal(cols.size), 4)
        label = 1 if float(vals @ w[cols]) + 0.3 * rng.standard_normal() >= 0 else -1
        lines.append(" ".join([str(label)] + [f"{c + 1}:{v!r}" for c, v in
                                              zip(cols.tolist(), vals.tolist())]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCsrRuns:
    """Every algorithm runs end to end on a dataset that loads as CSR.  A
    batch other than the whole index set is gathered (problems._CsrBatch);
    ARIG's passes are all over the whole set, which scipy reads in place.
    The report evaluates the iterates of its rows several per pass
    (problems.LinearModelProblem._csr_chunk); ARIG's rows carry their values
    and cost it no pass."""

    @pytest.mark.parametrize("algorithm", sorted(CSR_ALGORITHM_SECTIONS))
    def test_run_on_csr_is_deterministic(self, tmp_path, capsys, monkeypatch, algorithm):
        write_csr_libsvm(tmp_path / "wide.libsvm")
        assert sp.issparse(load_libsvm(str(tmp_path / "wide.libsvm")).features)
        cfg = write_config(tmp_path, ini_text({
            "problem": {"kind": "logistic", "lam": 0.01, "dataset": "wide.libsvm"},
            "run": {"algorithm": algorithm, "seed": 2, "cadence": 3, "out": "a.csv"},
            algorithm: CSR_ALGORITHM_SECTIONS[algorithm],
        }))
        kinds = []
        gather = problems.LinearModelProblem._gather

        def recording_gather(self, batch):
            out = gather(self, batch)
            kinds.append(type(out[1]))
            return out

        chunks = []
        csr_chunk = problems.LinearModelProblem._csr_chunk

        def recording_chunk(self, xs, grad):
            chunks.append(len(xs))
            return csr_chunk(self, xs, grad)

        monkeypatch.setattr(problems.LinearModelProblem, "_gather", recording_gather)
        monkeypatch.setattr(problems.LinearModelProblem, "_csr_chunk", recording_chunk)
        assert main(["run", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        capsys.readouterr()
        assert sp.csr_matrix in kinds
        if algorithm == "arig":
            assert set(kinds) == {sp.csr_matrix} and chunks == []
        else:
            assert problems._CsrBatch in kinds and np.ndarray not in kinds
            assert chunks and all(2 <= k <= problems.FULL_PASS_CHUNK for k in chunks)
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["aborted"] is False
        first = strip_wall(tmp_path / "a.csv")
        assert len(first) > 2 and first == strip_wall(tmp_path / "b.csv")



class TestDigestWorker:
    """A run's dataset digests are computed on a worker thread beside the
    run: the first step does not wait for them, the output files do."""

    ENTRIES = ("arig_run", "aras_run", "varchen_run", "sgd_run", "sgd_momentum_run",
               "svrg_run")

    def digest_after_first_step(self, monkeypatch):
        """Make each digest wait until an algorithm entry has started.  A
        digest that the run waits for would wait forever, so it gives up
        after 10 s and raises."""
        started = threading.Event()
        real_hash = harness._dataset_hash

        def digest(dataset):
            if not started.wait(timeout=10):
                raise RuntimeError("the run waited for the digest")
            return real_hash(dataset)

        def starting(real):
            def entry(*args, **kwargs):
                started.set()
                return real(*args, **kwargs)
            return entry

        monkeypatch.setattr(harness, "_dataset_hash", digest)
        for name in self.ENTRIES:
            monkeypatch.setattr(harness, name, starting(getattr(harness, name)))

    def test_run_starts_before_the_digest_returns(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, BASE_SGD))
        self.digest_after_first_step(monkeypatch)
        out = run_experiment(config)
        monkeypatch.undo()
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["dataset_sha256"] == harness._dataset_hash(
            gen_synthetic(config.synthetic))

    def test_one_source_compare_starts_before_the_digest_returns(self, tmp_path,
                                                                  monkeypatch):
        c1, c2 = TestCompare().two_configs(tmp_path)
        self.digest_after_first_step(monkeypatch)
        summaries = compare([c1, c2])
        monkeypatch.undo()
        config = load_config(c1)
        want = harness._problem_fingerprint(
            config, harness._dataset_hash(gen_synthetic(config.synthetic)))
        assert [s["problem"] for s in summaries] == [want, want]

    def test_digest_error_fails_the_run_and_writes_nothing(self, tmp_path, monkeypatch,
                                                           capsys):
        def broken(dataset):
            raise OSError("digest failed")

        monkeypatch.setattr(harness, "_dataset_hash", broken)
        path = write_config(tmp_path, BASE_SGD)
        with pytest.raises(OSError, match="digest failed"):
            run_experiment(load_config(path))
        assert not list(tmp_path.glob("run.csv*"))
        capsys.readouterr()
        assert main(["run", "--config", path]) == 2
        assert "error: digest failed" in capsys.readouterr().err
        assert not list(tmp_path.glob("run.csv*"))

    def libsvm_configs(self, tmp_path, second, lam_b=0.1):
        """Configs a.ini (sgd on d.libsvm) and b.ini (svrg on e.libsvm at
        lam_b); e.libsvm is d.libsvm's text passed through `second`."""
        data = gen_synthetic(SyntheticSpec(n_samples=40, n_features=4, noise=0.3, seed=2))
        save_libsvm(tmp_path / "d.libsvm", data)
        (tmp_path / "e.libsvm").write_text(second((tmp_path / "d.libsvm").read_text()))
        paths = []
        for name, algo, dataset, lam in (("a.ini", "sgd", "d.libsvm", 0.1),
                                         ("b.ini", "svrg", "e.libsvm", lam_b)):
            paths.append(write_config(tmp_path, ini_text({
                "problem": {"kind": "logistic", "lam": lam, "dataset": dataset},
                "run": {"algorithm": algo, "seed": 1, "out": f"{algo}.csv"},
                algo: {"alpha": 0.1, "m": 8, "n_epochs": 2},
            }), name=name))
        fingerprints = [harness._problem_fingerprint(
            load_config(path), harness._dataset_hash(load_libsvm(tmp_path / dataset)))
            for path, dataset in zip(paths, ("d.libsvm", "e.libsvm"))]
        return paths, fingerprints

    def test_compare_of_two_sources_with_one_digest_runs(self, tmp_path):
        paths, (fp_a, fp_b) = self.libsvm_configs(tmp_path, lambda text: text)
        assert fp_a == fp_b
        summaries = compare(paths)
        assert [s["problem"] for s in summaries] == [fp_a, fp_b]

    @pytest.mark.parametrize("second, lam_b", [
        (lambda text: text.replace(text.split()[1], "1:7.5", 1), 0.1),
        (lambda text: text, 0.2),
    ], ids=["one-value-changed", "other-lam"])
    def test_compare_of_two_sources_rejects_different_problems(self, tmp_path,
                                                               second, lam_b):
        paths, (fp_a, fp_b) = self.libsvm_configs(tmp_path, second, lam_b)
        assert fp_a != fp_b
        with pytest.raises(ConfigError, match="different problems") as info:
            compare(paths)
        assert f"a.ini={fp_a}, b.ini={fp_b}" in info.value.errors[0]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_manifest_digests_are_the_datasets(self, tmp_path, csr):
        if csr:
            write_csr_libsvm(tmp_path / "train.libsvm")
            write_csr_libsvm(tmp_path / "test.libsvm", N=60, seed=5)
            sections = {"problem": {"kind": "logistic", "lam": 0.1,
                                    "dataset": "train.libsvm"}}
        else:
            save_libsvm(tmp_path / "test.libsvm", gen_synthetic(
                SyntheticSpec(n_samples=30, n_features=5, noise=0.2, seed=9)))
            sections = {"problem": {"kind": "logistic", "lam": 0.1},
                        "synthetic": {"n_samples": 64, "n_features": 5, "seed": 3}}
        sections.update({"run": {"algorithm": "sgd", "seed": 1, "out": "run.csv"},
                         "sgd": {"alpha": 0.1, "m": 16, "n_epochs": 2}})
        for test in (None, "test.libsvm"):
            if test is not None:
                sections["problem"]["test_dataset"] = test
            config = load_config(write_config(tmp_path, ini_text(sections)))
            out = run_experiment(config)
            manifest = json.loads(Path(out + ".manifest.json").read_text())
            train = (load_libsvm(tmp_path / "train.libsvm") if csr
                     else gen_synthetic(config.synthetic))
            assert sp.issparse(train.features) == csr
            assert manifest["dataset_sha256"] == harness._dataset_hash(train)
            assert manifest["problem_fingerprint"] == harness._problem_fingerprint(
                config, harness._dataset_hash(train))
            if test is None:
                assert manifest["test_dataset_sha256"] is None
            else:
                test_set = load_libsvm(tmp_path / test, n_features=train.n)
                assert sp.issparse(test_set.features) == csr
                assert manifest["test_dataset_sha256"] == harness._dataset_hash(test_set)


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_SGD)
        assert main(["validate-config", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_python_m_stochopt(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "stochopt", "validate-config",
             "--config", str(root / "scripts" / "configs" / "logistic_sgd.ini")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
        assert "RuntimeWarning" not in proc.stderr

    def test_diverging_aras_run_aborts_and_exits_0(self, tmp_path, capsys):
        """sigma0 = sigma_min = 1e-310 overflows ARAS's first step: the run
        ends aborted, as the epoch-loop algorithms do, instead of exiting 2
        on a non-finite point."""
        text = BASE_SGD.replace("algorithm = sgd", "algorithm = aras").replace(
            "[sgd]\n    alpha = 0.1\n    m = 16\n",
            "[aras]\n    sigma0 = 1e-310\n    sigma_min = 1e-310\n")
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["aborted"] is True
        assert manifest["abort_reason"] == "non-finite iterate at epoch 0, iteration 0"

    def test_diverging_arig_run_aborts_and_exits_0(self, tmp_path, capsys):
        """Features scaled by 1e154 make ARIG reject every step: the run ends
        aborted at the rejection limit, as the other algorithms do, instead
        of exiting 2; its last row is evaluated at the finite x0."""
        gen = np.random.default_rng(0)
        X = 1e154 * gen.standard_normal((50, 3))
        y = np.where(gen.standard_normal(50) >= 0, 1.0, -1.0)
        save_libsvm(tmp_path / "huge.libsvm", Dataset(features=X, labels=y))
        cfg = write_config(tmp_path, ini_text({
            "problem": {"kind": "logistic", "lam": 0.0, "dataset": "huge.libsvm"},
            "run": {"algorithm": "arig", "seed": 1, "out": "run.csv"},
            "arig": {"eps": 1e-6},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["aborted"] is True
        assert manifest["abort_reason"] == "100 consecutive rejected steps at iteration 100"
        rows = read_metrics_csv(tmp_path / "run.csv")
        assert rows[-1].iteration == 100 and math.isfinite(rows[-1].loss)

    @pytest.mark.parametrize("algorithm", ["sgd", "sgd-momentum", "svrg", "varchen"])
    def test_diverging_epoch_loop_run_aborts_and_exits_0(self, tmp_path, algorithm):
        """A step of 1e308 takes the first step to a finite iterate and
        overflows the second: the run ends aborted at iteration 1 and the
        CLI exits 0, the rule ARAS and ARIG follow too."""
        step = "step_c" if algorithm == "varchen" else "alpha"
        text = BASE_SGD.replace("algorithm = sgd", f"algorithm = {algorithm}").replace(
            "[sgd]\n    alpha = 0.1\n", f"[{algorithm}]\n    {step} = 1e308\n")
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["aborted"] is True
        assert manifest["abort_reason"] == "non-finite iterate at epoch 0, iteration 1"

    def test_diverging_run_prints_nothing_to_stderr(self, tmp_path):
        """The example SGD config with alpha = 1e308 overflows on its way to
        the abort and in the report of its last finite iterate; the run
        reports that in its manifest and inf cells, and numpy warns nothing."""
        root = Path(__file__).resolve().parents[1]
        text = (root / "scripts" / "configs" / "logistic_sgd.ini").read_text()
        assert "alpha = 0.1\n" in text
        cfg = tmp_path / "diverging.ini"
        cfg.write_text(text.replace("alpha = 0.1\n", "alpha = 1e308\n"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "stochopt", "run", "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["aborted"] is True

    def test_run_without_simd_dispatch_targets(self, tmp_path):
        """With every dispatch target above the baseline switched off, numpy
        reports no "found" SIMD extensions; the run still writes its
        manifest, with an empty list."""
        root = Path(__file__).resolve().parents[1]
        cfg = write_config(tmp_path, BASE_SGD)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
        proc = subprocess.run([sys.executable, "-m", "stochopt", "run", "--config", cfg],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert isinstance(manifest["numeric_env"]["simd_found"], list)

    @pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda path: path.name)
    def test_example_config_validates(self, path, capsys):
        assert main(["validate-config", "--config", str(path)]) == 0

    @pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda path: path.name)
    def test_example_config_keys_reach_the_manifest(self, tmp_path, path):
        """Every key an example config sets is in its run's manifest, in the
        section of the same name ("params" for the algorithm's), under the
        same key, with the value the file spells: a number, a dataset path
        resolved from the config's directory, or the string itself."""
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        parser.read(path, encoding="utf-8")
        config = load_config(path)
        config.out = str(tmp_path / "run.csv")
        out = run_experiment(config)
        manifest = json.loads(Path(out + ".manifest.json").read_text())["config"]
        for section in parser.sections():
            got = manifest["params" if section == config.algorithm else section]
            for key, raw in parser.items(section):
                assert key in got, (section, key)
                if key in ("dataset", "test_dataset"):
                    want = str((path.parent / raw).resolve())
                else:
                    want = raw
                    for parse in (int, float):
                        try:
                            want = parse(raw)
                            break
                        except ValueError:
                            pass
                assert got[key] == want, (section, key)

    def test_percent_in_a_dataset_name_is_literal(self, tmp_path, capsys):
        """A '%' in a value is read as it is: gen-data writes a file named
        data%20set.libsvm, and a config naming it validates and runs."""
        cfg = write_config(tmp_path, BASE_SGD, name="gen.ini")
        name = "data%20set.libsvm"
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        text = BASE_SGD.replace("[synthetic]\n    n_samples = 64\n    n_features = 5\n"
                                "    seed = 3\n", "").replace("lam = 0.1", f"dataset = {name}")
        cfg = write_config(tmp_path, text)
        for verb in ("validate-config", "run"):
            assert main([verb, "--config", cfg]) == 0, capsys.readouterr().err
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"]["problem"]["dataset"] == str(tmp_path / name)

    def test_interpolation_syntax_in_an_output_name_is_literal(self, tmp_path):
        """out = run_%(algorithm)s.csv names that very file, not run_sgd.csv."""
        cfg = write_config(tmp_path, BASE_SGD.replace("out = run.csv",
                                                      "out = run_%(algorithm)s.csv"))
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "run_%(algorithm)s.csv").is_file()
        assert not (tmp_path / "run_sgd.csv").exists()

    def test_config_byte_order_mark_is_skipped(self, tmp_path, capsys):
        """A config saved with a UTF-8 byte-order mark (as Windows Notepad
        writes) loads as the same file without it; without utf-8-sig the
        mark sits before '[problem]' and the file has no section headers."""
        src = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "logistic_sgd.ini"
        path = tmp_path / "logistic_sgd.ini"
        path.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        assert main(["validate-config", "--config", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        with_mark, without = load_config(path), load_config(src)
        with_mark.out = without.out
        assert with_mark == without

    def test_config_byte_order_mark_keeps_unknown_key_errors(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xef\xbb\xbf" + textwrap.dedent(BASE_SGD + "turbo = yes\n").encode())
        assert main(["validate-config", "--config", str(path)]) == 1
        assert "[sgd] unknown key 'turbo'" in capsys.readouterr().err

    @pytest.mark.parametrize("clamp", ["gamma_under = 2", "gamma_over = 0.5"])
    def test_varchen_clamp_without_one_fails_at_load(self, tmp_path, capsys, clamp):
        text = BASE_SGD.replace("algorithm = sgd", "algorithm = varchen").replace(
            "[sgd]\n    alpha = 0.1", "[varchen]\n    " + clamp)
        cfg = write_config(tmp_path, text)
        for verb in ("validate-config", "run"):
            assert main([verb, "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert "[varchen]" in err and "must contain the starting scaling" in err

    @pytest.mark.parametrize("section", [
        "mode = exact\n    eta0 = 0.1",
        "mode = inexact-g\n    eta0 = 0.1",
        "mode = inexact-g-and-f",
    ], ids=["exact", "inexact-g", "inexact-g-and-f-without-eta0"])
    def test_arig_eta0_mismatched_with_mode_fails_at_load(self, tmp_path, capsys, section):
        """arig_run reads eta0 only in mode inexact-g-and-f, which needs it;
        in another mode the manifest would record a value the run never
        used."""
        block = "[sgd]\n    alpha = 0.1\n    m = 16\n    n_epochs = 3\n"
        text = BASE_SGD.replace("algorithm = sgd", "algorithm = arig").replace(
            block, f"[arig]\n    {section}\n")
        cfg = write_config(tmp_path, text)
        for verb in ("validate-config", "run"):
            assert main([verb, "--config", cfg]) == 1
            assert "[arig] eta0 is required by mode = inexact-g-and-f" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("lam = 0.1", "lam = nan", "[problem] lam must be nonnegative"),
            ("lam = 0.1", "lam = inf", "[problem] lam must be nonnegative"),
            ("n_features = 5", "n_features = 5\n    noise = nan",
             "[synthetic] noise must be nonnegative"),
            ("seed = 3", "seed = -1", "[synthetic] seed must be >= 0"),
            ("seed = 1", "seed = -1", "[run] seed must be >= 0"),
        ],
        ids=["lam-nan", "lam-inf", "noise-nan", "synthetic-seed", "run-seed"],
    )
    def test_bad_numbers_fail_at_load(self, tmp_path, capsys, old, new, message):
        assert BASE_SGD.count(old) == 1
        cfg = write_config(tmp_path, BASE_SGD.replace(old, new))
        for verb in ("validate-config", "run"):
            assert main([verb, "--config", cfg]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, key, message",
        [
            ("sgd", "alpha", "alpha must be positive and finite"),
            ("sgd-momentum", "alpha", "alpha must be positive and finite"),
            ("svrg", "alpha", "alpha must be positive and finite"),
            ("varchen", "step_c", "schedule coefficient must be positive and finite"),
            ("aras", "sigma0", "need 0 < sigma_min <= sigma0 < inf"),
            ("aras", "gamma2", "need 0 < gamma1 < 1 < gamma2 < inf"),
            ("arig", "sigma0", "need 0 < sigma_min <= sigma0 < inf"),
            # gamma2 < gamma3 already bounds [arig] gamma2
            ("arig", "gamma3", "need 0 < gamma1 < 1 < gamma2 < gamma3 < inf"),
        ],
        ids=["sgd-alpha", "sgd-momentum-alpha", "svrg-alpha", "varchen-step_c",
             "aras-sigma0", "aras-gamma2", "arig-sigma0", "arig-gamma3"],
    )
    def test_infinite_step_lengths_fail_at_load(self, tmp_path, capsys, algorithm, key,
                                                message):
        block = "[sgd]\n    alpha = 0.1\n    m = 16\n    n_epochs = 3\n"
        assert BASE_SGD.count(block) == 1
        text = BASE_SGD.replace("algorithm = sgd", f"algorithm = {algorithm}").replace(
            block, f"[{algorithm}]\n    {key} = inf\n")
        cfg = write_config(tmp_path, text)
        for verb in ("validate-config", "run"):
            assert main([verb, "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert f"[{algorithm}]" in err and message in err

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_SGD)
        assert main(["run", "--config", cfg, "--seed", "-1"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_config_error_exit_code_and_stderr(self, tmp_path, capsys):
        bad = write_config(tmp_path, BASE_SGD.replace("kind = logistic", "kind = x"))
        assert main(["validate-config", "--config", bad]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_run_prints_csv_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_SGD)
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out.strip()
        assert Path(out).is_file() and out.endswith("run.csv")

    def test_run_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_SGD)
        custom = str(tmp_path / "custom.csv")
        rc = main(
            ["run", "--config", cfg, "--seed", "9", "--out", custom, "--cadence", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == custom
        manifest = json.loads(Path(custom + ".manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.libsvm").write_text("not-a-label 1:2.0\n")
        text = """\
            [problem]
            kind = logistic
            dataset = bad.libsvm

            [run]
            algorithm = sgd
            """
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, options, where", [
        ("bad.libsvm", "1 1:2.0\n2 1:3.0\n", "", "line 2: label '2' is not -1 or +1"),
        # blank lines hold no row, but count as lines
        ("bad.libsvm", "1 1:2\n\n  \n+1 1:1\r\n-1.0 2:1\n-0 1:3\n", "",
         "line 6: label '-0' is not -1 or +1"),
        ("bad.csv", "1.0,2.0\n\n0,3.0\n", "", "row 3, column 1: label '0' is not -1 or +1"),
        # the header and blank rows count as rows; a negative label column
        ("bad.csv", "x,y\n2,1\n\n2,-1\n2,3\n", "label_column = -1\nheader = true",
         "row 5, column 2: label '3' is not -1 or +1"),
        # the first fault in file order: a bad label before a malformed token
        ("bad.libsvm", "1 1:2\n0 1:1\n1 x\n", "", "line 2: label '0' is not -1 or +1"),
        ("bad.csv", "1,2\n0,x\n", "", "row 2, column 1: label '0' is not -1 or +1"),
    ])
    def test_label_outside_pm1_fails_at_load_with_its_line(self, tmp_path, capsys,
                                                           name, text, options, where):
        """A dataset label other than -1 or +1 is a runtime error (exit 2)
        that names the file and the line or row."""
        (tmp_path / name).write_text(text, newline="")
        cfg = write_config(tmp_path, f"""\
            [problem]
            kind = logistic
            dataset = {name}
            {textwrap.indent(options, " " * 12).lstrip()}

            [run]
            algorithm = sgd
            """)
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {(tmp_path / name).resolve()}: {where}\n"

    @pytest.mark.parametrize("name, text, where", [
        ("test.libsvm", "-1 1:2.0\n1 1:3.0\n0 1:1.0\n", "line 3: label '0' is not -1 or +1"),
        ("test.csv", "1,2.0\n-1,3.0\n0,1.0\n", "row 3, column 1: label '0' is not -1 or +1"),
    ])
    def test_test_set_label_outside_pm1_fails_at_load(self, tmp_path, capsys, name, text,
                                                      where):
        """The test set's labels must be -1 or +1 too: test accuracy
        compares them with the sign of the margin."""
        train = "train.csv" if name.endswith(".csv") else "train.libsvm"
        (tmp_path / train).write_text(
            "1,2.0\n-1,3.0\n" if name.endswith(".csv") else "1 1:2.0\n-1 1:3.0\n")
        (tmp_path / name).write_text(text)
        cfg = write_config(tmp_path, f"""\
            [problem]
            kind = logistic
            dataset = {train}
            test_dataset = {name}

            [run]
            algorithm = sgd
            """)
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {(tmp_path / name).resolve()}: {where}\n"

    @pytest.mark.parametrize("train, test, widths", [
        ("1,2.0,3.0\n-1,3.0,1.0\n", "1,2.0\n-1,3.0\n", "1 != train width 2"),
        ("1,2.0\n-1,3.0\n", "1,2.0,3.0\n-1,3.0,1.0\n", "2 != train width 1"),
    ], ids=["narrower", "wider"])
    def test_csv_test_set_of_another_width_is_a_runtime_error(self, tmp_path, capsys,
                                                               train, test, widths):
        """A CSV test set whose rows are not as wide as the training set's
        is malformed data (exit 2) named by its file, as in libsvm."""
        (tmp_path / "train.csv").write_text(train)
        (tmp_path / "test.csv").write_text(test)
        cfg = write_config(tmp_path, """\
            [problem]
            kind = logistic
            dataset = train.csv
            test_dataset = test.csv

            [run]
            algorithm = sgd
            """)
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: {(tmp_path / 'test.csv').resolve()}: test dataset width {widths}\n")

    def test_non_finite_csv_dataset_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("1.0,2.0\n-1.0,nan\n")
        text = """\
            [problem]
            kind = logistic
            dataset = bad.csv

            [run]
            algorithm = sgd
            """
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg]) == 2
        assert "row 2, column 2: non-finite" in capsys.readouterr().err

    def test_compare_cli(self, tmp_path, capsys):
        svrg = (
            BASE_SGD.replace("algorithm = sgd", "algorithm = svrg")
            .replace("out = run.csv", "out = svrg.csv")
            .replace("[sgd]", "[svrg]")
        )
        c1 = write_config(tmp_path, BASE_SGD, name="sgd.ini")
        c2 = write_config(tmp_path, svrg, name="svrg.ini")
        assert main(["compare", "--config", c1, "--config", c2]) == 0
        table = capsys.readouterr().out
        assert "sgd" in table and "svrg" in table and "final_loss" in table

    def test_gen_data_csv_and_libsvm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_SGD)
        out_csv = str(tmp_path / "gen.csv")
        out_lib = str(tmp_path / "gen.libsvm")
        assert main(["gen-data", "--config", cfg, "--out", out_csv]) == 0
        assert main(["gen-data", "--config", cfg, "--out", out_lib]) == 0
        ds_csv = load_csv(out_csv)
        ds_lib = load_libsvm(out_lib)
        np.testing.assert_array_equal(ds_csv.features, ds_lib.features)
        np.testing.assert_array_equal(ds_csv.labels, ds_lib.labels)
        want = gen_synthetic(SyntheticSpec(n_samples=64, n_features=5, seed=3))
        np.testing.assert_array_equal(ds_csv.features, want.features)

    def test_gen_data_requires_synthetic(self, tmp_path):
        data = tmp_path / "d.libsvm"
        data.write_text("1 1:2.0\n-1 1:3.0\n")
        text = """\
            [problem]
            kind = logistic
            dataset = d.libsvm

            [run]
            algorithm = sgd
            """
        cfg = write_config(tmp_path, text)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


def _load_script(name):
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_diff_outputs():
    return _load_script("diff_outputs")


class TestCountLines:
    MODULE = '''\
        """Module docstring
        on two lines."""

        # a comment
        import os  # code with a comment


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                return """a string

                that is code"""
        '''

    def test_counts_lines_and_code_lines(self, tmp_path, capsys):
        """Blank lines, comment-only lines and docstrings are not code; code
        with a comment is, and so is every line of any other string."""
        script = _load_script("count_lines")
        source = textwrap.dedent(self.MODULE)
        assert script.count(source) == (16, 6)
        (tmp_path / "mod.py").write_text(source)
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not a module\n")
        assert script.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out.split("\n")[1:] == [
            "b.py         1       1",
            "mod.py      16       6",
            "total       17       7",
            "",
        ]

    def test_no_module_exits_1(self, tmp_path, capsys):
        assert _load_script("count_lines").main([str(tmp_path)]) == 1
        assert "no *.py module" in capsys.readouterr().err


class TestDiffOutputs:
    def test_reports_ulps_and_non_numeric_cells(self, tmp_path, capsys):
        diff = _load_diff_outputs()
        cfg = write_config(tmp_path, BASE_SGD)
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["run", "--config", cfg, "--out", str(d / "run.csv")]) == 0
        # identical runs: wall_ms and the output path differ, nothing else
        assert diff.main([str(a), str(b)]) == 0

        # one loss cell one ulp up: a numeric difference within --ulps 1
        with open(b / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("loss")
        rows[2][col] = repr(float(np.nextafter(float(rows[2][col]), np.inf)))
        with open(b / "run.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert diff.main([str(a), str(b)]) == 1
        assert "run.csv  loss  1 cells  max 1 ulp" in capsys.readouterr().out
        assert diff.main([str(a), str(b), "--ulps", "1"]) == 0

        # a manifest key present on one side only is non-numeric
        manifest = json.loads((b / "run.csv.manifest.json").read_text())
        manifest["numeric_env"] = {"numpy": "0"}
        (b / "run.csv.manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert diff.main([str(a), str(b), "--ulps", "1"]) == 1
        out = capsys.readouterr().out
        assert "run.csv.manifest.json  numeric_env.numpy  1 cells  non-numeric" in out

    def test_dataset_path_counts_only_when_the_data_differ(self, tmp_path, capsys):
        """Two checkouts of one run read the same dataset bytes from
        different paths: no difference.  Different bytes: the path and the
        hash both differ."""
        diff = _load_diff_outputs()
        text = """\
            [problem]
            kind = logistic
            dataset = d.libsvm

            [run]
            algorithm = sgd
            out = out/run.csv

            [sgd]
            m = 2
            n_epochs = 1
            """
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            (d / "d.libsvm").write_text("1 1:2.0\n-1 1:3.0\n")
            assert main(["run", "--config", write_config(d, text)]) == 0
        assert diff.main([str(a / "out"), str(b / "out")]) == 0

        (b / "d.libsvm").write_text("1 1:2.0\n-1 1:3.5\n")
        assert main(["run", "--config", str(b / "exp.ini")]) == 0
        capsys.readouterr()
        assert diff.main([str(a / "out"), str(b / "out")]) == 1
        out = capsys.readouterr().out
        assert "run.csv.manifest.json  config.problem.dataset  1 cells  non-numeric" in out
        assert "run.csv.manifest.json  dataset_sha256  1 cells  non-numeric" in out

    TEST_SET_CONFIG = """\
        [problem]
        kind = logistic
        dataset = d.libsvm
        test_dataset = t.libsvm

        [run]
        algorithm = sgd
        out = out/run.csv

        [sgd]
        m = 2
        n_epochs = 1
        """

    def run_with_test_set(self, tmp_path, test_b):
        """One config run in two directories on the same training set, with
        the test set "1 1:2.0\\n-1 1:3.0\\n" in a and `test_b` in b."""
        a, b = tmp_path / "a", tmp_path / "b"
        for d, test in ((a, "1 1:2.0\n-1 1:3.0\n"), (b, test_b)):
            d.mkdir()
            (d / "d.libsvm").write_text("1 1:2.0\n-1 1:3.0\n")
            (d / "t.libsvm").write_text(test)
            assert main(["run", "--config", write_config(d, self.TEST_SET_CONFIG)]) == 0
        return a / "out", b / "out"

    def test_test_set_path_ignored_when_its_bytes_agree(self, tmp_path):
        """Two checkouts of a run with a test set: the test set's path
        differs, its digest does not."""
        a, b = self.run_with_test_set(tmp_path, "1 1:2.0\n-1 1:3.0\n")
        manifests = [json.loads((d / "run.csv.manifest.json").read_text()) for d in (a, b)]
        assert manifests[0]["config"]["problem"]["test_dataset"] != \
            manifests[1]["config"]["problem"]["test_dataset"]
        assert _load_diff_outputs().main([str(a), str(b)]) == 0

    def test_test_set_that_differs_is_reported(self, tmp_path, capsys):
        a, b = self.run_with_test_set(tmp_path, "1 1:2.0\n-1 1:3.5\n")
        capsys.readouterr()
        assert _load_diff_outputs().main([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "run.csv.manifest.json  config.problem.test_dataset  1 cells  non-numeric" in out
        assert "run.csv.manifest.json  test_dataset_sha256  1 cells  non-numeric" in out
        assert "config.problem.dataset " not in out and "  dataset_sha256" not in out


class TestRunConfigs:
    def test_two_runs_of_one_config_diff_clean(self, tmp_path, capsys):
        """Two child runs of one config with this checkout's source, as
        run_configs.py makes them, write the same bits."""
        script = _load_script("run_configs")
        env = script.child_env(Path(__file__).resolve().parents[1] / "src")
        config = script.CONFIG_DIR / "logistic_sgd.ini"
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            script.run_stochopt(env, out, "run", "--config", str(config),
                                "--cadence", "3", "--out", str(out / "logistic_sgd.csv"))
        assert sorted(p.name for p in a.iterdir()) == [
            "logistic_sgd.csv", "logistic_sgd.csv.manifest.json"]
        manifest = json.loads((a / "logistic_sgd.csv.manifest.json").read_text())
        assert manifest["config"]["run"]["cadence"] == 3
        assert manifest["numeric_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert _load_diff_outputs().main([str(a), str(b)]) == 0
        assert "2 file pairs compared, all within 0 ulp" in capsys.readouterr().out

    def test_compare_copies_load_as_their_configs(self, tmp_path):
        """The compare's copy of a config writes where it is told and is
        otherwise the config."""
        script = _load_script("run_configs")
        for stem in script.COMPARE:
            config = script.CONFIG_DIR / f"{stem}.ini"
            copy = script.compare_copy(config, tmp_path / "out" / f"{stem}.csv", tmp_path)
            assert copy.parent == tmp_path
            got, want = load_config(copy), load_config(config)
            assert got.out == str(tmp_path / "out" / f"{stem}.csv")
            got.out = want.out
            assert got == want

    def test_bad_source_exits_1(self, tmp_path, capsys):
        assert _load_script("run_configs").main([str(tmp_path), str(tmp_path / "out")]) == 1
        assert "no stochopt package" in capsys.readouterr().err
