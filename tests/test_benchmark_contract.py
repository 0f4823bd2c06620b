"""The names benchmarks/probe.py patches on stochopt, and what it reads from
a run, stay in place: install and uninstall leave the package as it was,
and an entry the probe records holds a trace of StepRecords with iterates."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import stochopt.aras
import stochopt.baselines
import stochopt.harness
import stochopt.lbfgs_core
import stochopt.regularization
import stochopt.sampling
import stochopt.varchen
from stochopt.problems import FiniteSumProblem
from stochopt.record import StepRecord

PROBE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "probe.py"

# every namespace the probe patches
OWNERS = (
    stochopt.aras, stochopt.baselines, stochopt.harness, stochopt.lbfgs_core,
    stochopt.regularization, stochopt.sampling, stochopt.varchen,
    FiniteSumProblem, stochopt.sampling.SamplerState,
)


@pytest.fixture
def probe_module():
    spec = importlib.util.spec_from_file_location("benchmark_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def assert_unchanged(before):
    for owner, names in zip(OWNERS, before):
        now = vars(owner)
        assert set(now) == set(names), owner
        for name, value in names.items():
            assert now[name] is value, (owner, name)


def test_install_patches_contract_names_and_uninstall_restores(probe_module):
    before = snapshot()
    probe = probe_module.Probe(trace=True).install()
    try:
        patched = [
            (stochopt.harness, name) for name in (
                "arig_run", "aras_run", "varchen_run", "sgd_run",
                "sgd_momentum_run", "svrg_run", "_trace_to_metrics",
            )
        ] + [
            (stochopt.baselines, "varchen_run"),
            (stochopt.aras, "sample_variance_l1"),
            (stochopt.varchen, "svrg_gradient"),
        ]
        for owner, name in patched:
            assert vars(owner)[name] is not before[OWNERS.index(owner)][name], name
    finally:
        probe.uninstall()
    assert_unchanged(before)


def test_run_under_probe_records_step_records(probe_module, tmp_path):
    config = tmp_path / "svrg.ini"
    config.write_text(textwrap.dedent("""\
        [problem]
        kind = logistic
        lam = 0.1

        [synthetic]
        n_samples = 30
        n_features = 3
        seed = 4

        [run]
        algorithm = svrg
        out = svrg.csv

        [svrg]
        m = 8
        n_epochs = 2
        """))
    before = snapshot()
    probe = probe_module.Probe(trace=True).install()
    try:
        stochopt.harness.run_experiment(stochopt.harness.load_config(config))
    finally:
        probe.uninstall()
    assert_unchanged(before)

    (entry,) = probe.entries
    assert entry.algorithm == "svrg"
    assert entry.result.iterations == len(entry.result.trace) == 8
    for rec in entry.result.trace:
        assert isinstance(rec, StepRecord)
        assert isinstance(rec.x, np.ndarray) and rec.x.shape == (3,)
    rows = stochopt.harness.read_metrics_csv(tmp_path / "svrg.csv")
    metrics = probe.layer_metrics(rows[-1].samples)
    assert metrics["harness.trace_bytes"] == 8 * 3 * 8
    assert metrics["baselines.svrg_run.steps"] == 8
