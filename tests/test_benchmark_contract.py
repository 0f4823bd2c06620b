"""The names benchmarks/probe.py patches on stochopt, and what it reads from
a run, stay in place: install and uninstall leave the package as it was,
an entry the probe records holds a trace of StepRecords with iterates on
the report's rows and empty ones elsewhere, the ARAS spans and row counts
follow the stationary step's one fused pass, the probe can read the rows
of every problem method it counts, no problem kind hides an oracle method
from its wrappers, and every algorithm entry returns a RunResult with what
the benchmark reads of it."""

import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import stochopt.aras
import stochopt.baselines
import stochopt.harness
import stochopt.lbfgs_core
import stochopt.regularization
import stochopt.sampling
import stochopt.varchen
from stochopt.problems import (
    Dataset, FiniteSumProblem, LinearModelProblem, QuadraticProblem, make_logistic,
    make_noisy_quadratic)
from stochopt.record import RunResult, StepRecord

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
    # at cadence 0 the report reads x on the last step of each of the 2
    # epochs, and the run keeps it there only
    rows = stochopt.harness.read_metrics_csv(tmp_path / "svrg.csv")
    assert [row.iteration for row in rows] == [4, 8]
    for rec in entry.result.trace:
        assert isinstance(rec, StepRecord) and isinstance(rec.x, np.ndarray)
        assert rec.x.shape == ((3,) if rec.k in (4, 8) else (0,))
    metrics = probe.layer_metrics(rows[-1].samples)
    assert metrics["harness.trace_bytes"] == 2 * 3 * 8
    assert metrics["baselines.svrg_run.steps"] == 8


def test_aras_under_probe_one_variance_call_per_stationary_step(probe_module, tmp_path):
    config = tmp_path / "aras.ini"
    config.write_text(textwrap.dedent("""\
        [problem]
        kind = logistic
        lam = 0.01

        [synthetic]
        n_samples = 40
        n_features = 4
        seed = 0

        [run]
        algorithm = aras
        seed = 3
        out = aras.csv

        [aras]
        sigma0 = 2.0
        m0 = 4
        m_max = 8
        burn_in = 1
        n_epochs = 6
        """))
    probe = probe_module.Probe(trace=True).install()
    try:
        stochopt.harness.run_experiment(stochopt.harness.load_config(config))
    finally:
        probe.uninstall()

    (entry,) = probe.entries
    trace = entry.result.trace
    transient = sum(rec.m_used for rec in trace if rec.phase == "transient")
    stationary = [rec for rec in trace if rec.phase == "stationary"]
    assert entry.result.triggered and stationary
    metrics = probe.layer_metrics(0)
    assert metrics["aras.stationary_step.calls"] == len(stationary)
    assert metrics["sampling.sample_variance_l1.calls"] == len(stationary)
    # some norm tests failed, so some stationary batches were re-drawn
    assert 0 < metrics["problems.batch_grad.calls"] < len(stationary)
    # each row is counted once, as a gradient row: two fused loss-and-gradient
    # passes per transient step, one fused gradient-and-variance pass per
    # stationary step, and the re-drawn batch after a failed norm test
    assert probe.loss_evals == 2 * transient
    assert probe.grad_evals == (2 * transient + sum(rec.m_used for rec in stationary)
                                + metrics["sampling.discarded_rows"])


def test_probe_reads_the_rows_of_every_counted_problem_method(probe_module):
    """Every public FiniteSumProblem method the probe counts (its name holds
    'grad' or 'loss') must let the probe read the rows of a call."""
    from stochopt import Dataset, make_logistic

    gen = np.random.default_rng(0)
    prob = make_logistic(Dataset(features=gen.standard_normal((5, 2)),
                                 labels=np.array([1.0, -1.0, 1.0, 1.0, -1.0])), lam=0.1)
    values = {"batch": [0, 2, 3], "i": 1, "x": np.zeros(2), "xs": [np.zeros(2)], "grad": True}
    counted = [name for name, fn in vars(FiniteSumProblem).items()
               if not name.startswith("_") and callable(fn)
               and ("grad" in name or "loss" in name)]
    assert "grad_variance_l1" in counted and "batch_grad" in counted
    for name in counted:
        fn = vars(FiniteSumProblem)[name]
        params = list(inspect.signature(fn).parameters)[1:]
        assert set(params) <= set(values), (name, params)
        args = [values[p] for p in params]
        rows = probe_module._selector(name, fn)(prob, args, {})
        if name.startswith("full_"):
            assert rows is None, name
        else:
            expected = values["batch"] if "batch" in params else [values["i"]]
            assert list(rows) == expected, name


ORACLE_METHODS = {"batch_loss", "batch_grad", "loss_and_grad", "full_grad", "full_loss",
                  "full_losses", "grad_variance_l1"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_problem_kind_hides_an_oracle_method_from_the_probe():
    """The probe wraps the public methods in vars(FiniteSumProblem) only: a
    subclass that redefined one would run unwrapped, and its calls would
    silently drop out of grad_evals and loss_evals, and a public grad or
    loss method of a subclass alone would never be counted."""
    public = {name for name, fn in vars(FiniteSumProblem).items()
              if not name.startswith("_") and inspect.isfunction(fn)}
    assert public == ORACLE_METHODS
    kinds = list(_subclasses(FiniteSumProblem))
    assert {LinearModelProblem, QuadraticProblem} <= set(kinds)
    for kind in kinds:
        for name in vars(kind):
            if not name.startswith("_"):
                assert name not in public, (kind.__name__, name)
                assert "grad" not in name and "loss" not in name, (kind.__name__, name)


def _csr_logistic(N=40, n=6):
    gen = np.random.default_rng(5)
    X = sp.random(N, n, density=0.4, format="csr", random_state=gen)
    y = np.where(gen.random(N) < 0.5, -1.0, 1.0)
    return make_logistic(Dataset(features=X, labels=y), lam=0.01)


def _noisy_quadratic(N=40, n=6):
    gen = np.random.default_rng(6)
    return make_noisy_quadratic(np.diag(gen.uniform(1.0, 2.0, n)), gen.standard_normal((N, n)))


@pytest.mark.parametrize("build", [_noisy_quadratic, _csr_logistic],
                         ids=["noisy-quadratic", "csr-logistic"])
def test_probe_counts_sgd_rows_on_every_kind(probe_module, build):
    """SGD asks for one batch gradient per chunk, so 2 epochs read 2N
    gradient rows and no loss row, on a quadratic as on a linear model."""
    from stochopt import BaselineParams

    prob = build()
    assert sp.issparse(prob.dataset.features) if prob.kind == "logistic" else prob.dataset is None
    probe = probe_module.Probe().install()
    try:
        res = stochopt.harness.sgd_run(prob, BaselineParams(alpha=0.05, m=8, n_epochs=2), seed=1)
    finally:
        probe.uninstall()
    assert res.iterations == 2 * prob.N // 8
    assert probe.grad_evals == 2 * prob.N and probe.loss_evals == 0


def test_every_entry_returns_a_run_result_the_benchmark_can_read(probe_module, monkeypatch):
    """The six entries, called through the probe's wrappers, return a
    RunResult with every attribute benchmarks/workloads.py and probe.py
    read, and the ARIG and ARAS facts a RunResult reads from its trace agree
    with a count made apart from it: sigma from every update_sigma call, the
    trigger from where the phase column turns stationary."""
    from stochopt import (ArasParams, BaselineParams, Dataset, MomentumParams, RegParams,
                          VarchenParams, make_logistic)

    gen = np.random.default_rng(0)
    X = gen.standard_normal((40, 4))
    y = np.where(X @ np.ones(4) + 0.5 * gen.standard_normal(40) >= 0, 1.0, -1.0)
    prob = make_logistic(Dataset(features=X, labels=y), lam=0.01)
    arig_params = RegParams(eps=1e-6, sigma0=0.05, sigma_min=0.01)
    sigmas = [arig_params.sigma0]

    def update_sigma(*args):
        sigmas.append(original(*args))
        return sigmas[-1]

    original = stochopt.regularization.update_sigma
    monkeypatch.setattr(stochopt.regularization, "update_sigma", update_sigma)
    baseline = BaselineParams(alpha=0.5, m=8, n_epochs=2)
    momentum = MomentumParams(alpha=0.5, momentum=0.5, m=8, n_epochs=2)
    calls = {
        "arig": lambda: stochopt.harness.arig_run(prob, arig_params, seed=1),
        "aras": lambda: stochopt.harness.aras_run(
            prob, ArasParams(sigma0=2.0, m0=4, m_max=8, burn_in=1, n_epochs=6), seed=3),
        "varchen": lambda: stochopt.harness.varchen_run(
            prob, VarchenParams(p=3, m=8, step_c=0.5, n_epochs=2), seed=2),
        "sgd": lambda: stochopt.harness.sgd_run(prob, baseline, seed=4),
        "sgd-momentum": lambda: stochopt.harness.sgd_momentum_run(prob, momentum, seed=5),
        "svrg": lambda: stochopt.harness.svrg_run(prob, baseline, seed=6),
    }
    probe = probe_module.Probe().install()
    try:
        for call in calls.values():
            call()
    finally:
        probe.uninstall()

    results = {entry.algorithm: entry.result for entry in probe.entries}
    assert list(results) == list(calls)
    for algorithm, res in results.items():
        assert type(res) is RunResult, algorithm
        assert isinstance(res.x, np.ndarray) and res.x.shape == (4,)
        assert res.iterations == len(res.trace) > 0
        for rec in res.trace:
            assert isinstance(rec, StepRecord) and rec.x.shape == (4,)
        assert res.aborted is False and res.abort_reason is None
        assert res.terminated is (algorithm == "arig")
        assert res.triggered is (algorithm == "aras")
        assert (res.trigger_k is None) is (algorithm != "aras")

    arig = results["arig"]
    accepted = sum(1 for rec in arig.trace if rec.accepted is True)
    assert 0 < accepted < arig.iterations
    assert arig.n_success == accepted and arig.n_reject == arig.iterations - accepted
    assert arig.sigma_final == sigmas[-1]
    assert arig.sigma_max_observed == max(sigmas) > max(sigmas[0], sigmas[-1])

    aras = results["aras"]
    phases = [rec.phase for rec in aras.trace]
    first = phases.index("stationary")
    assert 0 < first and set(phases[first:]) == {"stationary"}
    assert aras.trigger_k == aras.trace[first - 1].k
    assert aras.sigma_trigger == aras.trace[first].sigma
