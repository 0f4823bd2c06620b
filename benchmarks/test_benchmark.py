"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stochopt.harness as harness  # noqa: E402
from probe import PER_LAYER, Probe  # noqa: E402
from rep import run_once  # noqa: E402
from run import END_TO_END  # noqa: E402
from stochopt.problems import Dataset, FiniteSumProblem, make_logistic  # noqa: E402
from workloads import WORKLOADS, _write_ini  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _inputs(tmp_path, name, seed=5):
    workload = WORKLOADS[name]
    workload.write_inputs(seed, tmp_path, workload.sizes["tiny"])
    return workload


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _run_cli("--workload", "all", "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    for name in WORKLOADS:
        emitted = {k.split("/", 1)[1]: m for k, m in result["metrics"].items()
                   if k.startswith(name + "/")}
        assert {k: m["unit"] for k, m in emitted.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in emitted.values())
        if not trace:
            assert all(m["value"] > 0 for m in emitted.values()), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_and_final_loss_repeat_exactly(tmp_path, name):
    workload = _inputs(tmp_path, name)
    first = run_once(workload, tmp_path, trace=False)
    second = run_once(workload, tmp_path, trace=True)
    assert first["errors"] == [] and second["errors"] == []
    for key in ("grad_evals", "loss_evals", "final_loss"):
        assert first[key] == second[key], key


def _probe_run(config_path):
    probe = Probe().install()
    try:
        harness.run_experiment(harness.load_config(str(config_path)))
    finally:
        probe.uninstall()
    return probe


def test_varchen_counts_match_closed_form(tmp_path):
    _inputs(tmp_path, "varchen-svm-minibatch")
    z = WORKLOADS["varchen-svm-minibatch"].sizes["tiny"]
    E, N = z["epochs"], z["N"]
    probe = _probe_run(tmp_path / "varchen.ini")
    # per step: g(x), g(anchor), g(x_new), g(anchor) and one batch loss;
    # per epoch: one anchor gradient and one loss; plus the final loss
    assert probe.grad_evals == 5 * E * N
    assert probe.loss_evals == (2 * E + 1) * N


def test_svrg_counts_match_closed_form(tmp_path):
    E, N = 3, 96
    config = _write_ini(tmp_path / "svrg.ini", {
        "problem": {"kind": "logistic", "lam": 0.1},
        "synthetic": {"n_samples": N, "n_features": 4, "seed": 2},
        "run": {"algorithm": "svrg", "seed": 1, "out": "svrg.csv"},
        "svrg": {"alpha": 0.05, "m": 16, "n_epochs": E},
    })
    probe = _probe_run(config)
    assert probe.grad_evals == 3 * E * N
    assert probe.loss_evals == (2 * E + 1) * N


def test_uninstall_restores_every_name():
    before = dict(vars(FiniteSumProblem))
    entry = harness.aras_run
    probe = Probe(trace=True).install()
    assert harness.aras_run is not entry
    probe.uninstall()
    assert harness.aras_run is entry
    assert dict(vars(FiniteSumProblem)) == before


def test_tracer_raises_on_a_missing_wrapped_name(monkeypatch):
    import stochopt.aras

    monkeypatch.delattr(stochopt.aras, "transient_step")
    entry = harness.aras_run
    with pytest.raises(LookupError, match="stochopt.aras:transient_step"):
        Probe(trace=True).install()
    assert harness.aras_run is entry  # a failed install patches nothing


def _tiny_problem():
    gen = np.random.default_rng(0)
    X = gen.standard_normal((10, 3))
    return make_logistic(Dataset(X, np.where(X[:, 0] > 0, 1.0, -1.0)), lam=0.1)


def test_a_new_fused_method_counts_toward_both(monkeypatch):
    def loss_and_grad(self, batch, x):
        return self.batch_loss(batch, x), self.batch_grad(batch, x)

    monkeypatch.setattr(FiniteSumProblem, "loss_and_grad", loss_and_grad, raising=False)
    problem = _tiny_problem()
    probe = Probe().install()
    try:
        probe._tl().algo_depth = 1  # as inside an algorithm entry
        problem.loss_and_grad([1, 4, 7], np.zeros(3))
        problem.full_grad(np.zeros(3))
    finally:
        probe.uninstall()
    assert probe.grad_evals == 3 + 10
    assert probe.loss_evals == 3


def test_a_call_with_unknown_rows_fails_loudly(monkeypatch):
    monkeypatch.setattr(FiniteSumProblem, "grad_somewhere", lambda self, x: x, raising=False)
    problem = _tiny_problem()
    probe = Probe().install()
    try:
        with pytest.raises(RuntimeError, match="cannot determine the rows"):
            problem.grad_somewhere(np.zeros(3))
    finally:
        probe.uninstall()


def test_problem_calls_outside_algorithms_are_not_counted():
    problem = _tiny_problem()
    probe = Probe().install()
    try:
        problem.full_grad(np.zeros(3))
    finally:
        probe.uninstall()
    assert probe.grad_evals == 0 and probe.loss_evals == 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli("--workload", "varchen-svm-minibatch", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
