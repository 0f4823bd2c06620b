"""Acceptance suite: one test per release criterion.

Each test performs its full check, records a one-line PASS/FAIL summary
(printed in the terminal summary section), and then asserts.  Tolerances,
instance counts, and runtime limits are stated inline.
"""

import csv
import json
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from oracles import (
    dense_inverse_hessian,
    dense_pair_update,
    enumerate_batches,
    fd_gradient,
)
from stochopt.aras import ArasParams, aras_run
from stochopt.baselines import (
    BaselineParams,
    MomentumParams,
    sgd_momentum_run,
    sgd_run,
    svrg_run,
)
from stochopt.harness import (
    METRICS_COLUMNS,
    SyntheticSpec,
    gen_synthetic,
    load_config,
    run_experiment,
)
from stochopt.lbfgs_core import (
    LBFGSMemory,
    hessian_bounds,
    pair_update_eigen_bounds,
    push_pair,
    two_loop_apply,
)
from stochopt.problems import (
    Dataset,
    make_logistic,
    make_noisy_quadratic,
    make_quadratic,
    make_sigmoid_svm,
)
from stochopt.regularization import (
    RegParams,
    arig_run,
    complexity_budget,
    sigma_max_bound,
)
from stochopt.sampling import adaptive_batch_size, norm_test
from stochopt.varchen import AnchorState, VarchenParams, svrg_gradient, varchen_run


def _record(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"[{num:2d}] {status}  {name:<36} {detail}")


def _random_spd_problem(gen, n, lo=0.5, hi=10.0):
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    A = q @ np.diag(gen.uniform(lo, hi, size=n)) @ q.T
    return make_quadratic(0.5 * (A + A.T), gen.standard_normal(n))


def _random_memory(gen, n, n_pairs, p):
    mem = LBFGSMemory(p=p)
    for _ in range(n_pairs):
        push_pair(mem, gen.standard_normal(n), gen.standard_normal(n))
    return mem


def test_criterion_01_gradient_correctness():
    gen = np.random.default_rng(101)
    ds = gen_synthetic(SyntheticSpec(n_samples=60, n_features=8, noise=0.3, seed=1))
    gq = np.random.default_rng(102)
    q, _ = np.linalg.qr(gq.standard_normal((8, 8)))
    A = q @ np.diag(gq.uniform(0.5, 5.0, size=8)) @ q.T
    problems = {
        "logistic": make_logistic(ds, lam=0.05),
        "sigmoid-svm": make_sigmoid_svm(ds, lam=0.05),
        "quadratic": make_quadratic(0.5 * (A + A.T), gq.standard_normal(8)),
        "noisy-quadratic": make_noisy_quadratic(
            np.diag(gq.uniform(0.5, 3.0, size=6)), gq.standard_normal((20, 6))
        ),
    }
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for prob in problems.values():
        for _ in range(100):
            i = int(gen.integers(prob.N))
            x = gen.standard_normal(prob.n)
            idx = np.array([i])
            analytic = prob.batch_grad(idx, x)
            fd = fd_gradient(lambda z: prob.batch_loss(idx, z), x)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)
            worst = max(worst, rel)
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _record(1, "analytic vs central-FD gradients", ok,
            f"max rel err {worst:.2e} <= 1e-6, {checks} checks/4 kinds, {elapsed:.2f}s < 5s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_two_loop_matches_dense():
    gen = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(1, 9))
        mem = _random_memory(gen, n, int(gen.integers(1, 6)), p=5)
        g = gen.standard_normal(n)
        d_fast = two_loop_apply(mem, g)
        d_dense = -dense_inverse_hessian(mem) @ g
        rel = np.linalg.norm(d_fast - d_dense) / max(np.linalg.norm(d_dense), 1e-30)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _record(2, "two-loop equals dense reconstruction", ok,
            f"max rel err {worst:.2e} <= 1e-10, 200 memories, {elapsed:.2f}s < 5s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_pair_update_eigenvalue_bounds():
    gen = np.random.default_rng(303)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        n = int(gen.integers(2, 9))
        s = gen.standard_normal(n)
        y = gen.standard_normal(n)
        if s @ y <= 0:
            y = -y
        if s @ y <= 0:  # orthogonal draw: perturb toward s
            y = y + s
        mu = float(10.0 ** gen.uniform(-2, 2))
        gamma = (s @ y) / (s @ s)  # tightest admissible curvature ratio
        L_y = np.linalg.norm(y) / np.linalg.norm(s)
        lower, upper = pair_update_eigen_bounds(mu, gamma, L_y)
        eigs = np.linalg.eigvalsh(dense_pair_update(mu, s, y))
        guard = 1e-10 * max(1.0, float(np.abs(eigs).max()))
        if eigs.min() < lower - guard or eigs.max() > upper + guard:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _record(3, "rank-one update eigenvalue bounds", ok,
            f"{violations} violations / 1000 instances, {elapsed:.2f}s < 10s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_04_recursive_bounds_contain_dense_spectrum():
    gen = np.random.default_rng(404)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        n = int(gen.integers(1, 7))
        mem = _random_memory(gen, n, int(gen.integers(1, 5)), p=4)
        lam, Lam = hessian_bounds(mem, mem.L_g_est())
        eigs = np.linalg.eigvalsh(dense_inverse_hessian(mem))
        guard = 1e-10 * max(1.0, float(np.abs(eigs).max()))
        if eigs.min() < lam - guard or eigs.max() > Lam + guard:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _record(4, "recursive spectrum bounds on memories", ok,
            f"{violations} violations / 200 memories, {elapsed:.2f}s < 10s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_05_curvature_floor_on_every_push():
    gen = np.random.default_rng(505)
    mem = LBFGSMemory(p=3)
    violations = 0
    pushes = 0
    for _ in range(10_000):
        s = gen.standard_normal(6)
        y = gen.standard_normal(6)
        if push_pair(mem, s, y):
            pushes += 1
            pair = mem.pairs[-1]
            floor = mem.eta * pair.gamma_tilde * (pair.s @ pair.s)
            if pair.s @ pair.y_hat < floor * (1.0 - 1e-9):
                violations += 1
    ok = violations == 0 and pushes == 10_000
    _record(5, "damped curvature condition on pushes", ok,
            f"{violations} violations / {pushes} pushes")
    assert pushes == 10_000
    assert violations == 0


ARIG_INSTANCES = 10


def _arig_instances():
    gen = np.random.default_rng(2024)
    out = []
    for _ in range(ARIG_INSTANCES):
        n = int(gen.integers(2, 21))
        prob = _random_spd_problem(gen, n)
        out.append((prob, gen.standard_normal(n)))
    return out


def test_criterion_06_arig_iterations_within_theory():
    params = RegParams(eps=1e-6)
    t0 = time.perf_counter()
    violations = 0
    worst_ratio = 0.0
    for prob, x0 in _arig_instances():
        res = arig_run(prob, params, x0=x0)
        f0 = float(prob.full_loss(x0))
        max_succ, max_total = complexity_budget(f0, prob.f_low(), params.eps, params, prob.L)
        smax = sigma_max_bound(prob.L, params)
        good = (
            res.terminated
            and res.iterations <= max_total
            and res.n_success <= max_succ
            and res.sigma_max_observed <= smax
        )
        violations += not good
        worst_ratio = max(worst_ratio, res.sigma_max_observed / smax)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _record(6, "iteration/sigma caps vs theory", ok,
            f"{violations} violations / {ARIG_INSTANCES} quadratics, "
            f"max sigma ratio {worst_ratio:.2f}, {elapsed:.2f}s < 10s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_07_arig_adversarial_gradient_termination():
    params = RegParams(mode="inexact-g", eps=1e-6)
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for i, (prob, x0) in enumerate(_arig_instances()):
        res = arig_run(prob, params, seed=i, x0=x0)
        gnorm = float(np.linalg.norm(prob.full_grad(res.x)))
        worst = max(worst, gnorm)
        violations += not (res.terminated and gnorm <= params.eps)
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _record(7, "termination under adversarial noise", ok,
            f"{violations} violations / {ARIG_INSTANCES} runs, "
            f"max exact grad norm {worst:.2e} <= 1e-06, {elapsed:.2f}s")
    assert violations == 0


def test_criterion_08_batch_size_closes_norm_test():
    gen = np.random.default_rng(808)
    m_max = 10**12  # large enough that the cap never binds on these draws
    violations = 0
    fired = 0
    for _ in range(10_000):
        sigma = float(10.0 ** gen.uniform(-1, 1))
        var_l1 = float(10.0 ** gen.uniform(-3, 3))
        gnorm_sq = float(10.0 ** gen.uniform(-3, 3))
        m = adaptive_batch_size(sigma, var_l1, gnorm_sq, m_max)
        if m < m_max:
            fired += 1
            if not norm_test(var_l1, m, sigma, gnorm_sq):
                violations += 1
    ok = violations == 0 and fired == 10_000
    _record(8, "adaptive batch size closes norm test", ok,
            f"{violations} violations / {fired} fired triples")
    assert fired == 10_000
    assert violations == 0


def test_criterion_09_noise_diagnostic_triggers():
    prob = make_noisy_quadratic(
        np.array([[1.0]]), np.array([[1.0], [-1.0], [2.0], [-2.0]])
    )
    params = ArasParams(m0=1, m_max=4, burn_in=20, n_epochs=60)
    limit = 10 * params.burn_in
    t0 = time.perf_counter()
    hits = 0
    latest = 0
    for seed in range(100):
        res = aras_run(prob, params, seed=seed)
        if res.trigger_k is not None and res.trigger_k <= limit:
            hits += 1
            latest = max(latest, res.trigger_k)
    elapsed = time.perf_counter() - t0
    ok = hits >= 99 and elapsed < 30.0
    _record(9, "noise-phase diagnostic trigger rate", ok,
            f"{hits}/100 seeds within {limit} iters (latest {latest}), "
            f"{elapsed:.2f}s < 30s")
    assert hits >= 99
    assert elapsed < 30.0


def test_criterion_10_variance_reduced_gradient_unbiased():
    gen = np.random.default_rng(1010)
    ds = Dataset(features=gen.standard_normal((4, 3)),
                 labels=np.array([1.0, -1.0, 1.0, -1.0]))
    prob = make_logistic(ds, lam=0.1)
    x_anchor = gen.standard_normal(3)
    anchor = AnchorState(x_anchor=x_anchor, full_grad_anchor=prob.full_grad(x_anchor))
    x = gen.standard_normal(3)
    full = prob.full_grad(x)
    worst = 0.0
    for m in (1, 2, 3, 4):
        batches = list(enumerate_batches(4, m))
        mean = np.mean([svrg_gradient(prob, b, x, anchor) for b in batches], axis=0)
        rel = np.linalg.norm(mean - full) / np.linalg.norm(full)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _record(10, "variance-reduced gradient unbiased", ok,
            f"max rel err {worst:.2e} <= 1e-12 over all batches, m in 1..4")
    assert worst <= 1e-12


def test_criterion_11_adaptive_run_beats_tuned_constant_step():
    ds = gen_synthetic(SyntheticSpec(n_samples=2000, n_features=50, noise=0.5, seed=0))
    prob = make_logistic(ds, lam=0.1)
    aras_params = ArasParams(sigma0=30.0, m0=32, m_max=1024, burn_in=50, n_epochs=10)
    t0 = time.perf_counter()
    wins = 0
    margins = []
    for seed in range(5):
        best_sgd = np.inf
        for alpha in (0.01, 0.1, 1.0):
            with np.errstate(over="ignore", invalid="ignore"):
                r = sgd_run(prob, BaselineParams(alpha=alpha, m=32, n_epochs=10), seed=seed)
            loss = np.inf if r.aborted else float(prob.full_loss(r.x))
            best_sgd = min(best_sgd, loss)
        res = aras_run(prob, aras_params, seed=seed)
        loss = float(prob.full_loss(res.x))
        wins += loss <= best_sgd
        margins.append(best_sgd - loss)
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 60.0
    _record(11, "adaptive sampling vs tuned SGD", ok,
            f"{wins}/5 seeds at equal budget (min margin {min(margins):+.1e}), "
            f"{elapsed:.1f}s < 60s")
    assert wins >= 4
    assert elapsed < 60.0


def test_criterion_12_eigenvalue_control_on_ill_conditioned_problem():
    ds = gen_synthetic(
        SyntheticSpec(n_samples=1000, n_features=50, kappa=1e3,
                      label_model="sigmoid-svm-planted", seed=0)
    )
    prob = make_sigmoid_svm(ds, lam=1e-3)
    lam_max = 1e5
    t0 = time.perf_counter()
    controlled_violations = 0
    exceed_seeds = 0
    win_seeds = 0
    worst_controlled = 0.0
    for seed in range(5):
        ctrl = varchen_run(
            prob,
            VarchenParams(p=10, m=64, step_c=0.1, n_epochs=20),
            seed=seed,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            off = varchen_run(
                prob,
                VarchenParams(
                    p=10, m=64, step_c=0.1, n_epochs=20,
                    lam_min=0.0, lam_max=float("inf"),
                ),
                seed=seed,
            )
        ctrl_max = max(rec.Lam for rec in ctrl.trace)
        worst_controlled = max(worst_controlled, ctrl_max)
        controlled_violations += sum(rec.Lam > lam_max for rec in ctrl.trace)
        off_max = max(rec.Lam for rec in off.trace)
        exceed_seeds += off_max > lam_max
        ctrl_loss = np.inf if ctrl.aborted else float(prob.full_loss(ctrl.x))
        off_loss = np.inf if off.aborted else float(prob.full_loss(off.x))
        win_seeds += ctrl_loss <= off_loss
    elapsed = time.perf_counter() - t0
    ok = (
        controlled_violations == 0
        and exceed_seeds >= 3
        and win_seeds >= 3
        and elapsed < 120.0
    )
    _record(12, "spectrum control on kappa=1e3 problem", ok,
            f"controlled max {worst_controlled:.2e} <= 1e5 ({controlled_violations} "
            f"violations), disabled exceeds in {exceed_seeds}/5, "
            f"loss wins {win_seeds}/5, {elapsed:.1f}s < 120s")
    assert controlled_violations == 0
    assert exceed_seeds >= 3
    assert win_seeds >= 3
    assert elapsed < 120.0


def test_criterion_13_reduction_identities_bitwise():
    ds = gen_synthetic(SyntheticSpec(n_samples=30, n_features=4, noise=0.4, seed=6))
    prob = make_logistic(ds, lam=0.1)
    mismatches = 0

    mom = sgd_momentum_run(
        prob, MomentumParams(alpha=0.05, momentum=0.0, m=7, n_epochs=3), seed=11
    )
    plain = sgd_run(prob, BaselineParams(alpha=0.05, m=7, n_epochs=3), seed=11)
    mismatches += len(mom.trace) != len(plain.trace)
    mismatches += sum(
        not np.array_equal(a.x, b.x) for a, b in zip(mom.trace, plain.trace)
    )
    mismatches += not np.array_equal(mom.x, plain.x)
    mismatches += prob.full_loss(mom.x) != prob.full_loss(plain.x)

    svrg = svrg_run(prob, BaselineParams(alpha=0.05, m=7, n_epochs=3), seed=11)
    ref = varchen_run(
        prob,
        VarchenParams(p=0, m=7, step_c=0.05, n_epochs=3),
        seed=11,
    )
    mismatches += len(svrg.trace) != len(ref.trace)
    mismatches += sum(
        not np.array_equal(a.x, b.x) for a, b in zip(svrg.trace, ref.trace)
    )
    mismatches += not np.array_equal(svrg.x, ref.x)
    mismatches += prob.full_loss(svrg.x) != prob.full_loss(ref.x)

    ok = mismatches == 0
    _record(13, "reduction identities bit-identical", ok,
            f"{mismatches} mismatching records across both identities")
    assert mismatches == 0


RERUN_CONFIGS = {
    "aras": """\
        [problem]
        kind = logistic
        lam = 0.05

        [synthetic]
        n_samples = 40
        n_features = 4
        noise = 0.4
        seed = 2

        [run]
        algorithm = aras
        seed = 3
        out = {out}
        cadence = 1

        [aras]
        m0 = 4
        m_max = 32
        burn_in = 5
        n_epochs = 3
        """,
    "varchen": """\
        [problem]
        kind = sigmoid-svm
        lam = 0.01

        [synthetic]
        n_samples = 40
        n_features = 4
        seed = 2

        [run]
        algorithm = varchen
        seed = 3
        out = {out}
        cadence = 1

        [varchen]
        p = 4
        m = 8
        n_epochs = 3
        step_c = 0.05
        """,
}


def _rows_without_wall(path):
    wall = METRICS_COLUMNS.index("wall_ms")
    with open(path, newline="") as fh:
        return [row[:wall] + row[wall + 1 :] for row in csv.reader(fh)]


def test_criterion_14_reruns_reproduce_metrics(tmp_path):
    mismatches = 0
    for algo, template in RERUN_CONFIGS.items():
        outs = []
        for attempt in (1, 2):
            name = f"{algo}{attempt}"
            cfg_path = tmp_path / f"{name}.ini"
            cfg_path.write_text(
                textwrap.dedent(template.format(out=f"{name}.csv")), encoding="utf-8"
            )
            outs.append(run_experiment(load_config(cfg_path)))
        mismatches += _rows_without_wall(outs[0]) != _rows_without_wall(outs[1])
        m1 = json.loads(Path(outs[0] + ".manifest.json").read_text())
        m2 = json.loads(Path(outs[1] + ".manifest.json").read_text())
        m1["config"]["run"].pop("out")
        m2["config"]["run"].pop("out")
        mismatches += m1 != m2
    ok = mismatches == 0
    _record(14, "rerun metrics byte-identical", ok,
            f"{mismatches} mismatches over {len(RERUN_CONFIGS)} configs x 2 runs "
            "(wall-clock column excluded)")
    assert mismatches == 0
