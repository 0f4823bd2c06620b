"""stochopt benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed, then runs repetitions one at a
time, each in a fresh child process (benchmarks/rep.py) with BLAS pinned to
one thread, for about S seconds after one untimed warm-up repetition.  Every
repetition checks its outputs; a failed check or a crash counts as a failed
operation and gives no timing.  ``--workload all`` runs every workload in
turn.

Prints a table of every metric with its unit, a JSON line holding the
environment, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` repetitions alternate untraced and traced,
and the metrics are the per-layer ones (medians over the traced
repetitions) plus ``trace_overhead_s``.  Per-repetition values, the
environment and (traced) every span of the last traced repetition are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "optimizer_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "grad_evals": "count",
    "loss_evals": "count",
    "final_loss": "objective",
}
# program outputs that must repeat exactly across repetitions of one seed
EXACT = ("grad_evals", "loss_evals", "final_loss")
BLAS_THREADS = 1
STOCHOPT_THREADS = 2
# a run, inputs and warm-up included, must end within 180 s
RUN_DEADLINE_S = 170.0


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "stochopt").glob("*.py")))
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "stochopt_threads": STOCHOPT_THREADS,
        "git_commit": commit,
        "src_stochopt_lines": src_lines,
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["STOCHOPT_THREADS"] = str(STOCHOPT_THREADS)
    return env


def run_rep(name: str, workdir: Path, trace: bool, timeout: float,
            spans_out: Path | None) -> dict:
    """One repetition in a fresh child; returns its measurements, or a dict
    with 'errors' when it crashed or its checks failed."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", name,
           "--workdir", str(workdir), "--trace", str(int(trace))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"errors": [f"repetition exceeded {timeout:.0f} s"], "timed_out": True}
    if proc.returncode != 0:
        return {"errors": [f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, size: str, env: dict) -> dict:
    """Run one workload for `seconds`; return the result object."""
    workload = WORKLOADS[name]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans_out = out_dir / f"spans-{name}.csv" if trace else None
    reps = []
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        workload.write_inputs(seed, workdir, workload.sizes[size])
        # the first repetition is checked but not timed: it warms the page
        # cache and the CPU, and was the slowest of a run in trial runs
        warmup = run_rep(name, workdir, False, deadline - time.monotonic(), None)
        warmup.update(traced=False, warmup=True)
        reps.append(warmup)
        t_begin = time.monotonic()
        last_wall = 0.0
        while not warmup.get("timed_out"):
            elapsed = time.monotonic() - t_begin
            measured = len(reps) - 1
            # start a repetition only if it should end within the budget
            if measured >= (2 if trace else 1) and elapsed + 0.5 * last_wall >= seconds:
                break
            traced = trace and measured % 2 == 1
            t_rep = time.monotonic()
            rep = run_rep(name, workdir, traced, deadline - t_rep, spans_out if traced else None)
            last_wall = time.monotonic() - t_rep
            rep.update(traced=traced, warmup=False)
            reps.append(rep)
            if rep.get("timed_out"):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [r for r in reps if not r["errors"]]
    if ok:
        for rep in ok[1:]:
            differs = [k for k in EXACT if rep[k] != ok[0][k]]
            if differs:
                rep["errors"].append(f"{differs} differ from the first repetition")
    for i, rep in enumerate(reps):
        for err in rep["errors"]:
            print(f"{name} seed {seed} repetition {i}: {err}", file=sys.stderr)
    ok = [r for r in reps if not r["errors"]]
    plain = [r for r in ok if not r["traced"] and not r["warmup"]]
    traced_reps = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced_reps):
        raise RuntimeError(f"{name}: no repetition succeeded")

    if trace:
        metrics = {key: statistics.median(r["layers"][key] for r in traced_reps)
                   for key in PER_LAYER if key != "trace_overhead_s"}
        metrics["trace_overhead_s"] = (statistics.median(r["run_s"] for r in traced_reps)
                                       - statistics.median(r["run_s"] for r in plain))
        units = PER_LAYER
    else:
        metrics = {key: plain[0][key] if key in EXACT else statistics.median(r[key] for r in plain)
                   for key in END_TO_END}
        units = END_TO_END
    failed = len(reps) - len(ok)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "environment": env, "result": result,
              "repetitions": reps}
    with open(out_dir / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the self-tests' input sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "stochopt" / "__init__.py").is_file():
        print(f"no stochopt sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), args.size, env)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    for name, result in results.items():
        print(f"{name}: {result['attempted']} repetitions, {result['failed']} failed")
        for key, metric in result["metrics"].items():
            print(f"  {key:45s} {metric['value']:<24.10g} {metric['unit']}")
    print(json.dumps({"environment": env}))
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
