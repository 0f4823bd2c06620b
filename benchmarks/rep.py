"""One repetition of one workload, run in a fresh child process by run.py.

Imports stochopt from the checkout's ``src/`` (interpreter start and imports
are outside every timing), installs the probe, runs the workload through the
public harness API, checks the outputs, and prints one JSON object on its
last stdout line.

    python3 benchmarks/rep.py --workload NAME --workdir DIR --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import stochopt  # noqa: E402
import stochopt.harness as harness  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS, Outcome, read_csv_rows  # noqa: E402


def run_once(workload, workdir: Path, trace: bool) -> dict:
    """Run the workload once under a fresh probe; return its measurements."""
    configs = sorted(workdir.glob("*.ini"))
    probe = Probe(trace=trace).install()
    try:
        t_start = time.perf_counter()
        if len(configs) == 1:
            harness.run_experiment(harness.load_config(str(configs[0])))
            summaries = []
        else:
            summaries = harness.compare([str(p) for p in configs])
        t_end = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.uninstall()

    entries = sorted(probe.entries, key=lambda e: e.t0)
    final_loss = {e.algorithm: float(e.problem.full_loss(e.result.x)) for e in entries}
    f_x0 = {e.algorithm: float(e.problem.full_loss(np.zeros(e.problem.n))) for e in entries}
    csv_rows = {}
    for cfg in configs:
        config = harness.load_config(str(cfg))
        csv_rows[config.algorithm] = read_csv_rows(config.out)
    outcome = Outcome(entries, final_loss, f_x0, csv_rows, summaries)

    errors = workload.check(outcome)
    for algo, loss in final_loss.items():
        rows = csv_rows.get(algo)
        if not rows or float(rows[-1]["loss"]) != loss:
            last = rows[-1]["loss"] if rows else None
            errors.append(f"{algo}: CSV last-row loss {last} != final loss {loss!r}")
    samples = sum(int(rows[-1]["samples"]) for rows in csv_rows.values() if rows)

    out = {
        "errors": errors,
        "run_s": t_end - t_start,
        "setup_s": entries[0].t0 - t_start if entries else 0.0,
        "optimizer_s": sum(e.t1 - e.t0 for e in entries),
        "report_s": t_end - max(e.t1 for e in entries) if entries else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "grad_evals": probe.grad_evals,
        "loss_evals": probe.loss_evals,
        "final_loss": max(final_loss.values()) if final_loss else float("nan"),
    }
    if trace:
        out["layers"] = probe.layer_metrics(samples)
        out["spans"] = probe.spans()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans-out", default=None,
                        help="traced run: write every span to this CSV file")
    args = parser.parse_args(argv)

    if not Path(stochopt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"stochopt imported from {stochopt.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = run_once(workload, Path(args.workdir), bool(args.trace))
    spans = result.pop("spans", None)
    if spans is not None and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,rows,full,thread\n")
            for name, t0, t1, parent, rows, full, tid in spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{rows},{int(full)},{tid}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
