"""Run the example configs with one source tree's code.

    python scripts/run_configs.py SRC OUT

Runs every ``scripts/configs/*.ini`` at report cadence 0, 1 and 7, each in
its own child process with SRC (the directory holding a checkout's
``stochopt`` package, its ``src``) first on PYTHONPATH and
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS at 1, and writes
``OUT/<config>.cadence<c>.csv`` and its manifest.  It then runs one ``compare`` of logistic_aras, logistic_sgd and
logistic_svrg at their own cadence, whose outputs are
``OUT/compare.<config>.csv``.

The configs are read from this script's checkout, so two source trees run
the same configs, and the outputs of a change that should keep every bit
are checked in three commands:

    python scripts/run_configs.py ../parent/src /tmp/parent
    python scripts/run_configs.py src /tmp/change
    python scripts/diff_outputs.py /tmp/parent /tmp/change

Exits 1 when SRC holds no stochopt package or a child process fails.
"""

from __future__ import annotations

import argparse
import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
COMPARE = ("logistic_aras", "logistic_sgd", "logistic_svrg")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CADENCES = (0, 1, 7)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_stochopt(env: dict, cwd: Path, *args: str) -> None:
    """python -m stochopt ARGS in a child process; raises on a nonzero exit."""
    proc = subprocess.run([sys.executable, "-m", "stochopt", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"stochopt {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stderr)


def compare_copy(config: Path, out: Path, into: Path) -> Path:
    """A copy of `config` in directory `into` whose run writes `out` (the
    compared configs generate their data, so they name no dataset file)."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.read(config, encoding="utf-8-sig")
    parser.set("run", "out", str(out))
    copy = into / config.name
    with open(copy, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return copy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 2)[2],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=Path, help="the directory holding the stochopt package")
    parser.add_argument("out", type=Path, help="directory the outputs are written to")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "stochopt" / "__init__.py").is_file():
        print(f"error: no stochopt package in {args.src}", file=sys.stderr)
        return 1
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = child_env(src)

    try:
        for config in sorted(CONFIG_DIR.glob("*.ini")):
            for cadence in CADENCES:
                csv_path = out / f"{config.stem}.cadence{cadence}.csv"
                run_stochopt(env, out, "run", "--config", str(config),
                             "--cadence", str(cadence), "--out", str(csv_path))
                print(csv_path.name)
        with tempfile.TemporaryDirectory() as tmp:
            copies = [compare_copy(CONFIG_DIR / f"{stem}.ini",
                                   out / f"compare.{stem}.csv", Path(tmp))
                      for stem in COMPARE]
            run_stochopt(env, out, "compare",
                         *(arg for copy in copies for arg in ("--config", str(copy))))
        print("compare: " + ", ".join(f"compare.{stem}.csv" for stem in COMPARE))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
