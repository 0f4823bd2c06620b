"""Compare two sets of run outputs cell by cell.

    python scripts/diff_outputs.py DIR_A DIR_B [--ulps K]

Pairs the metrics CSVs (``*.csv``) and manifests (``*.manifest.json``) of
DIR_A and DIR_B by file name and compares them cell by cell: CSV cells by
column, manifest values by their key path.  The ``wall_ms`` column and the
``out`` key (the run's own output path) are ignored, and so is the training
set's path ``config.problem.dataset`` when both manifests hash the same
dataset bytes (``dataset_sha256``), as two checkouts of one run do; the
test set's path ``config.problem.test_dataset`` is ignored in the same way
when both hash the same test set bytes (``test_dataset_sha256``).  A path
whose data differ is reported, beside its digest.  Prints one line per
differing column or key: its file, its name, how many cells differ and the
largest distance in float64 ulps, or ``non-numeric`` where a differing cell
is not a number on both sides (a missing file, key or cell counts as one).
Exits 1 when a distance exceeds K ulps (default 0) or a non-numeric cell
differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import struct
import sys
from pathlib import Path

IGNORED = {"wall_ms", "out"}
MISSING = object()


def ulps(a: float, b: float) -> int:
    """Count of float64 values from a to b; +0 and -0 are 0 apart."""

    def line(v: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(line(a) - line(b))


def as_number(cell):
    """The cell as a float, or None when it is no number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def csv_pairs(a: Path, b: Path):
    """(column, a's cell, b's cell) for every cell of two metrics CSVs."""

    def cells(path):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        return {(col, r): cell for r, row in enumerate(body)
                for col, cell in zip(header, row) if col not in IGNORED}

    ca, cb = cells(a), cells(b)
    for key in sorted(ca.keys() | cb.keys(), key=lambda k: (k[1], k[0])):
        yield key[0], ca.get(key, MISSING), cb.get(key, MISSING)


def manifest_pairs(va, vb, path=()):
    """(key path, a's value, b's value) at every leaf of two manifests; a
    key present on one side only is one pair, whatever it holds."""
    if isinstance(va, dict) and isinstance(vb, dict):
        for key in sorted(va.keys() | vb.keys()):
            if key not in IGNORED:
                yield from manifest_pairs(va.get(key, MISSING), vb.get(key, MISSING),
                                          path + (key,))
    else:
        yield ".".join(path), va, vb


def pairs(a: Path, b: Path):
    if a.name.endswith(".manifest.json"):
        ma, mb = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
        for key in ("dataset", "test_dataset"):
            digest = ma.get(f"{key}_sha256")
            if digest is not None and digest == mb.get(f"{key}_sha256"):
                for manifest in (ma, mb):
                    manifest.get("config", {}).get("problem", {}).pop(key, None)
        return manifest_pairs(ma, mb)
    return csv_pairs(a, b)


def distance(va, vb):
    """ulps between two differing cells; None unless both are numbers."""
    na, nb = as_number(va), as_number(vb)
    if na is None or nb is None or math.isnan(na) or math.isnan(nb):
        return None
    return ulps(na, nb)


def same(va, vb) -> bool:
    if isinstance(va, float) and isinstance(vb, float) and math.isnan(va) and math.isnan(vb):
        return True
    return type(va) is type(vb) and va == vb


def diff_files(a: Path, b: Path) -> dict:
    """{column: (differing cells, largest ulp distance, or None when a
    differing cell is not numeric)} between two output files."""
    diffs = {}
    for column, va, vb in pairs(a, b):
        if same(va, vb):
            continue
        count, worst = diffs.get(column, (0, 0))
        dist = distance(va, vb)
        diffs[column] = (count + 1, None if worst is None or dist is None else max(worst, dist))
    return diffs


def main(argv=None) -> int:
    # the docstring past its title and usage line: what is compared and ignored
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 2)[2],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--ulps", type=int, default=0,
                        help="largest allowed distance of a numeric cell (default 0)")
    args = parser.parse_args(argv)
    dir_a, dir_b = Path(args.dir_a), Path(args.dir_b)

    def outputs(d: Path):
        return {p.name for p in d.iterdir()
                if p.name.endswith(".csv") or p.name.endswith(".manifest.json")}

    names_a, names_b = outputs(dir_a), outputs(dir_b)
    failed = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}  only in {dir_a if name in names_a else dir_b}")
        failed = True
    compared = sorted(names_a & names_b)
    for name in compared:
        for column, (count, worst) in diff_files(dir_a / name, dir_b / name).items():
            size = "non-numeric" if worst is None else f"max {worst} ulp"
            print(f"{name}  {column}  {count} cells  {size}")
            failed |= worst is None or worst > args.ulps
    print(f"{len(compared)} file pairs compared, "
          + ("differences beyond the bound" if failed else f"all within {args.ulps} ulp"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
