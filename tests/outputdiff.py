"""Field-by-field comparison of two jsdmsim run directories.

A declared numeric change (reordered floating-point sums, another
factorization) may move the last digits of the CSVs but nothing else.
:func:`compare_runs` pairs the rows of each CSV by key:

    results.csv      (phi, beamformer, combiner, user)
    cdf.csv          (beamformer, combiner, row within that pair)
    beampattern.csv  (beamformer, theta)

and returns, per file, the number of fields whose relative difference
exceeds ``rtol`` and the largest relative difference.  A header, key or
row-count mismatch raises :class:`OutputMismatch`: it is a different run,
not a numeric change.

    python tests/outputdiff.py PARENT_DIR CHANGE_DIR [--rtol 1e-6]
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

KEYS = {
    "results.csv": ("phi", "beamformer", "combiner", "user"),
    "cdf.csv": ("beamformer", "combiner"),
    "beampattern.csv": ("beamformer", "theta"),
}
# cdf.csv has no key column of its own: its rows are numbered within each pair
NUMBERED = {"cdf.csv"}


class OutputMismatch(ValueError):
    """Two runs' CSVs do not have the same headers, keys or rows."""


@dataclass(frozen=True)
class FileDiff:
    """``differing`` fields above the tolerance; ``largest`` relative difference."""

    fields: int
    differing: int
    largest: float


def relative_difference(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two printed fields; equal text is 0, non-numbers inf."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0 else 0.0


def keyed_rows(path: Path) -> tuple[list[str], dict[tuple, list[str]]]:
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        key_cols = [header.index(k) for k in KEYS[path.name]]
        rows: dict[tuple, list[str]] = {}
        counts: dict[tuple, int] = {}
        for line in reader:
            key = tuple(line[i] for i in key_cols)
            if path.name in NUMBERED:
                counts[key] = counts.get(key, -1) + 1
                key = key + (counts[key],)
            if key in rows:
                raise OutputMismatch(f"{path}: duplicate key {key}")
            rows[key] = [v for i, v in enumerate(line) if i not in key_cols]
    return header, rows


def compare_files(a: Path, b: Path, rtol: float = 0.0) -> FileDiff:
    header_a, rows_a = keyed_rows(a)
    header_b, rows_b = keyed_rows(b)
    if header_a != header_b:
        raise OutputMismatch(f"{a.name}: headers differ: {header_a} vs {header_b}")
    missing, extra = rows_a.keys() - rows_b.keys(), rows_b.keys() - rows_a.keys()
    if missing or extra:
        raise OutputMismatch(f"{a.name}: rows only in {a.parent}: {sorted(missing)[:3]}, "
                             f"only in {b.parent}: {sorted(extra)[:3]}")
    diffs = [relative_difference(x, y)
             for key, values in rows_a.items() for x, y in zip(values, rows_b[key])]
    return FileDiff(len(diffs), sum(d > rtol for d in diffs), max(diffs, default=0.0))


def compare_runs(a, b, rtol: float = 0.0) -> dict[str, FileDiff]:
    """Compare the three CSVs of run directories ``a`` and ``b``, file by file."""
    return {name: compare_files(Path(a) / name, Path(b) / name, rtol) for name in KEYS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    report = compare_runs(args.parent, args.change, args.rtol)
    for name, diff in report.items():
        print(f"{name}: {diff.differing}/{diff.fields} fields differ, "
              f"largest relative difference {diff.largest:.2g}")
    return int(any(diff.differing for diff in report.values()))


if __name__ == "__main__":
    sys.exit(main())
