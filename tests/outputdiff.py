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

With ``--against``, the script runs each config of :data:`CONFIGS` twice, in a
subprocess on the ``src`` tree given and on this checkout's, and prints per
file "bytes equal" or the largest relative difference; ``manifest.json`` may
differ only in ``wall_time_s``.  It exits 1 when any file differs:

    python tests/outputdiff.py --against PARENT/src [--only NAME ...] [--work DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
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


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ALL_DESIGNS = "geb dft pe pe-am fixed-ordered fixed-interlaced dynamic"
# The benchmark's workloads are written by its own code, at its default seed.
WORKLOAD_SEED = 4242


def _table1(path: Path, scenario_args, edits) -> None:
    """``jsdmsim scenario table1 <scenario_args>`` with ``key = value`` lines replaced."""
    from jsdmsim import cli

    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["scenario", "table1", *scenario_args, "-o", str(path)])
    if code != 0:
        raise RuntimeError(f"jsdmsim scenario table1 exited with {code}")
    text = path.read_text()
    for key, value in edits.items():
        text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if hits != 1:
            raise RuntimeError(f"table1 scenario has {hits} '{key} =' lines, expected 1")
    path.write_text(text)


def _workload(name: str):
    def write(path: Path) -> None:
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        with contextlib.redirect_stdout(sys.stderr):
            workloads.write_config(name, WORKLOAD_SEED, path)
    return write


def _copy(source: Path):
    return lambda path: path.write_text(source.read_text())


# The configs a refactor checks for identical outputs: name -> write(path).
CONFIGS = {
    **{name: _workload(name) for name in ("desk-sweep", "fullscale-design", "fine-sweep")},
    "golden": _copy(GOLDEN / "tiny.cfg"),
    "golden-offgrid": _copy(GOLDEN / "offgrid" / "tiny.cfg"),
    "golden-fullscale": _copy(GOLDEN / "fullscale" / "tiny.cfg"),
    # table1 at 32 antennas with all seven designs, two angles
    "desk-seven": lambda path: _table1(path, ("--scale", "32"), {
        "beamformers": ALL_DESIGNS, "phi_start": "10", "phi_stop": "11"}),
    # table1 at 128 antennas, 11 angles in 0.1-degree steps, 200 trials
    "fullscale-11": lambda path: _table1(path, (), {"phi_start": "10", "phi_stop": "11"}),
}

RUN = "import sys; from jsdmsim.cli import main; sys.exit(main(sys.argv[1:]))"


def run_tree(src: Path, config: Path, out: Path) -> None:
    """``jsdmsim run CONFIG --out OUT`` in a subprocess on the package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", RUN, "run", str(config), "--out", str(out)],
                          env=env, capture_output=True, text=True, cwd=out.parent)
    if proc.returncode not in (0, 2):
        raise RuntimeError(f"run of {config.name} on {src} exited {proc.returncode}:\n"
                           f"{proc.stderr}")


def manifest_difference(a: Path, b: Path) -> list[str]:
    """Keys of the two runs' manifests that differ, ``wall_time_s`` left out."""
    x, y = (json.loads((d / "manifest.json").read_text()) for d in (a, b))
    return sorted(k for k in x.keys() | y.keys()
                  if k != "wall_time_s" and x.get(k) != y.get(k))


def against(parent_src: Path, names, work: Path) -> bool:
    """Run each named config on both trees and print what differs; True when nothing does."""
    same = True
    for name in names:
        config = work / f"{name}.cfg"
        CONFIGS[name](config)
        runs = {}
        for side, src in (("parent", parent_src), ("change", ROOT / "src")):
            runs[side] = work / name / side
            runs[side].mkdir(parents=True, exist_ok=True)
            run_tree(src, config, runs[side])
        print(f"[{name}]")
        for file in KEYS:
            a, b = runs["parent"] / file, runs["change"] / file
            if a.read_bytes() == b.read_bytes():
                print(f"  {file:16} bytes equal")
                continue
            same = False
            try:
                diff = compare_files(a, b)
                print(f"  {file:16} largest relative difference {diff.largest:.3g} "
                      f"({diff.differing}/{diff.fields} fields differ)")
            except OutputMismatch as exc:
                print(f"  {file:16} different rows: {exc}")
        keys = manifest_difference(runs["parent"], runs["change"])
        same = same and not keys
        print(f"  {'manifest.json':16} "
              + (f"differs in {', '.join(keys)}" if keys else "differs only in wall_time_s"))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--against", type=Path, metavar="PARENT_SRC",
                        help="the parent's src directory: run every config on both trees")
    parser.add_argument("--only", nargs="+", choices=list(CONFIGS), default=list(CONFIGS),
                        metavar="NAME", help="run these configs of the list only")
    parser.add_argument("--work", type=Path, help="keep configs and runs here")
    args = parser.parse_args(argv)
    if args.against is not None:
        if args.parent or args.change:
            parser.error("--against takes no run directories")
        with contextlib.ExitStack() as stack:
            work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
            work.mkdir(parents=True, exist_ok=True)
            return int(not against(args.against.resolve(), args.only, work))
    if not (args.parent and args.change):
        parser.error("give PARENT_DIR and CHANGE_DIR, or --against PARENT_SRC")
    report = compare_runs(args.parent, args.change, args.rtol)
    for name, diff in report.items():
        print(f"{name}: {diff.differing}/{diff.fields} fields differ, "
              f"largest relative difference {diff.largest:.2g}")
    return int(any(diff.differing for diff in report.values()))


if __name__ == "__main__":
    # the configs are written through this checkout's jsdmsim, with or without PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
