"""A fresh run of the golden config reproduces the committed CSVs.

``tests/golden/`` holds a tiny config (16 antennas, 2 angles, 4 trials, all
seven designs, both combiners, LMMSE estimation, a 5-degree beampattern grid)
and the three CSVs it produced.  Its beampattern angle is a grid angle;
``tests/golden/offgrid/`` holds the same config with the beampattern angle off
the grid, and its CSVs, so both ways of designing that angle stay pinned.  A
refactor must reproduce them: every key and row exactly, every value within a
relative 1e-6, so another machine's BLAS cannot fail the check on a last digit.
A declared numeric change regenerates the files and quotes the difference::

    jsdmsim run tests/golden/tiny.cfg --out /tmp/golden
    python tests/outputdiff.py tests/golden /tmp/golden --rtol 1e-6
    cp /tmp/golden/{results,cdf,beampattern}.csv tests/golden/

and likewise for ``tests/golden/offgrid/``.  ``tests/golden/fullscale/`` pins
the 128-antenna path the same way: table1 at 128 antennas, 3 angles (two units
of angles), 150 trials, all seven designs and a 10-degree beampattern grid.
"""

from pathlib import Path

import pytest

from jsdmsim.config import load_config
from jsdmsim.runner import run

from outputdiff import compare_runs

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_fresh_run_reproduces_the_golden_csvs(tmp_path):
    manifest = run(load_config(GOLDEN / "tiny.cfg"), tmp_path)
    assert manifest["failures"] == []
    report = compare_runs(GOLDEN, tmp_path, rtol=1e-6)
    assert {name: diff.differing for name, diff in report.items()} == dict.fromkeys(report, 0)


def test_fresh_run_with_an_off_grid_beampattern_angle_reproduces_its_golden_csvs(tmp_path):
    offgrid = GOLDEN / "offgrid"
    manifest = run(load_config(offgrid / "tiny.cfg"), tmp_path)
    assert manifest["failures"] == []
    report = compare_runs(offgrid, tmp_path, rtol=1e-6)
    assert {name: diff.differing for name, diff in report.items()} == dict.fromkeys(report, 0)
    # the sweep is the grid config's; only the pattern moves with its angle
    assert (offgrid / "results.csv").read_bytes() == (GOLDEN / "results.csv").read_bytes()
    assert (offgrid / "beampattern.csv").read_bytes() != (GOLDEN / "beampattern.csv").read_bytes()


def planted(golden: Path, target: Path, name: str, row: int, column: int) -> Path:
    """A copy of ``golden``'s CSVs with the fourth significant digit of one field of ``name``
    changed: a relative change of 1e-4 to 1e-2."""
    target.mkdir()
    for file in ("results.csv", "cdf.csv", "beampattern.csv"):
        lines = (golden / file).read_text().splitlines()
        if file == name:
            fields = lines[row].split(",")
            text = fields[column]
            at = [i for i, c in enumerate(text.lstrip("-0.")) if c.isdigit()][3]
            at += len(text) - len(text.lstrip("-0."))
            fields[column] = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
            lines[row] = ",".join(fields)
        (target / file).write_text("\n".join(lines) + "\n")
    return target


def test_fresh_full_scale_run_reproduces_its_golden_csvs(tmp_path):
    fullscale = GOLDEN / "fullscale"
    manifest = run(load_config(fullscale / "tiny.cfg"), tmp_path)
    assert manifest["failures"] == []
    report = compare_runs(fullscale, tmp_path, rtol=1e-6)
    assert {name: diff.differing for name, diff in report.items()} == dict.fromkeys(report, 0)


@pytest.mark.parametrize("name, beamformer, column", [
    ("results.csv", "geb", 4),              # a capacity
    ("beampattern.csv", "pe-am", 2),        # a seeded design's pattern
])
def test_full_scale_golden_fails_on_one_changed_digit(tmp_path, name, beamformer, column):
    fullscale = GOLDEN / "fullscale"
    lines = (fullscale / name).read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.split(",")[1 if name == "results.csv"
                                                                    else 0] == beamformer)
    edited = planted(fullscale, tmp_path / "edited", name, row, column)
    report = compare_runs(fullscale, edited, rtol=1e-6)
    assert {file: diff.differing for file, diff in report.items()} == {
        **dict.fromkeys(report, 0), name: 1}
