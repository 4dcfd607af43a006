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

and likewise for ``tests/golden/offgrid/``.
"""

from pathlib import Path

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
