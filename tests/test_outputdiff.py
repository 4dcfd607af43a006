"""The output comparator finds no difference between reruns and fires on planted faults."""

import re
import shutil
from importlib import resources
from pathlib import Path

import pytest

from jsdmsim.config import parse_config
from jsdmsim.runner import run

from outputdiff import KEYS, OutputMismatch, compare_runs, main


def small_config() -> str:
    text = resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()
    edits = {"antennas": "16", "phi_start": "10", "phi_stop": "11", "phi_step": "1",
             "trials": "3", "beamformers": "geb dft"}
    for key, value in edits.items():
        text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        assert hits == 1, key
    return text + "beampattern_step = 1.0\n"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg = parse_config(small_config())
    run(cfg, root / "a")
    run(cfg, root / "b")
    return root


def edited_copy(root, edit_name, edit):
    """A copy of run ``b`` with ``edit`` applied to the lines of one CSV."""
    target = root / f"edited-{edit_name.replace('.', '-')}"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(root / "b", target)
    path = target / edit_name
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return target


def test_rerun_has_no_difference(two_runs, capsys):
    report = compare_runs(two_runs / "a", two_runs / "b")
    assert set(report) == set(KEYS)
    for diff in report.values():
        assert diff.fields > 0
        assert (diff.differing, diff.largest) == (0, 0.0)
    assert main([str(two_runs / "a"), str(two_runs / "b")]) == 0
    assert "0/" in capsys.readouterr().out


def test_scaled_capacity_flagged(two_runs):
    def scale_first_capacity(lines):
        fields = lines[1].split(",")
        fields[4] = repr(float(fields[4]) * (1 + 1e-5))
        return [lines[0], ",".join(fields), *lines[2:]]

    edited = edited_copy(two_runs, "results.csv", scale_first_capacity)
    report = compare_runs(two_runs / "a", edited, rtol=1e-6)
    assert report["results.csv"].differing == 1
    assert report["results.csv"].largest == pytest.approx(1e-5, rel=1e-3)
    assert report["cdf.csv"].differing == report["beampattern.csv"].differing == 0
    assert compare_runs(two_runs / "a", edited, rtol=1e-4)["results.csv"].differing == 0
    assert main([str(two_runs / "a"), str(edited), "--rtol", "1e-6"]) == 1


@pytest.mark.parametrize("name", sorted(KEYS))
def test_renamed_design_raises(two_runs, name):
    edited = edited_copy(two_runs, name, lambda lines: [
        lines[0], *(line.replace("dft,", "dfx,") for line in lines[1:])])
    with pytest.raises(OutputMismatch, match="rows only in"):
        compare_runs(two_runs / "a", edited)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_dropped_row_raises(two_runs, name):
    edited = edited_copy(two_runs, name, lambda lines: lines[:-1])
    with pytest.raises(OutputMismatch, match="rows only in"):
        compare_runs(two_runs / "a", edited)
    with pytest.raises(OutputMismatch, match="rows only in"):
        compare_runs(edited, two_runs / "a")


def test_against_reports_a_planted_difference(tmp_path, capsys):
    # a parent tree whose capacities print 0.1% high: only results.csv differs
    parent = tmp_path / "parent"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src", parent,
                    ignore=shutil.ignore_patterns("__pycache__"))
    runner = parent / "jsdmsim" / "runner.py"
    text, hits = re.subn(r"\{cap:\.9g\}", "{cap * 1.001:.9g}", runner.read_text())
    assert hits == 1
    runner.write_text(text)
    assert main(["--against", str(parent), "--only", "golden", "--work",
                 str(tmp_path / "work")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[golden]"
    assert re.fullmatch(r"  results\.csv +largest relative difference 0\.000999\d* "
                        r"\(\d+/\d+ fields differ\)", out[1]), out[1]
    assert out[2:] == ["  cdf.csv          bytes equal", "  beampattern.csv  bytes equal",
                       "  manifest.json    differs only in wall_time_s"]
