"""The package metadata declares the versions the code needs."""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _floor(spec: str) -> tuple[int, ...]:
    match = re.fullmatch(r">=\s*(\d+(?:\.\d+)*)", spec)
    assert match, spec
    return tuple(int(part) for part in match.group(1).split("."))


def test_metadata_floors_cover_the_apis_the_code_calls():
    # BaseException.add_note (the sweep's worker errors) needs Python 3.11, and
    # np.vecdot (the alternating-minimization residuals) needs numpy 2.0
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _floor(project["requires-python"]) >= (3, 11)
    [numpy] = [dep for dep in project["dependencies"] if dep.startswith("numpy")]
    assert _floor(numpy.removeprefix("numpy")) >= (2, 0)
    readme = (ROOT / "README.md").read_text()
    python = project["requires-python"].removeprefix(">=")
    assert f"Requires Python ≥ {python} and numpy ≥ {numpy.removeprefix('numpy>=')}" in readme
