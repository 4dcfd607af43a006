"""The package metadata declares the versions the code needs, and the README's code runs."""

import os
import re
import subprocess
import sys
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


def test_every_python_block_of_the_readme_runs(tmp_path):
    # the README's examples use the public API: a block that no longer runs is stale
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              cwd=tmp_path, env=env, timeout=300)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
