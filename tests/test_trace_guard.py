"""The traced benchmark run still resolves every function it wraps.

``perfbench/tracing.py`` wraps the jsdmsim functions its ``TRACED`` table
names and reads ``samples``, ``n_bins`` and ``iterations`` off their results.
A deletion or rename in ``src`` that breaks either crashes a traced benchmark
run; this test fails first, on a 16-antenna, 1-angle, 2-trial run of every
design.  A 3-angle run shows the evaluation stage's shape: one link pass per unit
of angles, drawing every (angle, trial).
"""

import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from jsdmsim import config, runner
import tracing

tracer = tracing.Tracer()
tracer.install()
missing = [f"{layer}.{name}" for layer, names in tracing.TRACED.items() for name in names
           if not hasattr(getattr(importlib.import_module(f"jsdmsim.{layer}"), name),
                          "__wrapped__")]
manifest = runner.run(config.parse_config(sys.stdin.read()), sys.argv[3])
print(json.dumps({"missing": missing, "failures": manifest["failures"],
                  "summary": tracer.summary()}))
"""


def small_config(**changes) -> str:
    text = resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()
    edits = {"antennas": "16", "phi_start": "10", "phi_stop": "10", "trials": "2",
             "beamformers": "geb dft pe pe-am fixed-ordered fixed-interlaced dynamic",
             **changes}
    for key, value in edits.items():
        text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        assert hits == 1, key
    return text


def traced_run(tmp_path, config: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path / "out")],
        input=config, capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_resolves_every_traced_name(tmp_path):
    report = traced_run(tmp_path, small_config())
    assert report["missing"] == []
    assert report["failures"] == []
    summary = report["summary"]
    assert summary["metrics.phi_sweep.calls"] == 1
    assert summary["linksim.trials"] > 0
    # one link pass per angle; it draws white coefficients, never full channels
    # (one draw per pass: test_linksim.py::TestLinkPass)
    assert summary["linksim.ergodic_capacity.calls"] == 1
    assert summary["channel.sample_channels.calls"] == 0
    # one stacked covariance build per group: the mobile group and the three fixed groups
    # once per sweep; the beampattern angle is a grid angle and reuses its covariances
    assert summary["channel.ccm_one_ring.calls"] == 4
    # the sampled group's factors come from psd_factor; the run takes no square root
    assert summary["channel.psd_sqrt.calls"] == 0
    # the AM counter reads the designs' traces at the sweep's one angle; the beampattern
    # angle is its grid twin and takes the twin's stages, so it adds no member: pe-am (73
    # iterations), the two fixed subarrays and the dynamic design's refinement (38), and the
    # dynamic design's connection search, 20 restarts through dynamic_connection (195);
    # each design is one call
    assert summary["constrained.am_iterations"] == 306
    assert summary["constrained.pe_am.calls"] == 1
    assert summary["constrained.fixed_subarray.calls"] == 3
    assert summary["constrained.dynamic_connection.calls"] == 1
    assert summary["constrained.dynamic_subarray.calls"] == 1


def test_traced_run_evaluates_each_unit_in_one_pass(tmp_path):
    # 3 angles at 16 antennas are one unit of angles (metrics._UNIT_BYTES)
    angles, trials = 3, 2
    report = traced_run(tmp_path, small_config(phi_stop="12", phi_step="1",
                                               beamformers="geb dft"))
    assert report["failures"] == []
    summary = report["summary"]
    assert summary["linksim.ergodic_capacity.calls"] == 1
    assert summary["linksim.trials"] == angles * trials
    # and one stacked reduction and estimation for the unit's (design, angle) grid
    assert summary["statistics.reduce.calls"] == 1
    assert summary["chanest.nmse.calls"] == 1
