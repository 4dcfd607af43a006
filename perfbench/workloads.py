"""The benchmark's workloads, each a config derived from the bundled table1 scenario.

A config is what ``jsdmsim scenario table1 <scenario_args>`` emits, with the
listed ``key = value`` lines replaced and ``[mc] seed`` set to the
benchmark's seed.  Every edit must hit exactly one line of the emitted text,
so a change to table1.cfg that moves a workload fails loudly instead of
silently measuring something else.
"""

from __future__ import annotations

import contextlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ALL_DESIGNS = "geb dft pe pe-am fixed-ordered fixed-interlaced dynamic"


@dataclass(frozen=True)
class Workload:
    scenario_args: tuple
    edits: dict


WORKLOADS = {
    # 32 antennas, table1's geb pe pe-am dft, zf and lmmse, LMMSE estimation,
    # 200 trials, 2 angles: the Monte Carlo link layer does nearly all the work.
    "desk-sweep": Workload(("--scale", "32"), {"phi_start": "10", "phi_stop": "11"}),
    # 128 antennas, all seven designs, 5 angles at 5 trials: covariances at
    # M=128, the GEB pencil, the AM and subarray loops and the beampattern pass.
    "fullscale-design": Workload(
        ("--phi-step", "10", "--trials", "5"),
        {"beamformers": ALL_DESIGNS, "phi_start": "-20", "phi_stop": "20"}),
    # 32 antennas, 91 angles at 1 degree, geb and dft, zf only, no estimator,
    # 4 trials: the per-angle fixed cost dominates.
    "fine-sweep": Workload(
        ("--scale", "32", "--trials", "4"),
        {"beamformers": "geb dft", "combiners": "zf", "estimator": "none",
         "phi_start": "-45", "phi_stop": "45"}),
}


def write_config(name: str, seed: int, path: Path) -> str:
    """Write workload ``name``'s config for ``seed`` to ``path``; returns its text."""
    from jsdmsim import cli

    workload = WORKLOADS[name]
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["scenario", "table1", *workload.scenario_args, "-o", str(path)])
    if code != 0:
        raise RuntimeError(f"jsdmsim scenario table1 exited with {code}")
    text = path.read_text()
    for key, value in {**workload.edits, "seed": str(seed)}.items():
        text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if hits != 1:
            raise RuntimeError(f"table1 scenario has {hits} '{key} =' lines, expected 1")
    path.write_text(text)
    return text
