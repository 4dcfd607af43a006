"""Experiment execution and result export.

One run produces four artifacts in the output directory:

    results.csv      phi,beamformer,combiner,user,capacity,expected_sinr,nmse
    cdf.csv          beamformer,combiner,capacity,probability
    beampattern.csv  beamformer,theta,power
    manifest.json    seeds, versions, tolerances, failures, wall time

Numbers are printed with 9 significant digits in linear units; ``db=True``
converts power-ratio columns to decibels (suffixing the column name).  Reruns
with identical config and seed produce byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import steering_matrix
from .config import ExperimentConfig, OutputSettings, grid_values
from .linalg import one_blas_thread
from .metrics import (ANGLE_ERRORS, PhiRecord, SweepResult, angle_design, beampattern,
                      build_beamformer, cdf, check_scan_range, phi_sweep, _derived_seed,
                      _error)

__all__ = ["run"]

CDF_POINTS = 101


def _fmt(x) -> str:
    return "" if x is None else f"{x:.9g}"


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


def run(cfg: ExperimentConfig, out_dir, seed: int | None = None, db: bool = False) -> dict:
    """Execute the configured sweep and write all result files.

    Returns the manifest dictionary; its ``exit_code`` is 0 on full success
    and 2 when some shifting angles failed (their rows are omitted from the
    CSVs and listed under ``failures``).
    """
    t0 = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.sweep if seed is None else dataclasses.replace(cfg.sweep, seed=int(seed))
    phis = cfg.phi_values()
    # every matrix here is small; BLAS worker threads would only spin beside the run
    with one_blas_thread():
        result = phi_sweep(cfg.scenario, phis, settings)
        _write_results(out / "results.csv", result, db)
        _write_cdf(out / "cdf.csv", result)
        pattern_failures = _write_beampattern(out / "beampattern.csv", cfg.output, result, db)

    failures = [{"phi": r.phi, "beamformer": r.beamformer, "combiner": r.combiner,
                 "error": r.error} for r in result.errors() + pattern_failures]
    manifest = {
        "seed": settings.seed,
        "db": db,
        "phi": {"start": cfg.phi_start, "stop": cfg.phi_stop, "step": cfg.phi_step,
                "count": int(len(phis))},
        "trials": settings.trials,
        "beamformers": list(settings.beamformers),
        "combiners": list(settings.combiners),
        "estimator": settings.estimator,
        "numerics": {"n_quad": settings.n_quad, "tol": settings.tol,
                     "max_iter": settings.max_iter, "n_restarts": settings.n_restarts},
        "outputs": ["results.csv", "cdf.csv", "beampattern.csv"],
        "failures": failures,
        "partial": bool(failures),
        "exit_code": 2 if failures else 0,
        "versions": {"jsdmsim": __version__, "numpy": np.__version__},
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def _write_results(path: Path, result, db: bool) -> None:
    sinr_col = "expected_sinr_db" if db else "expected_sinr"
    nmse_col = "nmse_db" if db else "nmse"
    lines = [f"phi,beamformer,combiner,user,capacity,{sinr_col},{nmse_col}"]
    for rec in result.records:
        if rec.error is not None:
            continue
        sinr = _db(rec.expected_sinr) if db else rec.expected_sinr
        nmse = rec.nmse
        if db and nmse is not None:
            nmse = _db(nmse)
        head = f"{_fmt(rec.phi)},{rec.beamformer},{rec.combiner}"
        tail = f"{_fmt(sinr)},{_fmt(nmse)}"
        lines.extend(f"{head},{user},{cap:.9g},{tail}"
                     for user, cap in enumerate(rec.capacity.tolist(), start=1))
    path.write_text("\n".join(lines) + "\n")


def _write_cdf(path: Path, result: SweepResult) -> None:
    populations = {}
    for name in result.settings.beamformers:
        for comb in result.settings.combiners:
            vals = result.per_phi_capacity(name, comb)
            if vals.size:
                populations[(name, comb)] = vals
    lines = ["beamformer,combiner,capacity,probability"]
    if populations:
        lo = min(v.min() for v in populations.values())
        hi = max(v.max() for v in populations.values())
        if hi <= lo:
            hi = lo + 1.0
        grid = np.linspace(lo, hi, CDF_POINTS)
        for (name, comb), vals in populations.items():
            probs = cdf(vals, grid)
            for c, p in zip(grid, probs):
                lines.append(f"{name},{comb},{_fmt(float(c))},{_fmt(float(p))}")
    path.write_text("\n".join(lines) + "\n")


def _write_beampattern(path: Path, out_cfg: OutputSettings, result: SweepResult,
                       db: bool) -> list[PhiRecord]:
    """Write the reference-angle beampatterns; returns per-beamformer failures.

    Starts from the sweep's non-mobile CCMs, solves the GEB once, and builds
    the steering matrix and the theta column once for every design.
    """
    settings, phi = result.settings, out_cfg.beampattern_phi
    lines = [f"beamformer,theta,{'power_db' if db else 'power'}"]
    failures = []
    try:
        check_scan_range(phi)
        [(scn, _, stats, geb)] = angle_design(result.fixed, phi, settings)
    except ANGLE_ERRORS as exc:  # flagged in the manifest instead
        path.write_text("\n".join(lines) + "\n")
        return [_error(phi, name, "(beampattern)", exc) for name in settings.beamformers]
    thetas = grid_values(out_cfg.beampattern_start, out_cfg.beampattern_stop,
                         out_cfg.beampattern_step)
    steering = steering_matrix(thetas, scn.n_antennas)
    theta_col = [f"{theta:.9g}" for theta in thetas.tolist()]
    for name in settings.beamformers:
        try:
            s_eff = build_beamformer(name, scn, stats, settings.group, settings,
                                     _derived_seed(settings.seed, -1, 1), geb=geb)
            values = beampattern(s_eff, steering)
        except ANGLE_ERRORS as exc:
            failures.append(_error(phi, name, "(beampattern)", exc))
            continue
        powers = [_db(v) for v in values.tolist()] if db else values.tolist()
        lines.extend(f"{name},{theta},{power:.9g}" for theta, power in zip(theta_col, powers))
    path.write_text("\n".join(lines) + "\n")
    return failures
