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
from .linalg import one_blas_thread, qr
from .metrics import PhiRecord, SweepResult, beampattern, cdf, phi_sweep, _error

__all__ = ["run"]

CDF_POINTS = 101

# Directions per steering chunk of the beampattern pass: a 128 x 512 complex chunk is
# 1 MiB, where the default 3601-direction grid at 128 antennas takes 7 MiB at once.
PATTERN_CHUNK = 512


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
        result = phi_sweep(cfg.scenario, phis, settings, cfg.output.beampattern_phi)
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

    The sweep designed every beamformer at the reference angle (``result.pattern``, on
    the grid the designs its results score); this pass orthonormalizes each design once,
    builds the steering matrix one chunk of directions at a time and projects the stack
    of every design onto each chunk in one product.  Each design's lines come from one
    ``%`` of one template, a ``"<name>,<theta>,%.9g"`` line per direction, which prints
    what one f-string with ``.9g`` per line prints.
    """
    phi, stages = out_cfg.beampattern_phi, result.pattern
    errors = {name: stage for name, stage in stages.items() if isinstance(stage, Exception)}
    live = {}
    for name, stage in stages.items():
        if name not in errors:
            try:
                live[name], _ = qr(stage)  # rank deficiency surfaces here as RankError
            except ValueError as exc:  # flagged in the manifest instead
                errors[name] = exc
    text = [f"beamformer,theta,{'power_db' if db else 'power'}\n"]
    if live:
        thetas = grid_values(out_cfg.beampattern_start, out_cfg.beampattern_stop,
                             out_cfg.beampattern_step)
        q = np.stack(list(live.values()))
        m = result.fixed.scenario.n_antennas
        powers = np.concatenate(
            [beampattern(q, steering_matrix(thetas[start:start + PATTERN_CHUNK], m),
                         orthonormal=True)
             for start in range(0, len(thetas), PATTERN_CHUNK)], axis=-1)
        theta_col = [f"{theta:.9g}" for theta in thetas.tolist()]
        for name, values in zip(live, powers.tolist()):
            values = [_db(v) for v in values] if db else values
            text.append("".join([f"{name},{theta},%.9g\n" for theta in theta_col])
                        % tuple(values))
    path.write_text("".join(text))
    return [_error(phi, name, "(beampattern)", errors[name]) for name in stages if name in errors]
