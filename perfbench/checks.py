"""Correctness checks on one run's output files.

Every check raises CheckFailure with a one-line reason.  The checks read only
the files the program wrote (results.csv, cdf.csv, beampattern.csv,
manifest.json) and the config text it was given; the expected values come
from the independent model in ``reference.py``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference

REFERENCE_TRIALS = 2000
# |z| limit for Monte Carlo comparisons.  A mean of 4 or 5 trials has a heavy
# lower tail: |z| > 4 on about 3e-4 of draws, none beyond 5 in 1e4 (reference
# model, 32 and 128 antennas).
Z_LIMIT = 5.0
# Allowance on the per-trial capacity spread measured by the reference model,
# which covers the designs and combiners it does not simulate itself.
SPREAD_MARGIN = 1.5
# 9 significant digits in the CSVs, plus the two quadrature rules disagreeing
# by about 1e-5 relative on the pencil.
CSV_RTOL = 1e-8
PENCIL_RTOL = 1e-4


class CheckFailure(Exception):
    """An output of the program violates a property it must have."""


@dataclass(frozen=True)
class Outputs:
    """Parsed output files of one program run."""

    results: list            # dicts: phi, beamformer, combiner, user, capacity, expected_sinr, nmse
    cdf: list                # dicts: beamformer, combiner, capacity, probability
    beampattern: dict        # beamformer -> (thetas, powers)
    manifest: dict


@dataclass
class Context:
    """Parsed config and the reference figures the checks compare against."""

    model: reference.Model
    ref_phi_index: int
    ref_samples: np.ndarray = field(repr=False)   # (trials, K) GEB/ZF capacities
    lmax: dict                                    # phi -> largest pencil eigenvalue

    @classmethod
    def build(cls, config_text: str, seed: int) -> "Context":
        model = reference.parse(config_text)
        idx = seed % len(model.phis)
        samples = reference.geb_zf_capacity_samples(
            model, float(model.phis[idx]), REFERENCE_TRIALS, [seed, 7919])
        lmax = {round(float(phi), 9): reference.largest_generalized_eigenvalue(model, float(phi))
                for phi in model.phis}
        return cls(model, idx, samples, lmax)


def _float_or_none(text: str):
    return None if text == "" else float(text)


def read_outputs(out_dir: Path) -> Outputs:
    with open(out_dir / "results.csv", newline="") as fh:
        results = [{"phi": float(r["phi"]), "beamformer": r["beamformer"],
                    "combiner": r["combiner"], "user": int(r["user"]),
                    "capacity": float(r["capacity"]),
                    "expected_sinr": float(r["expected_sinr"]),
                    "nmse": _float_or_none(r["nmse"])} for r in csv.DictReader(fh)]
    with open(out_dir / "cdf.csv", newline="") as fh:
        cdf = [{"beamformer": r["beamformer"], "combiner": r["combiner"],
                "capacity": float(r["capacity"]), "probability": float(r["probability"])}
               for r in csv.DictReader(fh)]
    columns: dict[str, tuple[list, list]] = {}
    with open(out_dir / "beampattern.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            thetas, powers = columns.setdefault(r["beamformer"], ([], []))
            thetas.append(float(r["theta"]))
            powers.append(float(r["power"]))
    pattern = {name: (np.array(t), np.array(p)) for name, (t, p) in columns.items()}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return Outputs(results, cdf, pattern, manifest)


def attempted_operations(model: reference.Model) -> int:
    """(angle, beamformer, combiner) evaluations plus one beampattern per design."""
    n_bf = len(model.beamformers)
    return len(model.phis) * n_bf * len(model.combiners) + n_bf


def _capacity_limit(ctx: Context, trials: int) -> float:
    """Jensen bound on ergodic capacity plus the Monte Carlo allowance for ``trials``.

    log2(1 + (E_s/K) gain / N0) bounds the expectation over channels; a mean of
    finitely many trials may exceed it by its own sampling error.
    """
    grp = ctx.model.groups[ctx.model.evaluated]
    bound = math.log2(1.0 + grp.energy / grp.users * grp.gain / ctx.model.noise)
    spread = SPREAD_MARGIN * float(ctx.ref_samples.std(axis=0, ddof=1).max())
    return bound + Z_LIMIT * spread / math.sqrt(trials)


def check_complete(out: Outputs, ctx: Context) -> None:
    """Every operation the manifest does not list as failed has its rows."""
    model = ctx.model
    failed = {(f["phi"], f["beamformer"], f["combiner"]) for f in out.manifest["failures"]}
    k = model.groups[model.evaluated].users
    seen: dict[tuple, int] = {}
    for r in out.results:
        key = (round(r["phi"], 9), r["beamformer"], r["combiner"])
        seen[key] = seen.get(key, 0) + 1
    for phi in model.phis:
        for bf in model.beamformers:
            for comb in model.combiners:
                if (float(phi), bf, comb) in failed:
                    continue
                got = seen.pop((round(float(phi), 9), bf, comb), 0)
                if got != k:
                    raise CheckFailure(f"results.csv has {got} rows for phi={phi:g} {bf}/{comb}, "
                                       f"expected {k}")
    if seen:
        raise CheckFailure(f"results.csv has unexpected rows {sorted(seen)[:3]}")
    sizes = {len(t) for t, _ in out.beampattern.values()}
    missing = set(model.beamformers) - set(out.beampattern)
    if missing or len(sizes) > 1:
        raise CheckFailure(f"beampattern.csv: missing designs {sorted(missing)} "
                           f"or unequal grids {sorted(sizes)}")


def check_capacity_bounds(out: Outputs, ctx: Context) -> None:
    """Capacities lie in (0, Jensen bound]; per value and pooled over angles."""
    trials = ctx.model.trials
    limit = _capacity_limit(ctx, trials)
    pooled: dict[tuple, list] = {}
    for r in out.results:
        if not 0.0 < r["capacity"] <= limit:
            raise CheckFailure(f"capacity {r['capacity']} outside (0, {limit:.4f}] at "
                               f"phi={r['phi']:g} {r['beamformer']}/{r['combiner']} "
                               f"user {r['user']}")
        pooled.setdefault((r["beamformer"], r["combiner"], r["user"]), []).append(r["capacity"])
    for key, values in pooled.items():
        pooled_limit = _capacity_limit(ctx, trials * len(values))
        if np.mean(values) > pooled_limit:
            raise CheckFailure(f"mean capacity {np.mean(values):.4f} of {key} over "
                               f"{len(values)} angles exceeds {pooled_limit:.4f}")


def check_lmmse_vs_zf(out: Outputs, ctx: Context) -> None:
    """LMMSE capacity >= ZF capacity per (angle, design, user): same draws."""
    zf = {(r["phi"], r["beamformer"], r["user"]): r["capacity"]
          for r in out.results if r["combiner"] == "zf"}
    for r in out.results:
        if r["combiner"] != "lmmse":
            continue
        base = zf.get((r["phi"], r["beamformer"], r["user"]))
        if base is not None and r["capacity"] < base * (1.0 - CSV_RTOL):
            raise CheckFailure(f"LMMSE capacity {r['capacity']} below ZF {base} at "
                               f"phi={r['phi']:g} {r['beamformer']} user {r['user']}")


def check_nmse(out: Outputs, ctx: Context) -> None:
    """The LMMSE estimator's normalized MSE lies in [0, 1]."""
    if ctx.model.estimator != "lmmse":
        return
    for r in out.results:
        if r["nmse"] is None or not 0.0 <= r["nmse"] <= 1.0:
            raise CheckFailure(f"LMMSE nMSE {r['nmse']} outside [0, 1] at phi={r['phi']:g} "
                               f"{r['beamformer']}")


def check_beampattern_range(out: Outputs, ctx: Context) -> None:
    """Beampattern power is a projection, so it lies in [0, 1]."""
    for name, (_, powers) in out.beampattern.items():
        if powers.min() < 0.0 or powers.max() > 1.0 + CSV_RTOL:
            raise CheckFailure(f"{name} beampattern power outside [0, 1]: "
                               f"[{powers.min()}, {powers.max()}]")


def interferer_aoas(model: reference.Model, phi: float) -> np.ndarray:
    """Mean AoA (over users) of every MPC of the groups other than the evaluated one."""
    aoas = []
    for g, grp in enumerate(model.groups):
        if g != model.evaluated:
            shift = phi if grp.mobile else 0.0
            aoas.extend(float(np.mean(v)) + shift for v in grp.mpcs.values())
    return np.array(aoas)


def check_geb_nulls(out: Outputs, ctx: Context) -> None:
    """GEB's mean power toward the interfering clusters is below the DFT design's."""
    if not {"geb", "dft"} <= set(out.beampattern):
        return
    targets = interferer_aoas(ctx.model, ctx.model.beampattern_phi)

    def mean_power(name):
        thetas, powers = out.beampattern[name]
        return powers[[int(np.argmin(np.abs(thetas - t))) for t in targets]].mean()

    geb, dft = mean_power("geb"), mean_power("dft")
    if not geb < dft:
        raise CheckFailure(f"GEB mean power {geb:.3e} toward interferers at {targets.tolist()} "
                           f"is not below DFT's {dft:.3e}")


def check_cdf(out: Outputs, ctx: Context) -> None:
    """Each empirical CDF is non-decreasing in [0, 1] over an increasing grid."""
    curves: dict[tuple, list] = {}
    for r in out.cdf:
        curves.setdefault((r["beamformer"], r["combiner"]), []).append(
            (r["capacity"], r["probability"]))
    for key, points in curves.items():
        caps, probs = np.array(points).T
        if np.any(np.diff(caps) <= 0) or np.any(np.diff(probs) < 0):
            raise CheckFailure(f"cdf.csv curve {key} is not non-decreasing")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise CheckFailure(f"cdf.csv curve {key} leaves [0, 1]")


def check_reference_capacity(out: Outputs, ctx: Context) -> None:
    """The program's GEB/ZF capacity at one angle matches the reference model."""
    model = ctx.model
    phi = float(model.phis[ctx.ref_phi_index])
    got = {r["user"]: r["capacity"] for r in out.results
           if r["beamformer"] == "geb" and r["combiner"] == "zf"
           and math.isclose(r["phi"], phi, abs_tol=1e-9)}
    if not got:
        raise CheckFailure(f"no geb/zf rows at phi={phi:g} to compare with the reference")
    mean = ctx.ref_samples.mean(axis=0)
    sd = ctx.ref_samples.std(axis=0, ddof=1)
    for user, cap in sorted(got.items()):
        se = sd[user - 1] * math.sqrt(1.0 / model.trials + 1.0 / len(ctx.ref_samples))
        z = (cap - mean[user - 1]) / se
        if abs(z) > Z_LIMIT:
            raise CheckFailure(f"geb/zf capacity {cap} of user {user} at phi={phi:g} is "
                               f"{z:+.2f} standard errors from the reference "
                               f"{mean[user - 1]:.4f}")


def check_sinr_vs_pencil(out: Outputs, ctx: Context) -> None:
    """A trace-ratio SINR never exceeds the largest generalized eigenvalue."""
    for r in out.results:
        lmax = ctx.lmax[round(r["phi"], 9)]
        if r["expected_sinr"] > lmax * (1.0 + PENCIL_RTOL):
            raise CheckFailure(f"expected SINR {r['expected_sinr']} of {r['beamformer']} at "
                               f"phi={r['phi']:g} exceeds the pencil's largest eigenvalue "
                               f"{lmax:.6g}")


CHECKS = {
    "complete": check_complete,
    "capacity-bounds": check_capacity_bounds,
    "lmmse-vs-zf": check_lmmse_vs_zf,
    "nmse-range": check_nmse,
    "beampattern-range": check_beampattern_range,
    "geb-nulls": check_geb_nulls,
    "cdf-monotone": check_cdf,
    "reference-capacity": check_reference_capacity,
    "sinr-vs-pencil": check_sinr_vs_pencil,
}

CSV_FILES = ("results.csv", "cdf.csv", "beampattern.csv")


def check_repeatable(first: dict, other: dict) -> None:
    """Repeated runs of one config and seed write byte-identical CSVs."""
    for name in CSV_FILES:
        if first[name] != other[name]:
            raise CheckFailure(f"{name} differs between repeated runs of one config and seed")


def run_all(out: Outputs, ctx: Context) -> None:
    for check in CHECKS.values():
        check(out, ctx)


# ---------------------------------------------------------------------------
# Planted faults for the self-test: each must trip the named check.


def _edit_results(out: Outputs, pick, edit) -> Outputs:
    rows = [dict(r) for r in out.results]
    for r in rows:
        if pick(r):
            edit(r)
            break
    else:
        raise LookupError("planted fault found no row to edit")
    return replace(out, results=rows)


def planted_faults(out: Outputs, ctx: Context):
    """Yield (check name, fault description, faulty outputs)."""
    model = ctx.model
    limit = _capacity_limit(ctx, model.trials)
    ref_phi = float(model.phis[ctx.ref_phi_index])

    yield "complete", "a dropped results row", replace(out, results=out.results[1:])
    yield "capacity-bounds", "a capacity above the bound", _edit_results(
        out, lambda r: True, lambda r: r.update(capacity=limit * 1.01))
    yield "capacity-bounds", "a zero capacity", _edit_results(
        out, lambda r: True, lambda r: r.update(capacity=0.0))
    zf = {(r["phi"], r["beamformer"], r["user"]): r["capacity"]
          for r in out.results if r["combiner"] == "zf"}
    yield "lmmse-vs-zf", "LMMSE below ZF", _edit_results(
        out, lambda r: r["combiner"] == "lmmse",
        lambda r: r.update(capacity=zf[(r["phi"], r["beamformer"], r["user"])] - 1e-3))
    yield "nmse-range", "an nMSE above 1", _edit_results(
        out, lambda r: True, lambda r: r.update(nmse=1.2))
    name = model.beamformers[0]
    thetas, powers = out.beampattern[name]
    powers = powers.copy()
    powers[len(powers) // 2] = 1.5
    yield "beampattern-range", "a beampattern power above 1", replace(
        out, beampattern={**out.beampattern, name: (thetas, powers)})
    swapped = {**out.beampattern, "geb": out.beampattern["dft"], "dft": out.beampattern["geb"]}
    yield "geb-nulls", "GEB and DFT beampatterns swapped", replace(out, beampattern=swapped)
    shifted = {**out.beampattern,
               "geb": (out.beampattern["geb"][0], np.roll(out.beampattern["geb"][1], 600))}
    yield "geb-nulls", "GEB beampattern shifted by 30 degrees", replace(out, beampattern=shifted)
    yield "cdf-monotone", "a CDF in reverse order", replace(
        out, cdf=[dict(r, probability=1.0 - r["probability"]) for r in out.cdf])
    yield "reference-capacity", "GEB/ZF capacity 10% low at the reference angle", _edit_results(
        out, lambda r: (r["beamformer"], r["combiner"]) == ("geb", "zf")
        and math.isclose(r["phi"], ref_phi, abs_tol=1e-9),
        lambda r: r.update(capacity=r["capacity"] * 0.9))
    yield "sinr-vs-pencil", "an expected SINR above the pencil's largest eigenvalue", \
        _edit_results(out, lambda r: True,
                      lambda r: r.update(expected_sinr=2.0 * ctx.lmax[round(r["phi"], 9)]))
