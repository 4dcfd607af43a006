"""Beampattern evaluation, shifting-angle sweeps and outage tabulation.

The sweep moves the mobile group's angular profile and does all of its
pre-link work in units: contiguous runs of grid angles, as many as keep the
unit's mobile-group CCMs within one byte budget (``_UNIT_BYTES``).  A unit
makes one :func:`angle_design` call (one covariance build, one pivoted-Cholesky
call and one GEB call from those factors, with a shared R_eta factored once)
and one call per design of the one design table, :data:`DESIGNS`, whose entries take a
:class:`Unit` and return the stage of each member.  A unit is the only shape
the sweep computes in: a lone angle is a unit of one.  Every stage follows the
sweep's one retry rule (:func:`~jsdmsim.linksim._each`): a stacked call that
raises a ValueError is made again member by member, each as a unit of one, so a
failure stays with its member and reads as in a one-angle run, and the other
members keep their results bit for bit.  The unit is then evaluated as one
(:func:`_evaluate_unit`): one stacked rank check covers its stages, each member
ranked on its own, and its (design, angle) grid of stages gets one
:func:`~jsdmsim.statistics.reduce` (S^H R_eta S, which serves the estimation
and the link pass), one expected-SINR call and, optionally, one
channel-estimation nMSE call per block of angles within the link's element
budget, with each angle's pilots built once from the angle's own seed.  One
link pass (:func:`~jsdmsim.linksim.ergodic_capacity`) then evaluates the
capacity of every angle's surviving designs with every combiner, each angle
against its own channel draws.  No record depends on the unit or on the link's
blocks.  A numerical failure (a ValueError, which numpy's LinAlgError is)
records an error marker for the angle, design or (angle, design, combiner) it
belongs to and the sweep continues; any other exception propagates.  Everything
is deterministic given the master seed.

The beampattern angle's stages go to the runner in
:attr:`SweepResult.pattern`.  On the grid they are its exact twin's, the stages
the twin's evaluation scored; off the grid the angle is a unit of one of its
own, with seed token -1.

Only the mobile groups move with phi, so the sweep's one invariant is the
non-mobile groups' CCMs: :func:`phi_sweep` builds them once
(:func:`~jsdmsim.channel.fixed_covariances`) and every angle shares them, bit
for bit equal to a rebuild.

Angles are independent given their seeds, so the sweep cuts its grid into one
contiguous chunk of units per CPU (``os.sched_getaffinity``), at most one per
unit, and forks a worker process for each chunk but the first once the fixed
CCMs are built.  A forked worker inherits the imports and the fixed CCMs at no
cost, where a spawned one would import numpy and the package again; it sends
back only its records (and the beampattern twin's stages when it holds them)
through a pipe, and every worker is reaped before the sweep returns or raises.
A one-unit sweep, a platform without ``os.fork`` or ``os.sched_getaffinity`` and
a process with other Python threads sweep in one process, through the same
function.  CPython 3.12 and later warn when a process with other OS threads,
such as OpenBLAS's pool, forks; the sweep has run on CPython 3.11 only, so
that path is unverified.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import functools
import os
import pickle
import signal
import threading
import traceback

import numpy as np

from . import chanest, constrained, linksim, statistics
from .channel import (DEFAULT_N_QUAD, CovarianceSet, FixedCovariances, Scenario,
                      build_covariances, fixed_covariances)
from .geb import UnconstrainedBeamformer, compute_geb
from .linalg import one_blas_thread, qr
from .linksim import COMBINER_NAMES
from .statistics import GroupStatistics, expected_sinr, group_statistics, reduce

__all__ = [
    "DESIGNS",
    "ESTIMATOR_NAMES",
    "NUMERICS_RULES",
    "SUBARRAY_MASKS",
    "PhiRecord",
    "SweepResult",
    "SweepSettings",
    "Unit",
    "angle_design",
    "beampattern",
    "build_beamformer",
    "cdf",
    "check_names",
    "check_numeric",
    "check_scan_range",
    "phi_sweep",
]

# The design table below, COMBINER_NAMES and this are the only name lists.
ESTIMATOR_NAMES = ("none", "lmmse", "ls")

# Bytes of mobile-group CCMs in one unit of angles (3 MiB; a unit always holds
# at least one angle): on table1, 32 angles at 32 antennas and 2 at 128 (six
# M x M complex CCMs per angle).  It is a budget, not the peak: one full
# 128-antenna unit through angle_design keeps 4.04 MiB and peaks at 7.18 MiB
# under tracemalloc, 1.8x what it keeps and 2.4x the budget.  A unit holds every
# member's design until its last angle is evaluated.  Standalone peak RSS is
# 51.8 MB on the 5-angle full-scale benchmark config, 52.1 MB on an 11-angle
# full-scale sweep and 49.1 MB on the 91-angle, 32-antenna one (numpy 2.4, one
# BLAS thread).  Every angle's results are bit for bit the same at any size.
_UNIT_BYTES = 3 << 20

# Connection mask mask(M, D) of each fixed-subarray design.
SUBARRAY_MASKS = {
    "fixed-ordered": constrained.ordered_mask,
    "fixed-interlaced": constrained.interlaced_mask,
}


@dataclass(frozen=True)
class Unit:
    """The members of one design call, in member order: each one's scenario at its
    angle, evaluated-group statistics, GEB and design seed, and the evaluated group."""

    group: int
    scenarios: tuple[Scenario, ...]
    stats: tuple[GroupStatistics, ...]
    gebs: tuple[UnconstrainedBeamformer, ...]
    seeds: tuple

    @property
    def s(self) -> np.ndarray:
        """The members' GEBs as one (n, M, D) stack."""
        return np.stack([geb.s for geb in self.gebs])


def _effective(beamformers) -> list[np.ndarray]:
    """The effective stages of a stack's constrained beamformers."""
    return [cb.effective() for cb in beamformers]


def _fixed_subarray(mask):
    return lambda unit, cfg: _effective(constrained.fixed_subarray(
        unit.s, [mask(*unit.gebs[0].s.shape)] * len(unit.gebs), tol=cfg.tol,
        max_iter=cfg.max_iter, seed=unit.seeds)[0])


# Design name -> make(unit, cfg), the one design table: the effective analog stage
# (including compensation) of each member of a Unit.  Entries look up
# ``constrained.<fn>`` when called, so wrappers installed on that module see every call.
DESIGNS = {
    "geb": lambda unit, cfg: [geb.s for geb in unit.gebs],
    "dft": lambda unit, cfg: _effective(constrained.dft_beamformer(
        unit.scenarios[0], unit.group, [scn.phi for scn in unit.scenarios])),
    "pe": lambda unit, cfg: _effective(constrained.phase_extraction(unit.s)),
    "pe-am": lambda unit, cfg: _effective(constrained.pe_am(
        unit.s, tol=cfg.tol, max_iter=cfg.max_iter)[0]),
    **{name: _fixed_subarray(mask) for name, mask in SUBARRAY_MASKS.items()},
    "dynamic": lambda unit, cfg: _effective(constrained.dynamic_subarray(
        unit.s, unit.stats, unit.seeds, n_restarts=cfg.n_restarts, tol=cfg.tol,
        max_iter=cfg.max_iter)[0]),
}


# Settings every angle needs: key -> (rule, what the rule asks).  A value
# that breaks its rule would fail every angle (or, for max_iter, skip every
# alternating-minimization step), so configs and settings reject it up front.
NUMERICS_RULES = {
    "n_quad": (lambda v: v >= 8, ">= 8"),
    "tol": (lambda v: v > 0, "positive"),
    "max_iter": (lambda v: v >= 1, ">= 1"),
    "n_restarts": (lambda v: v >= 1, ">= 1"),
    "pilot_length": (lambda v: v >= 1, ">= 1"),
    "pilot_energy": (lambda v: v is None or v > 0, "positive"),
    "trials": (lambda v: v >= 1, ">= 1"),
}


def check_numeric(key: str, value) -> None:
    """Raise ValueError when ``value`` breaks the NUMERICS_RULES rule of ``key``."""
    rule, wanted = NUMERICS_RULES[key]
    if not rule(value):
        raise ValueError(f"{key} must be {wanted}, got {value!r}")


def check_names(kind: str, names, allowed) -> None:
    """Raise ValueError unless ``names`` lists at least one name, each from ``allowed``
    and none twice; the message names the list by its config key, ``kind`` + "s"."""
    if not names:
        raise ValueError(f"{kind + 's'!r} must list at least one name")
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown {kind} {name!r} (allowed: {' '.join(allowed)})")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate names in {kind + 's'!r}")


def check_scan_range(phis) -> None:
    """Raise ValueError unless every shifting angle lies within -90..90 degrees."""
    if not np.all(np.abs(np.asarray(phis, dtype=float)) <= 90.0):  # NaN included
        raise ValueError("shifting angles must stay within the -90..90 degree scan range")


def beampattern(s: np.ndarray, steering: np.ndarray, orthonormal: bool = False) -> np.ndarray:
    """Power of each steering direction inside the beamformer's column space.

    B(theta) = u^H S (S^H S)^{-1} S^H u, a projection, so values live in
    [0, 1] and depend only on span(S).  ``steering`` holds the directions
    u as columns, an M x n :func:`~jsdmsim.channel.steering_matrix`, so a
    pass over several designs builds it once.  ``orthonormal=True`` says ``s``
    is already the Q of its :func:`~jsdmsim.linalg.qr`, so a pass over several
    chunks of directions orthonormalizes each design once.  A stack of
    beamformers (k, M, D) gives one pattern per row of a (k, n) array, from one
    product of their stacked Q^H with the steering matrix; each row is bit for
    bit that beamformer's own pattern.
    """
    s = np.asarray(s, dtype=complex)
    q = s if orthonormal else qr(s)[0]  # rank deficiency surfaces in qr as RankError
    q_h = q.conj().swapaxes(-1, -2)
    p = (q_h.reshape(-1, q.shape[-2]) @ steering).reshape(q_h.shape[:-1] + steering.shape[-1:])
    return np.sum(np.abs(p) ** 2, axis=-2)


def cdf(values, grid) -> np.ndarray:
    """Empirical P(value < c) over the sample population, per grid point."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cdf needs at least one value")
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(np.sort(values), grid, side="left") / values.size


@dataclass(frozen=True)
class SweepSettings:
    """Everything the per-angle pipeline needs besides the scenario; a config
    key left out keeps the default here."""

    group: int
    beamformers: tuple[str, ...] = ("geb",)
    combiners: tuple[str, ...] = ("zf",)
    estimator: str = "none"
    pilot_length: int = 16
    pilot_energy: float | None = None
    block_length: int = 64
    trials: int = 200
    seed: int = 0
    n_quad: int = DEFAULT_N_QUAD
    tol: float = constrained.DEFAULT_TOL
    max_iter: int = constrained.DEFAULT_MAX_ITER
    n_restarts: int = constrained.DEFAULT_RESTARTS

    def __post_init__(self):
        check_names("beamformer", self.beamformers, DESIGNS)
        check_names("combiner", self.combiners, COMBINER_NAMES)
        check_names("estimator", (self.estimator,), ESTIMATOR_NAMES)
        for key in NUMERICS_RULES:
            check_numeric(key, getattr(self, key))


@dataclass(frozen=True)
class PhiRecord:
    """One (angle, beamformer, combiner) evaluation, or its failure marker."""

    phi: float
    beamformer: str
    combiner: str
    capacity: np.ndarray | None = None
    expected_sinr: float | None = None
    nmse: float | None = None
    error: str | None = None


@dataclass
class SweepResult:
    """Per-angle records plus convenience reductions over the sweep.

    ``fixed`` holds the non-mobile groups' CCMs the sweep built once;
    ``pattern`` maps each design name to its effective stage at the
    beampattern angle, or to the error that design raised there.
    """

    settings: SweepSettings
    fixed: FixedCovariances
    records: list[PhiRecord] = field(default_factory=list)
    pattern: dict[str, np.ndarray | Exception] | None = None

    def per_phi_capacity(self, beamformer: str, combiner: str) -> np.ndarray:
        """User-averaged capacity per successful angle (outage/CDF population)."""
        return np.array([r.capacity.mean() for r in self.records if r.error is None
                         and (r.beamformer, r.combiner) == (beamformer, combiner)])

    def errors(self) -> list[PhiRecord]:
        return [r for r in self.records if r.error is not None]


def build_beamformer(name: str, scn: Scenario, stats, group: int, cfg: SweepSettings,
                     seed, geb: UnconstrainedBeamformer) -> np.ndarray:
    """Effective analog stage (including compensation) of one design at one angle: its
    :data:`DESIGNS` entry on a unit of one.

    ``geb`` is the angle's unconstrained design (:func:`angle_design`), so
    each angle solves the covariance pencil once for all its designs.  The sweep
    calls the table on whole units; this is the one-design, one-angle entry.
    """
    check_names("beamformer", (name,), DESIGNS)
    [stage] = DESIGNS[name](Unit(group, (scn,), (stats,), (geb,), (seed,)), cfg)
    return stage


def _derived_seed(master, *tokens) -> int:
    entropy = [int(t) % 2**64 for t in (master, *tokens)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def angle_design(fixed: FixedCovariances, phi, cfg: SweepSettings
                 ) -> list[tuple[Scenario, CovarianceSet, GroupStatistics,
                                 UnconstrainedBeamformer]]:
    """Scenario, covariances, evaluated-group statistics and GEB at each angle of a unit.

    ``phi`` is a 1-D unit of shifting angles within the scan range; one angle is a
    unit of one (``np.atleast_1d``).  Each mobile group's CCMs of the unit come from one
    :func:`~jsdmsim.channel.ccm_one_ring` call and the statistics sum along the
    unit axis (R_eta stays one matrix when no other group moves).  One
    :func:`~jsdmsim.linalg.psd_factor` call on the evaluated group's CCMs fills
    every angle's factor cache, which the link pass samples from, and one GEB call
    solves every angle from those factors, mapping, checking and factoring a shared
    R_eta once; each angle's results are bit for bit a one-angle run's.  The
    non-mobile groups' CCMs come from ``fixed``, built once per sweep.  When the
    factor call fails, the error raised is the first failing angle's own, which names
    the CCM by its (delay, user) index, as a one-angle set's factor call does.
    """
    phi = np.atleast_1d(phi)
    check_scan_range(phi)
    cov = build_covariances(fixed.scenario, n_quad=cfg.n_quad, fixed=fixed, phis=phi)
    stats = group_statistics(cov, cfg.group)
    try:
        factors = cov.factors(cfg.group)
    except ValueError:
        for angle in cov.angles():
            angle.factors(cfg.group)
        raise
    geb = compute_geb(stats, factors, fixed.scenario.groups[cfg.group].n_chains)
    return [(angle.scenario, angle, stats.angle(b), geb.angle(b))
            for b, angle in enumerate(cov.angles())]


def _error(phi: float, name: str, comb: str, exc: Exception) -> PhiRecord:
    return PhiRecord(phi, name, comb, error=f"{type(exc).__name__}: {exc}")


def _stacked(arrays: list) -> np.ndarray:
    """A unit's per-angle arrays as one (A, ...) stack, or the one array they all share."""
    first = arrays[0]
    return first if all(x is first for x in arrays) else np.stack(arrays)


def _evaluate_unit(entries: list, stages: list[dict], phis, tokens,
                   cfg: SweepSettings) -> list[PhiRecord]:
    """Records of a unit's angles, in grid order, from their :func:`angle_design` entries
    (or the errors they raised) and stages (design name -> stage, or the error it raised).

    ``tokens`` are the angles' seed tokens.  One stacked rank check covers the stages, made
    again member by member when its SVD fails (:func:`~jsdmsim.linksim._each`); the
    standing angles' stages then form one (design, angle) grid, a failed design's place
    held by its angle's GEB, against the angles' statistics, CCMs and pilots stacked along
    the angle axis (or shared).  One :func:`~jsdmsim.statistics.reduce` and one
    :func:`~jsdmsim.statistics.expected_sinr` call cover the grid, and one estimation nMSE
    call each block of angles that holds at most ``linksim._BLOCK_ELEMENTS`` (angle,
    design) pairs, made again as a 1 x 1 grid per member when it fails
    (:func:`~jsdmsim.linksim._each`); one link pass evaluates every angle's surviving
    designs.
    """
    names = cfg.beamformers
    standing = [a for a, entry in enumerate(entries) if not isinstance(entry, Exception)]
    failed = {a: {name: stages[a][name] for name in names
                  if isinstance(stages[a][name], Exception)} for a in standing}
    # each stage's one rank check, one stacked call over the grid
    checked = [(a, name) for a in standing for name in names if name not in failed[a]]

    def ranked(ms):
        full = statistics._full_rank(np.stack([stages[a][name] for a, name in ms]))
        return [None if ok else ValueError(statistics._RANK_MESSAGE) for ok in full]

    ranks = linksim._each(ranked, checked)
    for (a, name), exc in zip(checked, ranks):
        if exc is not None:
            failed[a][name] = exc
    if standing:
        scns, covs, stats, gebs = zip(*(entries[a] for a in standing))
        s = np.stack([[gebs[b].s if name in failed[a] else stages[a][name]
                       for b, a in enumerate(standing)] for name in names])
        grid_stats = GroupStatistics(_stacked([st.r_s for st in stats]),
                                     _stacked([st.r_eta for st in stats]), stats[0].energy)
        r_eta_rd = reduce(grid_stats, s)
        scores = expected_sinr(grid_stats, s)
        members = [(i, b) for i, name in enumerate(names) for b, a in enumerate(standing)
                   if name not in failed[a]]
        nmses = {}
        if cfg.estimator != "none":
            # the pilots draw from a seed of the angle alone, so every design shares them
            pilots = [chanest.build_pilots(scn, cfg.group, cfg.pilot_length,
                                           _derived_seed(cfg.seed, tokens[a], 3),
                                           energy=cfg.pilot_energy)
                      for scn, a in zip(scns, standing)]
            delays = scns[0].groups[cfg.group].delays
            ccms = [cov.stacks[cfg.group] for cov in covs]

            def grid(ms):
                # one call on the sub-grid of the members' designs and angles
                rows, cols = sorted({i for i, _ in ms}), sorted({b for _, b in ms})
                sub = np.ix_(rows, cols)
                values = _estimation_nmse(_stacked([ccms[b] for b in cols]), s[sub],
                                          r_eta_rd[sub],
                                          chanest.stack_pilots([pilots[b] for b in cols]),
                                          delays, cfg)
                return [values[rows.index(i), cols.index(b)] for i, b in ms]

            # blocks of angles, within the link's element budget of (angle, design) pairs
            for block in linksim.equal_blocks(len(standing),
                                              linksim._BLOCK_ELEMENTS // len(names)):
                ms = [(i, b) for i, b in members if block.start <= b < block.stop]
                for (i, b), value in zip(ms, linksim._each(grid, ms)):
                    if isinstance(value, Exception):
                        failed[standing[b]][names[i]] = value
                    else:
                        nmses[(i, b)] = float(value)
        link = linksim.ergodic_capacity(
            list(covs), [{name: (s[i, b], r_eta_rd[i, b]) for i, name in enumerate(names)
                          if name not in failed[a]} for b, a in enumerate(standing)],
            cfg.group, cfg.combiners, n=cfg.block_length, trials=cfg.trials,
            seeds=[_derived_seed(cfg.seed, tokens[a], 2) for a in standing])
        means = link.means()

    records: list[PhiRecord] = []
    for a, phi in enumerate(float(phi) for phi in phis):
        if a not in failed:
            records.extend(_error(phi, name, comb, entries[a])
                           for name in names for comb in cfg.combiners)
            continue
        b = standing.index(a)
        for i, name in enumerate(names):
            for j, comb in enumerate(cfg.combiners):
                exc = failed[a].get(name) or link.failures[b].get((name, comb))
                if exc is not None:
                    records.append(_error(phi, name, comb, exc))
                else:
                    records.append(PhiRecord(phi, name, comb,
                                             means[b, link.designs.index(name), j],
                                             float(scores[i, b]), nmses.get((i, b))))
    return records


def _estimation_nmse(ccms: np.ndarray, s: np.ndarray, r_eta_rd: np.ndarray,
                     pilots: chanest.PilotBlock, delays, cfg: SweepSettings) -> np.ndarray:
    """The estimator's nMSE of each (design, angle) of a grid, from the CCMs, pilots and
    reduced covariances that broadcast with it."""
    r_h = chanest.effective_covariance(ccms, s)
    pc = chanest.pilot_covariances(pilots, delays, r_h, r_eta_rd)
    if cfg.estimator == "lmmse":
        z = chanest.lmmse_estimator(pc)
    else:
        z = chanest.ls_estimator(pilots, delays, s.shape[-1])
    return chanest.nmse(z, pc)


def _design_unit(fixed: FixedCovariances, phis, tokens, cfg: SweepSettings
                 ) -> tuple[list, list[dict]]:
    """The :func:`angle_design` entry of each angle of a unit (or the error it raised) and
    each angle's stages (design name -> effective stage, or the error its unit of one
    raised).

    ``tokens`` are the angles' seed tokens; every design of the unit is one stacked call
    over the angles whose entry stands, made again member by member when it fails
    (:func:`~jsdmsim.linksim._each`).
    """
    entries = linksim._each(lambda angles: angle_design(fixed, angles, cfg),
                            [float(phi) for phi in phis])
    seeds = [_derived_seed(cfg.seed, token, 1) for token in tokens]
    stages = [dict.fromkeys(cfg.beamformers, entry) if isinstance(entry, Exception) else {}
              for entry in entries]
    members = [k for k, entry in enumerate(entries) if not isinstance(entry, Exception)]

    def unit(ks):
        scns, _, stats, gebs = zip(*(entries[k] for k in ks))
        return Unit(cfg.group, scns, stats, gebs, tuple(seeds[k] for k in ks))

    for name in cfg.beamformers:
        made = linksim._each(lambda ks: DESIGNS[name](unit(ks), cfg), members)
        for k, stage in zip(members, made):
            stages[k][name] = stage
    return entries, stages


def _unit_size(scn: Scenario) -> int:
    """Angles per unit: as many as keep their mobile-group CCMs within _UNIT_BYTES, and
    at least one."""
    per_angle = sum(len(spec.delays) * spec.n_users * scn.n_antennas ** 2 * 16
                    for spec in scn.groups if spec.mobile)
    return max(1, _UNIT_BYTES // max(per_angle, 1))


def _processes(units: int) -> int:
    """How many processes sweep ``units`` units of angles: one per CPU this process may run
    on, at most one per unit, and one where the platform has no ``os.fork`` or
    ``os.sched_getaffinity`` or where other Python threads run (a fork copies none of them)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), units))


def phi_sweep(scn: Scenario, phi_grid, settings: SweepSettings,
              pattern_phi: float | None = None) -> SweepResult:
    """Evaluate the configured pipeline at every shifting angle, in grid order.

    The non-mobile groups' CCMs are built once, shared by every angle and
    returned as ``result.fixed``.  The grid is designed in units of as many
    contiguous angles as keep the unit's mobile CCMs within ``_UNIT_BYTES``: one
    :func:`angle_design` call, with the evaluated group's sampling factors, and
    one stacked call per design (:func:`_design_unit`), each made again member
    by member when it fails.  Each unit is then evaluated in one stacked pass
    (:func:`_evaluate_unit`), every angle with its own seeds.

    The grid is cut into contiguous chunks of near-equal angle count, one per
    process (:func:`_processes`), and each chunk into units.  After the fixed
    CCMs are built, the sweep forks a worker for each chunk but the first, which
    it sweeps itself, all on one BLAS thread; the workers' records are merged in
    grid order, and no record depends on the chunks or the units.  A worker's
    exception is raised here with its type and message, a worker that dies
    raises RuntimeError naming its exit status, and no worker outlives the call.

    With ``pattern_phi``, ``result.pattern`` holds every design at that angle.
    When the grid holds that exact angle, these are its twin's stages, the ones
    the twin's records score; otherwise the angle is designed after the sweep as
    a unit of one, with seed token -1.
    """
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    check_scan_range(phi_grid)
    result = SweepResult(settings, fixed_covariances(scn, settings.n_quad))
    size = _unit_size(scn)
    n = _processes(-(-len(phi_grid) // size))
    edges = [len(phi_grid) * k // n for k in range(n + 1)]

    def sweep(start: int, stop: int) -> tuple:
        for lo in range(start, stop, size):
            _sweep_unit(result, phi_grid, lo, min(lo + size, stop), pattern_phi)
        return result.records, result.pattern

    with one_blas_thread():
        workers = []
        try:
            for start, stop in zip(edges[1:-1], edges[2:]):
                workers.append(_Worker(functools.partial(sweep, start, stop),
                                       f"grid angles {start}..{stop - 1}"))
            sweep(edges[0], edges[1])
            for worker in workers:
                records, pattern = worker.result()
                result.records.extend(records)
                if result.pattern is None:
                    result.pattern = pattern
        finally:
            for worker in workers:
                worker.stop()
        if pattern_phi is not None and result.pattern is None:  # off the grid
            _, [result.pattern] = _design_unit(result.fixed, [pattern_phi], [-1], settings)
    return result


class _Worker:
    """A forked process that calls ``work()`` once and sends back, pickled through a pipe,
    what it returned or the exception it raised.  ``what`` names its work in errors."""

    def __init__(self, work, what: str):
        self.what = what
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:  # the worker: it leaves through os._exit, running no cleanup
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pipe.write(_outcome(work, what))
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self._pipe = open(read, "rb")

    def result(self):
        """What ``work()`` returned, once the worker has exited; the exception it raised is
        raised here, and a worker that died raises RuntimeError."""
        data = self._pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            cause = f" ({signal.strsignal(-code)})" if code < 0 else ""
            raise RuntimeError(f"the sweep worker for {self.what} died with exit status"
                               f" {code}{cause}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        """Kill the worker unless it was reaped, reap it and close its pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._pipe.close()


def _outcome(work, what: str) -> bytes:
    """``(True, work())`` pickled, or ``(False, the exception work() raised)``, with the
    worker's traceback as a note; an exception that does not survive pickling is sent as
    a RuntimeError that names its type and message."""
    try:
        return pickle.dumps((True, work()))
    except BaseException as exc:
        exc.add_note(f"raised in the sweep worker for {what}:\n"
                     + "".join(traceback.format_tb(exc.__traceback__)).rstrip())
        try:
            data = pickle.dumps((False, exc))
            pickle.loads(data)
            return data
        except Exception:
            return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _sweep_unit(result: SweepResult, phi_grid: np.ndarray, start: int, stop: int,
                pattern_phi: float | None) -> None:
    """Design and evaluate grid angles start..stop into ``result``; the stages of the first
    grid angle equal to ``pattern_phi`` become ``result.pattern``.  The unit's covariances
    live in this call's locals, so they are released before the next unit is designed."""
    cfg = result.settings
    phis = phi_grid[start:stop]
    entries, stages = _design_unit(result.fixed, phis, range(start, stop), cfg)
    result.records.extend(_evaluate_unit(entries, stages, phis, range(start, stop), cfg))
    for phi, made in zip(phis, stages):
        if result.pattern is None and phi == pattern_phi:
            result.pattern = made
