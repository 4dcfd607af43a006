"""Beampattern evaluation, shifting-angle sweeps and outage tabulation.

The sweep moves the mobile group's angular profile and rebuilds its
covariances, statistics, GEB and sampling factors in contiguous blocks
of angles (:func:`angle_design`): one covariance build, one pencil call and
one pivoted-Cholesky call per block, with a shared R_eta factored once, and as
many angles per block as keep the mobile CCMs within a byte budget
(``_DESIGN_BLOCK_BYTES``).  The alternating-minimization designs
(:data:`AM_DESIGNS`) run over batches instead: consecutive whole blocks of at
most ``_AM_BATCH_ANGLES`` angles (one block when a block holds more), and each
such design makes one stacked call per batch (:func:`_batch_designs`), whose
members carry their own GEB, statistics and seed and are each bit for bit
their one-angle design.  A block is what a covariance build covers, a batch
what one stacked design call covers.  Each angle then gets its beamformers
(:data:`DESIGNS`, the stacked ones from its batch), with each design's
expected SINR and (optionally) channel-estimation nMSE, and its own seeds;
each design's S^H R_eta S (:func:`~jsdmsim.statistics.reduce`, which checks
its rank) is built once and serves the estimation and the link pass.  One link
pass (:func:`~jsdmsim.linksim.ergodic_capacity`) then evaluates the capacity of
every surviving design with every combiner against the same channel draws.
A numerical failure (:data:`ANGLE_ERRORS`) records an error marker for the
angle, design or (design, combiner) pair it belongs to and the sweep
continues (a block whose design fails is designed again angle by angle, and a
stacked design that fails is made again member by member); any other
exception propagates.  Everything is deterministic given the master seed.

The beampattern angle (seed token -1) is one more member of the batch that
holds its exact grid twin, and reuses that twin's covariances, statistics and
GEB; off the grid it is designed after the sweep as a batch of its own.  Its
stages go to the runner in :attr:`SweepResult.pattern`.

Only the mobile groups move with phi, so the sweep's one invariant is the
non-mobile groups' CCMs: :func:`phi_sweep` builds them once
(:func:`~jsdmsim.channel.fixed_covariances`), every angle shares them, bit
for bit equal to a rebuild, and :attr:`SweepResult.fixed` hands them to later
passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chanest, constrained, linksim
from .channel import (DEFAULT_N_QUAD, CovarianceSet, FixedCovariances, Scenario,
                      build_covariances, fixed_covariances)
from .geb import UnconstrainedBeamformer, compute_geb
from .linalg import qr
from .linksim import COMBINER_NAMES
from .statistics import GroupStatistics, expected_sinr, group_statistics, reduce

__all__ = [
    "AM_DESIGNS",
    "ANGLE_ERRORS",
    "DESIGNS",
    "ESTIMATOR_NAMES",
    "NUMERICS_RULES",
    "SUBARRAY_MASKS",
    "PhiRecord",
    "SweepResult",
    "SweepSettings",
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

# Failures that belong to one angle or one design: ValueError covers the
# package's error types and numpy.linalg.LinAlgError.
ANGLE_ERRORS = (ValueError, constrained.CandidateExhaustionError)

# Bytes of mobile-group CCMs that phi_sweep designs in one block of angles
# (768 KiB; a block always holds at least one angle).  On table1 that is 8
# angles at 32 antennas and one at 128 (six 128 x 128 complex CCMs, what a
# one-angle design holds); the block's M x r sampling factors take r / M of
# that (7 / 32 and 11 / 128).  On 2 cores, table1's design stage at 32
# antennas took 3.1-3.5 ms per angle one angle at a time and about 2 ms in
# blocks of 8 or 16, when the sampling factors were M x M square roots from
# eigh.  A whole 91-angle sweep's peak resident memory grew by 0.3-2.3 MB
# with blocks of 8 and by 5.7 MB with blocks of 16.  Every angle's results
# are bit for bit the same at any block size.  A block is the unit of the
# covariance build, the pencil and the factor call; the AM designs run over
# batches of whole blocks (_AM_BATCH_ANGLES).
_DESIGN_BLOCK_BYTES = 3 << 18

# Most angles of one batch of AM designs, unless one block holds more (8 angles at
# 32 antennas on table1 form one batch).  A batch holds every angle's design until
# the last is evaluated: on table1 at 128 antennas one angle holds 2.15 MiB (CCMs,
# sampling factors, statistics), and the connection search stacks n_restarts
# members per angle.  With the beampattern pass streamed in chunks, batches of
# three kept a full-scale child's peak RSS at 53-55 MB (60.9 MB before, on the
# 5-angle fullscale-design and the 11-angle full-scale config); batches of four
# raised the 11-angle config's to 63 MB.  On 2 cores, warm fullscale-design
# sweeps took 412, 383 and 366 ms with batches of one, three and five angles.
_AM_BATCH_ANGLES = 3

# Connection mask mask(M, D) of each fixed-subarray design.
SUBARRAY_MASKS = {
    "fixed-ordered": constrained.ordered_mask,
    "fixed-interlaced": constrained.interlaced_mask,
}


def _fixed_subarray(mask):
    return lambda s, stats, scn, group, cfg, seeds: constrained.fixed_subarray(
        s, mask(scn.n_antennas, scn.groups[group].n_chains), tol=cfg.tol,
        max_iter=cfg.max_iter, seed=seeds)[0]


# Alternating-minimization design name -> design(s, stats, scn, group, cfg, seeds): the
# constrained beamformers of a stack s (n, M, D) of GEBs, with one statistics and one seed
# per member, from one stacked call.  Entries look up ``constrained.<fn>`` when called, so
# wrappers installed on that module see every call.
AM_DESIGNS = {
    "pe-am": lambda s, stats, scn, group, cfg, seeds:
        constrained.pe_am(s, tol=cfg.tol, max_iter=cfg.max_iter)[0],
    **{name: _fixed_subarray(mask) for name, mask in SUBARRAY_MASKS.items()},
    "dynamic": lambda s, stats, scn, group, cfg, seeds: constrained.dynamic_subarray(
        s, stats, n_restarts=cfg.n_restarts, seed=seeds, tol=cfg.tol,
        max_iter=cfg.max_iter)[0],
}


def _one_member(design):
    """The one-angle view of a stacked design: a stack of one."""
    return lambda geb, stats, scn, group, cfg, seed: design(
        geb.s[None], [stats], scn, group, cfg, [seed])[0].effective()


# Design name -> design(geb, stats, scn, group, cfg, seed), the effective
# analog stage (including compensation) at one angle.
DESIGNS = {
    "geb": lambda geb, stats, scn, group, cfg, seed: geb.s,
    "dft": lambda geb, stats, scn, group, cfg, seed:
        constrained.dft_beamformer(scn, group).effective(),
    "pe": lambda geb, stats, scn, group, cfg, seed:
        constrained.phase_extraction(geb).effective(),
    **{name: _one_member(design) for name, design in AM_DESIGNS.items()},
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
    """Raise ValueError naming the first of ``names`` not in ``allowed``."""
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown {kind} {name!r} (allowed: {' '.join(allowed)})")


def check_scan_range(phis) -> None:
    """Raise ValueError unless every shifting angle lies within -90..90 degrees."""
    if not np.all(np.abs(np.asarray(phis, dtype=float)) <= 90.0):  # NaN included
        raise ValueError("shifting angles must stay within the -90..90 degree scan range")


def beampattern(s: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Power of each steering direction inside the beamformer's column space.

    B(theta) = u^H S (S^H S)^{-1} S^H u, a projection, so values live in
    [0, 1] and depend only on span(S).  ``steering`` holds the directions
    u as columns, an M x n :func:`~jsdmsim.channel.steering_matrix`, so a
    pass over several designs builds it once.
    """
    s = np.asarray(s, dtype=complex)
    q, _ = qr(s)  # rank deficiency surfaces here as RankError
    return np.sum(np.abs(q.conj().T @ steering) ** 2, axis=0)


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
    """Effective analog stage (including compensation) for one design name.

    ``geb`` is the angle's unconstrained design (:func:`angle_design`), so
    each angle solves the covariance pencil once for all its designs.
    """
    check_names("beamformer", (name,), DESIGNS)
    return DESIGNS[name](geb, stats, scn, group, cfg, seed)


def _derived_seed(master, *tokens) -> int:
    entropy = [int(t) % 2**64 for t in (master, *tokens)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def angle_design(fixed: FixedCovariances, phi, cfg: SweepSettings, factors: bool = False
                 ) -> list[tuple[Scenario, CovarianceSet, GroupStatistics,
                                 UnconstrainedBeamformer]]:
    """Scenario, covariances, evaluated-group statistics and GEB at each angle of a block.

    ``phi`` is a 1-D block of shifting angles, or one angle: the block-free
    case, with no block axis anywhere, so a failure reads as a one-angle run's.
    Each mobile group's CCMs of the block come from one
    :func:`~jsdmsim.channel.ccm_one_ring` call, the statistics sum along the
    block axis (R_eta stays one matrix when no other group moves) and one
    pencil call solves every angle, mapping, checking and factoring a shared
    R_eta once; each angle's results are bit for bit a one-angle run's.  The
    non-mobile groups' CCMs come from ``fixed``, built once per sweep.  With
    ``factors``, one :func:`~jsdmsim.linalg.psd_factor` call on the evaluated
    group's CCMs fills every angle's factor cache; when it fails, the caches
    stay empty and each angle computes (and fails on) its own factors when its
    link pass projects them.
    """
    lone = np.ndim(phi) == 0
    cov = build_covariances(fixed.scenario.with_phi(phi) if lone else fixed.scenario,
                            n_quad=cfg.n_quad, fixed=fixed, phis=None if lone else phi)
    stats = group_statistics(cov, cfg.group)
    geb = compute_geb(stats, fixed.scenario.groups[cfg.group].n_chains)
    if factors:
        try:
            cov.factors(cfg.group)
        except ANGLE_ERRORS:
            pass
    if lone:
        return [(cov.scenario, cov, stats, geb)]
    return [(angle.scenario, angle, stats.angle(b), geb.angle(b))
            for b, angle in enumerate(cov.angles())]


def _error(phi: float, name: str, comb: str, exc: Exception) -> PhiRecord:
    return PhiRecord(phi, name, comb, error=f"{type(exc).__name__}: {exc}")


def _stage(name: str, design, seed: int, cfg: SweepSettings, built) -> np.ndarray:
    """One design's effective stage at an angle: its batch's (raising the error the batch
    recorded for it), or built here from the angle's :func:`angle_design` entry."""
    stage = built.get(name) if built else None
    if isinstance(stage, Exception):
        raise stage
    if stage is None:
        scn_phi, _, stats, geb = design
        stage = build_beamformer(name, scn_phi, stats, cfg.group, cfg, seed, geb=geb)
    return stage


def _evaluate_phi(design, phi: float, phi_index: int, cfg: SweepSettings,
                  built=None) -> list[PhiRecord]:
    """Records of one angle from its :func:`angle_design` entry, or from the error it raised.

    ``built`` holds the angle's stages from its batch (:func:`_batch_designs`); the other
    designs are built here."""
    if isinstance(design, Exception):
        return [_error(phi, name, comb, design)
                for name in cfg.beamformers for comb in cfg.combiners]
    scn_phi, cov, stats, geb = design
    # the pilots draw from a seed of the angle alone, so every design shares them
    pilots = None if cfg.estimator == "none" else chanest.build_pilots(
        scn_phi, cfg.group, cfg.pilot_length, _derived_seed(cfg.seed, phi_index, 3),
        energy=cfg.pilot_energy)

    designs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    scores: dict[str, tuple[float, float | None]] = {}
    failed: dict[str, Exception] = {}
    seed = _derived_seed(cfg.seed, phi_index, 1)
    for name in cfg.beamformers:
        try:
            s_eff = _stage(name, design, seed, cfg, built)
            # the design's one rank check; estimation and the link pass read the result
            r_eta_rd = reduce(stats, s_eff)
            score = expected_sinr(stats, s_eff)
            est_nmse = None
            if pilots is not None:
                est_nmse = _estimation_nmse(cov, s_eff, r_eta_rd, cfg, pilots)
        except ANGLE_ERRORS as exc:
            failed[name] = exc
            continue
        designs[name], scores[name] = (s_eff, r_eta_rd), (score, est_nmse)
    link = linksim.ergodic_capacity(cov, designs, cfg.group, cfg.combiners,
                                    n=cfg.block_length, trials=cfg.trials,
                                    seed=_derived_seed(cfg.seed, phi_index, 2))

    records: list[PhiRecord] = []
    for name in cfg.beamformers:
        for comb in cfg.combiners:
            exc = failed.get(name) or link.errors.get((name, comb))
            if exc is not None:
                records.append(_error(phi, name, comb, exc))
            else:
                records.append(PhiRecord(phi, name, comb, link.estimate(name, comb).mean,
                                         *scores[name]))
    return records


def _estimation_nmse(cov: CovarianceSet, s_eff: np.ndarray, r_eta_rd: np.ndarray,
                     cfg: SweepSettings, pilots: chanest.PilotBlock) -> float:
    delays = cov.scenario.groups[cfg.group].delays
    r_h = chanest.effective_covariance(cov, s_eff, cfg.group)
    pc = chanest.pilot_covariances(pilots, delays, r_h, r_eta_rd)
    if cfg.estimator == "lmmse":
        z = chanest.lmmse_estimator(pc)
    else:
        z = chanest.ls_estimator(pilots, delays, s_eff.shape[1])
    return chanest.nmse(z, pc)


def _batch_designs(members, cfg: SweepSettings) -> list[dict | None]:
    """The alternating-minimization designs of a batch, one stacked call per design.

    ``members`` holds (:func:`angle_design` entry or the error it raised, seed) pairs.
    Returns, per member, design name -> effective stage or the error its lone call
    raises (None for a member whose angle design failed).  A stacked call that fails
    is made again member by member, so a failure stays with its member and the
    others keep their stages, bit for bit.
    """
    live = [k for k, (design, _) in enumerate(members) if not isinstance(design, Exception)]
    built: list[dict | None] = [None] * len(members)
    if not live:
        return built
    entries = [members[k][0] for k in live]
    scn_phi = entries[0][0]
    s = np.stack([geb.s for _, _, _, geb in entries])
    stats = [entry[2] for entry in entries]
    seeds = [members[k][1] for k in live]
    for k in live:
        built[k] = {}
    for name in cfg.beamformers:
        design = AM_DESIGNS.get(name)
        if design is None:
            continue
        try:
            stages = [cb.effective() for cb in design(s, stats, scn_phi, cfg.group, cfg, seeds)]
        except ANGLE_ERRORS:
            stages = []
            for j in range(len(live)):
                try:
                    [cb] = design(s[j:j + 1], stats[j:j + 1], scn_phi, cfg.group, cfg,
                                  seeds[j:j + 1])
                    stages.append(cb.effective())
                except ANGLE_ERRORS as exc:
                    stages.append(exc)
        for k, stage in zip(live, stages):
            built[k][name] = stage
    return built


def _pattern_stages(design, seed: int, cfg: SweepSettings, built) -> dict:
    """Every design's stage at the beampattern angle, or the error it raised there."""
    if isinstance(design, Exception):
        return dict.fromkeys(cfg.beamformers, design)
    stages: dict[str, np.ndarray | Exception] = {}
    for name in cfg.beamformers:
        try:
            stages[name] = _stage(name, design, seed, cfg, built)
        except ANGLE_ERRORS as exc:
            stages[name] = exc
    return stages


def _mobile_bytes(scn: Scenario) -> int:
    """Bytes of one angle's mobile-group CCMs."""
    return sum(len(spec.delays) * spec.n_users * scn.n_antennas ** 2 * 16
               for spec in scn.groups if spec.mobile)


def _block_size(scn: Scenario) -> int:
    """Angles per design block: as many as keep the mobile CCMs within _DESIGN_BLOCK_BYTES."""
    return max(1, _DESIGN_BLOCK_BYTES // max(_mobile_bytes(scn), 1))


def _batch_size(size: int) -> int:
    """Angles per batch: as many whole blocks of ``size`` as hold at most _AM_BATCH_ANGLES
    angles, and at least one."""
    return size * max(1, _AM_BATCH_ANGLES // size)


def _lone_design(fixed: FixedCovariances, phi: float, cfg: SweepSettings):
    """One angle's :func:`angle_design` entry, or the error it raised."""
    try:
        return angle_design(fixed, phi, cfg, factors=True)[0]
    except ANGLE_ERRORS as exc:
        return exc


def phi_sweep(scn: Scenario, phi_grid, settings: SweepSettings,
              pattern_phi: float | None = None) -> SweepResult:
    """Evaluate the configured pipeline at every shifting angle, in grid order.

    The non-mobile groups' CCMs are built once, shared by every angle and
    returned as ``result.fixed``.  The grid is designed in contiguous blocks
    (:func:`angle_design`, with the evaluated group's sampling factors) of as many
    angles as keep the block's mobile CCMs within ``_DESIGN_BLOCK_BYTES``; a
    block that fails is designed again one angle at a time, so a failure
    stays with its angle.  With an alternating-minimization design configured,
    consecutive whole blocks form batches of at most ``_AM_BATCH_ANGLES`` angles
    (or one block, when a block holds more), and each such design runs once per
    batch as one stacked call (:func:`_batch_designs`); without one, a batch is
    a block and no stacking step runs.  Every angle is then evaluated on its
    own, with its own seeds.

    With ``pattern_phi``, ``result.pattern`` holds every design at that angle,
    with seed token -1.  When the grid holds that exact angle, its batch designs
    it as one more member, from the grid angle's covariances, statistics and GEB;
    otherwise it is designed after the sweep as a batch of its own.
    """
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    check_scan_range(phi_grid)
    result = SweepResult(settings, fixed_covariances(scn, settings.n_quad))
    batched = any(name in AM_DESIGNS for name in settings.beamformers)
    size = _block_size(scn)
    batch = _batch_size(size) if batched else size
    twins = np.flatnonzero(phi_grid == pattern_phi) if pattern_phi is not None else []
    twin = int(twins[0]) if len(twins) else None
    for start in range(0, len(phi_grid), batch):
        stop = min(start + batch, len(phi_grid))
        _sweep_batch(result, phi_grid, start, stop, size,
                     twin if twin is not None and start <= twin < stop else None, batched)
    if pattern_phi is not None and twin is None:
        seed = _derived_seed(settings.seed, -1, 1)
        try:
            check_scan_range(pattern_phi)
            [design] = angle_design(result.fixed, pattern_phi, settings)
        except ANGLE_ERRORS as exc:
            design = exc
        [made] = _batch_designs([(design, seed)], settings) if batched else [None]
        result.pattern = _pattern_stages(design, seed, settings, made)
    return result


def _sweep_batch(result: SweepResult, phi_grid: np.ndarray, start: int, stop: int, size: int,
                 twin: int | None, batched: bool) -> None:
    """Design and evaluate grid angles start..stop into ``result``.

    The angles are designed in blocks of ``size`` and, when ``batched``, their AM
    designs run as one stack, with the beampattern angle as one more member when
    ``twin``, the index of its grid twin, is given.  The batch's covariances live
    in this call's locals, so they are released before the next batch is designed.
    """
    cfg = result.settings
    angles = []
    for first in range(start, stop, size):
        block = phi_grid[first:min(first + size, stop)]
        try:
            designs = angle_design(result.fixed, block, cfg, factors=True)
        except ANGLE_ERRORS:
            designs = [_lone_design(result.fixed, float(phi), cfg) for phi in block]
        angles.extend(zip(range(first, first + len(block)), block, designs))
    pattern = None if twin is None else (angles[twin - start][2], _derived_seed(cfg.seed, -1, 1))
    built = [None] * (len(angles) + 1)  # one slot per angle, then the pattern member's
    if batched:
        members = [(design, _derived_seed(cfg.seed, i, 1)) for i, _, design in angles]
        built = _batch_designs(members + ([pattern] if pattern else []), cfg)
    for (i, phi, design), made in zip(angles, built):
        args = (design, float(phi), i, cfg) + ((made,) if made else ())
        result.records.extend(_evaluate_phi(*args))
    if pattern is not None:
        result.pattern = _pattern_stages(*pattern, cfg, built[len(angles)])
