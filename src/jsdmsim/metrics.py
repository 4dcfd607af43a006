"""Beampattern evaluation, shifting-angle sweeps and outage tabulation.

The sweep moves the mobile group's angular profile and rebuilds its
covariances, statistics, GEB and sampling square roots in contiguous blocks
of angles (:func:`angle_design`): one covariance build, one pencil call and
one square-root call per block, with a shared R_eta factored once, and as
many angles per block as keep the mobile CCMs within a byte budget
(``_DESIGN_BLOCK_BYTES``).  Each angle then gets its beamformers
(:data:`DESIGNS`), with each design's expected SINR and (optionally)
channel-estimation nMSE, and its own seeds.  One link pass
(:func:`~jsdmsim.linksim.ergodic_capacity`) then evaluates the capacity of
every surviving design with every combiner against the same channel draws.
A numerical failure (:data:`ANGLE_ERRORS`) records an error marker for the
angle, design or (design, combiner) pair it belongs to and the sweep
continues (a block whose design fails is designed again angle by angle);
any other exception propagates.  Everything is deterministic given
the master seed.

Only the mobile groups move with phi, so the sweep's one invariant is the
non-mobile groups' CCMs: :func:`phi_sweep` builds them once
(:func:`~jsdmsim.channel.fixed_covariances`), every angle shares them, bit
for bit equal to a rebuild, and :attr:`SweepResult.fixed` hands them to later
passes at other angles (the runner's beampattern).
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
# one-angle design holds); the block's square roots take as much again.  On
# 2 cores, table1's design stage at 32 antennas took 3.1-3.5 ms per angle
# one angle at a time and about 2 ms in blocks of 8 or 16, where the eigh
# calls of the square roots are half of what is left.  A whole 91-angle
# sweep's peak resident memory grew by 0.3-2.3 MB with blocks of 8 and by
# 5.7 MB with blocks of 16.  Every angle's results are bit for bit the same
# at any block size.
_DESIGN_BLOCK_BYTES = 3 << 18

# Connection mask mask(M, D) of each fixed-subarray design.
SUBARRAY_MASKS = {
    "fixed-ordered": constrained.ordered_mask,
    "fixed-interlaced": constrained.interlaced_mask,
}


def _fixed_subarray(mask):
    return lambda geb, stats, scn, group, cfg, seed: constrained.fixed_subarray(
        geb, mask(scn.n_antennas, scn.groups[group].n_chains), tol=cfg.tol,
        max_iter=cfg.max_iter, seed=seed)[0].effective()


# Design name -> design(geb, stats, scn, group, cfg, seed), the effective
# analog stage (including compensation).  Entries look up ``constrained.<fn>``
# when called, so wrappers installed on that module see every call.
DESIGNS = {
    "geb": lambda geb, stats, scn, group, cfg, seed: geb.s,
    "dft": lambda geb, stats, scn, group, cfg, seed:
        constrained.dft_beamformer(scn, group).effective(),
    "pe": lambda geb, stats, scn, group, cfg, seed:
        constrained.phase_extraction(geb).effective(),
    "pe-am": lambda geb, stats, scn, group, cfg, seed:
        constrained.pe_am(geb, tol=cfg.tol, max_iter=cfg.max_iter)[0].effective(),
    **{name: _fixed_subarray(mask) for name, mask in SUBARRAY_MASKS.items()},
    "dynamic": lambda geb, stats, scn, group, cfg, seed: constrained.dynamic_subarray(
        geb, stats, n_restarts=cfg.n_restarts, seed=seed, tol=cfg.tol,
        max_iter=cfg.max_iter)[0].effective(),
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
    if np.any(np.abs(np.asarray(phis, dtype=float)) > 90.0):
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

    ``fixed`` holds the non-mobile groups' CCMs the sweep built once.
    """

    settings: SweepSettings
    fixed: FixedCovariances
    records: list[PhiRecord] = field(default_factory=list)

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


def angle_design(fixed: FixedCovariances, phi, cfg: SweepSettings, roots: bool = False
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
    ``roots``, one :func:`~jsdmsim.linalg.psd_sqrt` call on the evaluated
    group's CCMs fills every angle's factor cache; when it fails, the caches
    stay empty and each angle computes (and fails on) its own roots when its
    channels are drawn.
    """
    lone = np.ndim(phi) == 0
    cov = build_covariances(fixed.scenario.with_phi(phi) if lone else fixed.scenario,
                            n_quad=cfg.n_quad, fixed=fixed, phis=None if lone else phi)
    stats = group_statistics(cov, cfg.group)
    geb = compute_geb(stats, fixed.scenario.groups[cfg.group].n_chains)
    if roots:
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


def _evaluate_phi(design, phi: float, phi_index: int, cfg: SweepSettings) -> list[PhiRecord]:
    """Records of one angle from its :func:`angle_design` entry, or from the error it raised."""
    if isinstance(design, Exception):
        return [_error(phi, name, comb, design)
                for name in cfg.beamformers for comb in cfg.combiners]
    scn_phi, cov, stats, geb = design
    # the pilots draw from a seed of the angle alone, so every design shares them
    pilots = None if cfg.estimator == "none" else chanest.build_pilots(
        scn_phi, cfg.group, cfg.pilot_length, _derived_seed(cfg.seed, phi_index, 3),
        energy=cfg.pilot_energy)

    designs: dict[str, np.ndarray] = {}
    scores: dict[str, tuple[float, float | None]] = {}
    failed: dict[str, Exception] = {}
    for name in cfg.beamformers:
        try:
            s_eff = build_beamformer(name, scn_phi, stats, cfg.group, cfg,
                                     _derived_seed(cfg.seed, phi_index, 1), geb=geb)
            score = expected_sinr(stats, s_eff)
            est_nmse = None
            if pilots is not None:
                est_nmse = _estimation_nmse(cov, stats, s_eff, cfg, pilots)
        except ANGLE_ERRORS as exc:
            failed[name] = exc
            continue
        designs[name], scores[name] = s_eff, (score, est_nmse)
    link = linksim.ergodic_capacity(cov, stats, designs, cfg.group, cfg.combiners,
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


def _estimation_nmse(cov: CovarianceSet, stats, s_eff: np.ndarray, cfg: SweepSettings,
                     pilots: chanest.PilotBlock) -> float:
    delays = cov.scenario.groups[cfg.group].delays
    r_h = chanest.effective_covariance(cov, s_eff, cfg.group)
    pc = chanest.pilot_covariances(pilots, delays, r_h, reduce(stats, s_eff))
    if cfg.estimator == "lmmse":
        z = chanest.lmmse_estimator(pc)
    else:
        z = chanest.ls_estimator(pilots, delays, s_eff.shape[1])
    return chanest.nmse(z, pc)


def _block_size(scn: Scenario) -> int:
    """Angles per design block: as many as keep the mobile CCMs within _DESIGN_BLOCK_BYTES."""
    per_angle = sum(len(spec.delays) * spec.n_users * scn.n_antennas ** 2 * 16
                    for spec in scn.groups if spec.mobile)
    return max(1, _DESIGN_BLOCK_BYTES // max(per_angle, 1))


def _lone_design(fixed: FixedCovariances, phi: float, cfg: SweepSettings):
    """One angle's :func:`angle_design` entry, or the error it raised."""
    try:
        return angle_design(fixed, phi, cfg, roots=True)[0]
    except ANGLE_ERRORS as exc:
        return exc


def phi_sweep(scn: Scenario, phi_grid, settings: SweepSettings) -> SweepResult:
    """Evaluate the configured pipeline at every shifting angle, in grid order.

    The non-mobile groups' CCMs are built once, shared by every angle and
    returned as ``result.fixed``.  The grid is designed in contiguous blocks
    (:func:`angle_design`, with the evaluated group's square roots) of as many
    angles as keep the block's mobile CCMs within ``_DESIGN_BLOCK_BYTES``; a
    block that fails is designed again one angle at a time, so a failure
    stays with its angle.  Every angle is then evaluated on its own, with its
    own seeds.
    """
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    check_scan_range(phi_grid)
    result = SweepResult(settings, fixed_covariances(scn, settings.n_quad))
    size = _block_size(scn)
    for start in range(0, len(phi_grid), size):
        block = phi_grid[start:start + size]
        try:
            designs = angle_design(result.fixed, block, settings, roots=True)
        except ANGLE_ERRORS:
            designs = [_lone_design(result.fixed, float(phi), settings) for phi in block]
        for i, (phi, design) in enumerate(zip(block, designs), start):
            result.records.extend(_evaluate_phi(design, float(phi), i, settings))
    return result
