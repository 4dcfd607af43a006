"""Beampattern evaluation, shifting-angle sweeps and outage tabulation.

The sweep moves the mobile group's angular profile, rebuilds its covariances
and beamformers at every shifting angle, and evaluates capacity, expected
SINR and (optionally) channel-estimation nMSE.  A failed angle records an
error marker and the sweep continues.  Everything is deterministic given the
master seed; angles are independent jobs, so they can be mapped in parallel
with ordered collection.

Only the mobile groups move with phi, so the sweep's one invariant is the
non-mobile groups' CCMs: :func:`phi_sweep` builds them once
(:func:`~jsdmsim.channel.fixed_covariances`), every angle shares them, bit
for bit equal to a rebuild, and :attr:`SweepResult.fixed` hands them to later
passes at other angles (the runner's beampattern).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from . import chanest, constrained, linksim
from .channel import FixedCovariances, Scenario, build_covariances, fixed_covariances
from .geb import compute_geb
from .linalg import qr
from .statistics import expected_sinr, group_statistics, reduce

__all__ = [
    "BEAMFORMER_NAMES",
    "PhiRecord",
    "SweepResult",
    "SweepSettings",
    "beampattern",
    "cdf",
    "phi_sweep",
]

BEAMFORMER_NAMES = ("geb", "dft", "pe", "pe-am", "fixed-ordered", "fixed-interlaced", "dynamic")


def beampattern(s: np.ndarray, theta_grid: np.ndarray) -> np.ndarray:
    """Power of each steering direction inside the beamformer's column space.

    B(theta) = u^H S (S^H S)^{-1} S^H u, a projection, so values live in
    [0, 1] and depend only on span(S).
    """
    s = np.asarray(s, dtype=complex)
    q, _ = qr(s)  # rank deficiency surfaces here as RankError
    m = s.shape[0]
    k = np.arange(m)[:, None]
    sines = np.sin(np.deg2rad(np.asarray(theta_grid, dtype=float)))[None, :]
    u = np.exp(1j * np.pi * k * sines) / math.sqrt(m)
    return np.sum(np.abs(q.conj().T @ u) ** 2, axis=0)


def cdf(values, grid) -> np.ndarray:
    """Empirical P(value < c) over the sample population, per grid point."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cdf needs at least one value")
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(np.sort(values), grid, side="left") / values.size


@dataclass(frozen=True)
class SweepSettings:
    """Everything the per-angle pipeline needs besides the scenario.

    ``beampattern_grid`` (a vector of angles in degrees) switches on per-angle
    beampattern capture for every beamformer under test.
    """

    group: int
    beamformers: tuple[str, ...] = ("geb",)
    combiners: tuple[str, ...] = ("zf",)
    estimator: str = "none"
    pilot_length: int = 16
    pilot_energy: float | None = None
    block_length: int = 64
    trials: int = 200
    seed: int = 0
    n_quad: int = 200
    tol: float = 1e-8
    max_iter: int = 500
    n_restarts: int = 20
    threads: int = 1
    beampattern_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in self.beamformers:
            if name not in BEAMFORMER_NAMES:
                raise ValueError(f"unknown beamformer {name!r}")
        for name in self.combiners:
            if name not in ("zf", "lmmse"):
                raise ValueError(f"unknown combiner {name!r}")
        if self.estimator not in ("lmmse", "ls", "none"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.n_quad < 8:
            raise ValueError("n_quad must be >= 8")


@dataclass(frozen=True)
class PhiRecord:
    """One (angle, beamformer, combiner) evaluation, or its failure marker."""

    phi: float
    beamformer: str
    combiner: str
    capacity: np.ndarray | None = None
    capacity_stderr: np.ndarray | None = None
    expected_sinr: float | None = None
    nmse: float | None = None
    error: str | None = None


@dataclass
class SweepResult:
    """Per-angle records plus convenience reductions over the sweep.

    ``beampatterns[name]`` (when capture is on) is an (n_phi, n_theta) array
    aligned with ``phi_grid``; rows are NaN only for angles whose beamformer
    failed, which also show up in :meth:`errors`.  ``fixed`` holds the
    non-mobile groups' CCMs the sweep built once.
    """

    phi_grid: np.ndarray
    settings: SweepSettings
    fixed: FixedCovariances
    records: list[PhiRecord] = field(default_factory=list)
    beampatterns: dict[str, np.ndarray] = field(default_factory=dict)

    def select(self, beamformer: str, combiner: str) -> list[PhiRecord]:
        return [r for r in self.records
                if r.beamformer == beamformer and r.combiner == combiner and r.error is None]

    def mean_capacity(self, beamformer: str, combiner: str) -> float:
        """Average capacity over angles and users."""
        recs = self.select(beamformer, combiner)
        if not recs:
            raise ValueError(f"no successful records for {beamformer}/{combiner}")
        return float(np.mean([r.capacity.mean() for r in recs]))

    def per_phi_capacity(self, beamformer: str, combiner: str) -> np.ndarray:
        """User-averaged capacity per angle (outage/CDF population)."""
        return np.array([r.capacity.mean() for r in self.select(beamformer, combiner)])

    def errors(self) -> list[PhiRecord]:
        return [r for r in self.records if r.error is not None]


def build_beamformer(name: str, scn: Scenario, stats, group: int, cfg: SweepSettings,
                     seed, geb=None) -> np.ndarray:
    """Effective analog stage (including compensation) for one design name.

    ``geb`` may carry a precomputed unconstrained design so sweeps solve the
    covariance pencil once per angle.
    """
    spec = scn.groups[group]
    if geb is None:
        geb = compute_geb(stats, spec.n_chains)
    if name == "geb":
        return geb.s
    if name == "dft":
        return dft_effective(scn, group)
    if name == "pe":
        return constrained.phase_extraction(geb).effective()
    if name == "pe-am":
        cb, _ = constrained.pe_am(geb, tol=cfg.tol, max_iter=cfg.max_iter)
        return cb.effective()
    if name == "fixed-ordered":
        mask = constrained.ordered_mask(scn.n_antennas, spec.n_chains)
        cb, _ = constrained.fixed_subarray(geb, mask, tol=cfg.tol, max_iter=cfg.max_iter, seed=seed)
        return cb.effective()
    if name == "fixed-interlaced":
        mask = constrained.interlaced_mask(scn.n_antennas, spec.n_chains)
        cb, _ = constrained.fixed_subarray(geb, mask, tol=cfg.tol, max_iter=cfg.max_iter, seed=seed)
        return cb.effective()
    if name == "dynamic":
        cb, _ = constrained.dynamic_subarray(geb, stats, n_restarts=cfg.n_restarts,
                                             seed=seed, tol=cfg.tol, max_iter=cfg.max_iter)
        return cb.effective()
    raise ValueError(f"unknown beamformer {name!r}")


def dft_effective(scn: Scenario, group: int) -> np.ndarray:
    return constrained.dft_beamformer(scn, group).effective()


def _derived_seed(master, *tokens) -> int:
    entropy = [int(t) % 2**64 for t in (master, *tokens)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _evaluate_phi(fixed: FixedCovariances, phi: float, phi_index: int,
                  cfg: SweepSettings) -> tuple[list[PhiRecord], dict]:
    records: list[PhiRecord] = []
    patterns: dict[str, np.ndarray | None] = {}
    try:
        scn_phi = fixed.scenario.with_phi(phi)
        cov = build_covariances(scn_phi, n_quad=cfg.n_quad, fixed=fixed)
        stats = group_statistics(cov, scn_phi, cfg.group)
        geb = compute_geb(stats, scn_phi.groups[cfg.group].n_chains)
    except Exception as exc:  # noqa: BLE001 - sweep must survive bad angles
        return ([PhiRecord(phi, name, comb, error=f"{type(exc).__name__}: {exc}")
                 for name in cfg.beamformers for comb in cfg.combiners],
                {name: None for name in cfg.beamformers})

    for name in cfg.beamformers:
        try:
            s_eff = build_beamformer(name, scn_phi, stats, cfg.group, cfg,
                                     _derived_seed(cfg.seed, phi_index, 1), geb=geb)
            score = expected_sinr(stats, s_eff)
            if cfg.beampattern_grid is not None:
                patterns[name] = beampattern(s_eff, np.asarray(cfg.beampattern_grid))
            est_nmse = None
            if cfg.estimator != "none":
                est_nmse = _estimation_nmse(scn_phi, cov, stats, s_eff, cfg, phi_index)
        except Exception as exc:  # noqa: BLE001
            records.extend(PhiRecord(phi, name, comb, error=f"{type(exc).__name__}: {exc}")
                           for comb in cfg.combiners)
            patterns[name] = None
            continue
        for comb in cfg.combiners:
            try:
                cap = linksim.ergodic_capacity(
                    scn_phi, cov, s_eff, cfg.group, combiner=comb, n=cfg.block_length,
                    trials=cfg.trials, seed=_derived_seed(cfg.seed, phi_index, 2))
                records.append(PhiRecord(phi, name, comb, cap.mean, cap.stderr,
                                         score, est_nmse))
            except Exception as exc:  # noqa: BLE001
                records.append(PhiRecord(phi, name, comb, error=f"{type(exc).__name__}: {exc}"))
    return records, patterns


def _estimation_nmse(scn: Scenario, cov, stats, s_eff: np.ndarray, cfg: SweepSettings,
                     phi_index: int) -> float:
    pilots = chanest.build_pilots(scn, cfg.group, cfg.pilot_length,
                                  _derived_seed(cfg.seed, phi_index, 3),
                                  energy=cfg.pilot_energy)
    stacked = chanest.effective_covariance(cov, scn, s_eff, cfg.group)
    rd = reduce(stats, s_eff)
    pilot_cov = chanest.pilot_covariances(pilots, stacked, rd)
    if cfg.estimator == "lmmse":
        z = chanest.lmmse_estimator(pilots, stacked, rd, pilot_cov)
    else:
        z = chanest.ls_estimator(pilots, scn.groups[cfg.group].delays, s_eff.shape[1])
    return chanest.nmse(z, pilots, stacked, rd, pilot_cov)


def phi_sweep(scn: Scenario, phi_grid, settings: SweepSettings) -> SweepResult:
    """Evaluate the configured pipeline at every shifting angle.

    Angles are independent given the master seed; with ``settings.threads``
    greater than one they run on a thread pool and are collected in grid
    order, so the result is identical either way.  The non-mobile groups'
    CCMs are built once, shared read-only by every angle and returned as
    ``result.fixed``.
    """
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    if np.any(np.abs(phi_grid) > 90.0):
        raise ValueError("shifting angles must stay within the -90..90 degree scan range")
    result = SweepResult(phi_grid, settings, fixed_covariances(scn, settings.n_quad))
    if settings.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=settings.threads) as pool:
            futures = [pool.submit(_evaluate_phi, result.fixed, float(phi), i, settings)
                       for i, phi in enumerate(phi_grid)]
            outputs = [fut.result() for fut in futures]
    else:
        outputs = [_evaluate_phi(result.fixed, float(phi), i, settings)
                   for i, phi in enumerate(phi_grid)]
    per_phi_patterns = []
    for records, patterns in outputs:
        result.records.extend(records)
        per_phi_patterns.append(patterns)
    if settings.beampattern_grid is not None:
        n_theta = len(settings.beampattern_grid)
        for name in settings.beamformers:
            grid = np.full((len(phi_grid), n_theta), np.nan)
            for i, patterns in enumerate(per_phi_patterns):
                if patterns.get(name) is not None:
                    grid[i] = patterns[name]
            result.beampatterns[name] = grid
    return result
