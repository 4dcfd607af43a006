"""Scenario geometry, one-ring covariance construction and channel sampling.

Angles are degrees at every interface and converted to radians exactly once,
inside :func:`steering_matrix`.  A scenario describes a uniform linear array
serving user groups, each group having a handful of active multipath
components (MPCs) with narrow angular spread.  Mobile groups get their mean angles shifted by
the scenario's ``phi`` before covariances are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import psd_sqrt

__all__ = [
    "ChannelRealization",
    "CovarianceSet",
    "FixedCovariances",
    "GroupSpec",
    "Scenario",
    "build_covariances",
    "ccm_one_ring",
    "fixed_covariances",
    "sample_channels",
    "steering",
    "steering_matrix",
]

DEFAULT_N_QUAD = 200


def steering_matrix(thetas_deg, m: int) -> np.ndarray:
    """Unit-norm steering vectors of an M-antenna half-wavelength ULA, as columns.

    Column i is exp(j * k * pi * sin(theta_i)) / sqrt(M) for k = 0..M-1; the
    result has shape (M, len(thetas_deg)).
    """
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    k = np.arange(m)[:, None]
    s = np.sin(np.deg2rad(np.asarray(thetas_deg, dtype=float)))[None, :]
    return np.exp(1j * np.pi * k * s) / np.sqrt(m)


def steering(theta_deg: float, m: int) -> np.ndarray:
    """The steering vector of one angle: the one column of :func:`steering_matrix`."""
    return steering_matrix([theta_deg], m)[:, 0]


def ccm_one_ring(mu: float, delta: float, power: float, m: int,
                 n_quad: int = DEFAULT_N_QUAD) -> np.ndarray:
    """One-ring covariance for a cluster at mean angle ``mu`` (degrees).

    Midpoint-rule quadrature of the uniform angular power profile over
    [mu - delta/2, mu + delta/2]; the result is rescaled so its trace equals
    ``power`` exactly, so quadrature error never perturbs total power.
    """
    if delta <= 0:
        raise ValueError("angular spread must be positive")
    if n_quad < 8:
        raise ValueError("n_quad must be >= 8")
    if power <= 0:
        raise ValueError("power must be positive")
    offsets = (np.arange(n_quad) + 0.5) / n_quad - 0.5
    u = steering_matrix(mu + delta * offsets, m)
    r = (u @ u.conj().T) / n_quad
    r = 0.5 * (r + r.conj().T)
    return r * (power / np.trace(r).real)


@dataclass(frozen=True)
class GroupSpec:
    """One user group: RF-chain budget, energies and angle-delay profile.

    ``mean_aoa[k, i]`` is the mean angle of arrival (degrees) of user k's
    MPC at ``delays[i]``.  ``spread`` broadcasts to the same shape; ``gain``
    broadcasts per user.  Mobile groups have every mean angle offset by the
    scenario shifting angle.
    """

    n_users: int
    n_chains: int
    symbol_energy: float
    delays: tuple[int, ...]
    mean_aoa: np.ndarray
    spread: np.ndarray
    gain: np.ndarray
    mobile: bool = False

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("group must have at least one user")
        if self.n_chains < 1:
            raise ValueError("group must have at least one RF chain")
        if self.symbol_energy <= 0:
            raise ValueError("symbol energy must be positive")
        if len(self.delays) != len(set(self.delays)) or not self.delays:
            raise ValueError("active delays must be non-empty and distinct")
        shape = (self.n_users, len(self.delays))
        aoa = np.broadcast_to(np.asarray(self.mean_aoa, dtype=float), shape).copy()
        spread = np.broadcast_to(np.asarray(self.spread, dtype=float), shape).copy()
        gain = np.broadcast_to(np.asarray(self.gain, dtype=float), (self.n_users,)).copy()
        if np.any(spread <= 0):
            raise ValueError("angular spreads must be positive")
        if np.any(gain <= 0):
            raise ValueError("channel gains must be positive")
        object.__setattr__(self, "mean_aoa", aoa)
        object.__setattr__(self, "spread", spread)
        object.__setattr__(self, "gain", gain)


@dataclass(frozen=True)
class Scenario:
    """Array size, noise level and the per-group angle-delay profiles."""

    n_antennas: int
    n_taps: int
    noise_power: float
    groups: tuple[GroupSpec, ...]
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.n_antennas < 1:
            raise ValueError("antenna count must be >= 1")
        if self.noise_power < 0:
            raise ValueError("noise power must be non-negative")
        if not self.groups:
            raise ValueError("scenario needs at least one group")
        for g, spec in enumerate(self.groups):
            if spec.n_chains > self.n_antennas:
                raise ValueError(f"group {g}: more RF chains than antennas")
            if max(spec.delays) >= self.n_taps or min(spec.delays) < 0:
                raise ValueError(f"group {g}: active delay outside 0..{self.n_taps - 1}")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def with_phi(self, phi: float) -> "Scenario":
        return replace(self, phi=phi)

    def effective_aoa(self, g: int) -> np.ndarray:
        """Mean AoAs of group g with the mobile shift applied."""
        spec = self.groups[g]
        return spec.mean_aoa + (self.phi if spec.mobile else 0.0)


@dataclass
class CovarianceSet:
    """Per-user per-delay channel covariance matrices of a scenario.

    ``ccms[g][k]`` maps an active delay index to an M x M Hermitian PSD
    matrix; inactive delays are absent and implicitly zero.  Square roots
    used for sampling are cached lazily.
    """

    scenario: Scenario
    ccms: list[list[dict[int, np.ndarray]]]
    _sqrts: list[list[dict[int, np.ndarray]]] = field(default_factory=list, repr=False)

    def sqrt_factor(self, g: int, user: int, delay: int) -> np.ndarray:
        if not self._sqrts:
            self._sqrts = [[{} for _ in grp] for grp in self.ccms]
        cache = self._sqrts[g][user]
        if delay not in cache:
            cache[delay] = psd_sqrt(self.ccms[g][user][delay])
        return cache[delay]


def _group_ccms(scn: Scenario, g: int, n_quad: int) -> list[dict[int, np.ndarray]]:
    spec = scn.groups[g]
    aoa = scn.effective_aoa(g)
    per_mpc = spec.gain / len(spec.delays)
    return [{delay: ccm_one_ring(aoa[k, i], spec.spread[k, i], per_mpc[k], scn.n_antennas, n_quad)
             for i, delay in enumerate(spec.delays)}
            for k in range(spec.n_users)]


@dataclass(frozen=True)
class FixedCovariances:
    """CCMs of a scenario's non-mobile groups, keyed by group index.

    They are the same at every shifting angle, so a sweep builds them once
    (:func:`fixed_covariances`) and hands them to :func:`build_covariances`
    at each angle.  ``scenario`` and ``n_quad`` record what they were built
    from.
    """

    scenario: Scenario
    n_quad: int
    ccms: dict[int, list[dict[int, np.ndarray]]]


def fixed_covariances(scn: Scenario, n_quad: int = DEFAULT_N_QUAD) -> FixedCovariances:
    """Build the non-mobile groups' CCMs of ``scn`` once, for any phi."""
    return FixedCovariances(scn, n_quad, {g: _group_ccms(scn, g, n_quad)
                                          for g, spec in enumerate(scn.groups) if not spec.mobile})


def build_covariances(scn: Scenario, n_quad: int = DEFAULT_N_QUAD,
                      fixed: FixedCovariances | None = None) -> CovarianceSet:
    """One-ring CCMs for every user and active MPC of the scenario.

    Each user's total gain is split equally across its active MPCs, so the
    per-delay traces sum back to the user's gain.  Mobile-group mean angles
    are offset by the scenario's shifting angle before construction.
    ``fixed`` supplies the non-mobile groups' CCMs, shared rather than
    rebuilt; it must come from :func:`fixed_covariances` of this scenario
    (at any phi, so with the very same groups) and the same ``n_quad``.
    """
    shared = {}
    if fixed is not None:
        if (fixed.scenario.groups is not scn.groups
                or fixed.scenario.n_antennas != scn.n_antennas or fixed.n_quad != n_quad):
            raise ValueError("fixed covariances were built for another scenario or n_quad")
        shared = fixed.ccms
    return CovarianceSet(scn, [shared[g] if g in shared else _group_ccms(scn, g, n_quad)
                               for g in range(scn.n_groups)])


@dataclass
class ChannelRealization:
    """Instantaneous channel taps: ``taps[g][l]`` is M x K_g at each active delay.

    A block of realizations (see :func:`sample_channels` with ``trials``)
    stacks them along leading axes: ``taps[g][l]`` is then (T, M, K_g).
    """

    scenario: Scenario
    taps: list[dict[int, np.ndarray]]


def _group_taps(cov: CovarianceSet, g: int, rngs) -> dict[int, np.ndarray]:
    """Correlated Rayleigh taps of group g, one realization per generator.

    Each generator draws one (delays, users, 2, M) standard-normal block: the
    real then imaginary parts of every user at every active delay, so a seed
    yields the same taps alone or inside a block.  Returns each active
    delay's (len(rngs), M, K) taps.
    """
    spec = cov.scenario.groups[g]
    m = cov.scenario.n_antennas
    shape = (len(spec.delays), spec.n_users, 2, m)
    z = np.stack([rng.standard_normal(shape) for rng in rngs])
    z = (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    sqrts = np.array([[cov.sqrt_factor(g, k, delay) for k in range(spec.n_users)]
                      for delay in spec.delays])
    h = np.ascontiguousarray((sqrts @ z[..., None])[..., 0].swapaxes(-1, -2))
    return {delay: h[:, i] for i, delay in enumerate(spec.delays)}


def sample_channels(cov: CovarianceSet, seed, groups: list[int] | None = None,
                    trials=None) -> ChannelRealization:
    """Draw one correlated Rayleigh realization, independent across users/delays.

    Deterministic for a given seed.  ``groups`` restricts sampling to the
    listed group indices (others come back as zero taps), which the
    semi-analytic capacity path uses to skip interferer channels.  With
    ``trials`` (a sequence of trial indices), trial t is the realization
    ``sample_channels(cov, [seed, t], groups)`` would draw, and every tap
    gains a leading trial axis.
    """
    scn = cov.scenario
    wanted = range(scn.n_groups) if groups is None else groups
    taps: list[dict[int, np.ndarray]] = [{} for _ in range(scn.n_groups)]
    if trials is None:
        rngs = [np.random.default_rng(seed)]
    else:
        rngs = [np.random.default_rng([seed, t]) for t in trials]
    for g in wanted:
        taps[g] = {delay: h if trials is not None else h[0]
                   for delay, h in _group_taps(cov, g, rngs).items()}
    return ChannelRealization(scn, taps)
