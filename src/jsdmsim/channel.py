"""Scenario geometry, one-ring covariance construction and channel sampling.

Angles are degrees at every interface and converted to radians exactly once,
inside :func:`steering_matrix` and :func:`ccm_one_ring`.  A scenario describes
a uniform linear array serving user groups, each group having a handful of
active multipath components (MPCs) with narrow angular spread.  Mobile groups
get their mean angles shifted by the scenario's ``phi`` before covariances are
built, in one :func:`ccm_one_ring` call per group and one square root call.
A block of shifting angles is built the same way, with one more leading axis
on every mobile group's stack and one call per group for the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def ccm_one_ring(mu, delta, power, m: int, n_quad: int = DEFAULT_N_QUAD) -> np.ndarray:
    """One-ring covariances of clusters at mean angles ``mu`` (degrees), shape (*B, M, M).

    ``mu``, ``delta`` and ``power`` broadcast to the batch shape B.  Midpoint-rule quadrature
    of the uniform angular power profile over [mu - delta/2, mu + delta/2], rescaled so the
    trace equals ``power`` exactly.  The result is Hermitian Toeplitz with first column
    c_d = (1/(n M)) sum_q exp(j pi d sin theta_q): one ``exp`` per node and a running product
    over d, so no (B, M, n) table is formed.
    """
    mu, delta, power = np.broadcast_arrays(mu, delta, power)
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    if np.any(delta <= 0):
        raise ValueError("angular spread must be positive")
    if n_quad < 8:
        raise ValueError("n_quad must be >= 8")
    if np.any(power <= 0):
        raise ValueError("power must be positive")
    offsets = (np.arange(n_quad) + 0.5) / n_quad - 0.5
    w = np.exp(1j * np.pi * np.sin(np.deg2rad(mu[..., None] + delta[..., None] * offsets)))
    col = np.empty(mu.shape + (m,), dtype=complex)
    node = np.ones_like(w)
    for d in range(m):
        col[..., d] = node.sum(axis=-1)
        node *= w
    # the trace is m * n_quad, exactly
    col *= (power / (m * n_quad))[..., None]
    # row a of the window below is [c_a, c_(a-1), ..., c_(a-M+1)], c_(-d) = conj(c_d)
    line = np.concatenate([col[..., :0:-1].conj(), col], axis=-1)
    return sliding_window_view(line, m, axis=-1)[..., ::-1].copy()


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

    def effective_aoa(self, g: int, phis=None) -> np.ndarray:
        """Mean AoAs of group g with the mobile shift applied.

        ``phis``, a 1-D array of shifting angles used instead of the scenario's
        own, gives a mobile group's AoAs a leading axis, one entry per angle.
        """
        spec = self.groups[g]
        if not spec.mobile:
            return spec.mean_aoa + 0.0
        return spec.mean_aoa + (self.phi if phis is None else phis[:, None, None])


@dataclass
class CovarianceSet:
    """Per-user per-delay channel covariance matrices of a scenario.

    ``stacks[g]``: group g's CCMs as one (L, K, M, M) array, active delays in ``delays`` order;
    ``ccms[g][k][delay]``: user k's M x M Hermitian PSD matrix, a view into it (inactive delays
    absent, implicitly zero).  :meth:`factors` caches one :func:`psd_sqrt` call per group.

    A block of angles (``phis``, the scenario's own phi unused) gives every mobile group's stack
    and views one more leading axis, one entry per angle; :meth:`angles` splits it into one set
    per angle, views into the block's stacks and into any factors it cached.
    """

    scenario: Scenario
    stacks: list[np.ndarray]
    ccms: list[list[dict[int, np.ndarray]]]
    phis: np.ndarray | None = None
    _factors: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def factors(self, g: int) -> np.ndarray:
        """Hermitian square roots of group g's CCMs, laid out as ``stacks[g]``."""
        if g not in self._factors:
            self._factors[g] = psd_sqrt(self.stacks[g])
        return self._factors[g]

    def sqrt_factor(self, g: int, user: int, delay: int) -> np.ndarray:
        """The square root of ``ccms[g][user][delay]``: a view into :meth:`factors`."""
        return self.factors(g)[..., self.scenario.groups[g].delays.index(delay), user, :, :]

    def angles(self) -> list["CovarianceSet"]:
        """One set per angle of a block, at its own phi; a non-mobile group's stack, views
        and factors are the block's own objects."""
        groups = self.scenario.groups
        return [CovarianceSet(
            self.scenario.with_phi(float(phi)),
            [stack[b] if spec.mobile else stack for spec, stack in zip(groups, self.stacks)],
            [_views(spec, stack[b]) if spec.mobile else views
             for spec, stack, views in zip(groups, self.stacks, self.ccms)],
            _factors={g: f[b] if groups[g].mobile else f for g, f in self._factors.items()})
            for b, phi in enumerate(self.phis)]


def _views(spec: GroupSpec, stack: np.ndarray) -> list[dict[int, np.ndarray]]:
    """``ccms[g]`` of a group's stack: user k's CCM at each active delay, a view."""
    return [{delay: stack[..., i, k, :, :] for i, delay in enumerate(spec.delays)}
            for k in range(spec.n_users)]


def _group_ccms(scn: Scenario, g: int, n_quad: int, phis=None) -> tuple[np.ndarray, list[dict]]:
    """Group g's (L, K, M, M) CCM stack from one :func:`ccm_one_ring` call, and its views;
    a mobile group's stack gains a leading axis with ``phis``."""
    spec = scn.groups[g]
    stack = ccm_one_ring(scn.effective_aoa(g, phis).swapaxes(-1, -2), spec.spread.T,
                         spec.gain / len(spec.delays), scn.n_antennas, n_quad)
    return stack, _views(spec, stack)


@dataclass(frozen=True)
class FixedCovariances:
    """CCMs of a scenario's non-mobile groups, keyed by group index.

    They are the same at every shifting angle, so a sweep builds them once
    (:func:`fixed_covariances`) and hands them to :func:`build_covariances`
    at each angle, laid out as in :class:`CovarianceSet`.  ``scenario`` and
    ``n_quad`` record what they were built from.
    """

    scenario: Scenario
    n_quad: int
    stacks: dict[int, np.ndarray]
    ccms: dict[int, list[dict[int, np.ndarray]]]


def fixed_covariances(scn: Scenario, n_quad: int = DEFAULT_N_QUAD) -> FixedCovariances:
    """Build the non-mobile groups' CCMs of ``scn`` once, for any phi."""
    built = {g: _group_ccms(scn, g, n_quad) for g, spec in enumerate(scn.groups) if not spec.mobile}
    return FixedCovariances(scn, n_quad, {g: stack for g, (stack, _) in built.items()},
                            {g: views for g, (_, views) in built.items()})


def build_covariances(scn: Scenario, n_quad: int = DEFAULT_N_QUAD,
                      fixed: FixedCovariances | None = None, phis=None) -> CovarianceSet:
    """One-ring CCMs for every user and active MPC of the scenario.

    Each user's total gain is split equally across its active MPCs, so the
    per-delay traces sum back to the user's gain.  Mobile-group mean angles
    are offset by the scenario's shifting angle before construction.
    ``fixed`` supplies the non-mobile groups' CCMs, shared rather than
    rebuilt; it must come from :func:`fixed_covariances` of this scenario
    (at any phi, so with the very same groups) and the same ``n_quad``.
    ``phis``, a 1-D array of shifting angles, builds a block instead: each
    mobile group's CCMs at every angle from one :func:`ccm_one_ring` call,
    each angle's bit for bit what a one-angle build gives.
    """
    shared = {}
    if fixed is not None:
        if (fixed.scenario.groups is not scn.groups
                or fixed.scenario.n_antennas != scn.n_antennas or fixed.n_quad != n_quad):
            raise ValueError("fixed covariances were built for another scenario or n_quad")
        shared = {g: (stack, fixed.ccms[g]) for g, stack in fixed.stacks.items()}
    if phis is not None:
        phis = np.asarray(phis, dtype=float)
    built = [shared[g] if g in shared else _group_ccms(scn, g, n_quad, phis)
             for g in range(scn.n_groups)]
    return CovarianceSet(scn, [stack for stack, _ in built], [views for _, views in built], phis)


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
    h = np.ascontiguousarray((cov.factors(g) @ z[..., None])[..., 0].swapaxes(-1, -2))
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
