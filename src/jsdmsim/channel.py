"""Scenario geometry, one-ring covariance construction and channel sampling.

Angles are degrees at every interface and converted to radians exactly once,
inside :func:`steering_matrix` and :func:`ccm_one_ring`.  A scenario describes
a uniform linear array serving user groups, each group having a handful of
active multipath components (MPCs) with narrow angular spread.  Mobile groups
get their mean angles shifted by the scenario's ``phi`` before covariances are
built, in one :func:`ccm_one_ring` call per group and one factor call.
A block of shifting angles is built the same way, with one more leading axis
on every mobile group's stack and one call per group for the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# psd_sqrt is not called here; perfbench's tracer looks it up in this module by name
from .linalg import psd_factor, psd_sqrt  # noqa: F401

__all__ = [
    "ChannelRealization",
    "CovarianceSet",
    "FixedCovariances",
    "GroupSpec",
    "Scenario",
    "SpecError",
    "build_covariances",
    "ccm_one_ring",
    "fixed_covariances",
    "sample_channels",
    "steering_matrix",
    "white_coefficients",
]

DEFAULT_N_QUAD = 200


def steering_matrix(thetas_deg, m: int) -> np.ndarray:
    """Unit-norm steering vectors of an M-antenna half-wavelength ULA, as columns.

    Column i is exp(j * k * pi * sin(theta_i)) / sqrt(M) for k = 0..M-1; the
    result has shape (M, len(thetas_deg)).  With k = a * n + c, n = ceil(sqrt(M)),
    each entry is the product of two table entries, exp(j a n pi sin theta) and
    exp(j c pi sin theta) / sqrt(M), so a direction costs n + ceil(M / n) ``exp``
    calls where one per antenna would cost M.  The two phases round apart from
    the one phase k pi sin theta, which is itself rounded to about k eps, so an
    entry moves by that much (below 1e-14 at 128 antennas).
    """
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    n = math.isqrt(m - 1) + 1
    s = np.sin(np.deg2rad(np.asarray(thetas_deg, dtype=float)))
    coarse = np.exp(1j * np.pi * (n * np.arange(-(-m // n)))[:, None] * s)
    fine = np.exp(1j * np.pi * np.arange(n)[:, None] * s) / np.sqrt(m)
    return (coarse[:, None, :] * fine[None, :, :]).reshape(-1, s.size)[:m]


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


class SpecError(ValueError):
    """A broken :class:`GroupSpec` or :class:`Scenario` rule, the field it blames, the
    group's index in the scenario (None in a GroupSpec) and the delay at fault, if any."""

    def __init__(self, rule: str, field: str, group=None, delay=None):
        super().__init__(rule if group is None else f"group {group}: {rule}")
        self.rule, self.field, self.group, self.delay = rule, field, group, delay


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
        self.check(self.n_users, self.n_chains, self.symbol_energy, self.delays, self.spread,
                   self.gain)
        shape = (self.n_users, len(self.delays))
        for name, fit in (("mean_aoa", shape), ("spread", shape), ("gain", shape[:1])):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, np.broadcast_to(value, fit).copy())

    @staticmethod
    def check(n_users, n_chains, symbol_energy, delays, spread, gain) -> None:
        """Raise SpecError when the values break a rule of a group: all of its rules, checked
        before any array is built, so a user count is judged before its AoA table exists."""
        if n_users < 1:
            raise SpecError("group must have at least one user", "n_users")
        if n_chains < 1:
            raise SpecError("group must have at least one RF chain", "n_chains")
        if symbol_energy <= 0:
            raise SpecError("symbol energy must be positive", "symbol_energy")
        repeat = next((d for i, d in enumerate(delays) if d in delays[:i]), None)
        if repeat is not None or not delays:
            raise SpecError("active delays must be non-empty and distinct", "delays", delay=repeat)
        if np.any(np.asarray(spread, dtype=float) <= 0):
            raise SpecError("angular spreads must be positive", "spread")
        if np.any(np.asarray(gain, dtype=float) <= 0):
            raise SpecError("channel gains must be positive", "gain")


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
            raise SpecError("antenna count must be >= 1", "n_antennas")
        if self.noise_power < 0:
            raise ValueError("noise power must be non-negative")
        if not self.groups:
            raise ValueError("scenario needs at least one group")
        for g, spec in enumerate(self.groups):
            if spec.n_chains > self.n_antennas:
                raise SpecError("more RF chains than antennas", "n_chains", g)
            for d in spec.delays:
                if not 0 <= d < self.n_taps:
                    raise SpecError(f"active delay outside 0..{self.n_taps - 1}", "delays", g, d)

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

    ``stacks[g][i, k]``: group g's M x M Hermitian PSD CCM of user k at its i-th active delay
    (``delays[i]``; inactive delays are absent, implicitly zero).  :meth:`factors` caches one
    :func:`~jsdmsim.linalg.psd_factor` call per group: ``factors(g)[i, k]`` is an M x r
    pivoted-Cholesky factor L of that CCM, R = L L^H, with r the largest rank among the
    group's CCMs (columns past a CCM's own rank are zero).  One-ring CCMs have low numerical
    rank (7 of 32 and 11 of 128 antennas on table1), so r is far below M.

    A block of angles (``phis``, the scenario's own phi unused) gives every mobile group's stack
    one more leading axis, one entry per angle; :meth:`angles` splits it into one set per angle,
    views into the block's stacks and copies of any factors it cached, each cut to its angle's
    own largest rank, so an angle's factors and draws are bit for bit those of a one-angle set.
    """

    scenario: Scenario
    stacks: list[np.ndarray]
    phis: np.ndarray | None = None
    _factors: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def factors(self, g: int) -> np.ndarray:
        """Pivoted-Cholesky factors of group g's CCMs, (*B, L, K, M, r) for a ``stacks[g]`` of
        (*B, L, K, M, M)."""
        if g not in self._factors:
            self._factors[g] = psd_factor(self.stacks[g])
        return self._factors[g]

    def angles(self) -> list["CovarianceSet"]:
        """One set per angle of a block, at its own phi; a non-mobile group's stack and
        factors are the block's own objects."""
        groups = self.scenario.groups

        def own(f):
            # the angle's largest rank: its nonzero columns, a prefix of the block's
            return np.ascontiguousarray(f[..., :np.any(f, axis=(0, 1, 2)).sum()])

        return [CovarianceSet(
            self.scenario.with_phi(float(phi)),
            [stack[b] if spec.mobile else stack for spec, stack in zip(groups, self.stacks)],
            _factors={g: own(f[b]) if groups[g].mobile else f for g, f in self._factors.items()})
            for b, phi in enumerate(self.phis)]


def _group_ccms(scn: Scenario, g: int, n_quad: int, phis=None) -> np.ndarray:
    """Group g's (L, K, M, M) CCM stack from one :func:`ccm_one_ring` call; a mobile
    group's stack gains a leading axis with ``phis``."""
    spec = scn.groups[g]
    return ccm_one_ring(scn.effective_aoa(g, phis).swapaxes(-1, -2), spec.spread.T,
                        spec.gain / len(spec.delays), scn.n_antennas, n_quad)


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


def fixed_covariances(scn: Scenario, n_quad: int = DEFAULT_N_QUAD) -> FixedCovariances:
    """Build the non-mobile groups' CCMs of ``scn`` once, for any phi."""
    return FixedCovariances(scn, n_quad, {g: _group_ccms(scn, g, n_quad)
                                          for g, spec in enumerate(scn.groups) if not spec.mobile})


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
        shared = fixed.stacks
    if phis is not None:
        phis = np.asarray(phis, dtype=float)
    return CovarianceSet(scn, [shared[g] if g in shared else _group_ccms(scn, g, n_quad, phis)
                               for g in range(scn.n_groups)], phis)


@dataclass
class ChannelRealization:
    """Instantaneous channel taps: ``taps[g][l]`` is M x K_g at each active delay.

    A block of realizations (see :func:`sample_channels` with ``trials``)
    stacks them along leading axes: ``taps[g][l]`` is then (T, M, K_g).
    """

    scenario: Scenario
    taps: list[dict[int, np.ndarray]]


def white_coefficients(rng: np.random.Generator, trials: int, factors: np.ndarray) -> np.ndarray:
    """Unit-variance circular complex normals z for a group's factors, shape (T, L, K, r).

    ``factors`` is the group's (L, K, M, r) stack (:meth:`CovarianceSet.factors`); a tap is
    L z, which is CN(0, L L^H) = CN(0, R).  One (T, L, K, 2, r) standard-normal draw from
    ``rng``, trial-major: the real then imaginary parts of every user at every active delay,
    trial after trial, so trial t's coefficients do not depend on how many trials follow.
    """
    shape = (trials,) + factors.shape[:-2] + (2, factors.shape[-1])
    z = rng.standard_normal(shape)
    return (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)


def sample_channels(cov: CovarianceSet, seed, groups: list[int] | None = None,
                    trials: int | None = None) -> ChannelRealization:
    """Draw correlated Rayleigh taps, independent across users, delays and trials.

    Deterministic for a given seed: one generator ``default_rng(seed)`` draws each listed
    group in turn (:func:`white_coefficients` of its factors, ``groups`` in order, all
    groups by default; the others come back as zero taps), and each tap is L z.  With
    ``trials``, a count, every tap gains a leading trial axis; without it, one realization,
    trial 0's.  So ``sample_channels(cov, seed, [g], trials)`` colours exactly the draws a
    link pass of group g (:func:`linksim.ergodic_capacity`) makes for an angle of
    covariances ``cov`` and seed ``seed``; the pass projects them before colouring and
    never forms these M-antenna taps.
    """
    scn = cov.scenario
    rng = np.random.default_rng(seed)
    taps: list[dict[int, np.ndarray]] = [{} for _ in range(scn.n_groups)]
    for g in range(scn.n_groups) if groups is None else groups:
        factors = cov.factors(g)
        z = white_coefficients(rng, 1 if trials is None else trials, factors)
        # (T, L, M, K): one matrix-vector product per (trial, delay, user)
        h = np.ascontiguousarray((factors @ z[..., np.newaxis])[..., 0].swapaxes(-1, -2))
        taps[g] = {delay: h[:, i] if trials is not None else h[0, i]
                   for i, delay in enumerate(scn.groups[g].delays)}
    return ChannelRealization(scn, taps)
