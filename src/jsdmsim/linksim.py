"""SC-FDE uplink block simulation and semi-analytic link evaluation.

Capacity evaluation is semi-analytic: given an instantaneous intra-group
effective channel, the soft symbol estimate decomposes into a scaled true
symbol plus uncorrelated residual, whose moments are closed-form in the
per-bin combiners and the reduced interference-plus-noise covariance.  Monte
Carlo enters only across channel realizations.  One link pass per angle
(:func:`ergodic_capacity`) evaluates every (design, combiner) pair against
the same draws, in blocks of trials: one stacked draw per block, one
projection and FFT per design, then the combiners and the moments of every
(trial, bin) pair as elementwise operations on (D, K, trial x bin) views
of the matrix-first arrays (see :mod:`digital`).  The reduced
interference-plus-noise covariance S^H R_eta S (:func:`statistics.reduce`)
is the one statistical input.  The symbol-level simulator
(:func:`simulate_block`) exists as an independent cross-validation path
(unit-energy QPSK); it applies the channel circularly, so the cyclic prefix
is implicit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, CovarianceSet, sample_channels
from .digital import (CombinerBank, EffectiveChannel, effective_channel, gram,
                      lmmse_combiners, zf_combiners)
from .statistics import GroupStatistics, reduce

__all__ = [
    "BlockResult",
    "COMBINER_NAMES",
    "CapacityEstimate",
    "LinkPass",
    "UserLinkReport",
    "bussgang_report",
    "ergodic_capacity",
    "simulate_block",
]

# The per-bin digital combiners ergodic_capacity can apply.
COMBINER_NAMES = ("zf", "lmmse")

# Trials per stacked link evaluation.  On table1 at 32 antennas with 200
# trials, the link pass runs equally fast with blocks of 16 to 200 trials
# (about 0.15 s for two angles; 0.24 s at 8 and 0.35 s at 4 trials), while
# the sweep's traced peak memory grows with the block: 2.2 MB at 16 trials,
# 4.2 MB at 64, 11.7 MB for all 200 at once.
_TRIAL_BLOCK = 16


@dataclass(frozen=True)
class UserLinkReport:
    """Bussgang decomposition of one user's soft output."""

    a: complex
    b_power: float
    sinr: float
    capacity: float


@dataclass(frozen=True)
class BlockResult:
    """Transmitted symbols and soft estimates of one simulated block."""

    symbols: dict[int, np.ndarray]
    estimates: dict[int, np.ndarray]


@dataclass(frozen=True)
class CapacityEstimate:
    """Per-user ergodic capacity estimate with Monte Carlo standard error."""

    mean: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray


@dataclass(frozen=True)
class LinkPass:
    """Capacity samples of every (design, combiner) pair of one link pass.

    ``samples[t, i, j]`` holds trial t's per-user capacities of design
    ``designs[i]`` with combiner ``combiners[j]``; a failed pair's entries
    are NaN and ``errors`` holds its ValueError.
    """

    designs: tuple[str, ...]
    combiners: tuple[str, ...]
    samples: np.ndarray
    errors: dict[tuple[str, str], ValueError]

    def estimate(self, design: str, combiner: str) -> CapacityEstimate:
        """The pair's mean, standard error and samples; raises the pair's error."""
        if (design, combiner) in self.errors:
            raise self.errors[(design, combiner)]
        samples = np.ascontiguousarray(
            self.samples[:, self.designs.index(design), self.combiners.index(combiner)])
        trials = len(samples)
        mean = samples.mean(axis=0)
        stderr = (samples.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1
                  else np.zeros_like(mean))
        return CapacityEstimate(mean, stderr, samples)


def _qpsk(rng: np.random.Generator, shape) -> np.ndarray:
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, shape)))


def simulate_block(real: ChannelRealization, beamformers: dict[int, np.ndarray],
                   combiners: dict[int, CombinerBank], n: int, seed) -> BlockResult:
    """Run one SC-FDE block of length ``n`` through the full receive chain.

    All groups of ``real.scenario`` transmit i.i.d. QPSK at per-user energy
    E_s/K; the circular channel applies each active tap to the cyclically
    delayed symbol stream.  Groups listed in ``beamformers``/``combiners``
    get demodulated: analog projection, normalized DFT, per-bin combining,
    inverse DFT.
    """
    scn = real.scenario
    if n < scn.n_taps:
        raise ValueError(f"block length {n} shorter than delay spread {scn.n_taps}")
    rng = np.random.default_rng(seed)

    symbols: dict[int, np.ndarray] = {}
    y = np.zeros((scn.n_antennas, n), dtype=complex)
    for g, spec in enumerate(scn.groups):
        x = _qpsk(rng, (spec.n_users, n)) * math.sqrt(spec.symbol_energy / spec.n_users)
        symbols[g] = x
        for delay, h in real.taps[g].items():
            y += h @ np.roll(x, delay, axis=1)
    noise = (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) / np.sqrt(2.0)
    y += math.sqrt(scn.noise_power) * noise

    estimates: dict[int, np.ndarray] = {}
    for g, s in beamformers.items():
        bank = combiners[g]
        if bank.n_bins != n:
            raise ValueError(f"combiner bank of group {g} built for N={bank.n_bins}, not {n}")
        y_red = np.asarray(s, dtype=complex).conj().T @ y
        y_freq = np.fft.fft(y_red, axis=1) / np.sqrt(n)
        x_freq = np.einsum("dkn,dn->kn", bank.w.conj(), y_freq)
        estimates[g] = np.fft.ifft(x_freq, axis=1) * np.sqrt(n)
    return BlockResult(symbols, estimates)


def _link_moments(eff: EffectiveChannel, combiners: CombinerBank, r_eta_rd: np.ndarray,
                  e: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude a and soft-output power E|x^|^2 of every user, shape (..., K).

    a       = (1/N) sum_k w_k^H Lambda_k e_user,
    E|x^|^2 = (1/N) sum_k w_k^H ((E/K) Lambda_k Lambda_k^H + R_eta_rd) w_k,
    with ``e`` = E/K, over the bins of every realization stacked in ``eff``.
    """
    if eff.n_bins != combiners.n_bins:
        raise ValueError("effective channel and combiners disagree on block length")
    d, k = eff.freq.shape[:2]
    w, lam = combiners.w.reshape(d, k, -1), eff.freq.reshape(d, k, -1)
    rows = gram(w, lam)
    a = rows[range(k), range(k)]
    sig = e * (np.abs(rows) ** 2).sum(axis=1)
    # one product over every bin and user: R_eta_rd is shared by the whole stack
    r_w = (r_eta_rd @ w.reshape(d, -1)).reshape(w.shape)
    noise = (w.conj() * r_w).sum(axis=0).real
    per_bin = (k,) + eff.freq.shape[2:]
    a, power = (np.moveaxis(x.reshape(per_bin).mean(axis=-1), 0, -1) for x in (a, sig + noise))
    return a, power


def _capacity(a: np.ndarray, est_power: np.ndarray, e: float):
    """Residual power b = E|x^|^2 - e|a|^2, SINR e|a|^2 / b and log2(1 + SINR).

    Tiny negative b (round-off) clips to 0; b = 0 gives SINR 0 when a = 0 and
    infinity otherwise.
    """
    b_power = est_power - e * np.abs(a) ** 2
    bad = b_power < -1e-12 * np.maximum(est_power, 1.0)
    if bad.any():
        raise ValueError(f"inconsistent moments: residual power {b_power[bad][0]:.3e} < 0")
    b_power = np.maximum(b_power, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(b_power == 0.0, np.where(a == 0, 0.0, np.inf),
                        e * np.abs(a) ** 2 / b_power)
    return b_power, sinr, np.log2(1.0 + sinr)


def bussgang_report(eff: EffectiveChannel, combiners: CombinerBank, r_eta_rd: np.ndarray,
                    symbol_energy: float, n_users: int, user: int) -> UserLinkReport:
    """Closed-form amplitude, residual power, SINR and capacity of one user.

    One realization's view of the moments :func:`ergodic_capacity` evaluates
    for whole trial blocks (see ``_link_moments`` and ``_capacity``).
    Deterministic given its inputs.
    """
    e = symbol_energy / n_users
    a, est_power = _link_moments(eff, combiners, r_eta_rd, e)
    a, est_power = a[..., user], est_power[..., user]
    b_power, sinr, capacity = _capacity(a, est_power, e)
    return UserLinkReport(complex(a), float(b_power), float(sinr), float(capacity))


def ergodic_capacity(cov: CovarianceSet, stats: GroupStatistics, designs: Mapping[str, np.ndarray],
                     group: int, combiners: tuple[str, ...] = ("zf",), n: int = 64,
                     trials: int = 200, seed=0) -> LinkPass:
    """Per-user capacity of every (design, combiner) pair over shared channel draws.

    ``designs`` maps a name to its effective analog stage; ``stats`` is the
    evaluated group's statistics of ``cov``.  Only that group's channels are
    sampled; interference enters through its statistical reduced covariance.
    Trial t draws its channel from the seed ``[seed, t]``, so results are
    reproducible and independent of the trial block size and of the other
    pairs.  Each block of ``_TRIAL_BLOCK`` trials is drawn once, projected
    once per design and combined once per pair.  A ValueError fails only the
    pairs it belongs to, which are then skipped; any other exception
    propagates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for comb in combiners:
        if comb not in COMBINER_NAMES:
            raise ValueError(f"unknown combiner {comb!r}")
    spec = cov.scenario.groups[group]
    e = spec.symbol_energy / spec.n_users
    names = tuple(designs)
    samples = np.full((trials, len(names), len(combiners), spec.n_users), np.nan)
    errors: dict[tuple[str, str], ValueError] = {}

    def pending(name):
        return [comb for comb in combiners if (name, comb) not in errors]

    def fail(name, combs, exc):
        errors.update({(name, comb): exc for comb in combs})

    reduced = {}
    for name in names:
        try:
            reduced[name] = reduce(stats, designs[name])
        except ValueError as exc:
            fail(name, combiners, exc)
    for start in range(0, trials, _TRIAL_BLOCK):
        if not any(pending(name) for name in names):
            break
        block = range(start, min(start + _TRIAL_BLOCK, trials))
        try:
            real = sample_channels(cov, seed, groups=[group], trials=block)
        except ValueError as exc:
            for name in names:
                fail(name, pending(name), exc)
            break
        for i, name in enumerate(names):
            combs = pending(name)
            if not combs:
                continue
            try:
                eff = effective_channel(designs[name], real, group, n)
            except ValueError as exc:
                fail(name, combs, exc)
                continue
            r_eta_rd = reduced[name]
            for comb in combs:
                try:
                    if comb == "zf":
                        bank = zf_combiners(eff)
                    else:
                        bank = lmmse_combiners(eff, r_eta_rd, spec.symbol_energy, spec.n_users)
                    samples[block.start:block.stop, i, combiners.index(comb)] = _capacity(
                        *_link_moments(eff, bank, r_eta_rd, e), e)[2]
                except ValueError as exc:
                    fail(name, [comb], exc)
    return LinkPass(names, tuple(combiners), samples, errors)
