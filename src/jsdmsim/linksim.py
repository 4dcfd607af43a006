"""SC-FDE uplink block simulation and semi-analytic link evaluation.

Capacity evaluation is semi-analytic: given an instantaneous intra-group
effective channel, the soft symbol estimate decomposes into a scaled true
symbol plus uncorrelated residual (Bussgang), whose moments are closed-form
in the per-bin channel and the reduced interference-plus-noise covariance
R = S^H R_eta S (:func:`statistics.reduce`), the one statistical input.
Monte Carlo enters only across channel realizations.  One link pass per
angle (:func:`ergodic_capacity`) evaluates every (design, combiner) pair
against the same draws, in the reduced dimension: each tap is L z, with L
the M x r pivoted-Cholesky factor of its CCM (r the group's largest rank,
far below M), so each design projects the group's factors once,
P = (S U)^H L with R = U diag(sigma) U^H, and the pass draws its white
coefficients z once, from one generator.  Per design and block of trials
every per-bin K x K matrix comes from the cross-products of the taps P z at
each pair of active delays and one phase matrix over the bins
(:func:`digital.bin_grams`), with no DFT of the taps; ZF and LMMSE
capacities then follow in closed form (:func:`digital.zf_capacity`,
:func:`digital.lmmse_capacity`), with no M-antenna channel and no combiner
formed.  The explicit path (``sample_channels``, ``effective_channel``, the
combiner banks, ``_link_moments``, ``_capacity`` and :func:`bussgang_report`)
computes the same capacities from explicit combiners; the tests compare the
two.  The symbol-level simulator (:func:`simulate_block`) exists as an
independent cross-validation path (unit-energy QPSK); it applies the
channel circularly, so the cyclic prefix is implicit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, CovarianceSet, white_coefficients
from .digital import (CombinerBank, EffectiveChannel, SingularBinError, bin_grams, gram,
                      lmmse_capacity, zf_capacity)
from .linalg import DefinitenessError, hermitian_inverse

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

# Trials per stacked link evaluation.  On 2 cores, warm in-process runs of table1
# at 32 antennas with 200 trials (two angles, four designs, both combiners) spent
# at least 34, 27, 22, 19, 19 and 23 ms in the link pass with blocks of 16, 32, 64,
# 100, 128 and 200 trials; the 11-angle full-scale table1 sweep (128 antennas) at
# least 130, 109, 111 and 114 ms with blocks of 64, 100, 128 and 200.  End to end
# the larger blocks were not resolved: in ten alternating benchmark pairs of the
# 32-antenna sweep a block of 100 ran more angles per second than 64 in 7 pairs, a
# block of 128 in 6.  Traced peak memory grows with the block: 2.4, 3.4, 4.2 and
# 6.2 MB at 64, 100, 128 and 200 trials for the 32-antenna sweep, 9.7, 9.7, 10.5
# and 12.4 MB for the full-scale one.  The pass draws every trial at once and each
# trial is projected on its own, so the block size leaves every result bit for bit
# unchanged.
_TRIAL_BLOCK = 64


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


def _eigenbasis(s: np.ndarray, r_eta_rd: np.ndarray, factors: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """A design's projected factors (S U)^H L and its :func:`digital.bin_grams` weights.

    R = S^H R_eta S = U diag(sigma) U^H.  Seen through S U, a unitary right factor that
    leaves every capacity unchanged, the reduced covariance is diag(sigma), so the rows 1,
    sigma and 1 / sigma give G_k, Lambda_k^H R Lambda_k and Lambda_k^H R^-1 Lambda_k (the
    last row is zero unless R is positive definite).  ``factors`` are the group's
    pivoted-Cholesky factors, (L, K, M, r); the projection is (L, K, D, r).
    """
    sigma, u = np.linalg.eigh(r_eta_rd)
    inverse = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    s_u = np.asarray(s, dtype=complex) @ u
    return s_u.conj().T @ factors, np.stack([np.ones_like(sigma), sigma, inverse])


def ergodic_capacity(cov: CovarianceSet, designs: Mapping[str, tuple[np.ndarray, np.ndarray]],
                     group: int, combiners: tuple[str, ...] = ("zf",), n: int = 64,
                     trials: int = 200, seed=0) -> LinkPass:
    """Per-user capacity of every (design, combiner) pair over shared channel draws.

    ``designs`` maps a name to its effective analog stage S and its reduced
    interference-plus-noise covariance S^H R_eta S (:func:`statistics.reduce`).
    Only group ``group``'s channels are drawn; interference enters through
    the reduced covariance.  The pass draws one (trials, L, K, 2, r) standard-normal
    array from ``default_rng(seed)``, trial-major (:func:`channel.white_coefficients`
    of the group's factors), the draws ``sample_channels(cov, seed, [group], trials)``
    colours, so results are reproducible, trial t's do not depend on the trial count,
    and none depend on the trial block size or on the other pairs.  Each design
    projects the group's factors once (:func:`_eigenbasis`); per block of
    ``_TRIAL_BLOCK`` trials its taps P z give every per-bin K x K matrix through their
    lag cross-products (:func:`digital.bin_grams`), and each pair's capacities follow
    in closed form (:func:`digital.zf_capacity`, :func:`digital.lmmse_capacity`).  A
    ValueError fails only the pairs it belongs to, which are then skipped; any other
    exception propagates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for comb in combiners:
        if comb not in COMBINER_NAMES:
            raise ValueError(f"unknown combiner {comb!r}")
    scn = cov.scenario
    spec = scn.groups[group]
    k = spec.n_users
    names = tuple(designs)
    samples = np.full((trials, len(names), len(combiners), k), np.nan)
    errors: dict[tuple[str, str], ValueError] = {}

    def pending(name):
        return [comb for comb in combiners if (name, comb) not in errors]

    def fail(name, combs, exc):
        errors.update({(name, comb): exc for comb in combs})

    prepared = {}
    for name in names:
        s, r_eta_rd = designs[name]
        try:
            prepared[name] = _eigenbasis(s, r_eta_rd, cov.factors(group))
        except ValueError as exc:
            fail(name, combiners, exc)
            continue
        projected, weights = prepared[name]
        d = projected.shape[-2]
        if "zf" in combiners and d < k:
            fail(name, ["zf"], SingularBinError(f"zero-forcing needs D >= K, got D={d}, K={k}"))
        # R must pass the pivot test and have positive eigenvalues (a positive 1 / sigma row)
        if "lmmse" in combiners and (hermitian_inverse(r_eta_rd)[1] or not np.all(weights[2] > 0)):
            fail(name, ["lmmse"], DefinitenessError(
                "reduced interference-plus-noise covariance is not positive definite"))
    if prepared:
        # (T, L, K, r, 1): one matrix-vector product per (trial, delay, user), so no
        # trial's taps depend on how many trials share its block
        z = white_coefficients(np.random.default_rng(seed), trials,
                               cov.factors(group))[..., np.newaxis]
    for start in range(0, trials, _TRIAL_BLOCK):
        if not any(pending(name) for name in names):
            break
        block = slice(start, min(start + _TRIAL_BLOCK, trials))
        for i, name in enumerate(names):
            combs = pending(name)
            if not combs:
                continue
            projected, weights = prepared[name]
            try:
                g, h, m = bin_grams((projected @ z[block])[..., 0].transpose(3, 2, 0, 1),
                                    spec.delays, scn.n_taps, n, weights)
            except ValueError as exc:
                fail(name, combs, exc)
                continue
            for comb in combs:
                try:
                    samples[block, i, combiners.index(comb)] = (
                        zf_capacity(g, h, spec.symbol_energy, k) if comb == "zf"
                        else lmmse_capacity(m, spec.symbol_energy, k))
                except ValueError as exc:
                    fail(name, [comb], exc)
    return LinkPass(names, tuple(combiners), samples, errors)
