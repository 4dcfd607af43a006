"""Semi-analytic SC-FDE uplink link evaluation and the sweep's one retry rule.

Capacity evaluation is semi-analytic: given an instantaneous intra-group
effective channel, the soft symbol estimate decomposes into a scaled true
symbol plus uncorrelated residual (Bussgang), whose moments are closed-form
in the per-bin channel and the reduced interference-plus-noise covariance
R = S^H R_eta S (:func:`statistics.reduce`), the one statistical input.
Monte Carlo enters only across channel realizations.  One link pass per unit
of angles (:func:`ergodic_capacity`) evaluates every (angle, design, combiner)
against each angle's own draws, in the reduced dimension: each tap is L z, with
L the M x r pivoted-Cholesky factor of its CCM (r the group's largest rank at
that angle, far below M), so each design projects its angle's factors once,
P = (S U)^H L with R = U diag(sigma) U^H, and each angle draws its white
coefficients z once, from its own generator.  The pass
cuts its (angle, design, trial) triples into equal blocks under one element
budget (``_BLOCK_ELEMENTS``).  Per block, every per-bin K x K matrix comes
from the cross-products of the taps P z at each pair of active delays and one
phase matrix over the bins, each pair with its own weights
(:func:`digital.bin_grams`), with no DFT of the taps; ZF and LMMSE capacities
then follow in closed form (:func:`digital.zf_capacity`,
:func:`digital.lmmse_capacity`), one call each per block, with no M-antenna
channel and no combiner formed.  The explicit path (``sample_channels``,
``effective_channel``, the combiner banks, ``_link_moments``, ``_capacity`` and
:func:`bussgang_report`) computes the same capacities from explicit combiners;
the tests compare the two, and a symbol-level QPSK simulator kept with the tests
checks both.

A stacked call that raises a ValueError is made again member by member, each as a
stack of one (:func:`_each`): the pass's one eigendecomposition call here, and every
stacked stage of the sweep in :mod:`jsdmsim.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import white_coefficients
from .digital import (CombinerBank, EffectiveChannel, SingularBinError, bin_grams, gram,
                      lmmse_capacity, zf_capacity)
from .linalg import DefinitenessError, hermitian_inverse

__all__ = [
    "COMBINER_NAMES",
    "LinkPass",
    "UserLinkReport",
    "bussgang_report",
    "equal_blocks",
    "ergodic_capacity",
]

# The per-bin digital combiners ergodic_capacity can apply.
COMBINER_NAMES = ("zf", "lmmse")

# (angle, design, trial) triples per stacked link call, each with its N per-bin K x K
# matrices: a pass's triples are cut into equal blocks of at most this many (_blocks).  On
# 2 cores with one BLAS thread, warm in-process sweeps took at least these many ms with
# budgets of 32, 64, 100, 200 and 512 triples: table1 at 32 antennas with 200 trials (2
# angles, 4 designs, both combiners) 40.7, 32.7, 29.5, 29.9 and 32.0; the 11-angle
# full-scale sweep (128 antennas, 200 trials) 297, 265, 250, 236 and 253; the 91-angle,
# 32-antenna sweep at 4 trials (2 designs, zf) 66.3 to 72.0 at every budget from 64.  One
# full-scale pass peaks at 1.90, 3.28 and 6.05 MiB under tracemalloc at 64, 100 and 200
# (TestLinkPassMemory).  Each trial is projected on its own and each pair's matrices are
# formed apart, so the budget leaves every result bit for bit unchanged.
_BLOCK_ELEMENTS = 100


@dataclass(frozen=True)
class UserLinkReport:
    """Bussgang decomposition of one user's soft output."""

    a: complex
    b_power: float
    sinr: float
    capacity: float


@dataclass(frozen=True)
class LinkPass:
    """Capacity samples of every (angle, design, combiner) of one link pass.

    ``samples[a * trials + t, i, j]`` holds angle a's trial t per-user capacities of
    design ``designs[i]`` with the pass's combiner j: one row per (angle, trial) draw.
    An entry of a failed pair, or of a design the angle was not given, is NaN;
    ``failures[a]`` maps each of angle a's failed (design, combiner) pairs to its
    ValueError.
    """

    designs: tuple[str, ...]
    samples: np.ndarray
    failures: tuple[dict[tuple[str, str], ValueError], ...]

    def means(self) -> np.ndarray:
        """Each (angle, design, combiner)'s per-user mean capacity, (A, designs, combiners,
        K), NaN for a failed pair."""
        return self.samples.reshape(len(self.failures), -1, *self.samples.shape[1:]).mean(axis=1)


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


def _eigenbasis(s: np.ndarray, r_eta_rd: np.ndarray, factors
                ) -> tuple[list[np.ndarray], np.ndarray]:
    """Designs' projected factors (S U)^H L and their :func:`digital.bin_grams` weights.

    ``s`` (n, M, D) and ``r_eta_rd`` (n, D, D) stack n designs, R = S^H R_eta S =
    U diag(sigma) U^H, and ``factors`` holds each one's pivoted-Cholesky factors of its
    angle's group, (L, K, M, r).  Seen through S U, a unitary right factor that leaves
    every capacity unchanged, the reduced covariance is diag(sigma), so the rows 1, sigma
    and 1 / sigma give G_k, Lambda_k^H R Lambda_k and Lambda_k^H R^-1 Lambda_k (the last
    row is zero unless R is positive definite).  Returns the n (L, K, D, r) projections and
    the (n, 3, D) weights, each member exactly as on its own.
    """
    sigma, u = np.linalg.eigh(r_eta_rd)
    inverse = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    s_u = s @ u
    return ([x.conj().T @ f for x, f in zip(s_u, factors)],
            np.stack([np.ones_like(sigma), sigma, inverse], axis=-2))


@dataclass(frozen=True)
class _Pair:
    """One (angle, design) of a link pass: its indices, projected factors and weights."""

    angle: int
    design: int
    projected: np.ndarray
    weights: np.ndarray


def equal_blocks(count: int, most: int) -> list[slice]:
    """``range(count)`` cut into equal slices of at most ``most`` items (at least one)."""
    if not count:
        return []
    size = math.ceil(count / math.ceil(count / max(most, 1)))
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def _each(call, members: list) -> list:
    """One result per member: ``call(members)``, or, when that raises a ValueError, each
    member's ``call([member])`` (or the ValueError it raised).

    This is the sweep's one retry rule, for every stage from the angles' designs to the
    link pass: a failure stays with its member, with the message of its own unit of one,
    and the other members keep their results, bit for bit.  A call of one member is made
    once.
    """
    if not members:
        return []
    try:
        return call(members)
    except ValueError as exc:
        if len(members) == 1:
            return [exc]
    results = []
    for member in members:
        try:
            results.extend(call([member]))
        except ValueError as exc:
            results.append(exc)
    return results


def _blocks(pairs: list, trials: int) -> list[tuple[list, slice]]:
    """Equal blocks of (pairs, trials) of at most _BLOCK_ELEMENTS triples, in pair order.

    When a pair's trials fit, a block holds whole pairs, as many as fit; otherwise each
    block holds one pair and an equal share of its trials.
    """
    if trials <= _BLOCK_ELEMENTS:
        return [(pairs[block], slice(0, trials))
                for block in equal_blocks(len(pairs), _BLOCK_ELEMENTS // trials)]
    return [([pair], block) for pair in pairs for block in equal_blocks(trials, _BLOCK_ELEMENTS)]


def _singular_trial(bad: np.ndarray, first: int) -> SingularBinError:
    """Error naming the first rank-deficient (trial, bin) of a pair's (T, N) bad-bin mask
    over trials ``first``, ``first`` + 1, ..."""
    trial, bin_idx = np.argwhere(bad)[0]
    return SingularBinError(f"effective channel at bin {bin_idx} of trial {first + trial}"
                            " is rank deficient")


def ergodic_capacity(covs, designs, group: int, combiners: tuple[str, ...] = ("zf",),
                     n: int = 64, trials: int = 200, *, seeds) -> LinkPass:
    """Per-user capacity of every (angle, design, combiner) over each angle's channel draws.

    ``covs``, ``designs`` and ``seeds`` are equal-length sequences, one entry per angle of
    a unit: its :class:`~jsdmsim.channel.CovarianceSet`, designs and seed; unequal lengths
    raise a ValueError.  An angle's designs map a name to its effective analog stage S and
    its reduced interference-plus-noise covariance S^H R_eta S (:func:`statistics.reduce`);
    every S of a pass is M x D, as the pass stacks them.  Only
    group ``group``'s channels are drawn; interference enters through the reduced
    covariance.  Each angle draws one (trials, L, K, 2, r) standard-normal array from
    ``default_rng`` of its seed, trial-major (:func:`channel.white_coefficients` of its
    own factors), the draws ``sample_channels(cov, seed, [group], trials)`` colours, so
    results are reproducible, trial t's do not depend on the trial count, and none depend
    on the other angles, the other pairs or the blocks.  Each design projects its angle's
    factors once, in one :func:`_eigenbasis` call for the pass, made again design by
    design when it fails (:func:`_each`).  The (angle, design, trial) triples are cut into
    equal blocks (:func:`_blocks`); per block, one :func:`digital.bin_grams` call forms
    every per-bin K x K matrix from the taps' lag cross-products, with each pair's own
    weights, and one :func:`digital.zf_capacity` and one :func:`digital.lmmse_capacity`
    call give every pair's capacities in closed form.  A ValueError fails only the pairs
    it belongs to (a bad ZF pivot only its (angle, design), naming the angle's trial),
    which are then skipped; any other exception propagates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for comb in combiners:
        if comb not in COMBINER_NAMES:
            raise ValueError(f"unknown combiner {comb!r}")
    spec = covs[0].scenario.groups[group]
    k = spec.n_users
    names = tuple(dict.fromkeys(name for angle in designs for name in angle))
    samples = np.full((len(covs) * trials, len(names), len(combiners), k), np.nan)
    failures = tuple({} for _ in covs)

    def pending(pair):
        return [comb for comb in combiners
                if (names[pair.design], comb) not in failures[pair.angle]]

    def fail(a, name, combs, exc):
        failures[a].update({(name, comb): exc for comb in combs})
        # a pair that fails in a later block of trials keeps none of its samples
        samples[a * trials:(a + 1) * trials, names.index(name),
                [combiners.index(comb) for comb in combs]] = np.nan

    given = []  # (angle, design name, S, S^H R_eta S, the angle's factors)
    for a, (angle, members, _) in enumerate(zip(covs, designs, seeds, strict=True)):
        try:
            factors = angle.factors(group)
        except ValueError as exc:
            for name in members:
                fail(a, name, combiners, exc)
            continue
        given.extend((a, name, s, r_eta_rd, factors) for name, (s, r_eta_rd) in members.items())

    def prepare(members):
        _, _, s, r_eta_rd, factors = zip(*members)
        projected, weights = _eigenbasis(np.stack(s).astype(complex), np.stack(r_eta_rd),
                                         factors)
        return list(zip(projected, weights))

    # one eigendecomposition call for every design of the pass
    bases = _each(prepare, given)
    if "lmmse" in combiners and given:
        # R must pass the pivot test and have positive eigenvalues (a positive 1 / sigma row)
        indefinite = hermitian_inverse(np.stack([x[3] for x in given], axis=-1))[1]
    pairs, z = [], {}
    for p, ((a, name, *_), basis) in enumerate(zip(given, bases)):
        if isinstance(basis, ValueError):
            fail(a, name, combiners, basis)
            continue
        projected, weights = basis
        d = projected.shape[-2]
        if "zf" in combiners and d < k:
            fail(a, name, ["zf"], SingularBinError(f"zero-forcing needs D >= K, got D={d}, K={k}"))
        if "lmmse" in combiners and (indefinite[p] or not np.all(weights[2] > 0)):
            fail(a, name, ["lmmse"], DefinitenessError(
                "reduced interference-plus-noise covariance is not positive definite"))
        pairs.append(_Pair(a, names.index(name), projected, weights))
        if a not in z:
            # (T, L, K, r, 1): one matrix-vector product per (trial, delay, user), so no
            # trial's taps depend on how many trials share its block
            z[a] = white_coefficients(np.random.default_rng(seeds[a]), trials,
                                      covs[a].factors(group))[..., np.newaxis]
    pairs = [pair for pair in pairs if pending(pair)]
    for block, trial in _blocks(pairs, trials):
        block = [pair for pair in block if pending(pair)]
        if not block:
            continue
        # (D, K, P, T, L): the pairs' taps P z, matrix indices first
        active = np.stack([(pair.projected @ z[pair.angle][trial])[..., 0]
                           for pair in block]).transpose(4, 3, 0, 1, 2)
        try:
            g, h, m = bin_grams(active, spec.delays, covs[0].scenario.n_taps, n,
                                np.stack([pair.weights for pair in block]))
        except ValueError as exc:
            for pair in block:
                fail(pair.angle, names[pair.design], pending(pair), exc)
            continue
        for j, comb in enumerate(combiners):
            members = [p for p, pair in enumerate(block) if comb in pending(pair)]
            if not members:
                continue
            pick = slice(None) if len(members) == len(block) else members
            try:
                if comb == "zf":
                    capacity, bad = zf_capacity(g[:, :, pick], h[:, :, pick],
                                                spec.symbol_energy, k)
                else:
                    capacity = lmmse_capacity(m[:, :, pick], spec.symbol_energy, k)
            except ValueError as exc:
                for p in members:
                    fail(block[p].angle, names[block[p].design], [comb], exc)
                continue
            for row, p in enumerate(members):
                pair = block[p]
                if comb == "zf" and bad[row].any():
                    fail(pair.angle, names[pair.design], [comb],
                         _singular_trial(bad[row], trial.start))
                    continue
                first = pair.angle * trials
                samples[first + trial.start:first + trial.stop, pair.design, j] = capacity[row]
    return LinkPass(names, samples, failures)
