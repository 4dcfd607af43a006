"""Reduced-dimension pilot-based channel estimation and its closed-form nMSE.

Each user of a group sends a length-T unit-modulus pilot sequence; the
stacked post-beamformer observation is linear in the stacked effective
channel through a Kronecker-structured pilot matrix.  LMMSE and (pruned) LS
estimators operate entirely in reduced dimension.  Other groups never need to
be synchronized: they enter only through the reduced interference-plus-noise
covariance, so the estimators are insensitive to their actual sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, CovarianceSet, Scenario

__all__ = [
    "PilotBlock",
    "PilotCovariances",
    "PilotDesignError",
    "build_pilots",
    "effective_covariance",
    "lmmse_estimator",
    "ls_estimator",
    "nmse",
    "pilot_covariances",
    "pilots_from_sequences",
    "receive_pilots",
    "stack_effective",
]


class PilotDesignError(ValueError):
    """The pruned pilot matrix is rank deficient; a longer T is needed."""


@dataclass(frozen=True)
class PilotBlock:
    """Pilot sequences of one group and their equivalent convolution matrix.

    ``sequences`` holds unit-energy symbols (K x T); ``x`` is the T x (K*L)
    stacked matrix whose (i, j) entry within a user's block is the symbol at
    time i-j, negative indices wrapping cyclically, scaled by
    sqrt(``energy``).  Column j of a user's block is therefore the cyclic
    shift by j of column 0.
    """

    group: int
    length: int
    n_taps: int
    energy: float
    sequences: np.ndarray
    x: np.ndarray


def _equivalent_matrix(sequences: np.ndarray, taps: int, energy: float) -> np.ndarray:
    length = sequences.shape[1]
    idx = (np.arange(length)[:, None] - np.arange(taps)[None, :]) % length
    return np.hstack([math.sqrt(energy) * seq[idx] for seq in sequences])


def pilots_from_sequences(scn: Scenario, g: int, sequences,
                          energy: float | None = None) -> PilotBlock:
    """Wrap explicit per-user sequences (K x T, unit energy) as a pilot block."""
    sequences = np.asarray(sequences, dtype=complex)
    spec = scn.groups[g]
    if sequences.shape[0] != spec.n_users:
        raise ValueError(f"expected {spec.n_users} sequences, got {sequences.shape[0]}")
    if energy is None:
        energy = spec.symbol_energy / spec.n_users
    if energy <= 0:
        raise ValueError("pilot energy must be positive")
    x = _equivalent_matrix(sequences, scn.n_taps, float(energy))
    return PilotBlock(g, sequences.shape[1], scn.n_taps, float(energy), sequences, x)


def build_pilots(scn: Scenario, g: int, length: int, seed,
                 energy: float | None = None) -> PilotBlock:
    """Random unit-modulus pilots for every user of group g.

    Per-symbol pilot energy defaults to the group's data-phase value
    E_s / K_g.  Users get distinct derived seeds, so sequences are distinct
    and reproducible.
    """
    if length < 1:
        raise ValueError("pilot length must be >= 1")
    spec = scn.groups[g]
    sequences = np.empty((spec.n_users, length), dtype=complex)
    for u in range(spec.n_users):
        rng = np.random.default_rng([seed, g, u])
        sequences[u] = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, length))
    return pilots_from_sequences(scn, g, sequences, energy)


def receive_pilots(pilots: PilotBlock, real: ChannelRealization, s: np.ndarray,
                   scn: Scenario, seed) -> np.ndarray:
    """Stacked post-beamformer observation over the pilot window.

    The intended group transmits its pilots (cyclic prefix absorbed through
    cyclic indexing); every other group is in asynchronous data mode and
    transmits random QPSK at its data energy.  Returns the (T*D,) vector of
    vertically concatenated reduced observations.
    """
    g = pilots.group
    t_len = pilots.length
    s = np.asarray(s, dtype=complex)
    rng = np.random.default_rng(seed)

    y = np.zeros((scn.n_antennas, t_len), dtype=complex)
    pilot_syms = math.sqrt(pilots.energy) * pilots.sequences
    for delay, h in real.taps[g].items():
        y += h @ np.roll(pilot_syms, delay, axis=1)

    width = t_len + scn.n_taps - 1  # columns represent times -(L-1) .. T-1
    for other, spec in enumerate(scn.groups):
        if other == g or not real.taps[other]:
            continue
        amp = math.sqrt(spec.symbol_energy / spec.n_users)
        data = amp * np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, (spec.n_users, width))))
        for delay, h in real.taps[other].items():
            start = scn.n_taps - 1 - delay
            y += h @ data[:, start:start + t_len]

    noise = (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) / np.sqrt(2.0)
    y += math.sqrt(scn.noise_power) * noise
    return (s.conj().T @ y).T.reshape(-1)


def effective_covariance(cov: CovarianceSet, scn: Scenario, s: np.ndarray,
                         g: int) -> np.ndarray:
    """Covariance R_h of the stacked intra-group effective channel after ``s``.

    Stacking is user-major, then delay, then stream: K blocks of size L*D,
    each itself block-diagonal across delays.
    """
    s = np.asarray(s, dtype=complex)
    d = s.shape[1]
    spec = scn.groups[g]
    taps = scn.n_taps
    size = spec.n_users * taps * d
    r_h = np.zeros((size, size), dtype=complex)
    for u in range(spec.n_users):
        for delay in spec.delays:
            block = s.conj().T @ cov.ccms[g][u][delay] @ s
            lo = (u * taps + delay) * d
            r_h[lo:lo + d, lo:lo + d] = 0.5 * (block + block.conj().T)
    return r_h


def stack_effective(real: ChannelRealization, s: np.ndarray, g: int) -> np.ndarray:
    """Stack one realization's intra-group effective channel (user, delay, stream)."""
    scn = real.scenario
    s = np.asarray(s, dtype=complex)
    d = s.shape[1]
    spec = scn.groups[g]
    out = np.zeros(spec.n_users * scn.n_taps * d, dtype=complex)
    for delay, h in real.taps[g].items():
        eff = s.conj().T @ h
        for u in range(spec.n_users):
            lo = (u * scn.n_taps + delay) * d
            out[lo:lo + d] = eff[:, u]
    return out


@dataclass(frozen=True)
class PilotCovariances:
    """R_ybar and R_ybar_h of the stacked pilot observation model, and tr R_h."""

    r_y: np.ndarray
    r_yh: np.ndarray
    tr_h: float


def pilot_covariances(pilots: PilotBlock, r_h: np.ndarray,
                      r_eta_rd: np.ndarray) -> PilotCovariances:
    """Second-order model of the pilot observation for pilots, R_h and R_eta_rd.

    ``r_h`` is :func:`effective_covariance` and ``r_eta_rd`` the reduced
    interference-plus-noise covariance (:func:`statistics.reduce`).
    :func:`lmmse_estimator` and :func:`nmse` both take the result, so an
    estimate's nMSE builds it once.
    """
    d = r_eta_rd.shape[0]
    phi = np.kron(pilots.x, np.eye(d))
    r_yh = phi @ r_h
    r_y = r_yh @ phi.conj().T + np.kron(np.eye(pilots.length), r_eta_rd)
    return PilotCovariances(0.5 * (r_y + r_y.conj().T), r_yh, np.trace(r_h).real)


def lmmse_estimator(pc: PilotCovariances) -> np.ndarray:
    """LMMSE estimator matrix Z with estimate = Z^H ybar.

    Z = R_ybar^{-1} R_ybar_h; always well posed because the noise term
    I_T kron R_eta_rd is positive definite.
    """
    return np.linalg.solve(pc.r_y, pc.r_yh)


def ls_estimator(pilots: PilotBlock, active_delays, n_streams: int) -> np.ndarray:
    """Least-squares estimator pruned to the active delays.

    Columns of the pilot matrix belonging to inactive taps are removed before
    inverting the normal equations, then zeroed columns are re-inserted so
    inactive-tap estimates are exactly zero.  Needs the pruned matrix to have
    full column rank (roughly T >= K * #active).  ``n_streams`` is the
    beamformer's output dimension D.
    """
    active = sorted(set(int(l) for l in active_delays))
    taps = pilots.n_taps
    if any(l < 0 or l >= taps for l in active):
        raise ValueError("active delay outside pilot matrix range")
    k = pilots.sequences.shape[0]
    keep = [u * taps + l for u in range(k) for l in active]
    x_p = pilots.x[:, keep]
    sing = np.linalg.svd(x_p, compute_uv=False)
    if x_p.shape[0] < x_p.shape[1] or sing[-1] <= 1e-10 * sing[0]:
        raise PilotDesignError(
            f"pruned pilot matrix (T={pilots.length}, cols={x_p.shape[1]}) is rank"
            " deficient; increase the pilot length"
        )
    gram = x_p.conj().T @ x_p
    core = np.linalg.solve(gram, x_p.conj().T).conj().T
    d = int(n_streams)
    z = np.zeros((pilots.length * d, k * taps * d), dtype=complex)
    z_p = np.kron(core, np.eye(d))
    for c, col in enumerate(keep):
        z[:, col * d:(col + 1) * d] = z_p[:, c * d:(c + 1) * d]
    return z


def nmse(z: np.ndarray, pc: PilotCovariances) -> float:
    """Closed-form normalized MSE of an estimator matrix (no Monte Carlo).

    [tr R_h + tr(Z^H R_ybar Z) - 2 Re tr(Z^H R_ybar_h)] / tr R_h.
    LMMSE estimators land in [0, 1]; LS estimators may exceed 1 at low SNR
    (noise amplification through the normal equations), which is expected.
    """
    tr_h = pc.tr_h
    if tr_h <= 0:
        raise ValueError("stacked channel covariance has zero trace; nMSE undefined")
    quad = np.sum(z.conj() * (pc.r_y @ z)).real
    cross = np.sum(z.conj() * pc.r_yh).real
    return float((tr_h + quad - 2.0 * cross) / tr_h)
