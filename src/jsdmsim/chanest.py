"""Reduced-dimension pilot-based channel estimation and its closed-form nMSE.

Each user of a group sends a length-T unit-modulus pilot sequence; the
stacked post-beamformer observation is linear in the stacked effective
channel through a Kronecker-structured pilot matrix.  LMMSE and (pruned) LS
estimators operate entirely in reduced dimension.  Other groups never need to
be synchronized: they enter only through the reduced interference-plus-noise
covariance, so the estimators are insensitive to their actual sequences.

Only the active (user, delay) pairs carry a channel: a tap outside the
group's active delays is zero, so it has no block in the model.  The stacked
effective channel, its covariance R_h (:func:`effective_covariance`), the
pilot model (:func:`pilot_covariances`), both estimators and :func:`nmse`
run over the active blocks only, stacked user-major, then active delay in
the order given, then stream: K * L_active * D entries, not K * taps * D.
The taps left out are known zeros, so they add no error to the nMSE.

The model runs on stacks as well: beamformers (..., M, D) against CCMs, pilot
blocks (:func:`stack_pilots`) and reduced covariances whose leading axes broadcast
with them, such as a unit's (design, angle) grid, each member bit for bit what it
gives on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Scenario

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
    "stack_pilots",
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
    shift by j of column 0.  A stack of blocks (:func:`stack_pilots`) has
    leading axes on ``sequences`` and ``x``.
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


def stack_pilots(blocks) -> PilotBlock:
    """Pilot blocks of one group, length and energy as one block with a leading axis."""
    first = blocks[0]
    return PilotBlock(first.group, first.length, first.n_taps, first.energy,
                      np.stack([b.sequences for b in blocks]), np.stack([b.x for b in blocks]))


def effective_covariance(ccms: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Covariance R_h of a group's stacked active effective channel after ``s``.

    ``ccms`` is the group's (L, K, M, M) CCM stack (``CovarianceSet.stacks[g]``).
    Stacking is user-major, then active delay in ``delays`` order, then
    stream: block-diagonal with one D x D block S^H C S per active (user,
    delay) CCM C.  Stacks of beamformers (..., M, D) and of CCMs (..., L, K, M, M)
    broadcast along their leading axes.
    """
    s = np.asarray(s, dtype=complex)[..., np.newaxis, np.newaxis, :, :]
    d = s.shape[-1]
    # (..., L, K, D, D) reduced CCMs from one batched product, then user-major
    blocks = s.conj().swapaxes(-1, -2) @ ccms @ s
    blocks = blocks.swapaxes(-4, -3).reshape(blocks.shape[:-4] + (-1, d, d))
    blocks = 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))
    n = blocks.shape[-3]
    r_h = np.zeros(blocks.shape[:-3] + (n, d, n, d), dtype=complex)
    for j in range(n):
        r_h[..., j, :, j, :] = blocks[..., j, :, :]
    return r_h.reshape(blocks.shape[:-3] + (n * d, n * d))


@dataclass(frozen=True)
class PilotCovariances:
    """R_ybar and R_ybar_h of the stacked pilot observation model, and tr R_h (one per
    member of a stack)."""

    r_y: np.ndarray
    r_yh: np.ndarray
    tr_h: float | np.ndarray


def _active_columns(pilots: PilotBlock, delays) -> np.ndarray:
    """The columns of ``pilots.x`` of every user at ``delays``, user-major."""
    delays = [int(l) for l in delays]
    taps = pilots.n_taps
    if any(l < 0 or l >= taps for l in delays):
        raise ValueError("active delay outside pilot matrix range")
    if len(set(delays)) != len(delays):
        raise ValueError("active delays must be distinct")
    k = pilots.sequences.shape[-2]
    return pilots.x[..., [u * taps + l for u in range(k) for l in delays]]


def pilot_covariances(pilots: PilotBlock, delays, r_h: np.ndarray,
                      r_eta_rd: np.ndarray) -> PilotCovariances:
    """Second-order model of the pilot observation over the (user, delay) pairs at ``delays``.

    ``r_h`` is :func:`effective_covariance` (stacked over the same ``delays``)
    and ``r_eta_rd`` the reduced interference-plus-noise covariance
    (:func:`statistics.reduce`).  :func:`lmmse_estimator` and :func:`nmse`
    both take the result, so an estimate's nMSE builds it once.
    """
    d = r_eta_rd.shape[-1]
    phi = np.kron(_active_columns(pilots, delays), np.eye(d))
    r_yh = phi @ r_h
    r_y = r_yh @ phi.conj().swapaxes(-1, -2) + np.kron(np.eye(pilots.length), r_eta_rd)
    return PilotCovariances(0.5 * (r_y + r_y.conj().swapaxes(-1, -2)), r_yh,
                            np.trace(r_h, axis1=-2, axis2=-1).real)


def lmmse_estimator(pc: PilotCovariances) -> np.ndarray:
    """LMMSE estimator matrix Z with estimate = Z^H ybar.

    Z = R_ybar^{-1} R_ybar_h; always well posed because the noise term
    I_T kron R_eta_rd is positive definite.
    """
    return np.linalg.solve(pc.r_y, pc.r_yh)


def ls_estimator(pilots: PilotBlock, active_delays, n_streams: int) -> np.ndarray:
    """Least-squares estimator over the active delays, in their given order.

    Only the pilot matrix's columns of the active taps enter the normal
    equations, and the estimate has one entry per active (user, delay,
    stream): the inactive taps are known zeros and get none.  Needs the
    pruned matrix to have full column rank (roughly T >= K * #active).
    ``n_streams`` is the beamformer's output dimension D.
    """
    x_p = _active_columns(pilots, active_delays)
    sing = np.linalg.svd(x_p, compute_uv=False)
    if x_p.shape[-2] < x_p.shape[-1] or np.any(sing[..., -1] <= 1e-10 * sing[..., 0]):
        raise PilotDesignError(
            f"pruned pilot matrix (T={pilots.length}, cols={x_p.shape[-1]}) is rank"
            " deficient; increase the pilot length"
        )
    x_h = x_p.conj().swapaxes(-1, -2)
    core = np.linalg.solve(x_h @ x_p, x_h).conj().swapaxes(-1, -2)
    return np.kron(core, np.eye(int(n_streams)))


def nmse(z: np.ndarray, pc: PilotCovariances):
    """Closed-form normalized MSE of an estimator matrix (no Monte Carlo).

    [tr R_h + tr(Z^H R_ybar Z) - 2 Re tr(Z^H R_ybar_h)] / tr R_h, one value per
    member of a stack.  LMMSE estimators land in [0, 1]; LS estimators may exceed 1
    at low SNR (noise amplification through the normal equations), which is expected.
    """
    tr_h = pc.tr_h
    if np.any(tr_h <= 0):
        raise ValueError("stacked channel covariance has zero trace; nMSE undefined")
    quad = np.sum(z.conj() * (pc.r_y @ z), axis=(-2, -1)).real
    cross = np.sum(z.conj() * pc.r_yh, axis=(-2, -1)).real
    return (tr_h + quad - 2.0 * cross) / tr_h
