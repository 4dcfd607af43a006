"""Group-level signal/interference covariance algebra in full and reduced dimension.

The full-dimension pair (R_s, R_eta) drives the eigenbeamformer design and
the expected-SINR score.  After a candidate beamformer S, the link layer
needs one reduced quantity, S^H R_eta S (:func:`reduce`): the LMMSE
combiners, the link moments and the channel estimators' pilot model read it.
Delay sums always run over all active MPCs including tap 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CovarianceSet

__all__ = [
    "GroupStatistics",
    "expected_sinr",
    "group_statistics",
    "reduce",
]


@dataclass(frozen=True)
class GroupStatistics:
    """Intended-group signal covariance and interference-plus-noise covariance.

    Statistics of a block of angles (:func:`group_statistics` of a block
    :class:`~jsdmsim.channel.CovarianceSet`) stack either matrix along a
    leading axis, one entry per angle, when it moves with the angle; a matrix
    that does not move stays one M x M matrix.  :meth:`angle` picks one angle.
    """

    r_s: np.ndarray
    r_eta: np.ndarray

    def angle(self, b: int) -> "GroupStatistics":
        """Angle b of a block."""
        return GroupStatistics(*(x if x.ndim == 2 else x[b] for x in (self.r_s, self.r_eta)))


def _group_sum(cov: CovarianceSet, g: int) -> np.ndarray:
    """Sum of all CCMs of group g over users and active delays (of each angle of a block)."""
    spec = cov.scenario.groups[g]
    stack = cov.stacks[g]
    total = np.zeros(stack.shape[:-4] + stack.shape[-2:], dtype=complex)
    for k in range(spec.n_users):
        for i in range(len(spec.delays)):
            total += stack[..., i, k, :, :]
    return total


def group_statistics(cov: CovarianceSet, g: int) -> GroupStatistics:
    """Signal and interference-plus-noise covariances of group g.

    r_s   = (E_s / K_g)  * sum over g's users and delays of the CCMs,
    r_eta = sum over other groups g' of (E_s' / K_g') * their CCM sum
            + N_0 * I,
    summed in that order (groups, then users, then delays).  For a block
    ``cov`` each sum runs along the block axis, and r_eta stays one M x M
    matrix when no other group moves with the angle.
    """
    scn = cov.scenario
    if not 0 <= g < scn.n_groups:
        raise ValueError(f"unknown group index {g}")
    m = scn.n_antennas
    r_s = (scn.groups[g].symbol_energy / scn.groups[g].n_users) * _group_sum(cov, g)
    r_eta = scn.noise_power * np.eye(m, dtype=complex)
    for other in range(scn.n_groups):
        if other == g:
            continue
        spec = scn.groups[other]
        r_eta = r_eta + (spec.symbol_energy / spec.n_users) * _group_sum(cov, other)
    return GroupStatistics(*(0.5 * (r + r.conj().swapaxes(-1, -2)) for r in (r_s, r_eta)))


_RANK_MESSAGE = "beamformer must have full column rank"


def _full_rank(s: np.ndarray) -> np.ndarray:
    """Whether a beamformer (M, D), or each beamformer of a stack (..., M, D), has full
    column rank: one ``matrix_rank`` call, each member ranked as on its own."""
    return np.linalg.matrix_rank(s) == s.shape[-1]


def _check_rank(s: np.ndarray) -> None:
    if not _full_rank(s):
        raise ValueError(_RANK_MESSAGE)


def reduce(stats: GroupStatistics, s: np.ndarray) -> np.ndarray:
    """Reduced interference-plus-noise covariance S^H R_eta S of a full-column-rank S.

    A lone S has its rank checked here.  A stack (..., M, D), against statistics whose
    leading axes broadcast with it, is reduced in one product, each member exactly as
    on its own; its ranks are its caller's to check (``_full_rank`` of the stack, one
    flag per member), so that a failure stays with its beamformer.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim == 2:
        _check_rank(s)
    return s.conj().swapaxes(-1, -2) @ stats.r_eta @ s


def expected_sinr(stats: GroupStatistics, s: np.ndarray):
    """Trace-ratio SINR of the group after a nonzero beamformer ``s``.

    tr(S^H R_s S) / tr(S^H R_eta S); scale-invariant in S, strictly positive
    denominator whenever the noise power is.  A trace ratio needs no column
    rank: a design's rank is checked once, with :func:`reduce`.  A stack of
    beamformers (..., M, D), against statistics whose leading axes broadcast
    with it, is scored in one product per trace, each exactly as on its own,
    into an array of ratios.
    """
    s = np.asarray(s, dtype=complex)
    s_h = s.conj().swapaxes(-1, -2)
    num = np.trace(s_h @ stats.r_s @ s, axis1=-2, axis2=-1).real
    den = np.trace(s_h @ stats.r_eta @ s, axis1=-2, axis2=-1).real
    return num / den
