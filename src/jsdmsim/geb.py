"""Unconstrained statistical analog beamformer: the generalized eigenbeamformer.

The beamformer maximizing the reduced-dimension mutual information between the
post-beamformer observation and the intended group's signal is spanned by the
dominant generalized eigenvectors of the (signal, interference-plus-noise)
covariance pencil.  Columns are QR-orthonormalized, which leaves the cost
unchanged (any invertible right-factor does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import fix_phases, generalized_hermitian_eig, qr
from .statistics import GroupStatistics, _check_rank

__all__ = ["UnconstrainedBeamformer", "compute_geb", "reduced_mutual_info"]


@dataclass(frozen=True)
class UnconstrainedBeamformer:
    """Orthonormal-column beamformer plus the pencil eigenvalues it retains.

    With near-equal eigenvalues only the column span is well defined, so
    consumers should compare projectors S S^H rather than columns.  A block of
    angles stacks both along a leading axis, and :meth:`angle` picks one.
    """

    s: np.ndarray
    gen_eigenvalues: np.ndarray

    def __post_init__(self):
        gram = self.s.conj().swapaxes(-1, -2) @ self.s
        if np.any(np.linalg.norm(gram - np.eye(self.s.shape[-1]), axis=(-2, -1)) > 1e-8):
            raise ValueError("beamformer columns must be orthonormal")

    def angle(self, b: int) -> "UnconstrainedBeamformer":
        """Angle b of a block; one that does not move with the angle (no group of the
        statistics moves) is every angle's."""
        return self if self.s.ndim == 2 else UnconstrainedBeamformer(self.s[b],
                                                                     self.gen_eigenvalues[b])


def compute_geb(stats: GroupStatistics, n_chains: int) -> UnconstrainedBeamformer:
    """Dominant generalized eigenvectors of (r_s, r_eta), QR-orthonormalized.

    Eigenvector phases are fixed (largest entry real positive) before QR so
    the output is deterministic across runs.  Statistics of a block of angles
    (either matrix stacked along a leading axis) are solved in one pencil call,
    each angle exactly as on its own, into a stacked beamformer.
    """
    m = stats.r_s.shape[-1]
    if n_chains > m:
        raise ValueError(f"cannot allocate {n_chains} chains on {m} antennas")
    dec = generalized_hermitian_eig(stats.r_s, stats.r_eta)
    top = fix_phases(dec.vectors[..., :n_chains])
    q, _ = qr(top)
    return UnconstrainedBeamformer(q, dec.values[..., :n_chains].copy())


def reduced_mutual_info(stats: GroupStatistics, s: np.ndarray) -> float:
    """Mutual information (bits) preserved after beamformer ``s``.

    log2 det(I + (S^H r_eta S)^{-1} (S^H r_s S)).  Invariant under
    right-multiplication of S by any invertible matrix.
    """
    s = np.asarray(s, dtype=complex)
    _check_rank(s)
    r_s_rd = s.conj().T @ stats.r_s @ s
    r_eta_rd = s.conj().T @ stats.r_eta @ s
    ratio = np.linalg.solve(r_eta_rd, r_s_rd)
    _, logdet = np.linalg.slogdet(np.eye(s.shape[1]) + ratio)
    return float(logdet / np.log(2.0))
