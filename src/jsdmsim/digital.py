"""Frequency-domain effective channels and per-bin digital combiners.

The analog stage (including any compensation matrix) collapses the array to
D_g streams; what remains per frequency bin is a small D_g x K_g channel that
either a zero-forcing or an LMMSE combiner inverts.  The LMMSE variant uses
the statistical reduced-dimension interference-plus-noise covariance, never
the instantaneous interferer channels, which are unknown at the receiver.
Every function accepts a block of realizations stacked along leading axes and
combines all of its bins with one stacked ``inv`` or ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .statistics import ReducedStatistics

__all__ = [
    "CombinerBank",
    "EffectiveChannel",
    "SingularBinError",
    "effective_channel",
    "lmmse_combiners",
    "zf_combiners",
]


class SingularBinError(ValueError):
    """A per-bin channel lost the column rank zero-forcing needs."""


@dataclass(frozen=True)
class EffectiveChannel:
    """Reduced-dimension taps and their N-point DFT across bins.

    ``taps[l]`` is D x K for l = 0..L-1 (zeros on inactive delays);
    ``freq[k]`` is its DFT sum_l taps[l] e^{-j 2 pi k l / N}.  A block of
    realizations adds leading axes: taps (..., L, D, K), freq (..., N, D, K).
    """

    taps: np.ndarray
    freq: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.freq.shape[-3]


@dataclass(frozen=True)
class CombinerBank:
    """Per-bin combiners ``w[..., k, :, :]`` (D x K); applied as w^H to bin k."""

    w: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.w.shape[-3]


def effective_channel(s: np.ndarray, real: ChannelRealization, g_src: int,
                      n: int) -> EffectiveChannel:
    """Project group ``g_src``'s channel taps through beamformer ``s``.

    ``s`` is the overall analog stage including compensation.  ``n`` is the
    SC-FDE block length and must cover the delay spread.  A block of
    realizations is projected and transformed in one product and one FFT.
    """
    scn = real.scenario
    if n < scn.n_taps:
        raise ValueError(f"block length {n} shorter than delay spread {scn.n_taps}")
    s = np.asarray(s, dtype=complex)
    group = real.taps[g_src]
    h = np.stack(list(group.values()), axis=-3)
    taps = np.zeros(h.shape[:-3] + (scn.n_taps, s.shape[1], h.shape[-1]), dtype=complex)
    taps[..., list(group), :, :] = s.conj().T @ h
    freq = np.fft.fft(taps, n=n, axis=-3)
    return EffectiveChannel(taps, freq)


def _singular_bin(bad: np.ndarray) -> SingularBinError:
    """Error naming the first rank-deficient (realization, bin) of a bad-bin mask."""
    *lead, bin_idx = np.argwhere(bad)[0]
    where = f" of realization {tuple(int(i) for i in lead)}" if lead else ""
    return SingularBinError(f"effective channel at bin {bin_idx}{where} is rank deficient")


def zf_combiners(eff: EffectiveChannel) -> CombinerBank:
    """Zero-forcing bank W_k = Lambda_k (Lambda_k^H Lambda_k)^{-1}.

    Guarantees W_k^H Lambda_k = I on every bin; a rank-deficient bin raises
    SingularBinError naming the bin instead of silently regularizing.
    """
    d, k = eff.freq.shape[-2:]
    if d < k:
        raise SingularBinError(f"zero-forcing needs D >= K, got D={d}, K={k}")
    lam = eff.freq
    gram = lam.conj().swapaxes(-1, -2) @ lam
    try:
        w = lam @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        # inv and det share one LU factorization: det is 0 exactly where inv failed
        raise _singular_bin(np.linalg.det(gram) == 0) from exc
    bad = ~np.isfinite(w).all(axis=(-2, -1))
    if bad.any():
        raise _singular_bin(bad)
    return CombinerBank(w)


def lmmse_combiners(eff: EffectiveChannel, rd: ReducedStatistics, symbol_energy: float,
                    n_users: int) -> CombinerBank:
    """LMMSE bank W_k = (E Lambda_k Lambda_k^H + R_eta_rd)^{-1} E Lambda_k.

    E = symbol_energy / n_users is the per-user symbol energy; the reduced
    interference-plus-noise covariance keeps the inverse well posed even on
    rank-deficient bins, so there is no failure mode here.
    """
    e = symbol_energy / n_users
    lam = eff.freq
    cov = e * (lam @ lam.conj().swapaxes(-1, -2)) + rd.r_eta
    return CombinerBank(np.linalg.solve(cov, e * lam))
