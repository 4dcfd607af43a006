"""Frequency-domain effective channels and per-bin digital combiners.

The analog stage (including any compensation matrix) collapses the array to
D_g streams; what remains per frequency bin is a small D_g x K_g channel that
either a zero-forcing or an LMMSE combiner inverts.  The LMMSE variant uses
the statistical reduced-dimension interference-plus-noise covariance, never
the instantaneous interferer channels, which are unknown at the receiver.
Every array keeps the matrix indices first (see :class:`EffectiveChannel`),
so the per-bin algebra runs on (D, K, B) views over the B flattened
(realization, bin) pairs: each product and each K x K inverse
(:func:`linalg.hermitian_inverse`) is a handful of elementwise operations
along the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .linalg import DefinitenessError, hermitian_inverse

__all__ = [
    "CombinerBank",
    "EffectiveChannel",
    "SingularBinError",
    "effective_channel",
    "gram",
    "lmmse_combiners",
    "zf_combiners",
]


class SingularBinError(ValueError):
    """A per-bin channel lost the column rank zero-forcing needs."""


@dataclass(frozen=True)
class EffectiveChannel:
    """Reduced-dimension taps and their N-point DFT across bins, matrix indices first.

    ``taps[:, :, l]`` is D x K for l = 0..L-1 (zeros on inactive delays);
    ``freq[:, :, k]`` is its DFT sum_l taps[:, :, l] e^{-j 2 pi k l / N}.  A
    block of realizations adds axes between the matrix indices and the last:
    taps (D, K, ..., L), freq (D, K, ..., N).
    """

    taps: np.ndarray
    freq: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.freq.shape[-1]


@dataclass(frozen=True)
class CombinerBank:
    """Per-bin combiners ``w[:, :, ..., k]`` (D x K), applied as w^H to bin k.

    Shaped (D, K, ..., N) like :attr:`EffectiveChannel.freq`.
    """

    w: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.w.shape[-1]


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-bin products a_b b_b of (P, Q, B) and (Q, R, B) stacks."""
    # one (P, R, B) outer product per q: a single (P, Q, R, B) broadcast
    # product is several times slower than its arithmetic
    out = a[:, 0, np.newaxis] * b[0]
    for q in range(1, a.shape[1]):
        out += a[:, q, np.newaxis] * b[q]
    return out


def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-bin products a_b^H b_b of (D, P, B) and (D, Q, B) stacks."""
    return _times(a.conj().transpose(1, 0, 2), b)


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
    taps = np.zeros((s.shape[1], h.shape[-1]) + h.shape[:-3] + (scn.n_taps,), dtype=complex)
    taps[..., list(group)] = np.moveaxis(s.conj().T @ h, (-2, -1), (0, 1))
    return EffectiveChannel(taps, np.fft.fft(taps, n=n, axis=-1))


def _singular_bin(bad: np.ndarray) -> SingularBinError:
    """Error naming the first rank-deficient (realization, bin) of a bad-bin mask."""
    *lead, bin_idx = np.argwhere(bad)[0]
    where = f" of realization {tuple(int(i) for i in lead)}" if lead else ""
    return SingularBinError(f"effective channel at bin {bin_idx}{where} is rank deficient")


def zf_combiners(eff: EffectiveChannel) -> CombinerBank:
    """Zero-forcing bank W_k = Lambda_k (Lambda_k^H Lambda_k)^{-1}.

    Guarantees W_k^H Lambda_k = I on every bin; a bin whose Gram matrix meets
    a bad pivot (:func:`linalg.hermitian_inverse`), or whose combiner is not
    finite, raises SingularBinError naming the bin instead of silently
    regularizing.
    """
    d, k = eff.freq.shape[:2]
    if d < k:
        raise SingularBinError(f"zero-forcing needs D >= K, got D={d}, K={k}")
    lam = eff.freq.reshape(d, k, -1)
    gram_inv, bad = hermitian_inverse(gram(lam, lam))
    w = _times(lam, gram_inv)
    bad |= ~np.isfinite(w).all(axis=(0, 1))
    if bad.any():
        raise _singular_bin(bad.reshape(eff.freq.shape[2:]))
    return CombinerBank(w.reshape(eff.freq.shape))


def lmmse_combiners(eff: EffectiveChannel, r_eta_rd: np.ndarray, symbol_energy: float,
                    n_users: int) -> CombinerBank:
    """LMMSE bank W_k = (E Lambda_k Lambda_k^H + R)^{-1} E Lambda_k, R = R_eta_rd.

    ``r_eta_rd`` is S^H R_eta S (:func:`statistics.reduce`) and E =
    symbol_energy / n_users is the per-user symbol energy.  Evaluated in
    the push-through form W_k = R^{-1} Lambda_k (Lambda_k^H R^{-1} Lambda_k + I/E)^{-1}:
    one D x D inverse of R for the whole block, then K x K inverses per bin.
    The positive-definite reduced interference-plus-noise covariance keeps
    every inverse well posed, even on rank-deficient bins; an R that is not
    positive definite raises DefinitenessError.
    """
    e = symbol_energy / n_users
    d, k = eff.freq.shape[:2]
    lam = eff.freq.reshape(d, k, -1)
    r_inv, bad = hermitian_inverse(r_eta_rd)
    if bad:
        raise DefinitenessError("reduced interference-plus-noise covariance is not positive definite")
    y = (r_inv @ lam.reshape(d, -1)).reshape(lam.shape)
    m = gram(lam, y)
    m[range(k), range(k)] += 1.0 / e
    # m >= I/E, so no pivot of a finite channel's m can fail
    return CombinerBank(_times(y, hermitian_inverse(m)[0]).reshape(eff.freq.shape))
