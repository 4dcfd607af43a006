"""Frequency-domain effective channels and per-bin digital combiners.

The analog stage (including any compensation matrix) collapses the array to
D_g streams; what remains per frequency bin is a small D_g x K_g channel that
either a zero-forcing or an LMMSE combiner inverts.  The LMMSE variant uses
the statistical reduced-dimension interference-plus-noise covariance, never
the instantaneous interferer channels, which are unknown at the receiver.
Every function accepts a block of realizations stacked along leading axes.
Internally the per-bin algebra runs on arrays with the matrix indices first,
(D, K, B) over the B flattened (realization, bin) pairs, so each product and
each K x K inverse (:func:`linalg.hermitian_inverse`) is a handful of
elementwise operations along the whole block; the public (..., N, D, K)
arrays are views of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .linalg import DefinitenessError, hermitian_inverse
from .statistics import ReducedStatistics

__all__ = [
    "CombinerBank",
    "EffectiveChannel",
    "SingularBinError",
    "effective_channel",
    "gram",
    "lmmse_combiners",
    "matrix_first",
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


def matrix_first(x: np.ndarray) -> np.ndarray:
    """The (D, K, B) view (or copy) of a (..., N, D, K) stack, B = prod(...) * N."""
    return np.moveaxis(x, (-2, -1), (0, 1)).reshape(x.shape[-2], x.shape[-1], -1)


def _public(x: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """The (*lead, D, K) view of a (D, K, B) array, the inverse of :func:`matrix_first`."""
    return np.moveaxis(x.reshape(x.shape[:2] + lead), (0, 1), (-2, -1))


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
    realizations is projected and transformed in one product and one FFT;
    ``freq`` is a view of the transform's (D, K, ..., N) array.
    """
    scn = real.scenario
    if n < scn.n_taps:
        raise ValueError(f"block length {n} shorter than delay spread {scn.n_taps}")
    s = np.asarray(s, dtype=complex)
    group = real.taps[g_src]
    h = np.stack(list(group.values()), axis=-3)
    taps = np.zeros(h.shape[:-3] + (scn.n_taps, s.shape[1], h.shape[-1]), dtype=complex)
    taps[..., list(group), :, :] = s.conj().T @ h
    # the transform keeps its input's memory order, so the input is made
    # contiguous in the (D, K, ..., L) order the combiners read
    freq = np.fft.fft(np.ascontiguousarray(np.moveaxis(taps, (-2, -1), (0, 1))), n=n, axis=-1)
    return EffectiveChannel(taps, np.moveaxis(freq, (0, 1), (-2, -1)))


def _singular_bin(bad: np.ndarray) -> SingularBinError:
    """Error naming the first rank-deficient (realization, bin) of a bad-bin mask."""
    *lead, bin_idx = np.argwhere(bad)[0]
    where = f" of realization {tuple(int(i) for i in lead)}" if lead else ""
    return SingularBinError(f"effective channel at bin {bin_idx}{where} is rank deficient")


def zf_combiners(eff: EffectiveChannel) -> CombinerBank:
    """Zero-forcing bank W_k = Lambda_k (Lambda_k^H Lambda_k)^{-1}.

    Guarantees W_k^H Lambda_k = I on every bin; a bin whose Gram matrix meets
    a non-positive pivot, or whose combiner is not finite, raises
    SingularBinError naming the bin instead of silently regularizing.
    """
    d, k = eff.freq.shape[-2:]
    if d < k:
        raise SingularBinError(f"zero-forcing needs D >= K, got D={d}, K={k}")
    lead = eff.freq.shape[:-2]
    lam = matrix_first(eff.freq)
    gram_inv, bad = hermitian_inverse(gram(lam, lam))
    w = _times(lam, gram_inv)
    bad |= ~np.isfinite(w).all(axis=(0, 1))
    if bad.any():
        raise _singular_bin(bad.reshape(lead))
    return CombinerBank(_public(w, lead))


def lmmse_combiners(eff: EffectiveChannel, rd: ReducedStatistics, symbol_energy: float,
                    n_users: int) -> CombinerBank:
    """LMMSE bank W_k = (E Lambda_k Lambda_k^H + R)^{-1} E Lambda_k, R = R_eta_rd.

    E = symbol_energy / n_users is the per-user symbol energy.  Evaluated in
    the push-through form W_k = R^{-1} Lambda_k (Lambda_k^H R^{-1} Lambda_k + I/E)^{-1}:
    one D x D inverse of R for the whole block, then K x K inverses per bin.
    The positive-definite reduced interference-plus-noise covariance keeps
    every inverse well posed, even on rank-deficient bins; an R that is not
    positive definite raises DefinitenessError.
    """
    e = symbol_energy / n_users
    lead = eff.freq.shape[:-2]
    lam = matrix_first(eff.freq)
    r_inv, bad = hermitian_inverse(rd.r_eta)
    if bad:
        raise DefinitenessError("reduced interference-plus-noise covariance is not positive definite")
    y = (r_inv @ lam.reshape(lam.shape[0], -1)).reshape(lam.shape)
    m = gram(lam, y)
    m[range(m.shape[0]), range(m.shape[0])] += 1.0 / e
    # m >= I/E, so no pivot of a finite channel's m can fail
    return CombinerBank(_public(_times(y, hermitian_inverse(m)[0]), lead))
