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
along the whole block.  :func:`dft_of_taps` is the one path from reduced
taps to the explicit bins of an :class:`EffectiveChannel`, and
:func:`bin_grams` the one path from reduced taps to per-bin K x K matrices:
these are quadratic in the taps, so it forms them from the taps' weighted
cross-products at each pair of delays and one phase matrix over the bins, with
no DFT of the taps, for a whole stack of (angle, design) pairs, each with its
own weights.  From those matrices :func:`zf_capacity` and :func:`lmmse_capacity`
give the capacity behind each bank in closed form, without forming it;
:func:`zf_capacity` returns its bad bins as a mask, so that a stack's failure
stays with its member.
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
    "bin_grams",
    "dft_of_taps",
    "effective_channel",
    "gram",
    "lmmse_capacity",
    "lmmse_combiners",
    "zf_capacity",
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


def dft_of_taps(active: np.ndarray, delays, n_taps: int, n: int) -> EffectiveChannel:
    """The effective channel of reduced taps ``active`` (D, K, ..., L) at the active ``delays``.

    The taps are placed on a zero (D, K, ..., n_taps) grid and transformed by one N-point
    FFT along the last axis.  ``n`` is the SC-FDE block length and must cover the delay
    spread ``n_taps``.
    """
    if n < n_taps:
        raise ValueError(f"block length {n} shorter than delay spread {n_taps}")
    taps = np.zeros(active.shape[:-1] + (n_taps,), dtype=complex)
    taps[..., list(delays)] = active
    return EffectiveChannel(taps, np.fft.fft(taps, n=n, axis=-1))


def effective_channel(s: np.ndarray, real: ChannelRealization, g_src: int,
                      n: int) -> EffectiveChannel:
    """Project group ``g_src``'s channel taps through beamformer ``s``.

    ``s`` is the overall analog stage including compensation.  A block of
    realizations is projected in one product and transformed by
    :func:`dft_of_taps`.
    """
    s = np.asarray(s, dtype=complex)
    group = real.taps[g_src]
    h = np.stack(list(group.values()), axis=-3)
    return dft_of_taps(np.moveaxis(s.conj().T @ h, (-2, -1), (0, 1)), list(group),
                       real.scenario.n_taps, n)


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


def bin_grams(active: np.ndarray, delays, n_taps: int, n: int,
              weights: np.ndarray) -> np.ndarray:
    """Per-bin K x K matrices Lambda_k^H diag(w) Lambda_k, one per row w of ``weights``.

    ``active`` holds the reduced taps (D, K, ..., L) at the active ``delays``, as for
    :func:`dft_of_taps`, whose block-length rule this shares; ``weights`` is real, (n, D),
    or a stack (*W, n, D) whose leading axes are the first leading axes of ``active``: one
    set of rows per member of a stack of taps, such as the (angle, design) pairs of a
    link block.  The result is (n, K, K, ..., N), like the effective channel's bins with
    one more leading axis.  With Lambda_k = sum_l a_l e^{-j 2 pi k d_l / N}, each matrix
    is sum_{l, l'} a_l^H diag(w) a_l' e^{j 2 pi k (d_l - d_l') / N}: the L^2 weighted
    cross-products of the taps, taken by one real matrix product per member, times one
    phase matrix over the bins.  With R = U diag(sigma) U^H and the channel seen through
    S U, rows 1, sigma and 1 / sigma give Lambda_k^H Lambda_k, Lambda_k^H R Lambda_k and
    Lambda_k^H R^-1 Lambda_k at once.  Each member's matrices are bit for bit what it
    gives on its own.
    """
    if n < n_taps:
        raise ValueError(f"block length {n} shorter than delay spread {n_taps}")
    weights = np.asarray(weights, dtype=float)
    d, k, *lead, n_delays = active.shape
    rows = weights.shape[-2]
    members = int(np.prod(weights.shape[:-2], dtype=int))
    # (members, D, K, realizations, L)
    a = active.reshape(d, k, members, -1, n_delays).transpose(2, 0, 1, 3, 4)
    # order="C": .view(float) needs the product contiguous
    products = np.multiply(a.conj()[:, :, :, np.newaxis, :, :, np.newaxis],
                           a[:, :, np.newaxis, :, :, np.newaxis, :], order="C")
    # real weights act on the real and imaginary parts alike: one real product per member
    cross = (weights.reshape(members, rows, d)
             @ products.reshape(members, d, -1).view(float)).view(complex)
    cross = np.moveaxis(cross.reshape(members, rows, k, k, -1, n_delays * n_delays), 0, 3)
    lags = np.subtract.outer(delays, delays).reshape(-1, 1)
    phase = np.exp(2j * np.pi / n * (lags * np.arange(n) % n))
    grams = cross.reshape(-1, n_delays * n_delays) @ phase
    return grams.reshape((rows, k, k, *lead, n))


def zf_capacity(g: np.ndarray, h: np.ndarray, symbol_energy: float,
                n_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user capacity behind the zero-forcing bank, in closed form, and its bad bins.

    ``g`` and ``h`` are (K, K, ..., N) stacks of G_k = Lambda_k^H Lambda_k and
    Lambda_k^H R Lambda_k (:func:`bin_grams`).  ZF gives W_k^H Lambda_k = I, so each
    user's amplitude is 1 and its residual the noise [G_k^-1 Lambda_k^H R Lambda_k
    G_k^-1]_uu: C_u = log2(1 + E / mean_k of it), E = symbol_energy / n_users.  Returns
    the capacities, shape (..., K), and the (..., N) mask of the bins that break the
    rule of :func:`zf_combiners`: a bad pivot of G_k (:func:`linalg.hermitian_inverse`)
    or a non-finite noise.  A realization with a bad bin has no capacity; its entries
    are meaningless.  No combiner is formed.
    """
    e = symbol_energy / n_users
    k = g.shape[0]
    gram_inv, bad = hermitian_inverse(g.reshape(k, k, -1))
    noise = (_times(gram_inv, h.reshape(k, k, -1)) * gram_inv.transpose(1, 0, 2)).sum(axis=1).real
    bad |= ~np.isfinite(noise).all(axis=0)
    noise = np.maximum(noise.reshape((k,) + g.shape[2:]).mean(axis=-1), 0.0)
    with np.errstate(divide="ignore"):
        capacity = np.moveaxis(np.log2(1.0 + e / noise), 0, -1)
    return capacity, bad.reshape(g.shape[2:])


def lmmse_capacity(m: np.ndarray, symbol_energy: float, n_users: int) -> np.ndarray:
    """Per-user capacity behind the LMMSE bank, in closed form, shape (..., K).

    ``m`` is the (K, K, ..., N) stack of Lambda_k^H R^-1 Lambda_k (:func:`bin_grams`).
    With M_k = Lambda_k^H R^-1 Lambda_k + I/E (E = symbol_energy / n_users),
    W_k^H Lambda_k = I - M_k^-1 / E and E|x^_u|^2 = E - [M_k^-1]_uu, so the Bussgang
    SINR is E / m_u - 1 with m_u = mean_k [M_k^-1]_uu, and C_u = -log2(m_u / E).
    M_k >= I/E, so no pivot of a finite channel's M_k can fail.  No combiner is formed.
    """
    e = symbol_energy / n_users
    k = m.shape[0]
    m = m + np.eye(k).reshape((k, k) + (1,) * (m.ndim - 2)) / e
    mse = hermitian_inverse(m)[0][range(k), range(k)].real
    return np.moveaxis(-np.log2(mse.mean(axis=-1) / e), 0, -1)
