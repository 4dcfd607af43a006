"""Verification oracles reached only by the tests: a symbol-level SC-FDE simulator, an
explicit pilot receiver and the full M x M GEB pencil.

The simulator and the receiver draw symbols and noise and apply each channel tap to
the signal, where ``jsdmsim.linksim`` and ``jsdmsim.chanest`` work from closed-form
moments and covariances, so the tests can check one against the other.  The simulator
runs unit-energy QPSK and applies the channel circularly, so the cyclic prefix is
implicit.  The pencil solves (R_s, R_eta) from the matrices themselves, where
``jsdmsim.geb`` works from the factors of R_s.
"""

import math
from dataclasses import dataclass

import numpy as np

from jsdmsim.channel import ChannelRealization
from jsdmsim.chanest import PilotBlock
from jsdmsim.digital import CombinerBank
from jsdmsim.geb import UnconstrainedBeamformer
from jsdmsim.linalg import (DefinitenessError, _as_complex_stack, _index, _q_times,
                            _require_square, _to_real, fix_phases, qr)
from jsdmsim.statistics import GroupStatistics


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues sorted descending with matching unit-norm eigenvectors.

    ``vectors[:, i]`` belongs to ``values[i]``.  Columns are normalized to
    unit Euclidean norm and phase-fixed (largest-magnitude entry real
    positive) so results are deterministic across runs.
    """

    values: np.ndarray
    vectors: np.ndarray


def generalized_hermitian_eig(a, b) -> EigDecomposition:
    """Solve A v = lambda B v for Hermitian Toeplitz A and positive-definite Hermitian Toeplitz B.

    Both are mapped to real symmetric W_A, W_B (see the ``jsdmsim.linalg`` docstring), and
    W_B's Cholesky factor L reduces the pencil to the standard real symmetric
    problem L^-1 W_A L^-T; each of its eigenvectors x gives v = Q L^-T x.
    Eigenvalues come back descending, eigenvectors are B-orthogonal and
    normalized to unit Euclidean norm.  Entries i and M-1-i of such a v are
    complex conjugates, so their magnitudes tie exactly and the phase fix
    takes the first of them.

    A and B may be stacks (..., M, M) whose leading shapes broadcast, one pencil
    per matrix of the result; a lone B shared by a stack of A is mapped,
    checked and factored once.  Each pencil is solved exactly as it would be
    on its own, and a failure names the matrix of a stack it belongs to.
    """
    a = _as_complex_stack(a, "A")
    b = _as_complex_stack(b, "B")
    _require_square(a, "A")
    _require_square(b, "B")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"A and B must have equal shape, got {a.shape} vs {b.shape}")
    np.broadcast_shapes(a.shape, b.shape)  # ValueError unless the stacks broadcast
    w_a = _to_real(a, "A")
    w_b = _to_real(b, "B")

    b_eigs = np.linalg.eigvalsh(w_b)
    scale = np.abs(b_eigs).max(axis=-1, initial=0.0)
    bad = ~(b_eigs[..., 0] > 1e-12 * scale)
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise DefinitenessError(
            f"B{_index(at)} is not positive definite: smallest eigenvalue {b_eigs[at][0]:.6e}"
            f" (largest {scale[at]:.6e})"
        )

    # L^-1 from numpy's LU, applied by three products
    inv = np.linalg.inv(np.linalg.cholesky(w_b))
    inv_t = inv.swapaxes(-1, -2)
    values, vectors = np.linalg.eigh(inv @ w_a @ inv_t)
    vectors = inv_t @ vectors[..., ::-1]
    vectors /= np.linalg.norm(vectors, axis=-2, keepdims=True)
    return EigDecomposition(values[..., ::-1].copy(), fix_phases(_q_times(vectors)))


def pencil_geb(stats: GroupStatistics, n_chains: int) -> UnconstrainedBeamformer:
    """The GEB from the M x M pencil (stats.r_s, stats.r_eta): its top ``n_chains``
    eigenvectors, phase-fixed once by the pencil, QR-orthonormalized."""
    dec = generalized_hermitian_eig(stats.r_s, stats.r_eta)
    q, _ = qr(dec.vectors[..., :n_chains])
    return UnconstrainedBeamformer(q, dec.values[..., :n_chains].copy())


@dataclass(frozen=True)
class BlockResult:
    """Transmitted symbols and soft estimates of one simulated block."""

    symbols: dict[int, np.ndarray]
    estimates: dict[int, np.ndarray]


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


def receive_pilots(pilots: PilotBlock, real: ChannelRealization, s: np.ndarray,
                   seed) -> np.ndarray:
    """Stacked post-beamformer observation over the pilot window of ``real.scenario``.

    The intended group transmits its pilots (cyclic prefix absorbed through
    cyclic indexing); every other group is in asynchronous data mode and
    transmits random QPSK at its data energy.  Returns the (T*D,) vector of
    vertically concatenated reduced observations.
    """
    scn = real.scenario
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
        data = amp * _qpsk(rng, (spec.n_users, width))
        for delay, h in real.taps[other].items():
            start = scn.n_taps - 1 - delay
            y += h @ data[:, start:start + t_len]

    noise = (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) / np.sqrt(2.0)
    y += math.sqrt(scn.noise_power) * noise
    return (s.conj().T @ y).T.reshape(-1)


def stack_effective(real: ChannelRealization, s: np.ndarray, g: int) -> np.ndarray:
    """Stack one realization's active intra-group effective channel (user, delay, stream)."""
    s = np.asarray(s, dtype=complex)
    # (D, K) per active delay -> (K, L, D)
    eff = np.stack([s.conj().T @ h for h in real.taps[g].values()])
    return eff.transpose(2, 0, 1).reshape(-1)
