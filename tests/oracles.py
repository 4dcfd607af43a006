"""Verification oracles reached only by the tests: a symbol-level SC-FDE simulator and
an explicit pilot receiver.

They draw symbols and noise and apply each channel tap to the signal, where
``jsdmsim.linksim`` and ``jsdmsim.chanest`` work from closed-form moments and
covariances, so the tests can check one against the other.  The simulator runs
unit-energy QPSK and applies the channel circularly, so the cyclic prefix is
implicit.
"""

import math
from dataclasses import dataclass

import numpy as np

from jsdmsim.channel import ChannelRealization
from jsdmsim.chanest import PilotBlock
from jsdmsim.digital import CombinerBank


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
