"""Constant-modulus approximations of the unconstrained eigenbeamformer.

Fully connected designs (DFT column selection, phase extraction, phase
extraction refined by alternating minimization with a unitary compensation
matrix) and partially connected ones (fixed ordered/interlaced subarrays, and
a dynamic design that searches the antenna-to-chain connection itself).

PE-AM, the fixed subarrays and the dynamic connection search (alternating
minimization as in PE-AltMin, Yu, Shen, Zhang and Letaief, IEEE JSTSP 2016)
run through one loop, :func:`_alternate`, and supply only its step.  Each
half-step exactly minimizes, over its block, a Frobenius distance to the
unconstrained beamformer, so the recorded residual sequences are non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geb import UnconstrainedBeamformer
from .linalg import svd
from .statistics import GroupStatistics, expected_sinr
from .channel import Scenario

__all__ = [
    "AmTrace",
    "CandidateExhaustionError",
    "ConstrainedBeamformer",
    "MaskError",
    "dft_beamformer",
    "dynamic_connection",
    "dynamic_subarray",
    "fixed_subarray",
    "interlaced_mask",
    "ordered_mask",
    "pe_am",
    "phase_extraction",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
DEFAULT_RESTARTS = 20


class MaskError(ValueError):
    """A connection matrix violates the one-chain-per-antenna constraints."""


class CandidateExhaustionError(RuntimeError):
    """Every dynamic-connection restart left some RF chain unconnected."""


@dataclass(frozen=True)
class AmTrace:
    """Residual history of one member of the :func:`_alternate` loop.

    Residuals, the norms of the step's gap after each iteration, are non-increasing
    (each half-step is an exact block minimizer).
    ``raw_score``/``refined_score`` are only set by the dynamic subarray
    search: the expected SINR of the winning raw candidate and of the refined
    beamformer (the search does not guarantee an ordering between them).
    """

    residuals: np.ndarray
    iterations: int
    converged: bool
    raw_score: float | None = None
    refined_score: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.residuals) > 1e-12):
            raise ValueError("alternating-minimization residuals must be non-increasing")


@dataclass(frozen=True)
class ConstrainedBeamformer:
    """Phase-shifter beamformer, its connection mask and compensation matrix.

    Nonzero entries of ``s_c`` have modulus 1/sqrt(M) exactly where
    ``connection`` is 1.  ``connection`` is all ones (fully connected) or a
    subarray mask that passes :func:`_check_mask`.  ``s_cm`` is the
    digital-baseband compensation factor; the stage applied to data is
    ``effective()`` = s_c @ s_cm.
    """

    s_c: np.ndarray
    s_cm: np.ndarray
    connection: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.connection)
        m = self.s_c.shape[0]
        if mask.shape != self.s_c.shape or not np.all(mask == 1):  # all ones: fully connected
            _check_mask(mask, self.s_c.shape)
        mags = np.abs(self.s_c)
        if np.any(mags[mask == 0] != 0):
            raise ValueError("beamformer has energy outside the connection mask")
        if not np.allclose(mags[mask == 1], 1.0 / np.sqrt(m), rtol=1e-9, atol=0):
            raise ValueError("masked entries must have modulus 1/sqrt(M)")

    def effective(self) -> np.ndarray:
        return self.s_c @ self.s_cm


def _geb_matrix(s_geb) -> np.ndarray:
    if isinstance(s_geb, UnconstrainedBeamformer):
        return s_geb.s
    return np.asarray(s_geb, dtype=complex)


def _unit_phases(a: np.ndarray, m: int) -> np.ndarray:
    # Phase of a zero entry is taken as 0 by convention (np.angle(0) == 0).
    return np.exp(1j * np.angle(a)) / np.sqrt(m)


def _converged(residuals: list[float], tol: float, scale: float) -> bool:
    r = residuals[-1]
    if r <= 1e-14 * scale:
        return True
    if len(residuals) < 2:
        return False
    prev = residuals[-2]
    return abs(prev - r) <= tol * max(prev, 1e-300)


def _alternate(s: np.ndarray, cand: np.ndarray, step, tol: float,
               max_iter: int) -> tuple[np.ndarray, np.ndarray, list[AmTrace]]:
    """The one alternating-minimization loop, run from every start of the (R, M, D) ``cand``.

    ``step`` maps the unconverged candidates, an (n, M, D) stack, to their next candidates,
    their (n, D, D) compensation (or rotation) matrices and their gaps; a member's residual is
    the Frobenius norm of its gap, and it leaves the stack once :func:`_converged` fires on
    its residuals (scaled by ||s||).  Returns ``cand`` updated in place, the last matrices and
    one :class:`AmTrace` per member, each bit for bit what a stack of that member alone gives.
    """
    if not (tol > 0 and max_iter >= 1):
        raise ValueError(f"alternating minimization needs tol > 0 and max_iter >= 1,"
                         f" got tol={tol!r}, max_iter={max_iter!r}")
    n, _, d = cand.shape
    comp = np.empty((n, d, d), dtype=complex)
    scale = max(np.linalg.norm(s), 1e-300)
    residuals: list[list[float]] = [[] for _ in range(n)]
    converged = [False] * n
    active = np.arange(n)
    for _ in range(max_iter):
        cand[active], comp[active], gap = step(cand[active])
        for i, r in enumerate(active):
            residuals[r].append(float(np.linalg.norm(gap[i])))
            converged[r] = _converged(residuals[r], tol, scale)
        active = active[[not converged[r] for r in active]]
        if not active.size:
            break
    return cand, comp, [AmTrace(np.array(res), len(res), conv)
                        for res, conv in zip(residuals, converged)]


# ---------------------------------------------------------------------------
# Fully connected designs


def dft_beamformer(scn: Scenario, g: int) -> ConstrainedBeamformer:
    """Select DFT codebook columns pointing at the group's MPC clusters.

    Column k of the codebook is the unit-modulus vector with spatial frequency
    2*pi*k/M across the array.  Each active cluster claims the column whose
    frequency is nearest (mod 2*pi) to pi*sin(mean AoA averaged over the
    group's users); leftover chains take adjacent columns, round-robin across
    clusters, alternating +1/-1 offsets and skipping duplicates.  Not
    interference-aware by construction.
    """
    m = scn.n_antennas
    d = scn.groups[g].n_chains  # Scenario keeps it <= m

    cluster_aoa = scn.effective_aoa(g).mean(axis=0)
    targets = np.pi * np.sin(np.deg2rad(cluster_aoa))
    freqs = 2.0 * np.pi * np.arange(m) / m

    def wrap(x):
        return np.abs((x + np.pi) % (2.0 * np.pi) - np.pi)

    base = [int(np.argmin(wrap(freqs - t))) for t in targets]
    dists = [wrap(freqs[k] - t) for k, t in zip(base, targets)]

    selected: list[int] = []
    if d < len(base):
        for _, k in sorted(zip(dists, base)):
            if k not in selected:
                selected.append(k)
            if len(selected) == d:
                break
    else:
        for k in base:
            if k not in selected:
                selected.append(k)

    # Adjacent fill: offsets 1, -1, 2, -2, ... around each cluster in turn.
    steps = [0] * len(base)
    while len(selected) < d:
        for c, k0 in enumerate(base):
            while True:
                steps[c] += 1
                delta = (steps[c] + 1) // 2 * (1 if steps[c] % 2 else -1)
                k = (k0 + delta) % m
                if k not in selected:
                    selected.append(k)
                    break
            if len(selected) == d:
                break

    cols = np.array(selected)
    s_c = np.exp(2j * np.pi * np.outer(np.arange(m), cols) / m) / np.sqrt(m)
    return ConstrainedBeamformer(s_c, np.eye(d, dtype=complex), np.ones((m, d), dtype=int))


def phase_extraction(s_geb) -> ConstrainedBeamformer:
    """Keep only the phases of the unconstrained beamformer (scaled 1/sqrt(M)).

    Entrywise global optimum of the unit-modulus Frobenius approximation; the
    compensation matrix stays identity.
    """
    s = _geb_matrix(s_geb)
    m, d = s.shape
    return ConstrainedBeamformer(
        _unit_phases(s, m), np.eye(d, dtype=complex), np.ones((m, d), dtype=int)
    )


def pe_am(s_geb, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> tuple[ConstrainedBeamformer, AmTrace]:
    """Phase extraction refined by alternating minimization.

    Alternates the unitary-Procrustes compensation update S_cm = V U^H (from
    the SVD of S_geb^H S_c) with phase extraction of the rotated beamformer
    S_geb S_cm^H, starting from plain phase extraction.  Stops when the
    residual ||S_geb S_cm^H - S_c||_F stalls in relative terms (or hits an
    exact fit).
    """
    s = _geb_matrix(s_geb)
    m, d = s.shape
    s_h = s.conj().T

    def step(s_c):
        u, _, v = svd(s_h @ s_c)
        s_cm = v @ u.conj().swapaxes(-1, -2)
        rotated = s @ s_cm.conj().swapaxes(-1, -2)
        fresh = _unit_phases(rotated, m)
        return fresh, s_cm, rotated - fresh

    s_c, s_cm, traces = _alternate(s, _unit_phases(s, m)[None], step, tol, max_iter)
    return ConstrainedBeamformer(s_c[0], s_cm[0], np.ones((m, d), dtype=int)), traces[0]


# ---------------------------------------------------------------------------
# Partially connected designs


def ordered_mask(m: int, d: int) -> np.ndarray:
    """Adjacent subarrays: antennas [0..M/D) on chain 0, the next block on 1, ..."""
    if m % d:
        raise ValueError(f"chain count {d} must divide antenna count {m}")
    return np.kron(np.eye(d, dtype=int), np.ones((m // d, 1), dtype=int))


def interlaced_mask(m: int, d: int) -> np.ndarray:
    """Interlaced subarrays: antenna i on chain i mod D."""
    if m % d:
        raise ValueError(f"chain count {d} must divide antenna count {m}")
    return np.kron(np.ones((m // d, 1), dtype=int), np.eye(d, dtype=int))


def _check_mask(mask, shape) -> np.ndarray:
    """A subarray connection mask of beamformer shape (M, D), as integers.

    Binary, each antenna on exactly one RF chain, and no chain without
    antennas; raises MaskError otherwise.
    """
    mask = np.asarray(mask)
    if mask.shape != tuple(shape):
        raise MaskError(f"mask shape {mask.shape} does not match beamformer {tuple(shape)}")
    if not np.all((mask == 0) | (mask == 1)):
        raise MaskError("connection mask must be binary")
    if np.any(mask.sum(axis=1) != 1):
        raise MaskError("each antenna must connect to exactly one RF chain")
    empty = np.flatnonzero(mask.sum(axis=0) < 1)
    if empty.size:
        raise MaskError(f"RF chain(s) {empty.tolist()} have no antennas")
    return mask.astype(int)


def fixed_subarray(s_geb, connection, init_phases: np.ndarray | None = None,
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                   seed=0) -> tuple[ConstrainedBeamformer, AmTrace]:
    """Best constant-modulus beamformer on a prescribed connection mask.

    Alternates the least-squares compensation matrix with the decoupled
    per-antenna phase update; the per-row phase of antenna i aligns to the
    inner product of its unconstrained row with its chain's compensation row.
    Initial phases are random (from ``seed``) unless given.
    """
    s = _geb_matrix(s_geb)
    m, d = s.shape
    mask = _check_mask(connection, s.shape)
    chain_of = np.argmax(mask, axis=1)
    rows = np.arange(m)

    if init_phases is None:
        init_phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, m)
    phases = np.asarray(init_phases, dtype=float)
    if phases.shape != (m,):
        raise ValueError("init_phases must be a length-M vector")

    def build(beta):
        s_c = np.zeros(beta.shape[:-1] + (m, d), dtype=complex)
        s_c[..., rows, chain_of] = np.exp(1j * beta) / np.sqrt(m)
        return s_c

    def step(s_c):
        s_c_h = s_c.conj().swapaxes(-1, -2)
        s_cm = np.linalg.solve(s_c_h @ s_c, s_c_h @ s)
        fresh = build(np.angle((s @ s_cm.conj().swapaxes(-1, -2))[:, rows, chain_of]))
        return fresh, s_cm, s - fresh @ s_cm

    s_c, s_cm, traces = _alternate(s, build(phases)[None], step, tol, max_iter)
    return ConstrainedBeamformer(s_c[0], s_cm[0], mask), traces[0]


def _connection_search(s: np.ndarray, seeds, tol: float,
                       max_iter: int) -> tuple[np.ndarray, list[AmTrace]]:
    """Run the connection search of :func:`dynamic_connection` for every seed.

    The restarts are the members of one :func:`_alternate` stack: one stacked
    SVD and product per iteration.  Restart r draws its start from its own
    generator, so its candidate and trace are bit for bit those of
    ``dynamic_connection(s, seeds[r])``.
    """
    m, d = s.shape
    rows = np.arange(m)
    s_t = np.zeros((len(seeds), m, d), dtype=complex)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, m)  # each stream draws phases, then chains
        s_t[r, rows, rng.integers(0, d, m)] = np.exp(1j * phases)

    s_h = s.conj().T

    def step(cand):
        u, _, v = svd(s_h @ cand)
        rotation = u @ v.conj().swapaxes(-1, -2)
        p = s @ rotation
        best = np.argmax(np.abs(p), axis=2)[..., None]
        fresh = np.zeros_like(p)
        np.put_along_axis(fresh, best, np.exp(1j * np.angle(np.take_along_axis(p, best, 2))), 2)
        return fresh, rotation, p - fresh

    candidates, _, traces = _alternate(s, s_t, step, tol, max_iter)
    return candidates, traces


def dynamic_connection(s_geb, seed, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> tuple[np.ndarray, AmTrace]:
    """Search a connection pattern jointly with unit-modulus entries.

    Alternates the unitary rotation A = U V^H (Procrustes fit of S_geb A to
    the current candidate) with a per-antenna assignment: each row keeps only
    its largest-magnitude entry of S_geb A, replaced by its unit-modulus
    phase (ties go to the lowest chain index).  Entries are unit modulus, not
    1/sqrt(M); the candidate may leave a chain unconnected, which the caller
    must screen out.  This is one restart of the stacked search that
    :func:`dynamic_subarray` runs.
    """
    candidates, traces = _connection_search(_geb_matrix(s_geb), [seed], tol, max_iter)
    return candidates[0], traces[0]


def dynamic_subarray(s_geb, stats: GroupStatistics, n_restarts: int = DEFAULT_RESTARTS,
                     seed=0, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> tuple[ConstrainedBeamformer, AmTrace]:
    """Full dynamic subarray design: restart, score, refine.

    Runs the connection search ``n_restarts`` times as one stacked search
    (seeds ``seed + t`` for t = 1..n_restarts), scores candidates that
    connect every chain by their expected SINR (others score 0), then
    refines the best candidate's mask and phases with the fixed-subarray
    loop.  Raises if no restart produced a usable connection.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    s = _geb_matrix(s_geb)

    candidates, _ = _connection_search(s, [seed + t + 1 for t in range(n_restarts)],
                                       tol, max_iter)
    valid = np.all(np.abs(candidates).sum(axis=1) >= 0.5, axis=1)
    if not valid.any():
        raise CandidateExhaustionError(
            f"no connection candidate used every RF chain after {n_restarts} restarts;"
            " increase n_restarts")
    scores = np.array([expected_sinr(stats, c) if ok else 0.0 for c, ok in zip(candidates, valid)])
    best = int(np.argmax(scores))
    if not valid[best]:  # all valid scores were 0; fall back to the first valid one
        best = int(np.argmax(valid))

    mask = (np.abs(candidates[best]) > 0.5).astype(int)
    init_phases = np.angle(candidates[best][np.arange(len(mask)), np.argmax(mask, axis=1)])
    cb, trace = fixed_subarray(s, mask, init_phases=init_phases, tol=tol, max_iter=max_iter)
    return cb, replace(trace, raw_score=float(scores[best]),
                       refined_score=float(expected_sinr(stats, cb.effective())))
