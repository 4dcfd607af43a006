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

:func:`phase_extraction`, :func:`pe_am`, :func:`fixed_subarray`,
:func:`dynamic_connection` and :func:`dynamic_subarray` take an (n, M, D) stack of
unconstrained beamformers (one beamformer is the stack ``s[None]``) and one value
per member of every per-member argument.  The members run as one loop, each bit
for bit a stack of itself alone; a stack fails as a whole when any member fails.
Each returns a tuple of :class:`ConstrainedBeamformer` (the connection search: an
(n, M, D) array of candidates) and, but for phase extraction, their :class:`AmTraces`.
:func:`dft_beamformer` reads no GEB: it takes a scenario and a 1-D array of shifting
angles and returns a tuple of one design per angle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import svd
from .statistics import expected_sinr
from .channel import Scenario

__all__ = [
    "AmTrace",
    "AmTraces",
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


class CandidateExhaustionError(ValueError):
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


class AmTraces(tuple):
    """The :class:`AmTrace` of each member of a stacked design, in member order."""

    @property
    def iterations(self) -> int:
        """Iterations of all members, summed."""
        return sum(trace.iterations for trace in self)


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
        # np.allclose(mags, 1/sqrt(M), rtol=1e-9, atol=0), at a fraction of its per-call cost
        if not np.all(np.abs(mags[mask == 1] - 1.0 / np.sqrt(m)) <= 1e-9 / np.sqrt(m)):
            raise ValueError("masked entries must have modulus 1/sqrt(M)")

    def effective(self) -> np.ndarray:
        return self.s_c @ self.s_cm


def _stack(s_geb) -> np.ndarray:
    """``s_geb`` as an (n, M, D) complex stack with n >= 1; anything else raises ValueError."""
    if np.ndim(s_geb) != 3 or not len(s_geb):
        raise ValueError("the constant-modulus designs take an (n, M, D) stack of unconstrained"
                         f" beamformers, got {type(s_geb).__name__} of shape {np.shape(s_geb)}")
    return np.ascontiguousarray(s_geb, dtype=complex)


def _per_member(value, n: int, name: str) -> list:
    """A per-member argument as the list of a stack's n values."""
    values = list(value) if np.iterable(value) else []
    if len(values) != n:
        raise ValueError(f"a stack of {n} beamformers needs one {name} per member")
    return values


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
    """The one alternating-minimization loop, run from every start of the (n, M, D) ``cand``.

    Member i fits its own unconstrained beamformer ``s[i]`` of the (n, M, D) ``s``.  ``step``
    maps the indices of the unconverged members and their (k, M, D) candidates to their next
    candidates, their (k, D, D) compensation (or rotation) matrices and their gaps; a
    member's residual is the Frobenius norm of its gap, and it leaves the stack once
    :func:`_converged` fires on its residuals (scaled by ||s[i]||).  Returns ``cand`` updated
    in place, the last matrices and one :class:`AmTrace` per member, each bit for bit what a
    stack of that member alone gives.
    """
    if not (tol > 0 and max_iter >= 1):
        raise ValueError(f"alternating minimization needs tol > 0 and max_iter >= 1,"
                         f" got tol={tol!r}, max_iter={max_iter!r}")
    n, _, d = cand.shape
    comp = np.empty((n, d, d), dtype=complex)
    scales = [max(np.linalg.norm(s_i), 1e-300) for s_i in s]
    residuals: list[list[float]] = [[] for _ in range(n)]
    converged = [False] * n
    active = np.arange(n)
    for _ in range(max_iter):
        cand[active], comp[active], gap = step(active, cand[active])
        # each member's Frobenius norm, bit for bit np.linalg.norm of its own gap
        flat = np.ascontiguousarray(gap).reshape(len(active), -1)
        norms = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
        for r, norm in zip(active.tolist(), norms.tolist()):
            residuals[r].append(norm)
            converged[r] = _converged(residuals[r], tol, scales[r])
        active = active[[not converged[r] for r in active]]
        if not active.size:
            break
    return cand, comp, [AmTrace(np.array(res), len(res), conv)
                        for res, conv in zip(residuals, converged)]


# ---------------------------------------------------------------------------
# Fully connected designs


def dft_beamformer(scn: Scenario, g: int, phis) -> tuple[ConstrainedBeamformer, ...]:
    """Select DFT codebook columns pointing at the group's MPC clusters.

    Column k of the codebook is the unit-modulus vector with spatial frequency
    2*pi*k/M across the array.  Each active cluster claims the column whose
    frequency is nearest (mod 2*pi) to pi*sin(mean AoA averaged over the
    group's users); leftover chains take adjacent columns, round-robin across
    clusters, alternating +1/-1 offsets and skipping duplicates.  Not
    interference-aware by construction.

    ``phis``, a 1-D array of shifting angles used instead of the scenario's own,
    gives a tuple of one design per angle: the targets and nearest columns of every
    angle are found as arrays and the codebook columns come from one ``exp``, each
    design bit for bit the one of a unit of one at its angle.
    """
    m = scn.n_antennas
    d = scn.groups[g].n_chains  # Scenario keeps it <= m
    phis = np.asarray(phis, dtype=float)

    cluster_aoa = scn.effective_aoa(g, phis).mean(axis=-2)
    targets = np.pi * np.sin(np.deg2rad(cluster_aoa))
    targets = np.broadcast_to(targets, (len(phis), targets.shape[-1]))
    freqs = 2.0 * np.pi * np.arange(m) / m
    # distance of each (angle, cluster) target to each codebook frequency, mod 2*pi
    dist = np.abs((freqs - targets[..., None] + np.pi) % (2.0 * np.pi) - np.pi)
    bases = np.argmin(dist, axis=-1)
    dists = np.take_along_axis(dist, bases[..., None], axis=-1)[..., 0]
    cols = np.array([_dft_columns(base, dist, d, m)
                     for base, dist in zip(bases.tolist(), dists.tolist())])
    s_c = np.exp(2j * np.pi * (np.arange(m)[:, None] * cols[:, None, :]) / m) / np.sqrt(m)
    return tuple(ConstrainedBeamformer(s, np.eye(d, dtype=complex), np.ones((m, d), dtype=int))
                 for s in s_c)


def _dft_columns(base: list[int], dists: list[float], d: int, m: int) -> list[int]:
    """The d codebook columns of one angle, from each cluster's nearest column and its
    distance: the nearest distinct ones first, then adjacent fill."""
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
    return selected


def phase_extraction(s_geb) -> tuple[ConstrainedBeamformer, ...]:
    """Keep only the phases of each unconstrained beamformer (scaled 1/sqrt(M)).

    Entrywise global optimum of the unit-modulus Frobenius approximation; the
    compensation matrix stays identity.  Returns one beamformer per member.
    """
    s = _stack(s_geb)
    m, d = s.shape[1:]
    eye, full = np.eye(d, dtype=complex), np.ones((m, d), dtype=int)
    return tuple(ConstrainedBeamformer(s_c, eye, full) for s_c in _unit_phases(s, m))


def pe_am(s_geb, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Phase extraction refined by alternating minimization.

    Alternates the unitary-Procrustes compensation update S_cm = V U^H (from
    the SVD of S_geb^H S_c) with phase extraction of the rotated beamformer
    S_geb S_cm^H, starting from plain phase extraction.  Stops when the
    residual ||S_geb S_cm^H - S_c||_F stalls in relative terms (or hits an
    exact fit).  Returns the tuple of beamformers and their :class:`AmTraces`.
    """
    s = _stack(s_geb)
    m, d = s.shape[1:]
    s_h = np.ascontiguousarray(s.conj().swapaxes(-1, -2))  # so s_h[idx] copies fast

    def step(idx, s_c):
        u, _, v = svd(s_h[idx] @ s_c)
        s_cm = v @ u.conj().swapaxes(-1, -2)
        rotated = s[idx] @ s_cm.conj().swapaxes(-1, -2)
        fresh = _unit_phases(rotated, m)
        return fresh, s_cm, rotated - fresh

    s_c, s_cm, traces = _alternate(s, _unit_phases(s, m), step, tol, max_iter)
    full = np.ones((m, d), dtype=int)
    return tuple(ConstrainedBeamformer(a, b, full) for a, b in zip(s_c, s_cm)), AmTraces(traces)


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
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER, seed=None):
    """Best constant-modulus beamformer on each member's prescribed connection mask.

    Alternates the least-squares compensation matrix with the decoupled
    per-antenna phase update; the per-row phase of antenna i aligns to the
    inner product of its unconstrained row with its chain's compensation row.
    ``connection`` holds one (M, D) mask per member, (n, M, D); one (M, D) mask
    is refused.  The initial phases are ``init_phases``, one length-M vector per
    member, or else one random draw from each member's seed in ``seed``.
    Returns the tuple of beamformers and their :class:`AmTraces`.
    """
    s = _stack(s_geb)
    n, m, d = s.shape
    members = _per_member(connection if np.ndim(connection) == 3 else None, n, "connection")
    mask = np.array([_check_mask(c, (m, d)) for c in members])
    chain_of = np.argmax(mask, axis=-1)
    rows = np.arange(m)

    if init_phases is None:
        phases = np.array([np.random.default_rng(sd).uniform(0.0, 2.0 * np.pi, m)
                           for sd in _per_member(seed, n, "seed")])
    else:
        phases = np.array(_per_member(init_phases, n, "init_phases"), dtype=float)
    if phases.shape != (n, m):
        raise ValueError("init_phases must be a length-M vector per member")

    def build(idx, beta):
        s_c = np.zeros((len(idx), m, d), dtype=complex)
        s_c[np.arange(len(idx))[:, None], rows, chain_of[idx]] = np.exp(1j * beta) / np.sqrt(m)
        return s_c

    def step(idx, s_c):
        s_c_h = s_c.conj().swapaxes(-1, -2)
        target = s[idx]
        s_cm = np.linalg.solve(s_c_h @ s_c, s_c_h @ target)
        rotated = target @ s_cm.conj().swapaxes(-1, -2)
        fresh = build(idx, np.angle(rotated[np.arange(len(idx))[:, None], rows, chain_of[idx]]))
        return fresh, s_cm, target - fresh @ s_cm

    s_c, s_cm, traces = _alternate(s, build(np.arange(n), phases), step, tol, max_iter)
    return (tuple(ConstrainedBeamformer(*args) for args in zip(s_c, s_cm, mask)),
            AmTraces(traces))


def dynamic_connection(s_geb, seed, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Search a connection pattern jointly with unit-modulus entries, per member.

    Alternates the unitary rotation A = U V^H (Procrustes fit of S_geb A to
    the current candidate) with a per-antenna assignment: each row keeps only
    its largest-magnitude entry of S_geb A, replaced by its unit-modulus
    phase (ties go to the lowest chain index).  Entries are unit modulus, not
    1/sqrt(M); the candidate may leave a chain unconnected, which the caller
    must screen out.  Member r of the (R, M, D) stack is one restart, drawn
    from its own seed ``seed[r]``.  Returns the (R, M, D) candidates and their
    :class:`AmTraces`.
    """
    s = _stack(s_geb)
    n, m, d = s.shape
    rows = np.arange(m)
    s_t = np.zeros((n, m, d), dtype=complex)
    for r, sd in enumerate(_per_member(seed, n, "seed")):
        rng = np.random.default_rng(sd)
        phases = rng.uniform(0.0, 2.0 * np.pi, m)  # each stream draws phases, then chains
        s_t[r, rows, rng.integers(0, d, m)] = np.exp(1j * phases)

    s_h = np.ascontiguousarray(s.conj().swapaxes(-1, -2))  # so s_h[idx] copies fast

    def step(idx, cand):
        u, _, v = svd(s_h[idx] @ cand)
        rotation = u @ v.conj().swapaxes(-1, -2)
        p = s[idx] @ rotation
        best = (np.arange(len(idx))[:, None], rows, np.argmax(np.abs(p), axis=2))
        fresh = np.zeros_like(p)
        fresh[best] = np.exp(1j * np.angle(p[best]))
        return fresh, rotation, p - fresh

    candidates, _, traces = _alternate(s, s_t, step, tol, max_iter)
    return candidates, AmTraces(traces)


def dynamic_subarray(s_geb, stats, seed, n_restarts: int = DEFAULT_RESTARTS,
                     tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Full dynamic subarray design, per member: restart, score, refine.

    Member i runs the connection search ``n_restarts`` times, from seeds
    ``seed[i] + t`` for t = 1..n_restarts (all members' restarts as one stack),
    scores the candidates that connect every chain by their expected SINR under
    ``stats[i]`` (others score 0), then refines the best candidate's mask and
    phases (all members as one fixed-subarray stack).  Raises if no restart of
    some member connects every chain.  Returns the tuple of beamformers and
    their :class:`AmTraces`, which carry the raw and refined scores.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    s = _stack(s_geb)
    n, m, d = s.shape
    stats = _per_member(stats, n, "stats")

    seeds = [first + t + 1 for first in _per_member(seed, n, "seed")
             for t in range(n_restarts)]
    candidates, _ = dynamic_connection(np.repeat(s, n_restarts, axis=0), seeds, tol=tol,
                                       max_iter=max_iter)
    masks, phases, raw_scores = [], [], []
    for cands, member in zip(candidates.reshape(n, n_restarts, m, d), stats):
        valid = np.all(np.abs(cands).sum(axis=1) >= 0.5, axis=1)
        if not valid.any():
            raise CandidateExhaustionError(
                f"no connection candidate used every RF chain after {n_restarts} restarts;"
                " increase n_restarts")
        scores = np.zeros(n_restarts)
        scores[valid] = expected_sinr(member, cands[valid])  # one product for the stack
        best = int(np.argmax(scores))
        if not valid[best]:  # all valid scores were 0; fall back to the first valid one
            best = int(np.argmax(valid))
        mask = (np.abs(cands[best]) > 0.5).astype(int)
        masks.append(mask)
        phases.append(np.angle(cands[best][np.arange(m), np.argmax(mask, axis=1)]))
        raw_scores.append(float(scores[best]))

    beamformers, traces = fixed_subarray(s, np.array(masks), init_phases=np.array(phases),
                                         tol=tol, max_iter=max_iter)
    return beamformers, AmTraces(
        replace(trace, raw_score=raw, refined_score=float(expected_sinr(member, cb.effective())))
        for cb, trace, raw, member in zip(beamformers, traces, raw_scores, stats))
