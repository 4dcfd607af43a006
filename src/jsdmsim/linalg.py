"""Dense complex linear-algebra kernels with explicit contracts.

Every decomposition used elsewhere in the package goes through this module so
that ordering conventions (descending eigenvalues), phase conventions and
tolerance handling live in one place.  All functions are pure.

Every covariance of the uniform-linear-array model is Hermitian Toeplitz: the
one-ring CCMs, their sums and the GEB pencil (R_s, R_eta = N_0 I + sum of
interferer CCMs).  A Hermitian Toeplitz matrix is centro-Hermitian
(J conj(R) J = R, J the exchange matrix), so the sparse unitary

    Q = [[I, 0, jI], [0, sqrt(2), 0], [J, 0, -jJ]] / sqrt(2)

(the middle row and column only for odd M) maps it to the real symmetric
W = Q^H R Q with the same eigenvalues, and real vectors x back to Q x (Lee,
*Centrohermitian and skew-centrohermitian matrices*, LAA 1980; Haardt & Nossek,
*Unitary ESPRIT*, IEEE TSP 1995).  Q has two nonzeros per column, so the map
to W is O(M^2), each entry combining the entries (i, j), (i, M-1-j), (M-1-i, j)
and (M-1-i, M-1-j), and the map back is O(M) per vector.
:func:`psd_factor`, :func:`psd_sqrt` and :func:`generalized_hermitian_eig`
take Hermitian Toeplitz input and run every decomposition on W in real
arithmetic, on one path with no complex fallback.  The check is what the map needs: Q^H R Q must
be real and symmetric to a relative 1e-6 (R Hermitian and centro-Hermitian,
which every Hermitian Toeplitz matrix is); anything else is rejected, naming
the matrix of a stack that failed.

Stacks of many small matrices (the per-bin K x K systems of the link layer)
are inverted by :func:`hermitian_inverse` as elementwise array operations
along the stack, with the matrix indices first; a LAPACK call per 2 x 2 or
4 x 4 matrix would cost far more than its arithmetic.

The other decompositions and solves use ``numpy.linalg`` only.  numpy and
scipy each ship their own OpenBLAS, each with its own thread pool; a sweep that
alternates between them (scipy triangular solves between numpy products)
leaves one pool's spinning workers on the core the other needs, and on two
cores a 32 x 200 product that takes 0.06 ms on its own took 2 ms inside a
sweep.  Keeping every call on numpy's library keeps one pool.  Even that one
pool gains nothing here: OpenBLAS hands some small calls (the ``eigh`` of a
32 x 32 matrix, a 4 x 32 x 3601 product) to its workers, and after each job a
worker spins for a while before it sleeps.  A sweep with a few such calls per
second keeps a second core busy for its whole run, and when another process
wants that core the sweep runs up to twice as slowly.  :func:`one_blas_thread`,
the one function here that is not pure, runs a block on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DefinitenessError",
    "EigDecomposition",
    "PsdError",
    "RankError",
    "generalized_hermitian_eig",
    "hermitian_inverse",
    "one_blas_thread",
    "psd_factor",
    "psd_sqrt",
    "qr",
    "svd",
]

# Negative eigenvalues of a nominally PSD matrix down to this fraction of its
# largest |eigenvalue| are round-off and clipped to zero, and a pivoted Cholesky
# factor may miss it by this fraction of its Frobenius norm; beyond it we refuse.
PSD_FAIL_RTOL = 1e-6
# Q^H R Q of a Hermitian Toeplitz R is real symmetric; a larger relative
# departure (imaginary part or asymmetry, Frobenius norm) rejects the input.
TOEPLITZ_RTOL = 1e-6
# A Gauss-Jordan pivot at or below this fraction of its matrix's diagonal
# entry marks a numerically singular matrix (a rank-deficient Gram matrix
# whose round-off leaves a tiny positive pivot).
PIVOT_RTOL = 1e-12

_SQRT_HALF = np.sqrt(0.5)


class DefinitenessError(ValueError):
    """A matrix required to be positive definite is not."""


class PsdError(ValueError):
    """A matrix required to be positive semidefinite is materially indefinite."""


class RankError(ValueError):
    """An input does not have the rank the operation requires."""


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues sorted descending with matching unit-norm eigenvectors.

    ``vectors[:, i]`` belongs to ``values[i]``.  Columns are normalized to
    unit Euclidean norm and phase-fixed (largest-magnitude entry real
    positive) so results are deterministic across runs.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_complex_stack(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def _index(at) -> str:
    """``[i, j]`` naming one matrix of a stack, empty for a lone matrix."""
    return f"{[int(i) for i in at]}" if len(at) else ""


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a real stack, with no temporary."""
    return np.einsum("...ij,...ij->...", x, x)


def _to_real(r: np.ndarray, name: str) -> np.ndarray:
    """W = Re(Q^H R Q) of a Hermitian Toeplitz stack, real symmetric, checked per matrix.

    Re(Q^H R Q) = Q^H C Q / 2 with C = R + J conj(R) J, whose last n rows mirror its
    first k = M - n, so W is gathered from those rows, block by block (first k and
    last n indices).  Q^H R Q is real symmetric exactly when R is Hermitian and
    centro-Hermitian, as every Hermitian Toeplitz matrix is.  A matrix whose
    Q^H R Q departs from that by more than TOEPLITZ_RTOL of its norm is rejected:
    its imaginary part has norm ||R - J conj(R) J|| / 2, and ||C||^2 +
    ||R - J conj(R) J||^2 = 4 ||R||^2.  The round-off that remains is absorbed by
    returning the symmetric part.
    """
    r = np.ascontiguousarray(r)
    m = r.shape[-1]
    n = m // 2
    k = m - n
    c = np.conjugate(r[..., ::-1, ::-1][..., :k, :])
    c += r[..., :k, :]
    e, o = c.real, c.imag
    e_flip, o_flip = e[..., ::-1], o[..., ::-1]
    w = np.empty(r.shape)
    np.add(e[..., :k, :k], e_flip[..., :k, :k], out=w[..., :k, :k])
    np.subtract(o_flip[..., :k, :n], o[..., :k, :n], out=w[..., :k, k:])
    np.add(o[..., :n, :k], o_flip[..., :n, :k], out=w[..., k:, :k])
    np.subtract(e[..., :n, :n], e_flip[..., :n, :n], out=w[..., k:, k:])
    w *= 0.5
    # odd M: the middle row and column of C pair with themselves, twice Q's sqrt(2)
    w[..., n:k, :] *= _SQRT_HALF
    w[..., :, n:k] *= _SQRT_HALF

    # squared norms of complex stacks, as real (..., rows, 2 columns) views
    norm = _squared_norm(r.view(np.float64))
    imag = np.maximum(norm - 0.25 * (_squared_norm(c.view(np.float64))
                                     + _squared_norm(c[..., :n, :].view(np.float64))), 0.0)
    del c, e, o, e_flip, o_flip
    asym = w - w.swapaxes(-1, -2)
    # ||Y - Re(Y)^T||^2 = ||Re Y - Re Y^T||^2 + ||Im Y||^2 for Y = Q^H R Q, against ||Y||^2
    defect = np.sqrt(_squared_norm(asym) + imag)
    scale = np.sqrt(norm)
    bad = defect > TOEPLITZ_RTOL * scale
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise ValueError(f"{name}{_index(at)} is not Hermitian Toeplitz"
                         f" (relative departure {defect[at] / scale[at]:.3e})")
    asym *= 0.5
    w -= asym
    return w


def _q_times(x: np.ndarray) -> np.ndarray:
    """Q x for a real stack x (..., M, N), as a complex stack."""
    m = x.shape[-2]
    n = m // 2
    k = m - n
    out = np.empty(x.shape, dtype=complex)
    top = out[..., :n, :]
    np.multiply(x[..., :n, :], _SQRT_HALF, out=top.real)
    np.multiply(x[..., k:, :], _SQRT_HALF, out=top.imag)
    out[..., n:k, :] = x[..., n:k, :]
    np.conjugate(top, out=out[..., ::-1, :][..., :n, :])
    return out


def fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive (of each
    matrix of a stack)."""
    v = np.array(v, dtype=complex)
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., np.newaxis, :], axis=-2)[..., 0, :]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return v * phase.conj()[..., np.newaxis, :]


def generalized_hermitian_eig(a, b) -> EigDecomposition:
    """Solve A v = lambda B v for Hermitian Toeplitz A and positive-definite Hermitian Toeplitz B.

    Both are mapped to real symmetric W_A, W_B (see the module docstring), and
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

    # L^-1 from numpy's LU (see the module docstring), applied by three products
    inv = np.linalg.inv(np.linalg.cholesky(w_b))
    inv_t = inv.swapaxes(-1, -2)
    values, vectors = np.linalg.eigh(inv @ w_a @ inv_t)
    vectors = inv_t @ vectors[..., ::-1]
    vectors /= np.linalg.norm(vectors, axis=-2, keepdims=True)
    return EigDecomposition(values[..., ::-1].copy(), fix_phases(_q_times(vectors)))


def hermitian_inverse(a) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of Hermitian positive-definite matrices, matrix indices first.

    ``a`` has shape (K, K, *batch); returns ``(inv, bad)`` with ``inv[:, :, b]``
    the inverse of ``a[:, :, b]`` and ``bad`` (shape ``batch``) marking the
    matrices whose inverses are meaningless, and NaN: those with a pivot that is
    not finite, not positive, or at most ``PIVOT_RTOL`` times the matrix's own
    diagonal entry in its row.  Unpivoted in-place Gauss-Jordan over K: every
    step runs on the whole stack at once, eliminating one row at a time (a
    (K, K, batch) temporary costs more than its arithmetic).  Rows are divided
    by the pivot, not multiplied by its reciprocal, so the Gram matrix of two
    identical columns often meets an exact zero pivot; the relative test
    catches the rest.
    """
    inv = np.array(a, dtype=complex)
    if inv.ndim < 2 or inv.shape[0] != inv.shape[1]:
        raise ValueError(f"expected a (K, K, ...) stack, got shape {inv.shape}")
    k = inv.shape[0]
    # a pivot must exceed this (and be finite); a NaN diagonal entry stays NaN and fails
    floor = np.maximum(PIVOT_RTOL * inv[range(k), range(k)].real, 0.0)
    bad = np.zeros(inv.shape[2:], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k):
            pivot = inv[j, j].real.copy()
            bad |= ~(pivot > floor[j]) | (pivot == np.inf)
            inv[j, j] = 1.0
            # a complex array divided by a real one would take numpy's complex
            # division, which multiplies by a reciprocal
            inv[j].real /= pivot
            inv[j].imag /= pivot
            for i in range(k):
                if i != j:
                    factor = inv[i, j].copy()
                    inv[i, j] = 0.0
                    inv[i] -= factor * inv[j]
    if bad.any():
        inv[..., bad] = np.nan
    return inv, bad


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) of the thread count of every OpenBLAS mapped into this process.

    Read from ``/proc/self/maps``; numpy's wheels name the functions
    ``scipy_openblas_*_num_threads64_``, other builds ``openblas_*_num_threads``.
    Empty where there is no such map or no such library.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def one_blas_thread():
    """Run the block with one thread in every loaded OpenBLAS, then restore each count.

    The package's products and decompositions give the same bits on one thread
    as on several, and so do its CSVs.  Where no OpenBLAS can be found the block
    runs as it is.
    The counts are process-wide, so blocks in concurrent threads share them.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition A = U diag(s) V^H.

    Returns (U, s, V) -- note V, not V^H.  Singular values are non-negative
    descending; U and V have orthonormal columns.  A stack (..., m, n) is
    decomposed matrix by matrix, each exactly as it would be on its own.
    """
    a = _as_complex_stack(a, "A")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().swapaxes(-1, -2)


def qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR decomposition A = Q R with R's diagonal real positive, of a matrix or
    of each matrix of a stack (..., m, n).

    Requires full column rank; rank deficiency (|R_ii| < 1e-12 ||A||) raises
    RankError, naming the matrix of a stack it belongs to.
    """
    a = _as_complex_stack(a, "A")
    if a.shape[-2] < a.shape[-1]:
        raise ValueError(f"QR requires m >= n, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    scale = np.linalg.norm(a, axis=(-2, -1))
    bad = np.abs(diag) < 1e-12 * scale[..., np.newaxis]
    if np.any(bad):
        at = np.argwhere(bad)[0]
        raise RankError(f"rank-deficient input{_index(at[:-1])}: |R[{int(at[-1])}, same]|"
                        " below 1e-12*||A||")
    phases = diag / np.abs(diag)
    return q * phases[..., np.newaxis, :], phases.conj()[..., :, np.newaxis] * r


def psd_sqrt(r) -> np.ndarray:
    """Hermitian square roots Q V diag(sqrt(lambda)) V^T Q^H of one PSD Hermitian Toeplitz matrix
    or a stack (..., M, M), from one real ``eigh`` of the stack's W = Q^H R Q.

    Each matrix is checked on its own: not Hermitian Toeplitz to 1e-6 is rejected; an
    eigenvalue below -1e-6 times its own largest |eigenvalue| raises PsdError, smaller
    negative ones are clipped to zero.  The root is X X^H with X = Q V diag(lambda^(1/4)).
    """
    r = _as_complex_stack(r, "R")
    _require_square(r, "R")
    values, vectors = np.linalg.eigh(_to_real(r, "R"))
    lowest = values.min(axis=-1, initial=0.0)
    bad = lowest < -PSD_FAIL_RTOL * np.abs(values).max(axis=-1, initial=0.0)
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise PsdError(f"R{_index(at)} is not PSD: eigenvalue {lowest[at]:.6e}"
                       " below -1e-6*||R||")
    x = _q_times(vectors * np.clip(values, 0.0, None)[..., np.newaxis, :] ** 0.25)
    return x @ x.conj().swapaxes(-1, -2)


def psd_factor(r) -> np.ndarray:
    """Diagonal-pivoted Cholesky factors L, R = L L^H, of one PSD Hermitian Toeplitz matrix or a
    stack (..., M, M); L has shape (..., M, r), r the largest rank in the stack.

    The factor is Q X with X the pivoted Cholesky factor of the real W = Q^H R Q (LAPACK's
    xPSTRF: Hammarling, Higham and Lucas, *LAPACK-style codes for pivoted Cholesky and QR
    updating*, 2007): each step takes the largest remaining diagonal entry as pivot and
    stops, for each matrix on its own, once that entry is at most LAPACK's default floor,
    M eps times the matrix's own largest diagonal entry.  The columns of a matrix past its
    own rank are exactly zero.  Every step is elementwise along the stack, so each
    matrix's factor is bit for bit its factor alone, followed by zero columns.  Input is
    checked as by :func:`psd_sqrt`: not Hermitian Toeplitz to 1e-6 is rejected, and a
    factor with ||R - L L^H||_F above PSD_FAIL_RTOL ||R||_F raises PsdError.
    """
    r = _as_complex_stack(r, "R")
    _require_square(r, "R")
    w = _to_real(r, "R")
    batch, m = w.shape[:-2], w.shape[-1]
    w = w.reshape(-1, m, m)
    every = np.arange(len(w))
    left = w[:, range(m), range(m)]  # the diagonal of what is left to factor
    floor = m * np.finfo(float).eps * np.maximum(left.max(axis=-1, initial=0.0), 0.0)
    free = np.ones(left.shape, dtype=bool)  # rows of W not pivoted yet
    live = np.ones(len(w), dtype=bool)
    cols = []  # column j of every matrix's X, (n, M) each
    while len(cols) < m:
        remaining = np.where(free, left, -np.inf)
        pivot = remaining.argmax(axis=-1)
        top = remaining[every, pivot]
        live &= top > floor
        if not live.any():
            break
        col = w[every, pivot]
        if cols:
            done = np.stack(cols, axis=1)
            col -= (done * done[every, :, pivot][..., np.newaxis]).sum(axis=1)
        keep = free & live[:, np.newaxis]
        col = np.where(keep, col / np.sqrt(np.where(live, top, 1.0))[:, np.newaxis], 0.0)
        cols.append(col)
        left -= col * col
        free[every, pivot] = False
    rank = len(cols)
    x = np.stack(cols, axis=1) if cols else np.zeros((len(w), 0, m))
    scale = np.sqrt(_squared_norm(w)).reshape(batch)
    w -= x.swapaxes(-1, -2) @ x
    residual = np.sqrt(_squared_norm(w)).reshape(batch)
    bad = residual > PSD_FAIL_RTOL * scale
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise PsdError(f"R{_index(at)} is not PSD: ||R - L L^H|| {residual[at]:.6e}"
                       f" above 1e-6*||R|| ({scale[at]:.6e})")
    return _q_times(x.swapaxes(-1, -2).reshape(batch + (m, rank)))
