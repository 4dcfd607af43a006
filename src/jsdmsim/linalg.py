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
W = Q^H R Q with the same eigenvalues, and a real symmetric S back to the
centro-Hermitian Q S Q^H (Lee, *Centrohermitian and skew-centrohermitian
matrices*, LAA 1980; Haardt & Nossek, *Unitary ESPRIT*, IEEE TSP 1995).  Q has
two nonzeros per column, so both maps are O(M^2): each entry combines the
entries (i, j), (i, M-1-j), (M-1-i, j) and (M-1-i, M-1-j).
:func:`psd_sqrt` and :func:`generalized_hermitian_eig` take Hermitian
Toeplitz input and run every decomposition on W in real arithmetic, on one
path with no complex fallback.  The check is what the map needs: Q^H R Q must
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
sweep.  Keeping every call on numpy's library keeps one pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DefinitenessError",
    "EigDecomposition",
    "PsdError",
    "RankError",
    "generalized_hermitian_eig",
    "hermitian_inverse",
    "psd_sqrt",
    "qr",
    "svd",
]

# Negative eigenvalues of a nominally PSD matrix down to this fraction of its
# largest |eigenvalue| are round-off and clipped to zero; beyond it we refuse.
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

    def sq(x):
        return np.einsum("...ij,...ij->...", x, x)

    # squared norms of complex stacks, as real (..., rows, 2 columns) views
    norm = sq(r.view(np.float64))
    imag = np.maximum(norm - 0.25 * (sq(c.view(np.float64)) + sq(c[..., :n, :].view(np.float64))),
                      0.0)
    del c, e, o, e_flip, o_flip
    asym = w - w.swapaxes(-1, -2)
    # ||Y - Re(Y)^T||^2 = ||Re Y - Re Y^T||^2 + ||Im Y||^2 for Y = Q^H R Q, against ||Y||^2
    defect = np.sqrt(sq(asym) + imag)
    scale = np.sqrt(norm)
    bad = defect > TOEPLITZ_RTOL * scale
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise ValueError(f"{name}{_index(at)} is not Hermitian Toeplitz"
                         f" (relative departure {defect[at] / scale[at]:.3e})")
    asym *= 0.5
    w -= asym
    return w


def _from_real(w: np.ndarray) -> np.ndarray:
    """Q W Q^H of a real symmetric stack W: a Hermitian centro-Hermitian stack S.

    The first n rows come from W's blocks (first k = M - n and last n indices),
    the middle row of odd M from W's middle row, and the last n rows mirror the
    first: S[M-1-i] = conj(S[i] reversed).
    """
    m = w.shape[-1]
    n = m // 2
    k = m - n
    s = np.empty(w.shape, dtype=complex)
    top = s[..., :n, :]
    near, far = top[..., :n], top[..., ::-1][..., :n]  # columns j and M-1-j, j < n
    ss, sd, ds, dd = w[..., :n, :n], w[..., :n, k:], w[..., k:, :n], w[..., k:, k:]
    np.add(ss, dd, out=near.real)
    np.subtract(ds, sd, out=near.imag)
    np.subtract(ss, dd, out=far.real)
    np.add(sd, ds, out=far.imag)
    top *= 0.5
    if k > n:  # odd M: the middle column of the first n rows, and the middle row
        np.multiply(w[..., :n, n], _SQRT_HALF, out=top[..., n].real)
        np.multiply(w[..., k:, n], _SQRT_HALF, out=top[..., n].imag)
        middle = s[..., n, :]
        np.multiply(w[..., n, :n], _SQRT_HALF, out=middle[..., :n].real)
        np.multiply(w[..., n, k:], -_SQRT_HALF, out=middle[..., :n].imag)
        np.conjugate(middle[..., :n][..., ::-1], out=middle[..., k:])
        middle[..., n] = w[..., n, n]
    np.conjugate(top[..., ::-1], out=s[..., ::-1, :][..., :n, :])
    return s


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
    matrices whose inverses are meaningless: those with a pivot that is not
    finite, not positive, or at most ``PIVOT_RTOL`` times the matrix's own
    diagonal entry in its row.  Unpivoted in-place Gauss-Jordan over K: every
    step runs on the whole stack at once.  Rows are divided by the pivot, not
    multiplied by its reciprocal, so the Gram matrix of two identical columns
    often meets an exact zero pivot; the relative test catches the rest.
    """
    inv = np.array(a, dtype=complex)
    if inv.ndim < 2 or inv.shape[0] != inv.shape[1]:
        raise ValueError(f"expected a (K, K, ...) stack, got shape {inv.shape}")
    k = inv.shape[0]
    floor = PIVOT_RTOL * inv[range(k), range(k)].real
    bad = np.zeros(inv.shape[2:], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k):
            pivot = inv[j, j].real.copy()
            bad |= ~(pivot > 0) | ~(pivot > floor[j]) | ~np.isfinite(pivot)
            inv[j, j] = 1.0
            # a complex array divided by a real one would take numpy's complex
            # division, which multiplies by a reciprocal
            inv[j].real /= pivot
            inv[j].imag /= pivot
            factor = inv[:, j].copy()
            factor[j] = 0.0
            inv[:, j] -= factor
            inv -= factor[:, np.newaxis] * inv[j]
    return inv, bad


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
    negative ones are clipped to zero.  Each real product overwrites its own eigenvectors.
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
    roots = np.sqrt(np.clip(values, 0.0, None))
    for i in np.ndindex(values.shape[:-1]):
        vectors[i] = (vectors[i] * roots[i]) @ vectors[i].T
    return _from_real(vectors)
