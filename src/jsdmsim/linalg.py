"""Dense complex linear-algebra kernels with explicit contracts.

Every decomposition used elsewhere in the package goes through this module so
that ordering conventions (descending eigenvalues), phase conventions and
tolerance handling live in one place.  All functions are pure.

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
    "hermitian_eig",
    "hermitian_inverse",
    "psd_sqrt",
    "qr",
    "svd",
]

# Negative eigenvalues of a nominally PSD matrix down to this fraction of its
# largest |eigenvalue| are round-off and clipped to zero; beyond it we refuse.
PSD_FAIL_RTOL = 1e-6
# A Gauss-Jordan pivot at or below this fraction of its matrix's diagonal
# entry marks a numerically singular matrix (a rank-deficient Gram matrix
# whose round-off leaves a tiny positive pivot).
PIVOT_RTOL = 1e-12


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


def _as_complex_matrix(a, name: str) -> np.ndarray:
    a = _as_complex_stack(a, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    return a


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def _index(at) -> str:
    """``[i, j]`` naming one matrix of a stack, empty for a lone matrix."""
    return f"{[int(i) for i in at]}" if len(at) else ""


def _symmetrize(a: np.ndarray, name: str) -> np.ndarray:
    # Absorbs round-off; rejects material asymmetry (caller bug) in any matrix of a stack.
    sym = a.conj().swapaxes(-1, -2)
    scale, asym = (np.sqrt(np.einsum("...ij,...ij->...", x.real, x.real)
                           + np.einsum("...ij,...ij->...", x.imag, x.imag)) for x in (a, a - sym))
    bad = asym > 1e-6 * scale
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise ValueError(f"{name}{_index(at)} is not Hermitian"
                         f" (relative asymmetry {asym[at] / scale[at]:.3e})")
    sym += a
    sym *= 0.5
    return sym


def fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    v = np.array(v, dtype=complex)
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return v * phase.conj()[np.newaxis, :]


def hermitian_eig(a) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (A + A^H)/2 before decomposition.  Satisfies
    A v_i = lambda_i v_i with residual <= 1e-8 * ||A|| and mutually
    orthonormal eigenvectors.
    """
    a = _as_complex_matrix(a, "A")
    _require_square(a, "A")
    a = _symmetrize(a, "A")
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    return EigDecomposition(values[order].real, fix_phases(vectors[:, order]))


def generalized_hermitian_eig(a, b) -> EigDecomposition:
    """Solve A v = lambda B v for Hermitian A and positive-definite B.

    Reduced via the Cholesky factor B = L L^H to a standard Hermitian problem
    C = L^-1 A L^-H; eigenvalues come back descending, eigenvectors are
    B-orthogonal and normalized to unit Euclidean norm.
    """
    a = _as_complex_matrix(a, "A")
    b = _as_complex_matrix(b, "B")
    _require_square(a, "A")
    _require_square(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"A and B must have equal shape, got {a.shape} vs {b.shape}")
    a = _symmetrize(a, "A")
    b = _symmetrize(b, "B")

    b_eigs = np.linalg.eigvalsh(b)
    scale = np.abs(b_eigs).max() if b_eigs.size else 0.0
    if b_eigs.size == 0 or b_eigs[0] <= 1e-12 * scale:
        raise DefinitenessError(
            f"B is not positive definite: smallest eigenvalue {b_eigs[0]:.6e}"
            f" (largest {scale:.6e})"
        )

    chol = np.linalg.cholesky(b)
    # C = L^-1 A L^-H via two solves (numpy's LU; see the module docstring).
    tmp = np.linalg.solve(chol, a)
    c = np.linalg.solve(chol, tmp.conj().T).conj().T
    dec = hermitian_eig(c)
    vectors = np.linalg.solve(chol.conj().T, dec.vectors)
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return EigDecomposition(dec.values, fix_phases(vectors))


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
    """Thin QR decomposition A = Q R with R's diagonal real positive.

    Requires full column rank; rank deficiency (|R_ii| < 1e-12 ||A||) raises
    RankError.
    """
    a = _as_complex_matrix(a, "A")
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"QR requires m >= n, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    scale = np.linalg.norm(a)
    bad = np.abs(diag) < 1e-12 * scale
    if np.any(bad):
        raise RankError(f"rank-deficient input: |R[{int(np.argmax(bad))}, same]| below 1e-12*||A||")
    phases = diag / np.abs(diag)
    return q * phases[np.newaxis, :], phases.conj()[:, np.newaxis] * r


def psd_sqrt(r) -> np.ndarray:
    """Hermitian square roots V diag(sqrt(lambda)) V^H of one PSD matrix or a stack (..., M, M).

    Each matrix is checked on its own: not Hermitian to 1e-6 is rejected; an eigenvalue
    below -1e-6 times its own largest |eigenvalue| raises PsdError, smaller negative ones
    are clipped to zero.  One ``eigh`` decomposes the stack (the root does not depend on
    eigenvector phases); each product overwrites its own eigenvectors, so no second stack.
    """
    r = _as_complex_stack(r, "R")
    _require_square(r, "R")
    values, vectors = np.linalg.eigh(_symmetrize(r, "R"))
    lowest = values.min(axis=-1, initial=0.0)
    bad = lowest < -PSD_FAIL_RTOL * np.abs(values).max(axis=-1, initial=0.0)
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise PsdError(f"R{_index(at)} is not PSD: eigenvalue {lowest[at]:.6e}"
                       " below -1e-6*||R||")
    roots = np.sqrt(np.clip(values, 0.0, None))
    for i in np.ndindex(values.shape[:-1]):
        vectors[i] = (vectors[i] * roots[i]) @ vectors[i].conj().T
    return vectors
