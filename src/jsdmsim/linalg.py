"""Dense complex linear-algebra kernels with explicit contracts.

Every decomposition used elsewhere in the package goes through this module so
that ordering conventions (descending eigenvalues), phase conventions and
tolerance handling live in one place.  All functions are pure.

Decompositions and solves use ``numpy.linalg`` only.  numpy and scipy each
ship their own OpenBLAS, each with its own thread pool; a sweep that
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
    "psd_sqrt",
    "qr",
    "svd",
]

# Relative threshold below which negative eigenvalues of a nominally PSD
# matrix are treated as quadrature/round-off noise and clipped to zero.
PSD_CLIP_RTOL = 1e-10
# Beyond this the matrix is materially indefinite and we refuse.
PSD_FAIL_RTOL = 1e-6


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
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def _symmetrize(a: np.ndarray, name: str) -> np.ndarray:
    # Absorbs accumulation error; rejects material asymmetry (caller bug).
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.conj().T)
    if scale > 0 and asym > 1e-6 * scale:
        raise ValueError(f"{name} is not Hermitian (relative asymmetry {asym / scale:.3e})")
    return 0.5 * (a + a.conj().T)


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
    """Hermitian square root V diag(sqrt(lambda)) V^H of a PSD matrix.

    Tiny negative eigenvalues (>= -1e-10 * ||R||, quadrature round-off) are
    clipped to zero; materially negative ones raise PsdError.
    """
    r = _as_complex_matrix(r, "R")
    _require_square(r, "R")
    dec = hermitian_eig(r)
    scale = np.abs(dec.values).max() if dec.values.size else 0.0
    if scale > 0 and dec.values.min() < -PSD_FAIL_RTOL * scale:
        raise PsdError(
            f"matrix is not PSD: eigenvalue {dec.values.min():.6e} below -1e-6*||R||"
        )
    vals = np.clip(dec.values, 0.0, None)
    return (dec.vectors * np.sqrt(vals)[np.newaxis, :]) @ dec.vectors.conj().T
