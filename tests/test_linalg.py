"""Contracts of the dense linear-algebra kernels."""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import jsdmsim
from jsdmsim import build_covariances, ccm_one_ring
from jsdmsim.linalg import (
    DefinitenessError,
    PsdError,
    RankError,
    _openblas_thread_controls,
    _q_times,
    _to_real,
    factor_pencil,
    hermitian_inverse,
    one_blas_thread,
    psd_factor,
    psd_sqrt,
    qr,
    svd,
)

from conftest import (random_hermitian, random_toeplitz, random_toeplitz_pd, random_toeplitz_psd,
                      table1_scenario, toeplitz_from_column)
from oracles import generalized_hermitian_eig


def standard_eig(a):
    """The standard problem A v = lambda v, as the pencil (A, I)."""
    a = np.asarray(a)
    return generalized_hermitian_eig(a, np.eye(a.shape[-1]))


class TestHermitianEig:
    """The standard Hermitian Toeplitz eigenproblem, solved as the pencil (A, I)."""

    def test_identity(self):
        dec = standard_eig(np.eye(2))
        assert_allclose(dec.values, [1.0, 1.0])
        assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        # eigenvalues 3 and 1 with eigenvectors (1, 1) and (1, -1)
        dec = standard_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(dec.values, [3.0, 1.0])
        assert_allclose(np.abs(dec.vectors), np.full((2, 2), np.sqrt(0.5)), atol=1e-12)
        assert_allclose(np.abs(np.vdot(dec.vectors[:, 0], [1.0, 1.0])), np.sqrt(2.0), atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_toeplitz(rng, 5)
        dec = standard_eig(a)
        rebuilt = (dec.vectors * dec.values) @ dec.vectors.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-9

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(12)
        a = random_toeplitz(rng, 24)
        dec = standard_eig(a)
        res = np.linalg.norm(a @ dec.vectors - dec.vectors * dec.values)
        assert res <= 1e-8 * np.linalg.norm(a)
        assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(24), atol=1e-10)
        assert np.all(np.diff(dec.values) <= 1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            generalized_hermitian_eig(np.ones((2, 3)), np.eye(2))

    def test_nonfinite_rejected(self):
        a = np.eye(3, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            standard_eig(a)


class TestGeneralizedEig:
    def test_identity_b_reduces_to_standard(self):
        rng = np.random.default_rng(21)
        a = random_toeplitz(rng, 6)
        gen = generalized_hermitian_eig(a, np.eye(6))
        assert_allclose(gen.values, np.linalg.eigvalsh(a)[::-1], atol=1e-10)

    def test_analytic_2x2(self):
        # commuting pair: A has eigenvalues 3, 1 and B 1, 3 on (1, 1) and (1, -1)
        dec = generalized_hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                        np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert_allclose(dec.values, [3.0, 1.0 / 3.0], atol=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(22)
        a = random_toeplitz_psd(rng, 4)
        b = random_toeplitz_pd(rng, 4)
        dec = generalized_hermitian_eig(a, b)
        res = np.linalg.norm(a @ dec.vectors - (b @ dec.vectors) * dec.values)
        assert res <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
        assert_allclose(np.linalg.norm(dec.vectors, axis=0), np.ones(4), atol=1e-10)

    def test_congruence_invariance(self):
        # the congruences that keep Toeplitz structure: T = c diag(exp(j w k)) J^p
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = random_toeplitz(rng, n)
            b = random_toeplitz_pd(rng, n)
            c = complex(rng.uniform(0.2, 5.0) * np.exp(2j * np.pi * rng.uniform()))
            t = c * np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi) * np.arange(n)))
            if rng.integers(2):
                t = t[:, ::-1]
            base = generalized_hermitian_eig(a, b).values
            moved = generalized_hermitian_eig(t.conj().T @ a @ t, t.conj().T @ b @ t).values
            assert_allclose(moved, base, rtol=1e-6, atol=1e-9 * max(1.0, np.abs(base).max()))

    def test_indefinite_b_rejected(self):
        # B has eigenvalues 1.25 and -0.75
        with pytest.raises(DefinitenessError, match="eigenvalue"):
            generalized_hermitian_eig(np.eye(2), np.array([[0.25, 1.0], [1.0, 0.25]]))

    def test_pivoting_pencil_matches_scipy(self):
        # a strongly correlated B: below the diagonal its Cholesky factor (and
        # that of its real image W_B) has |L_ij| > L_jj, where the LU behind
        # numpy's inverse of L swaps rows and a triangular solve would not
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(0)
        m = 6
        b = ccm_one_ring(20.0, 10.0, 1.0, m) + 0.01 * np.eye(m)
        for factor in (np.linalg.cholesky(b), np.linalg.cholesky(_to_real(b, "B"))):
            assert np.any(np.abs(np.tril(factor, -1)) > np.abs(np.diag(factor))[None, :])
        a = random_toeplitz(rng, m)
        dec = generalized_hermitian_eig(a, b)
        values, vectors = sla.eigh(a, b)
        values, vectors = values[::-1], vectors[:, ::-1]
        assert np.min(np.abs(np.diff(values))) > 1e-3  # simple spectrum: spans are single vectors
        assert_allclose(dec.values, values, rtol=0, atol=1e-10 * np.abs(values).max())
        vectors = vectors / np.linalg.norm(vectors, axis=0)
        for i in range(m):
            ours = np.outer(dec.vectors[:, i], dec.vectors[:, i].conj())
            ref = np.outer(vectors[:, i], vectors[:, i].conj())
            assert np.linalg.norm(ours - ref) <= 1e-10

    def test_singular_psd_b_rejected(self):
        rng = np.random.default_rng(25)
        with pytest.raises(DefinitenessError, match="eigenvalue"):
            generalized_hermitian_eig(np.eye(5), random_toeplitz_psd(rng, 5, rank=3))


class TestFactorPencil:
    """The pencil (F F^H, B) from a psd_factor factor F, against the M x M pencil."""

    @pytest.mark.parametrize("m", [1, 2, 5, 16, 33])
    def test_matches_the_full_pencil(self, m):
        rng = np.random.default_rng(40 + m)
        for rank in sorted({1, max(1, m // 3), m}):
            a = random_toeplitz_psd(rng, m, rank=rank)
            b = random_toeplitz_pd(rng, m)
            f = psd_factor(a)
            d = min(m, rank + 1)
            values, vectors = factor_pencil(f, b, d)
            ref = generalized_hermitian_eig(f @ f.conj().T, b)
            scale = np.abs(ref.values).max()
            assert_allclose(values, ref.values[:d], rtol=0, atol=1e-10 * scale)
            assert np.all(values[f.shape[-1]:] == 0.0)
            res = np.linalg.norm(a @ vectors - (b @ vectors) * values)
            assert res <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
            assert_allclose(np.linalg.norm(vectors, axis=0), np.ones(d), atol=1e-12)
            gram = vectors.conj().T @ b @ vectors
            assert np.linalg.norm(gram - np.diag(np.diag(gram))) <= 1e-8 * np.linalg.norm(b)

    def test_zero_columns_and_stacks_keep_the_bits(self):
        rng = np.random.default_rng(44)
        m = 12
        f = np.stack([psd_factor(random_toeplitz_psd(rng, m, rank=r))[:, :3] for r in (3, 5)])
        f = np.concatenate([f, np.zeros_like(f)], axis=-1)[..., [0, 3, 1, 4, 2, 5]]
        b = random_toeplitz_pd(rng, m)
        values, vectors = factor_pencil(f, b, 4)
        for i in range(2):
            alone = factor_pencil(f[i][:, [0, 2, 4]], b, 4)
            assert np.array_equal(values[i], alone[0])
            assert np.array_equal(vectors[i], alone[1])
        b_stack = np.stack([b, random_toeplitz_pd(rng, m)])
        values, vectors = factor_pencil(f[0], b_stack, 4)
        for i in range(2):
            alone = factor_pencil(f[0], b_stack[i], 4)
            assert np.array_equal(values[i], alone[0])
            assert np.array_equal(vectors[i], alone[1])

    def test_bad_input_rejected(self):
        rng = np.random.default_rng(45)
        m = 6
        f = psd_factor(random_toeplitz_psd(rng, m))
        b = random_toeplitz_pd(rng, m)
        with pytest.raises(DefinitenessError, match=r"B\[1\] is not positive definite"):
            factor_pencil(f, np.stack([b, random_toeplitz_psd(rng, m, rank=3)]), 2)
        with pytest.raises(DefinitenessError, match="B is not positive definite"):
            factor_pencil(f, -b, 1)
        bent = b.copy()
        bent[0, 0] += 1e-3 * np.linalg.norm(b)
        with pytest.raises(ValueError, match="B is not Hermitian Toeplitz"):
            factor_pencil(f, bent, 2)
        # a factor of a Hermitian Toeplitz matrix that is not Q X with X real
        u = np.exp(1j * 0.3 * np.arange(m))[:, np.newaxis]
        with pytest.raises(ValueError, match="mirror"):
            factor_pencil(u, b, 1)
        with pytest.raises(ValueError, match="as many rows"):
            factor_pencil(f[:-1], b, 1)


def test_package_never_loads_scipy_linalg():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool; the
    # package keeps to numpy's, so neither importing the runner nor a sweep
    # may load any part of scipy
    script = """
import sys
import numpy as np
import jsdmsim, jsdmsim.cli, jsdmsim.runner
from jsdmsim import GroupSpec, Scenario, SweepSettings, phi_sweep
groups = (
    GroupSpec(2, 4, 1000.0, (0, 2), np.array([[-10.0, 20.0], [-9.0, 21.0]]), 2.0, 1.0,
              mobile=True),
    GroupSpec(2, 4, 100.0, (1, 3), np.array([[40.0, -35.0], [41.0, -34.0]]), 2.0, 1.0),
)
settings = SweepSettings(group=0, beamformers=("geb", "dft", "pe-am"), combiners=("zf", "lmmse"),
                         trials=2, block_length=16, seed=1)
result = phi_sweep(Scenario(16, 4, 1.0, groups), [0.0, 5.0], settings)
assert not result.errors(), result.errors()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(jsdmsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestOneBlasThread:
    def counts(self):
        controls = _openblas_thread_controls()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        # numpy's own OpenBLAS must be found, or the block silently keeps its threads
        assert controls or "openblas" not in blas.lower()
        return lambda: [get() for get, _ in controls]

    def test_block_runs_on_one_thread_and_restores_the_count(self):
        counts = self.counts()
        before = counts()
        with one_blas_thread():
            assert counts() == [1] * len(before)
        assert counts() == before

    def test_count_restored_when_the_block_raises(self):
        counts = self.counts()
        before = counts()
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError("inside")
        assert counts() == before

    def test_results_do_not_depend_on_the_thread_count(self):
        rng = np.random.default_rng(3)
        a = random_toeplitz(rng, 48)
        b = random_toeplitz_pd(rng, 48)
        s = rng.standard_normal((48, 4)) + 1j * rng.standard_normal((48, 4))
        u = np.exp(1j * rng.standard_normal((48, 3601)))

        def work():
            return (*factor_pencil(psd_factor(a @ a.conj().T), b, 4), psd_sqrt(b),
                    s.conj().T @ u)

        threaded = work()
        with one_blas_thread():
            single = work()
        for x, y in zip(threaded, single):
            assert np.array_equal(x, y)


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        assert_allclose(s, np.ones(3))

    def test_rank_one(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        _, s, _ = svd(np.outer(x, y.conj()))
        assert_allclose(s[0], np.linalg.norm(x) * np.linalg.norm(y), rtol=1e-12)
        assert np.all(s[1:] <= 1e-12 * s[0])

    def test_reconstruction(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        u, s, v = svd(a)
        assert np.linalg.norm((u * s) @ v.conj().T - a) <= 1e-9 * np.linalg.norm(a)
        assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
        assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
        assert np.all(np.diff(s) <= 0)


class TestQr:
    def test_orthonormal_input(self):
        rng = np.random.default_rng(41)
        z = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        a, _ = qr(z)
        q, r = qr(a)
        # Q equals A up to column phases; R diagonal with unit-modulus entries
        assert_allclose(np.abs(np.diag(r)), np.ones(3), atol=1e-10)
        assert np.linalg.norm(r - np.diag(np.diag(r))) <= 1e-10
        assert_allclose(np.abs(q.conj().T @ a), np.eye(3), atol=1e-10)

    def test_hand_gram_schmidt(self):
        q, r = qr(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert_allclose(q, np.eye(2), atol=1e-14)
        assert_allclose(r, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        q, r = qr(a)
        assert np.linalg.norm(q @ r - a) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(3)) <= 1e-10
        assert_allclose(np.triu(r), r)
        assert np.all(np.diag(r).real > 0)

    def test_rank_deficient_rejected(self):
        a = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankError):
            qr(a)


class TestPsdSqrt:
    def test_identity(self):
        assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        # eigenvalues 9 and 4 on (1, 1) and (1, -1): the root has 3 and 2 there
        r = np.array([[6.5, 2.5], [2.5, 6.5]])
        assert_allclose(psd_sqrt(r), [[2.5, 0.5], [0.5, 2.5]], atol=1e-12)

    def test_one_ring_square(self):
        r = ccm_one_ring(12.0, 2.0, 0.7, 24)
        root = psd_sqrt(r)
        assert np.linalg.norm(root @ root.conj().T - r) <= 1e-8 * np.linalg.norm(r)

    def test_tiny_negative_clipped(self):
        root = psd_sqrt(two_by_two(1.0, -1e-12))
        assert_allclose(root, np.full((2, 2), 0.5), atol=1e-10)

    def test_material_negative_rejected(self):
        with pytest.raises(PsdError):
            psd_sqrt(two_by_two(1.0, -0.1))


def two_by_two(first, second):
    """The 2 x 2 Hermitian Toeplitz matrix with eigenvalues ``first`` on (1, 1) and ``second``
    on (1, -1)."""
    return toeplitz_from_column([0.5 * (first + second), 0.5 * (first - second)]).real


class TestToeplitzTransform:
    """The sparse unitary Q and the real symmetric image W = Q^H R Q of Hermitian Toeplitz R."""

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 128])
    def test_q_unitary_and_image_real_symmetric(self, m):
        q = _q_times(np.eye(m))
        assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-14 * m
        # two nonzeros per column, one in the middle column of odd M
        assert np.count_nonzero(q) == 2 * m - m % 2
        rng = np.random.default_rng(m)
        stack = np.stack([[random_toeplitz(rng, m) for _ in range(3)] for _ in range(2)])
        w = _to_real(stack, "R")
        assert w.dtype == np.float64 and w.shape == stack.shape
        assert np.array_equal(w, w.swapaxes(-1, -2))
        dense = q.conj().T @ stack @ q
        scale = np.linalg.norm(stack, axis=(-2, -1))[..., None, None]
        assert np.all(np.abs(dense.imag) <= 1e-13 * scale)
        assert np.all(np.abs(w - dense.real) <= 1e-13 * scale)
        assert_allclose(np.linalg.eigvalsh(w), np.linalg.eigvalsh(stack), atol=1e-12 * scale.max())
        # Q x of any real x
        x = rng.standard_normal((m, 3))
        assert_allclose(_q_times(x), q @ x, rtol=0, atol=1e-14 * m)

    @pytest.mark.parametrize("m", [2, 3, 16, 17])
    def test_non_toeplitz_rejected_with_index(self, m):
        rng = np.random.default_rng(100 + m)
        stack = np.stack([[random_toeplitz_psd(rng, m) for _ in range(3)] for _ in range(2)])
        psd_sqrt(stack)
        bent = stack.copy()
        bent[1, 2] = random_hermitian(rng, m) @ random_hermitian(rng, m).conj().T
        with pytest.raises(ValueError, match=r"R\[1, 2\] is not Hermitian Toeplitz"):
            psd_sqrt(bent)
        # centro-Hermitian (J conj(X) J = X) but not Hermitian: its image is real, not symmetric
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        bent[1, 2] = x + x[::-1, ::-1].conj()
        with pytest.raises(ValueError, match=r"R\[1, 2\] is not Hermitian Toeplitz"):
            psd_sqrt(bent)
        # judged against each matrix's own norm, not the stack's largest
        scaled = np.stack([1e9 * stack[0, 0], stack[0, 1]])
        scaled[1, 0, 0] += 1e-3 * np.linalg.norm(scaled[1])
        with pytest.raises(ValueError, match=r"R\[1\] is not Hermitian Toeplitz"):
            psd_sqrt(scaled)
        a, b = stack[0, 0], stack[0, 1] + np.eye(m)
        generalized_hermitian_eig(a, b)
        bent_a, bent_b = a.copy(), b.copy()
        for other in (bent_a, bent_b):
            # a Hermitian matrix whose diagonal is not constant
            other[0, 0] += 1e-3 * np.linalg.norm(other)
        with pytest.raises(ValueError, match="A is not Hermitian Toeplitz"):
            generalized_hermitian_eig(bent_a, b)
        with pytest.raises(ValueError, match="B is not Hermitian Toeplitz"):
            generalized_hermitian_eig(a, bent_b)

    @hypothesis.seed(20261018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(batch=st.lists(st.integers(1, 3), min_size=0, max_size=2), m=st.integers(1, 40),
           rank=st.integers(1, 40), draw=st.integers(0, 2**31))
    def test_square_of_psd_sqrt_returns_r(self, batch, m, rank, draw):
        rng = np.random.default_rng(draw)
        stack = np.empty((*batch, m, m), dtype=complex)
        for i in np.ndindex(*batch):
            stack[i] = random_toeplitz_psd(rng, m, rank) * 10.0 ** rng.uniform(-3, 3)
        roots = psd_sqrt(stack)
        for i in np.ndindex(*batch):
            scale = np.linalg.norm(stack[i])
            assert np.linalg.norm(roots[i] - roots[i].conj().T) <= 1e-12 * np.sqrt(scale)
            assert np.linalg.norm(roots[i] @ roots[i] - stack[i]) <= 1e-10 * scale


def eigh_root(r):
    """Oracle square root of one PSD matrix, from its own decomposition."""
    values, vectors = np.linalg.eigh(r)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def psd_stack(rng, batch, n):
    """Random positive-definite Hermitian Toeplitz matrices of spread-out scales, (*batch, n, n)."""
    stack = np.empty((*batch, n, n), dtype=complex)
    for i in np.ndindex(*batch):
        stack[i] = random_toeplitz_pd(rng, n) * 10.0 ** rng.uniform(-3, 3)
    return stack


class TestPsdSqrtStack:
    """One eigh on the whole stack, every check per matrix."""

    @hypothesis.seed(20261022)
    @settings(max_examples=40, deadline=None, database=None)
    @given(batch=st.lists(st.integers(1, 3), min_size=1, max_size=3), n=st.integers(1, 24),
           draw=st.integers(0, 2**31))
    def test_stack_equals_each_own_root(self, batch, n, draw):
        stack = psd_stack(np.random.default_rng(draw), batch, n)
        roots = psd_sqrt(stack)
        assert roots.shape == stack.shape
        for i in np.ndindex(*batch):
            scale = np.linalg.norm(roots[i])
            assert np.linalg.norm(roots[i] - psd_sqrt(stack[i])) <= 1e-10 * scale
            assert np.linalg.norm(roots[i] - eigh_root(stack[i])) <= 1e-10 * scale
            assert (np.linalg.norm(roots[i] @ roots[i] - stack[i])
                    <= 1e-10 * np.linalg.norm(stack[i]))

    def test_one_indefinite_member_raises(self):
        stack = psd_stack(np.random.default_rng(1), (2, 3), 6)
        stack[1, 2] -= 0.1 * np.linalg.eigvalsh(stack[1, 2]).max() * np.eye(6)
        with pytest.raises(PsdError, match=r"R\[1, 2\] is not PSD"):
            psd_sqrt(stack)

    def test_definiteness_judged_against_each_matrix_own_scale(self):
        small = two_by_two(1.0, -1e-3)
        with pytest.raises(PsdError):
            psd_sqrt(np.stack([1e9 * np.eye(2), small]))
        tiny = two_by_two(1.0, -1e-12)
        roots = psd_sqrt(np.stack([1e-9 * np.eye(2), tiny]))
        assert_allclose(roots[1], np.full((2, 2), 0.5), atol=1e-12)

    def test_one_non_hermitian_member_rejected(self):
        stack = psd_stack(np.random.default_rng(2), (4,), 5)
        stack[3, 0, 1] += 1e-3 * np.linalg.norm(stack[3])
        with pytest.raises(ValueError, match=r"R\[3\] is not Hermitian"):
            psd_sqrt(stack)

    def test_zero_member_returns_zeros(self):
        stack = psd_stack(np.random.default_rng(3), (3,), 7)
        stack[1] = 0.0
        roots = psd_sqrt(stack)
        assert np.array_equal(roots[1], np.zeros((7, 7)))
        for i in (0, 2):
            assert np.linalg.norm(roots[i] @ roots[i] - stack[i]) <= 1e-10 * np.linalg.norm(
                stack[i])

    def test_bad_shapes_and_entries(self):
        with pytest.raises(ValueError, match="square"):
            psd_sqrt(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="matrix"):
            psd_sqrt(np.ones(3))
        stack = np.stack([np.eye(3), np.eye(3)])
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            psd_sqrt(stack)

    def test_input_not_modified(self):
        stack = psd_stack(np.random.default_rng(4), (2,), 4)
        copy = stack.copy()
        psd_sqrt(stack)
        assert np.array_equal(stack, copy)


class TestPsdFactor:
    """Pivoted-Cholesky factors of table1 CCM blocks: exact rank, each matrix on its own."""

    @hypothesis.seed(20261023)
    @settings(max_examples=30, deadline=None, database=None)
    @given(m=st.integers(8, 128), phis=st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=3))
    @hypothesis.example(m=127, phis=[10.0, -3.5]).via("odd M")
    @hypothesis.example(m=128, phis=[10.0]).via("full scale")
    def test_block_factors(self, m, phis):
        stack = build_covariances(table1_scenario(m=m), phis=np.array(phis)).stacks[0]
        factors = psd_factor(stack)
        assert factors.shape[:-1] == stack.shape[:-1]
        rebuilt = factors @ factors.conj().swapaxes(-1, -2)
        error = np.linalg.norm(stack - rebuilt, axis=(-2, -1))
        eps = np.finfo(float).eps
        assert np.all(error <= 8 * m * eps * np.linalg.norm(stack, axis=(-2, -1)))
        for i in np.ndindex(stack.shape[:-2]):
            alone = psd_factor(stack[i])
            rank = alone.shape[-1]
            # its own rank: every column of its own factor is used, the block's others are zero
            assert rank >= 1 and np.any(alone[:, -1])
            assert np.array_equal(factors[i][:, :rank], alone)
            assert not np.any(factors[i][:, rank:])

    @hypothesis.seed(20261024)
    @settings(max_examples=30, deadline=None, database=None)
    @given(m=st.integers(8, 128), phi=st.floats(-45.0, 45.0), at=st.integers(0, 5),
           shift=st.floats(1e-3, 10.0), bend=st.floats(1e-4, 1.0),
           fault=st.sampled_from(["indefinite", "not toeplitz"]))
    def test_bad_input_fails_as_psd_sqrt_does(self, m, phi, at, shift, bend, fault):
        stack = build_covariances(table1_scenario(m=m, phi=phi)).stacks[0].copy()
        bad = stack.reshape(-1, m, m)[at]
        if fault == "indefinite":
            bad -= shift * np.linalg.eigvalsh(bad).max() * np.eye(m)
        else:  # Hermitian, but its diagonal is not constant
            bad[0, 0] += bend * np.linalg.norm(bad)
        errors = []
        for decompose in (psd_sqrt, psd_factor):
            with pytest.raises(ValueError) as info:
                decompose(stack)
            errors.append(info.value)
        assert type(errors[0]) is type(errors[1])
        index = [int(i) for i in np.unravel_index(at, stack.shape[:-2])]
        prefix = f"R{index} is " + ("not PSD" if fault == "indefinite" else "not Hermitian Toeplitz")
        assert all(str(error).startswith(prefix) for error in errors)

    def test_zero_and_identity(self):
        stack = np.stack([np.zeros((5, 5)), np.eye(5), 2.0 * np.eye(5)])
        factors = psd_factor(stack)
        assert factors.shape == (3, 5, 5) and not np.any(factors[0])
        assert_allclose(factors[1] @ factors[1].conj().T, np.eye(5), atol=1e-15)
        assert psd_factor(np.zeros((4, 4))).shape == (4, 0)

    def test_input_not_modified(self):
        stack = psd_stack(np.random.default_rng(5), (2,), 6)
        copy = stack.copy()
        psd_factor(stack)
        assert np.array_equal(stack, copy)


def indices_first(a):
    """The (K, K, *batch) view of a (*batch, K, K) stack."""
    return np.moveaxis(a, (-2, -1), (0, 1))


class TestHermitianInverse:
    """The batched K x K kernel, matrix indices first, against numpy's LAPACK."""

    @pytest.mark.parametrize("batch", [(), (5,), (3, 7)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_inv_and_solve(self, k, batch):
        rng = np.random.default_rng(100 * k + len(batch))
        x = rng.standard_normal(batch + (k + 2, k)) + 1j * rng.standard_normal(batch + (k + 2, k))
        a = x.conj().swapaxes(-1, -2) @ x + 0.1 * np.eye(k)
        b = rng.standard_normal(batch + (k, 3)) + 1j * rng.standard_normal(batch + (k, 3))
        inv, bad = hermitian_inverse(indices_first(a))
        assert bad.shape == batch and not bad.any()
        inv = np.moveaxis(inv, (0, 1), (-2, -1))
        ref = np.linalg.inv(a)
        assert np.all(np.linalg.norm(inv - ref, axis=(-2, -1))
                      <= 1e-12 * np.linalg.norm(ref, axis=(-2, -1)))
        ref = np.linalg.solve(a, b)
        assert np.all(np.linalg.norm(inv @ b - ref, axis=(-2, -1))
                      <= 1e-12 * np.linalg.norm(ref, axis=(-2, -1)))

    @pytest.mark.parametrize("fault, column", [
        ("duplicate", 1), ("zero", 0), ("zero", 1), ("nan", 0), ("nan", 1)])
    def test_bad_pivot_flags_only_its_matrix(self, fault, column):
        # matrix 4 of the stack gets an exact duplicate column, a zero column
        # or a NaN entry; its Gram matrix meets a zero or NaN pivot
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
        if fault == "duplicate":
            x[4, :, 0] = x[4, :, column] = [1 + 1j, 2, -1j]
        elif fault == "zero":
            x[4, :, column] = 0.0
        else:
            x[4, 1, column] = np.nan
        inv, bad = hermitian_inverse(indices_first(x.conj().swapaxes(-1, -2) @ x))
        assert bad.tolist() == [False, False, False, False, True, False]
        assert np.isfinite(np.delete(inv, 4, axis=-1)).all()
        assert np.isnan(inv[..., 4]).all()

    def test_indefinite_flagged(self):
        assert hermitian_inverse(np.diag([1.0, -2.0]))[1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            hermitian_inverse(np.ones((2, 3, 4)))


@pytest.mark.parametrize("op", ["eig", "gen", "svd", "qr", "sqrt"])
def test_reconstruction_property_1000_instances(op):
    """Each decomposition honours its reconstruction identity on 1000 random sizes."""
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        if op == "eig":
            a = random_toeplitz(rng, n)
            dec = standard_eig(a)
            err = np.linalg.norm((dec.vectors * dec.values) @ dec.vectors.conj().T - a)
            assert err <= 1e-8 * max(np.linalg.norm(a), 1.0)
        elif op == "gen":
            a = random_toeplitz(rng, n)
            b = random_toeplitz_pd(rng, n)
            dec = generalized_hermitian_eig(a, b)
            res = np.linalg.norm(a @ dec.vectors - (b @ dec.vectors) * dec.values)
            assert res <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
        elif op == "svd":
            m = int(rng.integers(1, 65))
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            u, s, v = svd(a)
            assert np.linalg.norm((u * s) @ v.conj().T - a) <= 1e-9 * max(np.linalg.norm(a), 1.0)
        elif op == "qr":
            m = int(rng.integers(n, 65))
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            q, r = qr(a)
            assert np.linalg.norm(q @ r - a) <= 1e-9 * max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10
        else:
            a = random_toeplitz_psd(rng, n)
            root = psd_sqrt(a)
            assert np.linalg.norm(root @ root.conj().T - a) <= 1e-8 * max(np.linalg.norm(a), 1.0)
