"""Contracts of the dense linear-algebra kernels."""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jsdmsim
from jsdmsim import ccm_one_ring
from jsdmsim.linalg import (
    DefinitenessError,
    PsdError,
    RankError,
    generalized_hermitian_eig,
    hermitian_eig,
    hermitian_inverse,
    psd_sqrt,
    qr,
    svd,
)

from conftest import random_hermitian, random_pd, random_psd


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(2))
        assert_allclose(dec.values, [1.0, 1.0])
        assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        dec = hermitian_eig(np.diag([3.0, 1.0]))
        assert_allclose(dec.values, [3.0, 1.0])
        # columns equal e1, e2 up to phase
        assert_allclose(np.abs(dec.vectors), np.eye(2), atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 5)
        dec = hermitian_eig(a)
        rebuilt = (dec.vectors * dec.values) @ dec.vectors.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-9

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(rng, 24)
        dec = hermitian_eig(a)
        res = np.linalg.norm(a @ dec.vectors - dec.vectors * dec.values)
        assert res <= 1e-8 * np.linalg.norm(a)
        assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(24), atol=1e-10)
        assert np.all(np.diff(dec.values) <= 1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        a = np.eye(3, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            hermitian_eig(a)


class TestGeneralizedEig:
    def test_identity_b_reduces_to_standard(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 6)
        gen = generalized_hermitian_eig(a, np.eye(6))
        std = hermitian_eig(a)
        assert_allclose(gen.values, std.values, atol=1e-10)

    def test_analytic_2x2(self):
        dec = generalized_hermitian_eig(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        assert_allclose(dec.values, [2.0, 0.5], atol=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(22)
        a = random_psd(rng, 4)
        b = random_pd(rng, 4)
        dec = generalized_hermitian_eig(a, b)
        res = np.linalg.norm(a @ dec.vectors - (b @ dec.vectors) * dec.values)
        assert res <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
        assert_allclose(np.linalg.norm(dec.vectors, axis=0), np.ones(4), atol=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = random_hermitian(rng, n)
            b = random_pd(rng, n)
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t += n * np.eye(n)  # keep it comfortably invertible
            base = generalized_hermitian_eig(a, b).values
            moved = generalized_hermitian_eig(t.conj().T @ a @ t, t.conj().T @ b @ t).values
            assert_allclose(moved, base, rtol=1e-6, atol=1e-9 * max(1.0, np.abs(base).max()))

    def test_indefinite_b_rejected(self):
        with pytest.raises(DefinitenessError, match="eigenvalue"):
            generalized_hermitian_eig(np.eye(2), np.diag([1.0, -0.5]))

    def test_pivoting_pencil_matches_scipy(self):
        # Cholesky factor with |L_ij| > L_jj below the diagonal: an LU solve
        # with partial pivoting swaps rows where a triangular solve would not
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(0)
        m = 6
        low = np.tril(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), -1)
        low += np.diag(rng.uniform(0.5, 1.0, m))
        b = low @ low.conj().T
        chol = np.linalg.cholesky(b)
        assert np.any(np.abs(np.tril(chol, -1)) > np.diag(chol).real[None, :])
        a = random_hermitian(rng, m)
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
            generalized_hermitian_eig(np.eye(5), random_psd(rng, 5, rank=3))


def test_package_never_loads_scipy_linalg():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool; the
    # package keeps to numpy's, so a sweep must not import scipy.linalg
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
print("scipy.linalg" in sys.modules)
"""
    src = str(Path(jsdmsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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
        assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_one_ring_square(self):
        r = ccm_one_ring(12.0, 2.0, 0.7, 24)
        root = psd_sqrt(r)
        assert np.linalg.norm(root @ root.conj().T - r) <= 1e-8 * np.linalg.norm(r)

    def test_tiny_negative_clipped(self):
        r = np.diag([1.0, -1e-12])
        root = psd_sqrt(r)
        assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-10)

    def test_material_negative_rejected(self):
        with pytest.raises(PsdError):
            psd_sqrt(np.diag([1.0, -0.1]))


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
            a = random_hermitian(rng, n)
            dec = hermitian_eig(a)
            err = np.linalg.norm((dec.vectors * dec.values) @ dec.vectors.conj().T - a)
            assert err <= 1e-8 * max(np.linalg.norm(a), 1.0)
        elif op == "gen":
            a = random_hermitian(rng, n)
            b = random_pd(rng, n)
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
            a = random_psd(rng, n)
            root = psd_sqrt(a)
            assert np.linalg.norm(root @ root.conj().T - a) <= 1e-8 * max(np.linalg.norm(a), 1.0)
