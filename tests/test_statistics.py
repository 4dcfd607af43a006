"""Group covariance algebra and the expected-SINR ranking score."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jsdmsim import (
    GroupSpec,
    GroupStatistics,
    Scenario,
    build_covariances,
    expected_sinr,
    group_statistics,
    reduce,
    steering,
)

from conftest import random_orthonormal, random_unitary, two_group_toy


def single_group_scenario():
    return Scenario(8, 2, 0.3, (
        GroupSpec(2, 2, 5.0, (0,), np.array([[3.0], [5.0]]), 2.0, 1.0),
    ))


class TestGroupStatistics:
    def test_single_group_interference_is_noise_only(self):
        scn = single_group_scenario()
        stats = group_statistics(build_covariances(scn), 0)
        assert_allclose(stats.r_eta, 0.3 * np.eye(8), atol=1e-15)

    def test_symmetric_two_groups(self):
        scn = two_group_toy(e1_db=13.0, e2_db=13.0)
        cov = build_covariances(scn)
        s0 = group_statistics(cov, 0)
        s1 = group_statistics(cov, 1)
        # group 0's signal covariance is exactly group 1's interference part
        assert_allclose(s1.r_eta - scn.noise_power * np.eye(scn.n_antennas), s0.r_s,
                        atol=1e-12)

    def test_signal_trace(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        spec = scn.groups[0]
        expected = spec.symbol_energy * spec.gain.sum() / spec.n_users
        assert_allclose(np.trace(stats.r_s).real, expected, rtol=1e-9)

    def test_unknown_group(self):
        scn = single_group_scenario()
        with pytest.raises(ValueError, match="group"):
            group_statistics(build_covariances(scn), 3)

    def test_eta_eigenvalues_at_least_noise(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        vals = np.linalg.eigvalsh(stats.r_eta)
        assert vals.min() >= scn.noise_power * (1 - 1e-10)


class TestReduce:
    def test_identity_columns_take_principal_submatrix(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        d = 3
        s = np.eye(scn.n_antennas, d)
        assert_allclose(reduce(stats, s), stats.r_eta[:d, :d], atol=1e-15)

    def test_unitary_right_factor_congruence(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(3)
        s = random_orthonormal(rng, scn.n_antennas, 4)
        t = random_unitary(rng, 4)
        a = reduce(stats, s @ t)
        b = reduce(stats, s)
        assert_allclose(a, t.conj().T @ b @ t, atol=1e-10)

    def test_rank_deficient_rejected(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        s = np.zeros((scn.n_antennas, 2), dtype=complex)
        s[:, 0] = 1.0
        s[:, 1] = 1.0
        with pytest.raises(ValueError, match="rank"):
            reduce(stats, s)

    def test_reduced_interference_positive_definite(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(14)
        for _ in range(10):
            s = random_orthonormal(rng, scn.n_antennas, 4)
            vals = np.linalg.eigvalsh(reduce(stats, s))
            assert vals.min() > 0


class TestExpectedSinr:
    def test_noise_only_orthonormal(self):
        scn = single_group_scenario()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(8)
        s = random_orthonormal(rng, 8, 2)
        expected = np.trace(s.conj().T @ stats.r_s @ s).real / (2 * 0.3)
        assert_allclose(expected_sinr(stats, s), expected, rtol=1e-12)

    def test_scale_invariance(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(9)
        s = random_orthonormal(rng, scn.n_antennas, 4)
        assert_allclose(expected_sinr(stats, 3.7j * s), expected_sinr(stats, s), rtol=1e-12)

    def test_unitary_right_factor_invariance(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(10)
        s = random_orthonormal(rng, scn.n_antennas, 4)
        t = random_unitary(rng, 4)
        assert_allclose(expected_sinr(stats, s @ t), expected_sinr(stats, s), rtol=1e-12)

    def test_general_right_factor_not_invariant_for_d_above_one(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(11)
        s = random_orthonormal(rng, scn.n_antennas, 4)
        a = np.diag([1.0, 5.0, 0.2, 3.0]).astype(complex)
        assert abs(expected_sinr(stats, s @ a) - expected_sinr(stats, s)) > 1e-6

    def test_d_one_invariant_under_any_scaling(self):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn), 0)
        rng = np.random.default_rng(12)
        s = random_orthonormal(rng, scn.n_antennas, 1)
        assert_allclose(expected_sinr(stats, s * (2.0 - 1.5j)), expected_sinr(stats, s),
                        rtol=1e-12)

    def test_two_group_rank_one_toy(self):
        # rank-1 clusters at 0 and 90 degrees, M=4, D=1: the 90-degree steering
        # vector is exactly orthogonal to broadside, so the hand value is E1/N0.
        m = 4
        u0 = steering(0.0, m)
        u90 = steering(90.0, m)
        e1, e2, n0 = 4.0, 7.0, 0.5
        stats = GroupStatistics(e1 * np.outer(u0, u0.conj()),
                                e2 * np.outer(u90, u90.conj()) + n0 * np.eye(m))
        assert_allclose(expected_sinr(stats, u0[:, None]), e1 / n0, rtol=1e-12)
