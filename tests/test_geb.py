"""The generalized eigenbeamformer and its mutual-information cost."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from jsdmsim import (
    GroupSpec,
    GroupStatistics,
    Scenario,
    build_covariances,
    compute_geb,
    group_statistics,
    reduced_mutual_info,
    steering_matrix,
)
from jsdmsim.linalg import generalized_hermitian_eig

from jsdmsim.metrics import DESIGNS, SweepSettings, build_beamformer

from conftest import random_orthonormal, table1_scenario, two_group_toy


def toy_stats():
    scn = two_group_toy()
    return group_statistics(build_covariances(scn), 0), scn


class TestComputeGeb:
    def test_rank_one_signal_white_noise(self):
        # a steering vector's outer product is Hermitian Toeplitz
        u = steering_matrix([23.7], 6)[:, 0]
        stats = GroupStatistics(np.outer(u, u.conj()), np.eye(6, dtype=complex))
        geb = compute_geb(stats, 1)
        assert_allclose(np.abs(np.vdot(geb.s[:, 0], u)), 1.0, atol=1e-10)

    def test_white_interference_reduces_to_standard_eig(self):
        stats, scn = toy_stats()
        white = GroupStatistics(stats.r_s, np.eye(scn.n_antennas, dtype=complex))
        geb = compute_geb(white, 4)
        top = np.linalg.eigh(stats.r_s)[1][:, :-5:-1]
        # compare subspaces via projectors (eigenvalues may cluster)
        p1 = geb.s @ geb.s.conj().T
        p2 = top @ top.conj().T
        assert np.linalg.norm(p1 - p2) <= 1e-8

    def test_pencil_residual(self):
        stats, _ = toy_stats()
        geb = compute_geb(stats, 4)
        # before QR the columns solve the pencil; check via the cost identity below
        # and via an explicit 4x4 toy with known residual
        u = steering_matrix([-30.0, 5.0, 12.0, 48.0], 4)
        r_s = (u * [3.0, 1.0, 2.0, 0.5]) @ u.conj().T
        r_eta = np.eye(4) + 0.1 * np.outer(u[:, 0], u[:, 0].conj())
        toy = GroupStatistics(r_s, r_eta)
        dec = generalized_hermitian_eig(toy.r_s, toy.r_eta)
        res = np.linalg.norm(toy.r_s @ dec.vectors - (toy.r_eta @ dec.vectors) * dec.values)
        assert res <= 1e-8 * (np.linalg.norm(toy.r_s) + np.linalg.norm(toy.r_eta))
        assert geb.gen_eigenvalues.shape == (4,)
        assert np.all(np.diff(geb.gen_eigenvalues) <= 1e-12)

    def test_orthonormal_columns(self):
        stats, _ = toy_stats()
        geb = compute_geb(stats, 4)
        assert np.linalg.norm(geb.s.conj().T @ geb.s - np.eye(4)) <= 1e-10

    def test_too_many_chains(self):
        stats, scn = toy_stats()
        with pytest.raises(ValueError):
            compute_geb(stats, scn.n_antennas + 1)

    def test_deterministic(self):
        stats, _ = toy_stats()
        assert np.array_equal(compute_geb(stats, 3).s, compute_geb(stats, 3).s)


class TestReducedMutualInfo:
    def test_zero_signal_is_zero_bits(self):
        _, scn = toy_stats()
        m = scn.n_antennas
        stats = GroupStatistics(np.zeros((m, m), dtype=complex), np.eye(m, dtype=complex))
        rng = np.random.default_rng(3)
        assert reduced_mutual_info(stats, random_orthonormal(rng, m, 3)) == pytest.approx(0.0)

    def test_geb_value_matches_eigenvalue_product(self):
        stats, _ = toy_stats()
        geb = compute_geb(stats, 4)
        expected = np.log2(np.prod(1.0 + geb.gen_eigenvalues))
        assert_allclose(reduced_mutual_info(stats, geb.s), expected, rtol=1e-10)

    def test_invariance_under_invertible_right_factor(self):
        stats, _ = toy_stats()
        geb = compute_geb(stats, 4)
        base = reduced_mutual_info(stats, geb.s)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a += 2 * np.eye(4)
            assert_allclose(reduced_mutual_info(stats, geb.s @ a), base, rtol=1e-8)

    def test_maximality_over_random_beamformers(self):
        stats, scn = toy_stats()
        geb = compute_geb(stats, 3)
        best = reduced_mutual_info(stats, geb.s)
        rng = np.random.default_rng(5)
        for _ in range(300):
            s = random_orthonormal(rng, scn.n_antennas, 3)
            assert reduced_mutual_info(stats, s) <= best + 1e-9

    def test_monotone_in_chain_count(self):
        scn = table1_scenario(m=16)
        stats = group_statistics(build_covariances(scn), 0)
        values = [reduced_mutual_info(stats, compute_geb(stats, d).s) for d in range(1, 7)]
        assert np.all(np.diff(values) >= -1e-9)


@st.composite
def pencil_scenarios(draw, parity):
    """A random 2- or 3-group scenario at an M of the given parity, and group 0's chain count.

    The chain count divides M, so the fixed-subarray designs apply; M runs from 3 to 35.
    """
    if parity:
        chains = draw(st.sampled_from((1, 3, 5)))
        m = chains * draw(st.sampled_from((3, 5, 7)))
    else:
        chains = draw(st.sampled_from((2, 4)))
        m = chains * draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    groups = []
    for g in range(draw(st.integers(2, 3))):
        users = int(rng.integers(1, 3))
        delays = tuple(int(l) for l in rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        groups.append(GroupSpec(users, chains if g == 0 else 1, 10.0 ** rng.uniform(0.0, 3.0),
                                delays, rng.uniform(-60.0, 60.0, (users, len(delays))),
                                rng.uniform(1.0, 5.0), rng.uniform(0.5, 1.5, users)))
    return Scenario(m, 4, 1.0, tuple(groups)), chains


class TestGebOptimality:
    """No constrained design preserves more mutual information than the GEB."""

    @pytest.mark.parametrize("parity", [0, 1])
    @hypothesis.seed(20261018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_geb_beats_every_constrained_design(self, parity, data):
        scn, chains = data.draw(pencil_scenarios(parity))
        stats = group_statistics(build_covariances(scn, n_quad=64), 0)
        geb = compute_geb(stats, chains)
        best = reduced_mutual_info(stats, geb.s)
        cfg = SweepSettings(group=0, beamformers=tuple(DESIGNS), n_restarts=4)
        for name in DESIGNS:
            try:
                s = build_beamformer(name, scn, stats, 0, cfg, 7, geb=geb)
                value = reduced_mutual_info(stats, s)
            except ValueError:
                continue
            assert value <= best + 1e-9 * (1.0 + best), (name, value, best)
