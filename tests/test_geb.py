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
from jsdmsim.linalg import psd_factor

from jsdmsim.metrics import DESIGNS, SweepSettings, build_beamformer

import oracles
from conftest import random_orthonormal, table1_scenario, two_group_toy


def toy_stats():
    """Group 0's statistics and CCM factors on the two-group toy, and the toy."""
    scn = two_group_toy()
    cov = build_covariances(scn)
    return group_statistics(cov, 0), cov.factors(0), scn


def own_factor(r):
    """The pivoted-Cholesky factor of one Hermitian Toeplitz matrix, as a one-delay,
    one-user factor stack."""
    return psd_factor(r)[np.newaxis, np.newaxis]


class TestComputeGeb:
    def test_rank_one_signal_white_noise(self):
        # a steering vector's outer product is Hermitian Toeplitz
        u = steering_matrix([23.7], 6)[:, 0]
        stats = GroupStatistics(np.outer(u, u.conj()), np.eye(6, dtype=complex))
        geb = compute_geb(stats, own_factor(stats.r_s), 1)
        assert_allclose(np.abs(np.vdot(geb.s[:, 0], u)), 1.0, atol=1e-10)

    def test_white_interference_reduces_to_standard_eig(self):
        stats, factors, scn = toy_stats()
        white = GroupStatistics(stats.r_s, np.eye(scn.n_antennas, dtype=complex), stats.energy)
        geb = compute_geb(white, factors, 4)
        top = np.linalg.eigh(stats.r_s)[1][:, :-5:-1]
        # compare subspaces via projectors (eigenvalues may cluster)
        p1 = geb.s @ geb.s.conj().T
        p2 = top @ top.conj().T
        assert np.linalg.norm(p1 - p2) <= 1e-8

    def test_pencil_residual(self):
        stats, factors, _ = toy_stats()
        geb = compute_geb(stats, factors, 4)
        # before QR the columns solve the pencil; check via the cost identity below
        # and via an explicit 4x4 toy with known residual
        u = steering_matrix([-30.0, 5.0, 12.0, 48.0], 4)
        r_s = (u * [3.0, 1.0, 2.0, 0.5]) @ u.conj().T
        r_eta = np.eye(4) + 0.1 * np.outer(u[:, 0], u[:, 0].conj())
        toy = GroupStatistics(r_s, r_eta)
        dec = oracles.generalized_hermitian_eig(toy.r_s, toy.r_eta)
        res = np.linalg.norm(toy.r_s @ dec.vectors - (toy.r_eta @ dec.vectors) * dec.values)
        assert res <= 1e-8 * (np.linalg.norm(toy.r_s) + np.linalg.norm(toy.r_eta))
        assert geb.gen_eigenvalues.shape == (4,)
        assert np.all(np.diff(geb.gen_eigenvalues) <= 1e-12)

    def test_orthonormal_columns(self):
        stats, factors, _ = toy_stats()
        geb = compute_geb(stats, factors, 4)
        assert np.linalg.norm(geb.s.conj().T @ geb.s - np.eye(4)) <= 1e-10

    def test_too_many_chains(self):
        stats, factors, scn = toy_stats()
        with pytest.raises(ValueError):
            compute_geb(stats, factors, scn.n_antennas + 1)

    def test_deterministic(self):
        stats, factors, _ = toy_stats()
        assert np.array_equal(compute_geb(stats, factors, 3).s, compute_geb(stats, factors, 3).s)


# Relative gap (to the largest eigenvalue) from which an eigenvector counts as apart from
# its neighbours: a column or projector then moves by about eps / gap, far below 1e-12.
APART = 1e-2


def assert_matches_pencil(stats, factors, d):
    """compute_geb against the M x M pencil oracle: eigenvalues to 1e-12 of the largest;
    the projector where lambda_D and lambda_D+1 are apart, and each column where its
    eigenvalue is apart from both neighbours, to 1e-12."""
    geb = compute_geb(stats, factors, d)
    ref = oracles.pencil_geb(stats, d)
    every = oracles.generalized_hermitian_eig(stats.r_s, stats.r_eta).values
    top = max(every[0], np.finfo(float).tiny)
    assert np.max(np.abs(geb.gen_eigenvalues - ref.gen_eigenvalues)) <= 1e-12 * top
    gaps = np.append(-np.diff(every), np.inf)[:d] / top
    if gaps[d - 1] > APART:
        projector = geb.s @ geb.s.conj().T - ref.s @ ref.s.conj().T
        assert np.linalg.norm(projector) <= 1e-12
    apart = (gaps > APART) & np.concatenate([[True], gaps[:-1] > APART])
    for j in np.flatnonzero(apart):
        assert np.linalg.norm(geb.s[:, j] - ref.s[:, j]) <= 1e-12, j
    return geb, apart


class TestGebMatchesPencil:
    """The GEB from the CCM factors is the M x M pencil's, column by column."""

    @pytest.mark.parametrize("m", [32, 128])
    def test_table1_every_group_over_angles(self, m):
        compared = 0
        for phi in (-20.0, 0.0, 10.0, 10.3, 45.0):
            scn = table1_scenario(m=m, phi=phi)
            cov = build_covariances(scn)
            for g, spec in enumerate(scn.groups):
                _, apart = assert_matches_pencil(group_statistics(cov, g), cov.factors(g),
                                                 spec.n_chains)
                compared += apart.sum()
        # most columns are apart from their neighbours, so the comparison has teeth
        assert compared >= 0.75 * 5 * 4 * 4

    @pytest.mark.parametrize("parity", [0, 1])
    @hypothesis.seed(20261022)
    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_random_scenarios(self, parity, data):
        scn, chains = data.draw(pencil_scenarios(parity))
        cov = build_covariances(scn, n_quad=64)
        assert_matches_pencil(group_statistics(cov, 0), cov.factors(0), chains)

    def test_fewer_factor_columns_than_chains(self):
        # one user at one delay with a narrow spread: its CCM has numerical rank 3 of 16,
        # so the SVD is a full one and the GEB is completed by lambda = 0 vectors, R_s's
        # null space
        scn = Scenario(16, 4, 1.0, (
            GroupSpec(1, 4, 100.0, (0,), np.array([[12.0]]), 0.01, 1.0),
            GroupSpec(2, 1, 10.0, (1,), np.array([[-30.0], [40.0]]), 2.0, 1.0)))
        cov = build_covariances(scn)
        stats, factors = group_statistics(cov, 0), cov.factors(0)
        assert factors.shape[-1] < 4
        geb, _ = assert_matches_pencil(stats, factors, 4)
        rank = factors.shape[-1]
        assert np.all(geb.gen_eigenvalues[rank:] == 0.0)
        assert np.all(geb.gen_eigenvalues[:rank] > 0.0)
        # the beamformer stays orthonormal and its span holds all of R_eta^-1 R_s
        assert np.linalg.norm(geb.s.conj().T @ geb.s - np.eye(4)) <= 1e-12
        whitened = np.linalg.solve(stats.r_eta, stats.r_s)
        kept = geb.s @ (geb.s.conj().T @ whitened)
        assert np.linalg.norm(whitened - kept) <= 1e-10 * np.linalg.norm(whitened)

    def test_unit_of_angles_equals_each_angle(self):
        # a block's factors carry its largest rank, zero columns for an angle of lower rank;
        # each angle's GEB is still bit for bit its own
        scn = table1_scenario(m=64)
        phis = np.linspace(-60.0, 60.0, 7)
        cov = build_covariances(scn, phis=phis)
        stats, factors = group_statistics(cov, 0), cov.factors(0)
        block = compute_geb(stats, factors, 4)
        ranks = set()
        for b, phi in enumerate(phis):
            own = build_covariances(scn.with_phi(phi))
            ranks.add(own.factors(0).shape[-1])
            alone = compute_geb(group_statistics(own, 0), own.factors(0), 4)
            assert np.array_equal(block.s[b], alone.s)
            assert np.array_equal(block.gen_eigenvalues[b], alone.gen_eigenvalues)
        assert len(ranks) > 1


class TestReducedMutualInfo:
    def test_zero_signal_is_zero_bits(self):
        _, _, scn = toy_stats()
        m = scn.n_antennas
        stats = GroupStatistics(np.zeros((m, m), dtype=complex), np.eye(m, dtype=complex))
        rng = np.random.default_rng(3)
        assert reduced_mutual_info(stats, random_orthonormal(rng, m, 3)) == pytest.approx(0.0)

    def test_geb_value_matches_eigenvalue_product(self):
        stats, factors, _ = toy_stats()
        geb = compute_geb(stats, factors, 4)
        expected = np.log2(np.prod(1.0 + geb.gen_eigenvalues))
        assert_allclose(reduced_mutual_info(stats, geb.s), expected, rtol=1e-10)

    def test_invariance_under_invertible_right_factor(self):
        stats, factors, _ = toy_stats()
        geb = compute_geb(stats, factors, 4)
        base = reduced_mutual_info(stats, geb.s)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a += 2 * np.eye(4)
            assert_allclose(reduced_mutual_info(stats, geb.s @ a), base, rtol=1e-8)

    def test_maximality_over_random_beamformers(self):
        stats, factors, scn = toy_stats()
        geb = compute_geb(stats, factors, 3)
        best = reduced_mutual_info(stats, geb.s)
        rng = np.random.default_rng(5)
        for _ in range(300):
            s = random_orthonormal(rng, scn.n_antennas, 3)
            assert reduced_mutual_info(stats, s) <= best + 1e-9

    def test_monotone_in_chain_count(self):
        scn = table1_scenario(m=16)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        values = [reduced_mutual_info(stats, compute_geb(stats, cov.factors(0), d).s)
                  for d in range(1, 7)]
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
        cov = build_covariances(scn, n_quad=64)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), chains)
        best = reduced_mutual_info(stats, geb.s)
        cfg = SweepSettings(group=0, beamformers=tuple(DESIGNS), n_restarts=4)
        for name in DESIGNS:
            try:
                s = build_beamformer(name, scn, stats, 0, cfg, 7, geb=geb)
                value = reduced_mutual_info(stats, s)
            except ValueError:
                continue
            assert value <= best + 1e-9 * (1.0 + best), (name, value, best)
