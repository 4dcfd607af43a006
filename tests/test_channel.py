"""Steering vectors, one-ring covariances and correlated channel sampling."""

import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from jsdmsim import build_covariances, ccm_one_ring, metrics, sample_channels, steering_matrix
from jsdmsim.channel import fixed_covariances

from conftest import ccm, ccm_factor, table1_scenario, two_group_toy


class TestSteering:
    def test_broadside_uniform(self):
        u = steering_matrix([0.0], 8)[:, 0]
        assert_allclose(u, np.full(8, 1 / np.sqrt(8), dtype=complex), atol=1e-15)

    def test_unit_norm(self):
        for theta in (-73.2, -11.0, 4.5, 30.0, 88.9):
            u = steering_matrix([theta], 64)[:, 0]
            assert_allclose(np.linalg.norm(u), 1.0, atol=1e-13)

    def test_thirty_degree_phases(self):
        # sin 30 deg = 1/2, so entry phases advance by pi/2
        u = steering_matrix([30.0], 4)[:, 0]
        phases = np.angle(u * np.sqrt(4))
        expected = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert_allclose(np.mod(phases, 2 * np.pi), expected, atol=1e-12)

    def test_cross_correlation_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t1, t2 = rng.uniform(-90, 90, 2)
            u1, u2 = steering_matrix([t1], 32)[:, 0], steering_matrix([t2], 32)[:, 0]
            val = np.abs(np.vdot(u1, u2))
            assert val <= 1.0 + 1e-12

    def test_each_column_of_the_matrix_is_the_single_vector(self):
        thetas = np.array([-73.2, -11.0, 0.0, 4.5, 30.0, 88.9])
        u = steering_matrix(thetas, 64)
        assert u.shape == (64, thetas.size)
        with pytest.raises(ValueError, match="antenna count"):
            steering_matrix(thetas, 0)


class TestOneRingCcm:
    def test_narrow_spread_is_rank_one(self):
        power = 0.8
        r = ccm_one_ring(17.0, 1e-4, power, 16)
        u = steering_matrix([17.0], 16)[:, 0]
        vals = np.linalg.eigvalsh(r)
        assert_allclose(vals[-1], power, rtol=1e-6)
        assert np.linalg.norm(r - power * np.outer(u, u.conj())) <= 1e-4 * power

    def test_hermitian_psd_exact_trace(self):
        r = ccm_one_ring(-25.0, 2.0, 1.7, 32)
        assert np.array_equal(r, r.conj().T)  # bit-for-bit after symmetrization
        assert np.linalg.eigvalsh(r).min() >= -1e-12 * np.trace(r).real
        assert_allclose(np.trace(r).real, 1.7, rtol=1e-12)

    def test_quadrature_refinement(self):
        fine = ccm_one_ring(10.0, 2.0, 1.0, 32, n_quad=10000)
        trace = np.trace(fine).real
        err100 = np.linalg.norm(ccm_one_ring(10.0, 2.0, 1.0, 32, n_quad=100) - fine)
        err400 = np.linalg.norm(ccm_one_ring(10.0, 2.0, 1.0, 32, n_quad=400) - fine)
        # midpoint rule converges O(n^-2); computed: 9.8e-6 at n=100, 6.1e-7 at n=400
        assert err100 <= 2e-5 * trace
        assert err400 <= 1e-6 * trace
        assert err400 <= err100 / 10.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ccm_one_ring(0.0, -1.0, 1.0, 8)
        with pytest.raises(ValueError):
            ccm_one_ring(0.0, 1.0, 1.0, 8, n_quad=4)


def dense_one_ring(mu, delta, power, m, n_quad):
    """Midpoint-rule oracle: u u^H / n_quad over the quadrature nodes, trace rescaled."""
    offsets = (np.arange(n_quad) + 0.5) / n_quad - 0.5
    u = steering_matrix(mu + delta * offsets, m)
    r = u @ u.conj().T / n_quad
    return r * (power / np.trace(r).real)


class TestToeplitzOneRing:
    """The one-column Toeplitz build against the dense quadrature it replaces."""

    @hypothesis.seed(20261020)
    @settings(max_examples=60, deadline=None, database=None)
    @given(mu=st.floats(-90.0, 90.0), delta=st.floats(0.0, 10.0, exclude_min=True),
           power=st.floats(1e-3, 1e3), m=st.integers(1, 160), n_quad=st.integers(8, 400))
    def test_matches_dense_oracle(self, mu, delta, power, m, n_quad):
        r = ccm_one_ring(mu, delta, power, m, n_quad)
        oracle = dense_one_ring(mu, delta, power, m, n_quad)
        assert r.shape == (m, m)
        assert np.linalg.norm(r - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert np.array_equal(r, r.conj().T)

    @hypothesis.seed(20261021)
    @settings(max_examples=30, deadline=None, database=None)
    @given(batch=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           m=st.integers(1, 48), n_quad=st.integers(8, 64), draw=st.integers(0, 2**31))
    def test_stack_equals_each_call_bit_for_bit(self, batch, m, n_quad, draw):
        rng = np.random.default_rng(draw)
        mu = rng.uniform(-90.0, 90.0, batch)
        delta = rng.uniform(0.01, 10.0, batch)
        # power broadcasts along the last batch axis only
        power = rng.uniform(0.1, 2.0, batch[-1])
        stack = ccm_one_ring(mu, delta, power, m, n_quad)
        assert stack.shape == (*batch, m, m)
        for i in np.ndindex(*batch):
            assert np.array_equal(stack[i], ccm_one_ring(mu[i], delta[i], power[i[-1]], m,
                                                         n_quad))

    def test_every_element_checked(self):
        mu = np.zeros((2, 3))
        delta = np.ones((2, 3))
        delta[1, 2] = 0.0
        with pytest.raises(ValueError, match="spread"):
            ccm_one_ring(mu, delta, 1.0, 8)
        with pytest.raises(ValueError, match="power"):
            ccm_one_ring(mu, 1.0, [1.0, 1.0, -1.0], 8)
        with pytest.raises(ValueError, match="antenna count"):
            ccm_one_ring(mu, 1.0, 1.0, 0)

    def test_group_ccms_are_views_into_one_stack(self):
        scn = table1_scenario(m=16, phi=3.0)
        cov = build_covariances(scn)
        for g, spec in enumerate(scn.groups):
            stack = cov.stacks[g]
            assert stack.shape == (len(spec.delays), spec.n_users, 16, 16)
            for k in range(spec.n_users):
                for i in range(len(spec.delays)):
                    assert np.array_equal(stack[i, k], ccm_one_ring(
                        scn.effective_aoa(g)[k, i], spec.spread[k, i],
                        spec.gain[k] / len(spec.delays), 16))


class TestOneAngleMemory:
    def test_peak_at_most_twice_what_is_kept(self):
        """One table1 angle at 128 antennas: covariances plus every mobile sampling factor."""
        scn = table1_scenario(m=128)
        fixed = fixed_covariances(scn)
        scn_phi = scn.with_phi(10.0)
        spec = scn_phi.groups[0]
        tracemalloc.start()
        try:
            cov = build_covariances(scn_phi, fixed=fixed)
            factors = [ccm_factor(cov, 0, k, delay) for k in range(spec.n_users)
                       for delay in spec.delays]
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(factors) == 6
        # the mobile CCMs, 6 matrices of 128 x 128 complex, and their 128 x r factors
        assert kept >= 6 * 128 * (128 + factors[0].shape[1]) * 16
        assert peak <= 2.0 * kept


class TestOneUnitMemory:
    def test_peak_within_the_unit_budget(self):
        """One full unit of table1 angles at 128 antennas through angle_design: the mobile
        CCMs, statistics, GEBs and sampling factors of every angle of the unit."""
        scn = table1_scenario(m=128)
        fixed = fixed_covariances(scn)
        cfg = metrics.SweepSettings(group=0)
        phis = 10.0 + 0.1 * np.arange(metrics._unit_size(scn))
        tracemalloc.start()
        try:
            entries = metrics.angle_design(fixed, phis, cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entries) == 2
        # the unit's mobile CCMs alone fill the budget
        assert kept >= metrics._UNIT_BYTES
        assert peak <= 2.0 * kept
        assert peak <= 2.5 * metrics._UNIT_BYTES


class TestBuildCovariances:
    def test_equal_power_split_across_mpcs(self):
        scn = table1_scenario()
        cov = build_covariances(scn)
        # Group 1 has MPC delays {0, 5, 11}: each carries a third of the gain
        for delay in (0, 5, 11):
            assert_allclose(np.trace(ccm(cov, 0, 0, delay)).real, 1.0 / 3.0, rtol=1e-12)

    def test_shift_equals_shifted_angles(self):
        scn5 = table1_scenario(phi=5.0)
        cov5 = build_covariances(scn5)
        shifted = table1_scenario(phi=0.0)
        # shifting the mobile group by hand must reproduce the phi=5 covariances
        g1 = shifted.groups[0]
        hand = type(g1)(g1.n_users, g1.n_chains, g1.symbol_energy, g1.delays,
                        g1.mean_aoa + 5.0, g1.spread, g1.gain, mobile=True)
        scn_hand = type(shifted)(shifted.n_antennas, shifted.n_taps, shifted.noise_power,
                                 (hand,) + shifted.groups[1:], phi=0.0)
        cov_hand = build_covariances(scn_hand)
        for delay in (0, 5, 11):
            assert_allclose(ccm(cov5, 0, 1, delay), ccm(cov_hand, 0, 1, delay), atol=1e-14)
        # non-mobile groups are untouched by phi
        cov0 = build_covariances(table1_scenario(phi=0.0))
        assert_allclose(ccm(cov5, 1, 0, 3), ccm(cov0, 1, 0, 3), atol=1e-15)

    def test_total_gain_preserved(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        for g, spec in enumerate(scn.groups):
            for k in range(spec.n_users):
                total = sum(np.trace(ccm(cov, g, k, d)).real for d in spec.delays)
                assert_allclose(total, spec.gain[k], rtol=1e-6)

    def test_inactive_delay_is_zero(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        # the stack holds the active delays only
        assert 3 not in scn.groups[0].delays
        assert cov.stacks[0].shape[0] == len(scn.groups[0].delays)


class TestScenarioValidation:
    def test_group_invariants(self):
        from jsdmsim import GroupSpec
        with pytest.raises(ValueError, match="user"):
            GroupSpec(0, 1, 1.0, (0,), np.array([[0.0]]), 2.0, 1.0)
        with pytest.raises(ValueError, match="chain"):
            GroupSpec(1, 0, 1.0, (0,), np.array([[0.0]]), 2.0, 1.0)
        with pytest.raises(ValueError, match="delays"):
            GroupSpec(1, 1, 1.0, (0, 0), np.array([[0.0, 0.0]]), 2.0, 1.0)
        with pytest.raises(ValueError, match="spread"):
            GroupSpec(1, 1, 1.0, (0,), np.array([[0.0]]), -2.0, 1.0)
        with pytest.raises(ValueError, match="gain"):
            GroupSpec(1, 1, 1.0, (0,), np.array([[0.0]]), 2.0, -1.0)
        with pytest.raises(ValueError, match="energy"):
            GroupSpec(1, 1, 0.0, (0,), np.array([[0.0]]), 2.0, 1.0)

    def test_scenario_invariants(self):
        from jsdmsim import GroupSpec, Scenario
        ok = GroupSpec(1, 1, 1.0, (0,), np.array([[0.0]]), 2.0, 1.0)
        with pytest.raises(ValueError, match="delay"):
            Scenario(4, 2, 1.0, (GroupSpec(1, 1, 1.0, (5,), np.array([[0.0]]), 2.0, 1.0),))
        with pytest.raises(ValueError, match="chains"):
            Scenario(2, 2, 1.0, (GroupSpec(1, 4, 1.0, (0,), np.array([[0.0]]), 2.0, 1.0),))
        with pytest.raises(ValueError, match="noise"):
            Scenario(4, 2, -0.1, (ok,))
        with pytest.raises(ValueError, match="group"):
            Scenario(4, 2, 1.0, ())

    def test_single_antenna_steering(self):
        assert_allclose(steering_matrix([25.0], 1)[:, 0], [1.0 + 0.0j])


class TestSampleChannels:
    def test_reproducible(self):
        cov = build_covariances(two_group_toy())
        r1 = sample_channels(cov, 123)
        r2 = sample_channels(cov, 123)
        for g in range(2):
            for delay, h in r1.taps[g].items():
                assert np.array_equal(h, r2.taps[g][delay])

    def test_zero_ccm_gives_zero_channel(self):
        cov = build_covariances(two_group_toy())
        real = sample_channels(cov, 7)
        assert 3 not in real.taps[0]

    def test_empirical_covariance(self):
        scn = two_group_toy(m=16)
        cov = build_covariances(scn)
        n_draws = 20000
        h = sample_channels(cov, 99, groups=[0], trials=n_draws).taps[0][0][..., 0].T
        acc = h @ h.conj().T / n_draws
        r = ccm(cov, 0, 0, 0)
        assert np.linalg.norm(acc - r) <= 0.05 * np.trace(r).real

    def test_cross_covariance_independent_users(self):
        scn = two_group_toy(m=12)
        cov = build_covariances(scn)
        n_draws = 20000
        taps = sample_channels(cov, 4, groups=[0], trials=n_draws).taps[0][0]
        h1, h2 = taps[..., 0].T, taps[..., 1].T
        cross = h1 @ h2.conj().T / n_draws
        r1 = ccm(cov, 0, 0, 0)
        r2 = ccm(cov, 0, 1, 0)
        sigma = np.sqrt(np.outer(np.diag(r1).real, np.diag(r2).real) / n_draws)
        assert np.all(np.abs(cross) <= 3.0 * sigma)

    def test_one_factor_stack_per_group(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        factors = cov.factors(0)
        assert cov.factors(0) is factors
        spec = scn.groups[0]
        for k in range(spec.n_users):
            for i, delay in enumerate(spec.delays):
                factor = ccm_factor(cov, 0, k, delay)
                assert np.shares_memory(factor, factors)
                assert np.array_equal(factor, factors[i, k])
                r = ccm(cov, 0, k, delay)
                assert np.linalg.norm(factor @ factor.conj().T - r) <= 1e-10 * np.linalg.norm(r)

    def test_restricted_groups(self):
        cov = build_covariances(two_group_toy())
        real = sample_channels(cov, 5, groups=[0])
        assert real.taps[0] and not real.taps[1]
