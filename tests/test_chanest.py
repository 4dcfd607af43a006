"""Pilot construction, LMMSE/LS estimation and the closed-form nMSE."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from jsdmsim import (
    GroupSpec,
    Scenario,
    build_covariances,
    compute_geb,
    group_statistics,
    reduce,
    sample_channels,
)
from jsdmsim.chanest import (
    PilotDesignError,
    build_pilots,
    effective_covariance,
    lmmse_estimator,
    ls_estimator,
    nmse,
    pilot_covariances,
    pilots_from_sequences,
)
from jsdmsim.metrics import DESIGNS, SweepSettings, build_beamformer

from conftest import ccm, random_orthonormal, table1_scenario, two_group_toy
from oracles import receive_pilots, stack_effective


def sparse_single_group(m=6, taps=8, delays=(0, 3), users=1, noise=0.1, energy=10.0):
    aoa = np.linspace(-20.0, 25.0, len(delays))[None, :].repeat(users, axis=0)
    aoa += 3.0 * np.arange(users)[:, None]
    return Scenario(m, taps, noise, (
        GroupSpec(users, 2, energy, tuple(delays), aoa, 2.0, 1.0),
    ))


def zadoff_chu(t_len):
    n = np.arange(t_len)
    return np.exp(-1j * np.pi * n * (n + 1) / t_len)


class TestPilotBlock:
    def test_single_user_single_tap(self):
        scn = sparse_single_group(taps=1, delays=(0,))
        pilots = build_pilots(scn, 0, 5, seed=1)
        assert pilots.x.shape == (5, 1)
        assert_allclose(pilots.x[:, 0],
                        np.sqrt(pilots.energy) * pilots.sequences[0], atol=1e-14)

    def test_columns_are_cyclic_shifts(self):
        scn = sparse_single_group(taps=4)
        pilots = build_pilots(scn, 0, 9, seed=2)
        for j in range(1, 4):
            assert_allclose(pilots.x[:, j], np.roll(pilots.x[:, 0], j), atol=1e-14)

    def test_unit_modulus_and_default_energy(self):
        scn = two_group_toy()
        pilots = build_pilots(scn, 0, 8, seed=3)
        assert_allclose(np.abs(pilots.sequences), 1.0, atol=1e-13)
        assert pilots.energy == pytest.approx(scn.groups[0].symbol_energy / 2)

    def test_long_pilots_decorrelate(self):
        scn = sparse_single_group(taps=4, users=2)
        pilots = build_pilots(scn, 0, 256, seed=4, energy=1.0)
        gram = pilots.x.conj().T @ pilots.x / 256
        off = gram - np.diag(np.diag(gram))
        # off-diagonal entries are T-sample means of unit-modulus products
        assert np.max(np.abs(off)) <= 3.0 / np.sqrt(256)

    def test_distinct_users_distinct_sequences(self):
        scn = two_group_toy()
        pilots = build_pilots(scn, 0, 16, seed=5)
        assert not np.allclose(pilots.sequences[0], pilots.sequences[1])


class TestReceivePilots:
    def test_noiseless_single_tap_is_scaled_channel(self):
        scn = sparse_single_group(m=4, taps=1, delays=(0,), noise=0.0)
        cov = build_covariances(scn)
        real = sample_channels(cov, 7)
        rng = np.random.default_rng(8)
        s = random_orthonormal(rng, 4, 2)
        pilots = build_pilots(scn, 0, 1, seed=9)
        ybar = receive_pilots(pilots, real, s, seed=10)
        expected = pilots.x[0, 0] * (s.conj().T @ real.taps[0][0][:, 0])
        assert_allclose(ybar, expected, atol=1e-12)

    def test_monte_carlo_covariance_matches_model(self):
        scn = two_group_toy(m=8)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 2)
        rd = reduce(stats, geb.s)
        pilots = build_pilots(scn, 0, 4, seed=11)
        r_h = effective_covariance(cov.stacks[0], geb.s)
        r_y = pilot_covariances(pilots, scn.groups[0].delays, r_h, rd).r_y
        draws = 8000
        dim = pilots.length * 2
        acc = np.zeros((dim, dim), dtype=complex)
        for t in range(draws):
            real = sample_channels(cov, [13, t])
            y = receive_pilots(pilots, real, geb.s, seed=[14, t])
            acc += np.outer(y, y.conj())
        acc /= draws
        assert np.linalg.norm(acc - r_y) <= 0.05 * np.linalg.norm(r_y)

    def test_stacked_length_scales_with_t(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        real = sample_channels(cov, 1)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 4)
        for t_len in (4, 8):
            pilots = build_pilots(scn, 0, t_len, seed=2)
            assert receive_pilots(pilots, real, geb.s, seed=3).shape == (t_len * 4,)


class TestLmmseEstimator:
    def test_zero_prior_gives_zero_estimator(self):
        scn = sparse_single_group()
        pilots = build_pilots(scn, 0, 6, seed=1)
        size = 1 * len(scn.groups[0].delays) * 2
        r_h = np.zeros((size, size), dtype=complex)
        z = lmmse_estimator(pilot_covariances(pilots, scn.groups[0].delays, r_h,
                                              np.eye(2, dtype=complex)))
        assert np.max(np.abs(z)) <= 1e-14

    def test_scalar_toy_hand_formula(self):
        # D = K = L = T = 1: estimate = conj(Z) y with Z = x rho / (|x|^2 rho + sigma^2)
        scn = sparse_single_group(m=3, taps=1, delays=(0,), noise=0.25, energy=4.0)
        seq = np.array([[np.exp(0.7j)]])
        pilots = pilots_from_sequences(scn, 0, seq, energy=4.0)
        s = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        rho = (s.conj().T @ ccm(build_covariances(scn), 0, 0, 0) @ s)[0, 0].real
        r_h = np.array([[rho]], dtype=complex)
        z = lmmse_estimator(pilot_covariances(pilots, (0,), r_h,
                                              np.array([[0.25]], dtype=complex)))
        x = pilots.x[0, 0]
        assert_allclose(z[0, 0], x * rho / (abs(x) ** 2 * rho + 0.25), rtol=1e-12)

    def test_orthogonal_pilots_high_snr_reaches_ls(self):
        t_len = 13
        scn = sparse_single_group(m=6, taps=4, delays=(0, 1, 2, 3), noise=1e-6, energy=1.0)
        seq = zadoff_chu(t_len)[None, :]
        pilots = pilots_from_sequences(scn, 0, seq, energy=1.0)
        gram = pilots.x.conj().T @ pilots.x
        assert_allclose(gram, t_len * np.eye(4), atol=1e-9)  # ideal autocorrelation
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 2)
        rd = reduce(stats, geb.s)
        r_h = effective_covariance(cov.stacks[0], geb.s)
        z_lm = lmmse_estimator(pilot_covariances(pilots, scn.groups[0].delays, r_h, rd))
        z_ls = ls_estimator(pilots, scn.groups[0].delays, 2)
        real = sample_channels(cov, 5)
        ybar = receive_pilots(pilots, real, geb.s, seed=6)
        est_lm = z_lm.conj().T @ ybar
        est_ls = z_ls.conj().T @ ybar
        assert np.linalg.norm(est_lm - est_ls) <= 1e-3 * np.linalg.norm(est_ls)


class TestLsEstimator:
    def test_noiseless_exact_recovery_on_active_taps(self):
        scn = sparse_single_group(m=5, taps=6, delays=(0, 2), users=1, noise=0.0)
        cov = build_covariances(scn)
        real = sample_channels(cov, 3)
        rng = np.random.default_rng(4)
        s = random_orthonormal(rng, 5, 2)
        pilots = build_pilots(scn, 0, 8, seed=5)
        z = ls_estimator(pilots, (0, 2), 2)
        est = z.conj().T @ receive_pilots(pilots, real, s, seed=6)
        truth = stack_effective(real, s, 0)
        assert_allclose(est, truth, atol=1e-10)

    def test_inactive_taps_estimated_exactly_zero(self):
        # the inactive taps are known zeros: the estimate has entries for the
        # active (delay, stream) pairs only, from the pruned normal equations
        scn = sparse_single_group(m=5, taps=6, delays=(0, 2))
        cov = build_covariances(scn)
        real = sample_channels(cov, 7)
        rng = np.random.default_rng(8)
        s = random_orthonormal(rng, 5, 2)
        pilots = build_pilots(scn, 0, 8, seed=9)
        z = ls_estimator(pilots, (0, 2), 2)
        ybar = receive_pilots(pilots, real, s, seed=10)
        est = z.conj().T @ ybar
        assert est.shape == (2 * 2,)  # (active delay, stream) for the single user
        x_p = pilots.x[:, [0, 2]]
        ref = np.linalg.lstsq(x_p, ybar.reshape(8, 2), rcond=None)[0]
        assert_allclose(est.reshape(2, 2), ref, atol=1e-12 * np.abs(ref).max())

    def test_pruning_beats_full_ls(self):
        scn = sparse_single_group(m=4, taps=8, delays=(0, 3), users=1, noise=0.5)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 2)
        rd = reduce(stats, geb.s)
        r_h = effective_covariance(cov.stacks[0], geb.s)
        # the same covariance over all 8 taps: zero blocks at the inactive ones
        r_full = np.zeros((8, 2, 8, 2), dtype=complex)
        r_full[[0, 3], :, [0, 3], :] = r_h.reshape(2, 2, 2, 2)[[0, 1], :, [0, 1], :]
        r_full = r_full.reshape(16, 16)
        wins = 0
        for seed in range(100):
            pilots = build_pilots(scn, 0, 8, seed=seed)  # T = L: square full system
            pc = pilot_covariances(pilots, (0, 3), r_h, rd)
            pruned = nmse(ls_estimator(pilots, (0, 3), 2), pc)
            pc_full = pilot_covariances(pilots, range(8), r_full, rd)
            full = nmse(ls_estimator(pilots, range(8), 2), pc_full)
            wins += pruned < full
        assert wins == 100

    def test_rank_deficient_raises(self):
        scn = sparse_single_group(m=4, taps=8, delays=(0, 1, 2, 3), users=1)
        pilots = build_pilots(scn, 0, 3, seed=1)  # T=3 < 4 active columns
        with pytest.raises(PilotDesignError, match="pilot length"):
            ls_estimator(pilots, (0, 1, 2, 3), 2)


class TestNmse:
    def toy(self):
        scn = two_group_toy(m=8)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 3)
        rd = reduce(stats, geb.s)
        r_h = effective_covariance(cov.stacks[0], geb.s)
        return scn, cov, geb, rd, r_h

    DELAYS = two_group_toy().groups[0].delays

    def lmmse_nmse(self, pilots, r_h, rd):
        pc = pilot_covariances(pilots, self.DELAYS, r_h, rd)
        return nmse(lmmse_estimator(pc), pc)

    def test_zero_estimator_gives_one(self):
        scn, _, geb, rd, r_h = self.toy()
        pilots = build_pilots(scn, 0, 6, seed=1)
        z = np.zeros((6 * 3, r_h.shape[0]), dtype=complex)
        pc = pilot_covariances(pilots, scn.groups[0].delays, r_h, rd)
        assert nmse(z, pc) == pytest.approx(1.0)

    def test_lmmse_below_ls(self):
        scn, _, geb, rd, r_h = self.toy()
        for t_len in (8, 16, 32):
            pilots = build_pilots(scn, 0, t_len, seed=2)
            pc = pilot_covariances(pilots, scn.groups[0].delays, r_h, rd)
            v_lm = nmse(lmmse_estimator(pc), pc)
            v_ls = nmse(ls_estimator(pilots, scn.groups[0].delays, 3), pc)
            assert v_lm <= v_ls

    def test_lmmse_in_unit_interval(self):
        scn, _, geb, rd, r_h = self.toy()
        pilots = build_pilots(scn, 0, 8, seed=3)
        assert 0.0 <= self.lmmse_nmse(pilots, r_h, rd) <= 1.0

    @hypothesis.seed(20261021)
    @settings(max_examples=100, deadline=None, database=None)
    @given(m=st.sampled_from([8, 16, 24, 32]), chains=st.sampled_from([2, 4]),
           phi=st.floats(-45.0, 45.0), mobile_db=st.floats(0.0, 40.0),
           interferer_db=st.floats(0.0, 30.0), design=st.sampled_from(sorted(DESIGNS)),
           length=st.integers(1, 24), energy_db=st.none() | st.floats(-20.0, 40.0),
           seed=st.integers(0, 2**31))
    def test_lmmse_in_unit_interval_over_table1_scenarios(self, m, chains, phi, mobile_db,
                                                          interferer_db, design, length,
                                                          energy_db, seed):
        scn = table1_scenario(m=m, mobile_db=mobile_db, interferer_db=interferer_db,
                              chains=chains, phi=phi)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        try:
            s = build_beamformer(design, scn, stats, 0, SweepSettings(group=0), seed,
                                 geb=compute_geb(stats, cov.factors(0), chains))
            rd = reduce(stats, s)
        except ValueError:  # a design that cannot be built here has no estimate
            hypothesis.reject()
        delays = scn.groups[0].delays
        energy = None if energy_db is None else 10.0 ** (energy_db / 10.0)
        pilots = build_pilots(scn, 0, length, seed, energy=energy)
        pc = pilot_covariances(pilots, delays, effective_covariance(cov.stacks[0], s), rd)
        assert 0.0 <= nmse(lmmse_estimator(pc), pc) <= 1.0

    def test_closed_form_matches_monte_carlo(self):
        scn, cov, geb, rd, r_h = self.toy()
        pilots = build_pilots(scn, 0, 8, seed=4)
        pc = pilot_covariances(pilots, scn.groups[0].delays, r_h, rd)
        z = lmmse_estimator(pc)
        closed = nmse(z, pc)
        err = 0.0
        ref = 0.0
        trials = 5000
        for t in range(trials):
            real = sample_channels(cov, [21, t])
            ybar = receive_pilots(pilots, real, geb.s, seed=[22, t])
            truth = stack_effective(real, geb.s, 0)
            err += np.sum(np.abs(z.conj().T @ ybar - truth) ** 2)
            ref += np.sum(np.abs(truth) ** 2)
        assert abs(err / ref - closed) <= 0.03 * closed

    def test_monotone_in_pilot_energy(self):
        scn, _, geb, rd, r_h = self.toy()
        seq = build_pilots(scn, 0, 8, seed=5).sequences
        values = []
        for energy in (0.5, 1.0, 2.0, 4.0, 8.0):
            pilots = pilots_from_sequences(scn, 0, seq, energy=energy)
            values.append(self.lmmse_nmse(pilots, r_h, rd))
        assert np.all(np.diff(values) < 0)

    def test_monotone_in_pilot_length(self):
        scn, _, geb, rd, r_h = self.toy()
        values = []
        for t_len in (4, 8, 16, 32, 64):
            pilots = build_pilots(scn, 0, t_len, seed=6)
            values.append(self.lmmse_nmse(pilots, r_h, rd))
        assert np.all(np.diff(values) < 0)

    def test_active_blocks_equal_dense_model(self):
        # the model over every tap, with zero blocks at the inactive ones, gives the
        # same LMMSE and LS nMSE as the model over the active blocks alone
        scn, _, geb, rd, r_h = self.toy()
        delays, taps, users, d = self.DELAYS, scn.n_taps, scn.groups[0].n_users, 3
        n = users * len(delays)
        active = [u * taps + l for u in range(users) for l in delays]
        dense = np.zeros((users * taps, d, users * taps, d), dtype=complex)
        dense[np.ix_(active, range(d), active, range(d))] = r_h.reshape(n, d, n, d)
        dense = dense.reshape(users * taps * d, -1)
        columns = (np.array(active)[:, None] * d + np.arange(d)).ravel()
        for seed in range(3):
            pilots = build_pilots(scn, 0, 8, seed=seed)
            pc = pilot_covariances(pilots, delays, r_h, rd)
            pc_dense = pilot_covariances(pilots, range(taps), dense, rd)
            assert_allclose(pc_dense.r_y, pc.r_y, rtol=0, atol=1e-12 * np.abs(pc.r_y).max())
            lm, lm_dense = nmse(lmmse_estimator(pc), pc), nmse(lmmse_estimator(pc_dense), pc_dense)
            z_ls = ls_estimator(pilots, delays, d)
            z_dense = np.zeros((8 * d, users * taps * d), dtype=complex)
            z_dense[:, columns] = z_ls
            ls, ls_dense = nmse(z_ls, pc), nmse(z_dense, pc_dense)
            assert lm == pytest.approx(lm_dense, rel=1e-12)
            assert ls == pytest.approx(ls_dense, rel=1e-12)

    def test_zero_trace_rejected(self):
        scn, _, geb, rd, r_h = self.toy()
        pilots = build_pilots(scn, 0, 4, seed=7)
        empty = pilot_covariances(pilots, scn.groups[0].delays, np.zeros_like(r_h), rd)
        with pytest.raises(ValueError, match="trace"):
            nmse(np.zeros((4 * 3, r_h.shape[0]), dtype=complex), empty)


class TestOtherGroupRobustness:
    def test_estimator_blind_to_other_group_content(self):
        # the estimator is a function of own pilots and second-order statistics
        # only; swapping what interferers transmit cannot change it, and the
        # empirical error under reused (contaminating) sequences still matches
        # the closed form once the eigenbeamformer has suppressed the groups
        scn = two_group_toy(m=16)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 4)
        rd = reduce(stats, geb.s)
        r_h = effective_covariance(cov.stacks[0], geb.s)
        pilots = build_pilots(scn, 0, 8, seed=8)
        pc = pilot_covariances(pilots, scn.groups[0].delays, r_h, rd)
        z = lmmse_estimator(pc)
        closed = nmse(z, pc)

        spec2 = scn.groups[1]
        amp = np.sqrt(spec2.symbol_energy / spec2.n_users)
        reused = np.tile(pilots.sequences[0], (spec2.n_users, 1))
        err = 0.0
        ref = 0.0
        for t in range(3000):
            real = sample_channels(cov, [31, t])
            rng = np.random.default_rng([32, t])
            y = np.zeros((scn.n_antennas, 8), dtype=complex)
            own = np.sqrt(pilots.energy) * pilots.sequences
            for delay, h in real.taps[0].items():
                y += h @ np.roll(own, delay, axis=1)
            for delay, h in real.taps[1].items():  # synchronized pilot reuse
                y += h @ (amp * np.roll(reused, delay, axis=1))
            y += np.sqrt(scn.noise_power / 2) * (rng.standard_normal(y.shape)
                                                 + 1j * rng.standard_normal(y.shape))
            ybar = (geb.s.conj().T @ y).T.reshape(-1)
            truth = stack_effective(real, geb.s, 0)
            err += np.sum(np.abs(z.conj().T @ ybar - truth) ** 2)
            ref += np.sum(np.abs(truth) ** 2)
        assert abs(err / ref - closed) <= 0.1 * closed
