"""Effective channels and per-bin ZF/LMMSE combiners."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jsdmsim import build_covariances, compute_geb, group_statistics, reduce, sample_channels
from jsdmsim.digital import SingularBinError, effective_channel, lmmse_combiners, zf_combiners
from jsdmsim.linksim import bussgang_report
from jsdmsim.statistics import ReducedStatistics

from conftest import two_group_toy


def toy_effective(n=16, seed=3):
    scn = two_group_toy()
    cov = build_covariances(scn)
    stats = group_statistics(cov, scn, 0)
    geb = compute_geb(stats, 4)
    real = sample_channels(cov, seed)
    eff = effective_channel(geb.s, real, 0, n)
    return scn, stats, geb, eff


class TestEffectiveChannel:
    def test_identity_beamformer_keeps_raw_taps(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        real = sample_channels(cov, 1)
        eff = effective_channel(np.eye(scn.n_antennas), real, 0, 8)
        for delay in scn.groups[0].delays:
            assert_allclose(eff.taps[delay], real.taps[0][delay], atol=1e-15)
        assert not eff.taps[3].any()

    def test_parseval(self):
        _, _, _, eff = toy_effective(n=16)
        lhs = np.sum(np.abs(eff.freq) ** 2)
        rhs = 16 * np.sum(np.abs(eff.taps) ** 2)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_direct_dft_sum_oracle(self):
        n = 12
        _, _, _, eff = toy_effective(n=n)
        for k in (0, 1, 5, 11):
            expected = sum(eff.taps[l] * np.exp(-2j * np.pi * k * l / n)
                           for l in range(eff.taps.shape[0]))
            assert_allclose(eff.freq[k], expected, atol=1e-13)

    def test_short_block_rejected(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        real = sample_channels(cov, 1)
        with pytest.raises(ValueError, match="block length"):
            effective_channel(np.eye(scn.n_antennas), real, 0, scn.n_taps - 1)


class TestZfCombiners:
    def test_square_case_is_inverse(self):
        rng = np.random.default_rng(5)
        freq = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        eff = type(toy_effective()[3])(np.zeros((1, 2, 2), dtype=complex), freq)
        bank = zf_combiners(eff)
        for k in range(4):
            assert_allclose(bank.w[k].conj().T, np.linalg.inv(freq[k]), atol=1e-10)

    def test_unbiased_on_all_bins(self):
        _, _, _, eff = toy_effective(n=16)
        bank = zf_combiners(eff)
        for k in range(16):
            assert np.linalg.norm(bank.w[k].conj().T @ eff.freq[k] - np.eye(2)) <= 1e-10

    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(6)
        freq = rng.standard_normal((3, 4, 1)) + 1j * rng.standard_normal((3, 4, 1))
        eff = type(toy_effective()[3])(np.zeros((1, 4, 1), dtype=complex), freq)
        bank = zf_combiners(eff)
        for k in range(3):
            lam = freq[k][:, 0]
            assert_allclose(bank.w[k][:, 0], lam / np.linalg.norm(lam) ** 2, atol=1e-12)

    def test_rank_deficient_bin_named(self):
        freq = np.zeros((2, 3, 2), dtype=complex)
        freq[0, :, 0] = [1, 0, 0]
        freq[0, :, 1] = [0, 1, 0]
        freq[1, :, 0] = [1, 0, 0]
        freq[1, :, 1] = [1, 0, 0]  # duplicate column: singular at bin 1
        eff = type(toy_effective()[3])(np.zeros((1, 3, 2), dtype=complex), freq)
        with pytest.raises(SingularBinError, match="bin 1"):
            zf_combiners(eff)

    @pytest.mark.parametrize("trial, bin_idx, column", [
        (2, 5, [1 + 1j, 2, -1j]),   # duplicate exact column: singular Gram matrix
        (1, 3, [np.nan, 1, 0]),     # non-finite entry: inv returns NaN without raising
    ])
    def test_bad_bin_named_in_stack(self, trial, bin_idx, column):
        rng = np.random.default_rng(9)
        freq = rng.standard_normal((4, 8, 3, 2)) + 1j * rng.standard_normal((4, 8, 3, 2))
        freq[trial, bin_idx, :, 0] = freq[trial, bin_idx, :, 1] = column
        eff = type(toy_effective()[3])(np.zeros((4, 1, 3, 2), dtype=complex), freq)
        with pytest.raises(SingularBinError,
                           match=rf"bin {bin_idx} of realization \({trial},\)"):
            zf_combiners(eff)


class TestLmmseCombiners:
    def test_high_snr_reaches_zf(self):
        scn, stats, geb, eff = toy_effective(n=8)
        rd = ReducedStatistics(np.zeros((4, 4), dtype=complex), np.eye(4, dtype=complex))
        bank = lmmse_combiners(eff, rd, symbol_energy=1e6 * 2, n_users=2)
        for k in range(8):
            assert np.max(np.abs(bank.w[k].conj().T @ eff.freq[k] - np.eye(2))) <= 1e-3

    def test_zero_channel_gives_zero_combiner(self):
        eff = type(toy_effective()[3])(np.zeros((1, 3, 2), dtype=complex),
                                       np.zeros((4, 3, 2), dtype=complex))
        rd = ReducedStatistics(np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex))
        bank = lmmse_combiners(eff, rd, 1.0, 2)
        assert not bank.w.any()

    def test_scalar_case_hand_formula(self):
        lam = np.array([[[0.7 - 0.3j]]])
        eff = type(toy_effective()[3])(np.zeros((1, 1, 1), dtype=complex), lam)
        sigma2 = 0.4
        e = 2.5
        rd = ReducedStatistics(np.zeros((1, 1), dtype=complex),
                               sigma2 * np.eye(1, dtype=complex))
        bank = lmmse_combiners(eff, rd, e, 1)
        expected = e * lam[0, 0, 0] / (e * abs(lam[0, 0, 0]) ** 2 + sigma2)
        assert_allclose(bank.w[0, 0, 0], expected, rtol=1e-12)

    def test_conjugate_symmetric_for_real_taps(self):
        rng = np.random.default_rng(7)
        n = 8
        taps = np.zeros((3, 2, 2), dtype=complex)
        taps[:2] = rng.standard_normal((2, 2, 2))  # real-valued taps
        freq = np.fft.fft(taps, n=n, axis=0)
        eff = type(toy_effective()[3])(taps, freq)
        rd = ReducedStatistics(np.zeros((2, 2), dtype=complex), 0.3 * np.eye(2, dtype=complex))
        for bank in (zf_combiners(eff), lmmse_combiners(eff, rd, 1.7, 2)):
            for k in range(1, n):
                assert_allclose(bank.w[n - k], bank.w[k].conj(), atol=1e-12)


class TestLmmseBeatsZf:
    def test_per_user_sinr_with_interference(self):
        # phase extraction leaks inter-group interference, so the statistical
        # LMMSE combiner must win on every realization
        from jsdmsim import phase_extraction
        scn = two_group_toy(e1_db=20.0, e2_db=25.0)
        cov = build_covariances(scn)
        stats = group_statistics(cov, scn, 0)
        geb = compute_geb(stats, 4)
        s_eff = phase_extraction(geb).effective()
        rd = reduce(stats, s_eff)
        spec = scn.groups[0]
        for seed in range(10):
            real = sample_channels(cov, seed, groups=[0])
            eff = effective_channel(s_eff, real, 0, 16)
            zf = zf_combiners(eff)
            lm = lmmse_combiners(eff, rd, spec.symbol_energy, spec.n_users)
            for user in range(spec.n_users):
                r_zf = bussgang_report(eff, zf, rd, spec.symbol_energy, spec.n_users, user)
                r_lm = bussgang_report(eff, lm, rd, spec.symbol_energy, spec.n_users, user)
                assert r_lm.sinr >= r_zf.sinr - 1e-9
