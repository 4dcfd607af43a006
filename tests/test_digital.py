"""Effective channels and per-bin ZF/LMMSE combiners."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from jsdmsim import build_covariances, compute_geb, group_statistics, reduce, sample_channels
from jsdmsim.digital import (SingularBinError, bin_grams, dft_of_taps, effective_channel, gram,
                             lmmse_combiners, zf_combiners)
from jsdmsim.linalg import DefinitenessError
from jsdmsim.linksim import bussgang_report

from conftest import two_group_toy


def toy_effective(n=16, seed=3):
    scn = two_group_toy()
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, cov.factors(0), 4)
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
            assert_allclose(eff.taps[..., delay], real.taps[0][delay], atol=1e-15)
        assert not eff.taps[..., 3].any()

    def test_parseval(self):
        _, _, _, eff = toy_effective(n=16)
        lhs = np.sum(np.abs(eff.freq) ** 2)
        rhs = 16 * np.sum(np.abs(eff.taps) ** 2)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_direct_dft_sum_oracle(self):
        n = 12
        _, _, _, eff = toy_effective(n=n)
        for k in (0, 1, 5, 11):
            expected = sum(eff.taps[..., l] * np.exp(-2j * np.pi * k * l / n)
                           for l in range(eff.taps.shape[-1]))
            assert_allclose(eff.freq[..., k], expected, atol=1e-13)

    def test_short_block_rejected(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        real = sample_channels(cov, 1)
        with pytest.raises(ValueError, match="block length"):
            effective_channel(np.eye(scn.n_antennas), real, 0, scn.n_taps - 1)


class TestBinGrams:
    """The lag-domain per-bin matrices equal the Gram products of the DFT's bins."""

    @hypothesis.seed(20261025)
    @settings(max_examples=60, deadline=None, database=None)
    @given(d=st.integers(1, 4), k=st.integers(1, 3), trials=st.integers(1, 5),
           delays=st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
           spare_taps=st.integers(0, 3), spare_bins=st.integers(0, 4), seed=st.integers(0, 2**31))
    def test_equals_gram_of_dft_bins(self, d, k, trials, delays, spare_taps, spare_bins, seed):
        n_taps = max(delays) + 1 + spare_taps
        n = n_taps + spare_bins
        rng = np.random.default_rng(seed)
        # drawn (T, L, K, D) and transposed, as the link pass hands its taps over
        active = (rng.standard_normal((trials, len(delays), k, d))
                  + 1j * rng.standard_normal((trials, len(delays), k, d))).transpose(3, 2, 0, 1)
        sigma = rng.uniform(0.1, 10.0, d)
        weights = np.stack([np.ones(d), sigma, np.where(rng.random(d) < 0.2, 0.0, 1.0 / sigma)])
        lam = dft_of_taps(active, delays, n_taps, n).freq.reshape(d, k, -1)
        expected = np.stack([gram(lam, w[:, np.newaxis, np.newaxis] * lam) for w in weights])
        got = bin_grams(active, delays, n_taps, n, weights)
        assert got.shape == (3, k, k, trials, n)
        error = np.abs(got.reshape(expected.shape) - expected).max()
        assert error <= 1e-12 * np.abs(expected).max()

    def test_short_block_rejected(self):
        active = np.ones((2, 1, 3, 2), dtype=complex)
        with pytest.raises(ValueError) as excinfo:
            bin_grams(active, (0, 4), 5, 4, np.ones((1, 2)))
        assert str(excinfo.value) == "block length 4 shorter than delay spread 5"


class TestLayout:
    def test_block_arrays_share_one_matrix_first_layout(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        s = compute_geb(stats, cov.factors(0), 4).s
        real = sample_channels(cov, 4, groups=[0], trials=3)
        n = 16
        eff = effective_channel(s, real, 0, n)
        shape = (4, scn.groups[0].n_users, 3, n)
        assert eff.freq.shape == shape and eff.freq.flags.c_contiguous
        assert eff.taps.shape == shape[:-1] + (scn.n_taps,)
        spec = scn.groups[0]
        for bank in (zf_combiners(eff),
                     lmmse_combiners(eff, reduce(stats, s), spec.symbol_energy, spec.n_users)):
            assert bank.w.shape == shape
            assert bank.n_bins == eff.n_bins == n


class TestZfCombiners:
    def test_square_case_is_inverse(self):
        rng = np.random.default_rng(5)
        freq = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        eff = type(toy_effective()[3])(np.zeros((2, 2, 1), dtype=complex), freq)
        bank = zf_combiners(eff)
        for k in range(4):
            assert_allclose(bank.w[..., k].conj().T, np.linalg.inv(freq[..., k]), atol=1e-10)

    def test_unbiased_on_all_bins(self):
        _, _, _, eff = toy_effective(n=16)
        bank = zf_combiners(eff)
        for k in range(16):
            assert np.linalg.norm(bank.w[..., k].conj().T @ eff.freq[..., k] - np.eye(2)) <= 1e-10

    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(6)
        freq = rng.standard_normal((4, 1, 3)) + 1j * rng.standard_normal((4, 1, 3))
        eff = type(toy_effective()[3])(np.zeros((4, 1, 1), dtype=complex), freq)
        bank = zf_combiners(eff)
        for k in range(3):
            lam = freq[:, 0, k]
            assert_allclose(bank.w[:, 0, k], lam / np.linalg.norm(lam) ** 2, atol=1e-12)

    def test_stack_matches_lapack_inverse(self):
        rng = np.random.default_rng(12)
        freq = rng.standard_normal((4, 2, 3, 5)) + 1j * rng.standard_normal((4, 2, 3, 5))
        eff = type(toy_effective()[3])(np.zeros((4, 2, 3, 1), dtype=complex), freq)
        lam = np.moveaxis(freq, (0, 1), (-2, -1))
        expected = lam @ np.linalg.inv(lam.conj().swapaxes(-1, -2) @ lam)
        assert_allclose(zf_combiners(eff).w, np.moveaxis(expected, (-2, -1), (0, 1)),
                        rtol=1e-12, atol=0)

    def test_rank_deficient_bin_named(self):
        freq = np.zeros((3, 2, 2), dtype=complex)
        freq[:, 0, 0] = [1, 0, 0]
        freq[:, 1, 0] = [0, 1, 0]
        freq[:, 0, 1] = [1, 0, 0]
        freq[:, 1, 1] = [1, 0, 0]  # duplicate column: singular at bin 1
        eff = type(toy_effective()[3])(np.zeros((3, 2, 1), dtype=complex), freq)
        with pytest.raises(SingularBinError, match="bin 1"):
            zf_combiners(eff)

    @pytest.mark.parametrize("d, k", [(2, 2), (4, 2), (4, 3), (8, 4)])
    def test_copied_column_rejected(self, d, k):
        # round-off often leaves the last pivot of a copied column a tiny
        # positive number rather than zero; the relative pivot test catches it
        rng = np.random.default_rng(100 + 10 * d + k)
        for _ in range(200):
            freq = rng.standard_normal((d, k, 1)) + 1j * rng.standard_normal((d, k, 1))
            freq[:, -1] = freq[:, 0]
            eff = type(toy_effective()[3])(np.zeros((d, k, 1), dtype=complex), freq)
            with pytest.raises(SingularBinError, match="bin 0 is rank deficient"):
                zf_combiners(eff)

    @pytest.mark.parametrize("trial, bin_idx, column", [
        (2, 5, [1 + 1j, 2, -1j]),   # duplicate exact column: singular Gram matrix
        (1, 3, [np.nan, 1, 0]),     # non-finite entry: inv returns NaN without raising
    ])
    def test_bad_bin_named_in_stack(self, trial, bin_idx, column):
        rng = np.random.default_rng(9)
        freq = rng.standard_normal((3, 2, 4, 8)) + 1j * rng.standard_normal((3, 2, 4, 8))
        freq[:, 0, trial, bin_idx] = freq[:, 1, trial, bin_idx] = column
        eff = type(toy_effective()[3])(np.zeros((3, 2, 4, 1), dtype=complex), freq)
        with pytest.raises(SingularBinError,
                           match=rf"bin {bin_idx} of realization \({trial},\)"):
            zf_combiners(eff)


class TestLmmseCombiners:
    def test_high_snr_reaches_zf(self):
        scn, stats, geb, eff = toy_effective(n=8)
        bank = lmmse_combiners(eff, np.eye(4, dtype=complex), symbol_energy=1e6 * 2, n_users=2)
        for k in range(8):
            assert np.max(np.abs(bank.w[..., k].conj().T @ eff.freq[..., k] - np.eye(2))) <= 1e-3

    def test_zero_channel_gives_zero_combiner(self):
        eff = type(toy_effective()[3])(np.zeros((3, 2, 1), dtype=complex),
                                       np.zeros((3, 2, 4), dtype=complex))
        bank = lmmse_combiners(eff, np.eye(3, dtype=complex), 1.0, 2)
        assert not bank.w.any()

    def test_scalar_case_hand_formula(self):
        lam = np.array([[[0.7 - 0.3j]]])
        eff = type(toy_effective()[3])(np.zeros((1, 1, 1), dtype=complex), lam)
        sigma2 = 0.4
        e = 2.5
        bank = lmmse_combiners(eff, sigma2 * np.eye(1, dtype=complex), e, 1)
        expected = e * lam[0, 0, 0] / (e * abs(lam[0, 0, 0]) ** 2 + sigma2)
        assert_allclose(bank.w[0, 0, 0], expected, rtol=1e-12)

    def test_push_through_matches_direct_solve(self):
        # R^-1 Lambda (Lambda^H R^-1 Lambda + I/E)^-1 = (E Lambda Lambda^H + R)^-1 E Lambda
        rng = np.random.default_rng(13)
        freq = rng.standard_normal((4, 2, 3, 5)) + 1j * rng.standard_normal((4, 2, 3, 5))
        eff = type(toy_effective()[3])(np.zeros((4, 2, 3, 1), dtype=complex), freq)
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        r_eta = x @ x.conj().T / 6 + 0.2 * np.eye(4)
        e = 7.5 / 2
        lam = np.moveaxis(freq, (0, 1), (-2, -1))
        expected = np.linalg.solve(e * lam @ lam.conj().swapaxes(-1, -2) + r_eta, e * lam)
        assert_allclose(lmmse_combiners(eff, r_eta, 7.5, 2).w,
                        np.moveaxis(expected, (-2, -1), (0, 1)), rtol=1e-12, atol=0)

    def test_indefinite_interference_covariance_rejected(self):
        _, _, _, eff = toy_effective(n=8)
        with pytest.raises(DefinitenessError, match="not positive definite"):
            lmmse_combiners(eff, np.diag([1.0, 1.0, 0.0, 1.0]).astype(complex), 1.0, 2)

    def test_conjugate_symmetric_for_real_taps(self):
        rng = np.random.default_rng(7)
        n = 8
        taps = np.zeros((2, 2, 3), dtype=complex)
        taps[..., :2] = rng.standard_normal((2, 2, 2))  # real-valued taps
        freq = np.fft.fft(taps, n=n, axis=-1)
        eff = type(toy_effective()[3])(taps, freq)
        r_eta_rd = 0.3 * np.eye(2, dtype=complex)
        for bank in (zf_combiners(eff), lmmse_combiners(eff, r_eta_rd, 1.7, 2)):
            for k in range(1, n):
                assert_allclose(bank.w[..., n - k], bank.w[..., k].conj(), atol=1e-12)


class TestLmmseBeatsZf:
    def test_per_user_sinr_with_interference(self):
        # phase extraction leaks inter-group interference, so the statistical
        # LMMSE combiner must win on every realization
        from jsdmsim import phase_extraction
        scn = two_group_toy(e1_db=20.0, e2_db=25.0)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, cov.factors(0), 4)
        s_eff = phase_extraction(geb.s[None])[0].effective()
        r_eta_rd = reduce(stats, s_eff)
        spec = scn.groups[0]
        for seed in range(10):
            real = sample_channels(cov, seed, groups=[0])
            eff = effective_channel(s_eff, real, 0, 16)
            zf = zf_combiners(eff)
            lm = lmmse_combiners(eff, r_eta_rd, spec.symbol_energy, spec.n_users)
            for user in range(spec.n_users):
                r_zf = bussgang_report(eff, zf, r_eta_rd, spec.symbol_energy, spec.n_users, user)
                r_lm = bussgang_report(eff, lm, r_eta_rd, spec.symbol_energy, spec.n_users, user)
                assert r_lm.sinr >= r_zf.sinr - 1e-9
