"""SC-FDE block simulation against the semi-analytic link evaluation."""

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
from jsdmsim import linksim
from jsdmsim.constrained import dft_beamformer, phase_extraction
from jsdmsim.digital import (EffectiveChannel, SingularBinError, effective_channel,
                             lmmse_combiners, zf_combiners)
from jsdmsim.linksim import bussgang_report, ergodic_capacity, simulate_block

from conftest import random_orthonormal, random_unitary, two_group_toy


def flat_single_user(noise=0.0, m=4):
    return Scenario(m, 1, noise, (
        GroupSpec(1, 2, 2.0, (0,), np.array([[12.0]]), 2.0, 1.0),
    ))


class TestSimulateBlock:
    def test_noiseless_flat_zf_recovers_symbols_exactly(self):
        scn = flat_single_user(noise=0.0)
        cov = build_covariances(scn)
        real = sample_channels(cov, 3)
        rng = np.random.default_rng(0)
        s = random_orthonormal(rng, scn.n_antennas, 2)
        eff = effective_channel(s, real, 0, 8)
        bank = zf_combiners(eff)
        res = simulate_block(real, {0: s}, {0: bank}, 8, seed=5)
        assert_allclose(res.estimates[0], res.symbols[0], atol=1e-10)

    def test_noiseless_square_per_bin_inversion(self):
        # D = K with invertible per-bin channels: ZF inverts the block exactly
        scn = Scenario(6, 2, 0.0, (
            GroupSpec(2, 2, 3.0, (0, 1), np.array([[8.0, -31.0], [9.0, -30.0]]),
                      2.0, 1.0),
        ))
        cov = build_covariances(scn)
        real = sample_channels(cov, 4)
        rng = np.random.default_rng(1)
        s = random_orthonormal(rng, 6, 2)
        eff = effective_channel(s, real, 0, 8)
        bank = zf_combiners(eff)
        res = simulate_block(real, {0: s}, {0: bank}, 8, seed=6)
        assert_allclose(res.estimates[0], res.symbols[0], atol=1e-9)

    def test_seed_reproducibility(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        real = sample_channels(cov, 2)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        eff = effective_channel(geb.s, real, 0, 16)
        bank = zf_combiners(eff)
        a = simulate_block(real, {0: geb.s}, {0: bank}, 16, seed=9)
        b = simulate_block(real, {0: geb.s}, {0: bank}, 16, seed=9)
        assert np.array_equal(a.estimates[0], b.estimates[0])
        assert np.array_equal(a.symbols[1], b.symbols[1])

    def test_energy_bookkeeping(self):
        scn = two_group_toy(m=8)
        cov = build_covariances(scn)
        n, blocks = 32, 150
        total = 0.0
        for t in range(blocks):
            real = sample_channels(cov, [11, t])
            res = simulate_block(real, {}, {}, n, seed=[12, t])
            # reconstruct y energy: re-run the channel sum explicitly
            y = np.zeros((scn.n_antennas, n), dtype=complex)
            for g in range(scn.n_groups):
                for delay, h in real.taps[g].items():
                    y += h @ np.roll(res.symbols[g], delay, axis=1)
            total += np.mean(np.sum(np.abs(y) ** 2, axis=0))
        measured = total / blocks
        expected = 0.0
        for g, spec in enumerate(scn.groups):
            trace_sum = sum(np.trace(cov.ccms[g][k][d]).real
                            for k in range(spec.n_users) for d in spec.delays)
            expected += spec.symbol_energy / spec.n_users * trace_sum
        assert abs(measured - expected) <= 0.05 * expected

    def test_short_block_rejected(self):
        scn = two_group_toy()
        real = sample_channels(build_covariances(scn), 2)
        with pytest.raises(ValueError, match="block length"):
            simulate_block(real, {}, {}, scn.n_taps - 1, seed=1)


class TestBussgangReport:
    def test_zero_combiner_gives_zero_capacity(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        real = sample_channels(cov, 4)
        eff = effective_channel(geb.s, real, 0, 8)
        bank = zf_combiners(eff)
        zero_bank = type(bank)(np.zeros_like(bank.w))
        rd = reduce(stats, geb.s)
        rep = bussgang_report(eff, zero_bank, rd, 10.0, 2, 0)
        assert rep.a == 0 and rep.capacity == 0.0

    def test_textbook_zf_closed_form(self):
        # single group, flat channel: sinr = (E/K) / (N0 [(Lam^H Lam)^{-1}]_mm)
        scn = Scenario(6, 1, 0.7, (
            GroupSpec(2, 4, 3.0, (0,), np.array([[5.0], [9.0]]), 2.0, 1.0),
        ))
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        rng = np.random.default_rng(8)
        s = random_orthonormal(rng, 6, 4)
        rd = reduce(stats, s)
        real = sample_channels(cov, 21)
        eff = effective_channel(s, real, 0, 4)
        bank = zf_combiners(eff)
        lam = eff.freq[..., 0]
        inv_gram = np.linalg.inv(lam.conj().T @ lam)
        for user in range(2):
            rep = bussgang_report(eff, bank, rd, 3.0, 2, user)
            expected = (3.0 / 2) / (0.7 * inv_gram[user, user].real)
            assert_allclose(rep.a, 1.0, atol=1e-10)
            assert_allclose(rep.sinr, expected, rtol=1e-10)

    def test_empirical_amplitude_matches_within_3_sigma(self):
        scn = two_group_toy(m=8)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        rd = reduce(stats, geb.s)
        real = sample_channels(cov, 31)
        n, blocks = 64, 160  # ~1e4 symbols
        eff = effective_channel(geb.s, real, 0, n)
        bank = zf_combiners(eff)
        spec = scn.groups[0]
        rep = bussgang_report(eff, bank, rd, spec.symbol_energy, spec.n_users, 0)
        num = 0.0
        den = 0.0
        count = 0
        est_power = 0.0
        for t in range(blocks):
            res = simulate_block(real, {0: geb.s}, {0: bank}, n, seed=[77, t])
            x = res.symbols[0][0]
            xh = res.estimates[0][0]
            num += np.vdot(x, xh)
            den += np.vdot(x, x).real
            est_power += np.sum(np.abs(xh) ** 2)
            count += x.size
        a_emp = num / den
        # var of the estimate ~ E|xhat|^2 / (E|x|^2 * count)
        e_sym = spec.symbol_energy / spec.n_users
        sigma = np.sqrt((est_power / count) / (e_sym * count))
        assert abs(a_emp - rep.a) <= 3.0 * sigma

    def test_semi_analytic_sinr_matches_symbol_level(self):
        scn = two_group_toy(m=8, e1_db=15.0, e2_db=15.0)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        rd = reduce(stats, geb.s)
        real = sample_channels(cov, 17)
        n = 128
        eff = effective_channel(geb.s, real, 0, n)
        bank = zf_combiners(eff)
        spec = scn.groups[0]
        rep = bussgang_report(eff, bank, rd, spec.symbol_energy, spec.n_users, 1)
        blocks = 800  # ~1e5 symbols
        resid = 0.0
        count = 0
        for t in range(blocks):
            res = simulate_block(real, {0: geb.s}, {0: bank}, n, seed=[31, t])
            x = res.symbols[0][1]
            xh = res.estimates[0][1]
            resid += np.sum(np.abs(xh - rep.a * x) ** 2)
            count += x.size
        e_sym = spec.symbol_energy / spec.n_users
        sinr_emp = e_sym * abs(rep.a) ** 2 / (resid / count)
        assert abs(sinr_emp - rep.sinr) <= 0.05 * rep.sinr


class TestErgodicCapacity:
    def test_degenerate_direction_and_amplitude(self):
        # a rank-1 covariance pins the channel direction; the random scalar gain
        # still varies per trial, but ZF's amplitude is exactly one every time
        scn = Scenario(8, 1, 0.2, (
            GroupSpec(1, 2, 2.0, (0,), np.array([[23.0]]), 1e-9, 1.0),
        ))
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        rng = np.random.default_rng(3)
        s = random_orthonormal(rng, 8, 2)
        rd = reduce(stats, s)
        directions = []
        for t in range(6):
            real = sample_channels(cov, [5, t])
            eff = effective_channel(s, real, 0, 4)
            rep = bussgang_report(eff, zf_combiners(eff), rd, 2.0, 1, 0)
            assert_allclose(rep.a, 1.0, atol=1e-9)
            h = eff.freq[:, 0, 0]
            directions.append(h / np.linalg.norm(h))
        base = directions[0]
        for d in directions[1:]:
            assert_allclose(np.abs(np.vdot(base, d)), 1.0, atol=1e-6)

    def test_monotone_in_symbol_energy(self):
        base = two_group_toy()
        means = []
        for e_db in (10.0, 15.0, 20.0, 25.0, 30.0):
            scn = two_group_toy(e1_db=e_db)
            cov = build_covariances(scn)
            stats = group_statistics(cov, 0)
            geb = compute_geb(stats, 4)
            cap = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, ("zf",), n=16, trials=30,
                                  seed=77).estimate("geb", "zf")
            means.append(cap.mean.mean())
        assert np.all(np.diff(means) > 0)

    def test_mean_and_stderr_shapes(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        cap = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, ("lmmse",), n=16, trials=12,
                              seed=5).estimate("geb", "lmmse")
        assert cap.mean.shape == (2,) and cap.stderr.shape == (2,)
        assert cap.samples.shape == (12, 2)
        assert np.all(cap.stderr >= 0)

    def test_reproducible(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        a = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, ("zf",), n=16, trials=8, seed=13)
        b = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, ("zf",), n=16, trials=8, seed=13)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("combiner", ["zf", "lmmse"])
    def test_trial_blocks_match_per_trial_composition(self, combiner):
        # 37 trials: the last trial block is partial
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        rd = reduce(stats, geb.s)
        spec = scn.groups[0]
        cap = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, (combiner,), n=16, trials=37,
                               seed=2024).estimate("geb", combiner)
        for t in range(37):
            real = sample_channels(cov, [2024, t], groups=[0])
            eff = effective_channel(geb.s, real, 0, 16)
            if combiner == "zf":
                bank = zf_combiners(eff)
            else:
                bank = lmmse_combiners(eff, rd, spec.symbol_energy, spec.n_users)
            expected = [bussgang_report(eff, bank, rd, spec.symbol_energy, spec.n_users,
                                        user).capacity for user in range(spec.n_users)]
            assert_allclose(cap.samples[t], expected, rtol=1e-12)

    @pytest.mark.parametrize("combiner, pinned", [
        ("zf", {0: [5.998900980592998, 6.272485632314111],
                16: [7.393855732722327, 7.75714379959634],
                36: [8.349126047662667, 9.877564054190323]}),
        ("lmmse", {0: [6.008537176989793, 6.283674778452405],
                   16: [7.398894376183876, 7.763280554986295],
                   36: [8.349446791536455, 9.878018400600517]}),
    ])
    def test_pinned_samples(self, combiner, pinned):
        # values with Toeplitz CCMs, one stacked square root per group and the real
        # Toeplitz-transform square roots and GEB; a change in the draw stream or in
        # those factors' rounding moves them
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        cap = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, (combiner,), n=16, trials=37,
                               seed=2024).estimate("geb", combiner)
        for t, values in pinned.items():
            assert_allclose(cap.samples[t], values, rtol=1e-12)


def three_designs():
    """Toy scenario, its covariances and statistics, and three of its designs."""
    scn = two_group_toy()
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, 4)
    designs = {"geb": geb.s, "pe": phase_extraction(geb).effective(),
               "dft": dft_beamformer(scn, 0).effective()}
    return cov, stats, designs


class TestLinkPass:
    """One pass draws each trial block once for every (design, combiner) pair."""

    def test_every_pair_equals_its_own_pass(self):
        # 37 trials: the last trial block is partial
        cov, stats, designs = three_designs()
        link = ergodic_capacity(cov, stats, designs, 0, ("zf", "lmmse"), n=16, trials=37,
                                seed=2024)
        assert link.samples.shape == (37, 3, 2, 2) and not link.errors
        for i, name in enumerate(designs):
            for j, comb in enumerate(("zf", "lmmse")):
                alone = ergodic_capacity(cov, stats, {name: designs[name]}, 0, (comb,), n=16,
                                         trials=37, seed=2024)
                assert np.array_equal(link.samples[:, i, j], alone.samples[:, 0, 0])
                est, ref = link.estimate(name, comb), alone.estimate(name, comb)
                assert np.array_equal(est.samples, ref.samples)
                assert np.array_equal(est.mean, ref.mean)
                assert np.array_equal(est.stderr, ref.stderr)

    def test_singular_bin_fails_only_its_pair(self, monkeypatch):
        # bin 3 of trial 21 (realization 5 of the second block) of the pe
        # design's channel is zeroed on the way into its zf bank only; blocks
        # of 16 trials split the 37 trials into three blocks
        monkeypatch.setattr(linksim, "_TRIAL_BLOCK", 16)
        cov, stats, designs = three_designs()
        clean = ergodic_capacity(cov, stats, designs, 0, ("zf", "lmmse"), n=16, trials=37,
                                 seed=2024)
        projected, faulty_zf = [], []

        def recording_effective_channel(s, real, g, n):
            eff = effective_channel(s, real, g, n)
            if s is designs["pe"]:
                projected.append(eff)
            return eff

        def planted_zf(eff):
            if any(eff is p for p in projected):
                faulty_zf.append(eff)
                if len(faulty_zf) == 2:
                    freq = eff.freq.copy()
                    freq[..., 5, 3] = 0.0
                    eff = EffectiveChannel(eff.taps, freq)
            return zf_combiners(eff)

        monkeypatch.setattr(linksim, "effective_channel", recording_effective_channel)
        monkeypatch.setattr(linksim, "zf_combiners", planted_zf)
        link = ergodic_capacity(cov, stats, designs, 0, ("zf", "lmmse"), n=16, trials=37,
                                seed=2024)
        assert list(link.errors) == [("pe", "zf")]
        message = "effective channel at bin 3 of realization (5,) is rank deficient"
        with pytest.raises(SingularBinError) as excinfo:
            link.estimate("pe", "zf")
        assert str(excinfo.value) == message
        # the failed pair is not evaluated in the third block; pe's lmmse pair is
        assert len(faulty_zf) == 2 and len(projected) == 3
        for i, name in enumerate(designs):
            for j, comb in enumerate(("zf", "lmmse")):
                if (name, comb) != ("pe", "zf"):
                    assert np.array_equal(link.samples[:, i, j], clean.samples[:, i, j])


def random_link_case(m, trials, chains, phi, draw):
    """A toy scenario at ``phi``, its statistics and a random M x D design."""
    scn = two_group_toy(m=m, chains=chains, phi=phi)
    cov = build_covariances(scn, n_quad=64)
    rng = np.random.default_rng(draw)
    return cov, group_statistics(cov, 0), random_orthonormal(rng, m, chains), rng


LINK_CASES = dict(m=st.integers(8, 16), trials=st.integers(2, 8), chains=st.integers(2, 4),
                  phi=st.floats(-30.0, 30.0), draw=st.integers(0, 2**31), seed=st.integers(0, 2**31))


class TestLinkPassProperties:
    """The paper's combiner invariants over random small scenarios."""

    @hypothesis.seed(20261018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(**LINK_CASES)
    def test_lmmse_at_least_zf_per_trial_and_user(self, m, trials, chains, phi, draw, seed):
        cov, stats, s, _ = random_link_case(m, trials, chains, phi, draw)
        link = ergodic_capacity(cov, stats, {"s": s}, 0, ("zf", "lmmse"), n=16, trials=trials,
                                seed=seed)
        zf, lmmse = link.estimate("s", "zf").samples, link.estimate("s", "lmmse").samples
        assert np.all(lmmse >= zf - 1e-9 * (1.0 + zf))

    @hypothesis.seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(**LINK_CASES)
    def test_capacity_invariant_under_unitary_right_factor(self, m, trials, chains, phi, draw,
                                                           seed):
        cov, stats, s, rng = random_link_case(m, trials, chains, phi, draw)
        designs = {"s": s, "su": s @ random_unitary(rng, chains)}
        link = ergodic_capacity(cov, stats, designs, 0, ("zf", "lmmse"), n=16, trials=trials,
                                seed=seed)
        assert not link.errors
        assert_allclose(link.samples[:, 1], link.samples[:, 0], rtol=1e-9, atol=1e-12)
