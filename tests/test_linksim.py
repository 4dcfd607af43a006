"""SC-FDE block simulation against the semi-analytic link evaluation."""

import re
import tracemalloc
from importlib import resources

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
from jsdmsim import linksim, metrics
from jsdmsim.config import parse_config
from jsdmsim.constrained import dft_beamformer, phase_extraction
from jsdmsim.channel import white_coefficients
from jsdmsim.digital import (SingularBinError, bin_grams, effective_channel, lmmse_capacity,
                             lmmse_combiners, zf_capacity, zf_combiners)
from jsdmsim.linksim import _eigenbasis as linksim_eigenbasis
from jsdmsim.linksim import bussgang_report, ergodic_capacity

from conftest import (ccm, one_trial, random_orthonormal, random_unitary, two_group_toy,
                      with_reduced)
from oracles import simulate_block


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
            trace_sum = sum(np.trace(ccm(cov, g, k, d)).real
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
            link = ergodic_capacity([cov], [with_reduced(stats, {"geb": geb.s})], 0, ("zf",),
                                    n=16, trials=30, seeds=[77])
            means.append(link.means()[0, 0, 0].mean())
        assert np.all(np.diff(means) > 0)

    def test_mean_and_stderr_shapes(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        link = ergodic_capacity([cov], [with_reduced(stats, {"geb": geb.s})], 0, ("lmmse",),
                                n=16, trials=12, seeds=[5])
        assert link.failures == ({},)
        assert link.means().shape == (1, 1, 1, 2)
        assert link.samples.shape == (12, 1, 1, 2)

    def test_reproducible(self):
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        designs = with_reduced(stats, {"geb": geb.s})
        a = ergodic_capacity([cov], [designs], 0, ("zf",), n=16, trials=8, seeds=[13])
        b = ergodic_capacity([cov], [designs], 0, ("zf",), n=16, trials=8, seeds=[13])
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
        samples = ergodic_capacity([cov], [with_reduced(stats, {"geb": geb.s})], 0, (combiner,),
                                   n=16, trials=37, seeds=[2024]).samples[:, 0, 0]
        block = sample_channels(cov, 2024, groups=[0], trials=37)
        for t in range(37):
            eff = effective_channel(geb.s, one_trial(block, t), 0, 16)
            if combiner == "zf":
                bank = zf_combiners(eff)
            else:
                bank = lmmse_combiners(eff, rd, spec.symbol_energy, spec.n_users)
            expected = [bussgang_report(eff, bank, rd, spec.symbol_energy, spec.n_users,
                                        user).capacity for user in range(spec.n_users)]
            assert_allclose(samples[t], expected, rtol=1e-12)

    @pytest.mark.parametrize("combiner, pinned", [
        ("zf", {0: [7.1491026502554735, 8.809209695740932],
                16: [8.842855738062335, 9.994566841959287],
                36: [7.739168689917769, 6.641009972892197]}),
        ("lmmse", {0: [7.1510017115884, 8.81469281460455],
                   16: [8.843109282070438, 9.994681950235671],
                   36: [7.74769951122705, 6.6455440969564705]}),
    ])
    def test_pinned_samples(self, combiner, pinned):
        # values with Toeplitz CCMs, one stacked pivoted-Cholesky factor per group, one
        # trial-major draw per pass and the real Toeplitz-transform GEB; a change in the
        # draw stream or in those factors' rounding moves them
        scn = two_group_toy()
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        samples = ergodic_capacity([cov], [with_reduced(stats, {"geb": geb.s})], 0, (combiner,),
                                   n=16, trials=37, seeds=[2024]).samples[:, 0, 0]
        for t, values in pinned.items():
            assert_allclose(samples[t], values, rtol=1e-12)


def three_designs():
    """Toy scenario's covariances and three of its designs, each with its S^H R_eta S."""
    scn = two_group_toy()
    cov = build_covariances(scn)
    stats = group_statistics(cov, 0)
    geb = compute_geb(stats, 4)
    return cov, with_reduced(stats, {"geb": geb.s,
                                     "pe": phase_extraction(geb.s[None])[0].effective(),
                                     "dft": dft_beamformer(scn, 0, [scn.phi])[0].effective()})


class TestLinkPass:
    """One pass draws each trial block once for every (design, combiner) pair."""

    def test_every_pair_equals_its_own_pass(self):
        # 37 trials: the last trial block is partial
        cov, designs = three_designs()
        link = ergodic_capacity([cov], [designs], 0, ("zf", "lmmse"), n=16, trials=37,
                                seeds=[2024])
        assert link.samples.shape == (37, 3, 2, 2) and link.failures == ({},)
        means = link.means()
        for i, name in enumerate(designs):
            for j, comb in enumerate(("zf", "lmmse")):
                alone = ergodic_capacity([cov], [{name: designs[name]}], 0, (comb,), n=16,
                                         trials=37, seeds=[2024])
                assert np.array_equal(link.samples[:, i, j], alone.samples[:, 0, 0])
                assert np.array_equal(means[0, i, j], alone.means()[0, 0, 0])

    def test_block_size_leaves_every_sample_unchanged(self, monkeypatch):
        # trial t's capacities are bit for bit the same whatever block it shares
        cov, designs = three_designs()
        runs = []
        for block in (1, 5, 16, 64):
            monkeypatch.setattr(linksim, "_BLOCK_ELEMENTS", block)
            runs.append(ergodic_capacity([cov], [designs], 0, ("zf", "lmmse"), n=16, trials=37,
                                         seeds=[2024]).samples)
        for samples in runs[1:]:
            assert np.array_equal(samples, runs[0])

    def test_one_draw_per_pass(self, monkeypatch):
        # 37 trials in blocks of 16: one draw of every trial serves all six pairs
        monkeypatch.setattr(linksim, "_BLOCK_ELEMENTS", 16)
        cov, designs = three_designs()
        drawn = []

        def counting_draw(rng, trials, factors):
            drawn.append((trials, factors))
            return white_coefficients(rng, trials, factors)

        monkeypatch.setattr(linksim, "white_coefficients", counting_draw)
        link = ergodic_capacity([cov], [designs], 0, ("zf", "lmmse"), n=16, trials=37,
                                seeds=[2024])
        assert link.failures == ({},)
        assert len(drawn) == 1 and drawn[0][0] == 37 and drawn[0][1] is cov.factors(0)

    def test_singular_bin_fails_only_its_pair(self, monkeypatch):
        # bin 3 of trial 21 (realization 8 of the pe design's second block) of the pe
        # design's per-bin matrices is zeroed on the way into its zf kernel only; a budget
        # of 16 (angle, design, trial) triples splits each design's 37 trials into three
        # equal blocks, of 13, 13 and 11 trials
        monkeypatch.setattr(linksim, "_BLOCK_ELEMENTS", 16)
        cov, designs = three_designs()
        clean = ergodic_capacity([cov], [designs], 0, ("zf", "lmmse"), n=16, trials=37,
                                 seeds=[2024])
        pe_weights, pe_grams, faulty_zf, pe_lmmse = [], [], [], []

        def recording_eigenbasis(s, r_eta_rd, factors):
            prepared = linksim_eigenbasis(s, r_eta_rd, factors)
            # one call stacks every design: pe's member equals its stage
            pe_weights.extend(w for member, w in zip(s, prepared[1])
                              if np.array_equal(member, designs["pe"][0]))
            return prepared

        def recording_grams(active, delays, n_taps, n, weights):
            grams = bin_grams(active, delays, n_taps, n, weights)
            # one pair per block: its weights are the stack's one member
            if any(np.array_equal(weights[0], w) for w in pe_weights):
                pe_grams.append(grams)
            return grams

        def of_pe(x):
            return any(np.shares_memory(x, grams) for grams in pe_grams)

        def planted_zf(g, h, symbol_energy, n_users):
            if of_pe(g):
                faulty_zf.append(g)
                if len(faulty_zf) == 2:
                    g, h = g.copy(), h.copy()
                    g[..., 8, 3] = h[..., 8, 3] = 0.0
            return zf_capacity(g, h, symbol_energy, n_users)

        def recording_lmmse(m, symbol_energy, n_users):
            if of_pe(m):
                pe_lmmse.append(m)
            return lmmse_capacity(m, symbol_energy, n_users)

        monkeypatch.setattr(linksim, "_eigenbasis", recording_eigenbasis)
        monkeypatch.setattr(linksim, "bin_grams", recording_grams)
        monkeypatch.setattr(linksim, "zf_capacity", planted_zf)
        monkeypatch.setattr(linksim, "lmmse_capacity", recording_lmmse)
        link = ergodic_capacity([cov], [designs], 0, ("zf", "lmmse"), n=16, trials=37,
                                seeds=[2024])
        [failures] = link.failures
        assert list(failures) == [("pe", "zf")]
        error = failures[("pe", "zf")]
        assert isinstance(error, SingularBinError)
        assert str(error) == "effective channel at bin 3 of trial 21 is rank deficient"
        assert np.isnan(link.samples[:, link.designs.index("pe"), 0]).all()
        # the failed pair is not evaluated in the third block; pe's lmmse pair is
        assert len(faulty_zf) == 2 and len(pe_lmmse) == 3
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
        link = ergodic_capacity([cov], [with_reduced(stats, {"s": s})], 0, ("zf", "lmmse"),
                                n=16, trials=trials, seeds=[seed])
        assert link.failures == ({},)
        zf, lmmse = link.samples[:, 0, 0], link.samples[:, 0, 1]
        assert np.all(lmmse >= zf - 1e-9 * (1.0 + zf))

    @hypothesis.seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(**LINK_CASES)
    def test_capacity_invariant_under_unitary_right_factor(self, m, trials, chains, phi, draw,
                                                           seed):
        cov, stats, s, rng = random_link_case(m, trials, chains, phi, draw)
        designs = {"s": s, "su": s @ random_unitary(rng, chains)}
        link = ergodic_capacity([cov], [with_reduced(stats, designs)], 0, ("zf", "lmmse"),
                                n=16, trials=trials, seeds=[seed])
        assert link.failures == ({},)
        assert_allclose(link.samples[:, 1], link.samples[:, 0], rtol=1e-9, atol=1e-12)


def k_user_toy(m, users, chains, phi):
    """A mobile group of ``users`` users and ``chains`` chains against a two-user interferer."""
    aoa = np.array([[-10.0 + 4.0 * u, 20.0 - 3.0 * u] for u in range(users)])
    groups = (
        GroupSpec(users, chains, 1000.0, (0, 2), aoa, 2.0, 1.0, mobile=True),
        GroupSpec(2, 4, 100.0, (1, 3), np.array([[40.0, -35.0], [41.0, -34.0]]), 2.0, 1.0),
    )
    return Scenario(m, 4, 1.0, groups, phi=phi)


@st.composite
def oracle_cases(draw):
    users = draw(st.integers(1, 3))
    return dict(m=draw(st.integers(8, 16)), users=users, chains=draw(st.integers(users, 4)),
                phi=draw(st.floats(-30.0, 30.0)), trials=draw(st.integers(1, 5)),
                draw=draw(st.integers(0, 2**31)), seed=draw(st.integers(0, 2**31)))


class TestLinkPassMatchesOracle:
    """The closed forms on projected roots equal the explicit-combiner path, trial by trial."""

    @hypothesis.seed(20261019)
    @settings(max_examples=100, deadline=None, database=None)
    @given(oracle_cases())
    def test_capacities_equal_bussgang_report_of_sampled_channels(self, case):
        scn = k_user_toy(case["m"], case["users"], case["chains"], case["phi"])
        cov = build_covariances(scn, n_quad=64)
        stats = group_statistics(cov, 0)
        s = random_orthonormal(np.random.default_rng(case["draw"]), case["m"], case["chains"])
        rd = reduce(stats, s)
        spec, seed = scn.groups[0], case["seed"]
        link = ergodic_capacity([cov], [{"s": (s, rd)}], 0, ("zf", "lmmse"), n=16,
                                trials=case["trials"], seeds=[seed])
        assert link.failures == ({},)
        block = sample_channels(cov, seed, groups=[0], trials=case["trials"])
        for t in range(case["trials"]):
            eff = effective_channel(s, one_trial(block, t), 0, 16)
            # Both paths take the same draws through the same algebra in another order:
            # (S^H L) z against S^H (L z), closed forms against explicit
            # combiners and moments.  They differ by round-off, which the ZF noise, a
            # quadratic form in G_k^-1, amplifies by up to cond(G_k) = cond(Lambda_k)^2.
            # Over 2,500 random cases of this strategy the gap stayed below
            # 90 eps cond(Lambda_k)^2 (2e-14 for well-conditioned bins, 1e-10 at
            # cond(Lambda_k) = 1e3), so 1e-12 cond^2 leaves a margin of 50; every fault
            # this test guards against moves capacities by far more.
            kappa = np.linalg.cond(eff.freq.transpose(2, 0, 1)).max()
            rtol = 1e-12 * max(kappa, 1.0) ** 2
            for j, comb in enumerate(("zf", "lmmse")):
                bank = (zf_combiners(eff) if comb == "zf" else
                        lmmse_combiners(eff, rd, spec.symbol_energy, spec.n_users))
                expected = [bussgang_report(eff, bank, rd, spec.symbol_energy, spec.n_users,
                                            user).capacity for user in range(spec.n_users)]
                assert_allclose(link.samples[t, 0, j], expected, rtol=rtol)


class TestLinkPassMemory:
    @pytest.mark.usefixtures("one_process")
    def test_peak_of_one_stacked_pass_at_full_scale(self, monkeypatch):
        """The 11-angle table1 sweep at 128 antennas and 200 trials: units of two angles,
        four designs and both combiners, so each pass runs blocks of one pair and 100
        trials.  Measured (numpy 2.4): each pass peaks at 3.28 MiB, and at 1.90, 3.28 and
        6.05 MiB with budgets of 64, 100 and 200 triples; the pass keeps 56 KiB."""
        text = resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()
        for key, value in {"phi_start": "10", "phi_stop": "11"}.items():
            text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
            assert hits == 1
        cfg = parse_config(text)
        peaks, original = [], linksim.ergodic_capacity

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                link = original(*args, **kwargs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append((peak, kept, link))
            return link

        monkeypatch.setattr(linksim, "ergodic_capacity", measured)
        result = metrics.phi_sweep(cfg.scenario, cfg.phi_values(), cfg.sweep)
        assert not result.errors() and len(result.records) == 11 * 4 * 2
        assert cfg.sweep.trials == 200 and len(peaks) == 6
        peak, kept, link = max(peaks, key=lambda x: x[0])
        # one block's per-bin matrices: three K x K stacks over 100 trials and 64 bins
        block = 3 * 2 * 2 * 100 * 64 * 16
        assert kept >= link.samples.nbytes
        assert block <= peak <= 4 << 20


def two_angles():
    """Two angles of the toy scenario, each with its covariances and its GEB and DFT
    designs."""
    angles = []
    for phi in (0.0, 7.0):
        scn = two_group_toy(phi=phi)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        [dft] = dft_beamformer(scn, 0, [phi])
        angles.append((cov, with_reduced(stats, {"geb": geb.s, "dft": dft.effective()})))
    return angles


class TestUnitPass:
    @pytest.mark.parametrize("short", ["covs", "designs", "seeds"])
    def test_unequal_lengths_raise(self, short):
        # one entry per angle of the unit: a short sequence is an error, not an angle of
        # NaN samples with no failure recorded
        angles = two_angles()
        unit = {"covs": [cov for cov, _ in angles], "designs": [d for _, d in angles],
                "seeds": [11, 12]}
        unit[short] = unit[short][:1]
        with pytest.raises(ValueError):
            ergodic_capacity(unit["covs"], unit["designs"], 0, ("zf",), n=16, trials=3,
                             seeds=unit["seeds"])

    def test_each_angle_equals_its_own_pass(self):
        # two angles, one of them missing a design, in one pass: each angle's rows are bit
        # for bit its own one-angle pass
        angles = two_angles()
        del angles[1][1]["dft"]
        seeds = [11, 12]
        link = ergodic_capacity([cov for cov, _ in angles], [d for _, d in angles], 0,
                                ("zf", "lmmse"), n=16, trials=37, seeds=seeds)
        assert link.samples.shape == (2 * 37, 2, 2, 2)
        assert np.isnan(link.samples[37:, 1]).all()
        means = link.means()
        for a, ((cov, designs), seed) in enumerate(zip(angles, seeds)):
            alone = ergodic_capacity([cov], [designs], 0, ("zf", "lmmse"), n=16, trials=37,
                                     seeds=[seed])
            assert link.failures[a] == alone.failures[0] == {}
            for i, name in enumerate(designs):
                for j, comb in enumerate(("zf", "lmmse")):
                    assert np.array_equal(link.samples[a * 37:(a + 1) * 37, i, j],
                                          alone.samples[:, i, j])
                    assert np.array_equal(means[a, i, j], alone.means()[0, i, j])

    def test_a_failed_stacked_eigenbasis_fails_only_its_member(self, monkeypatch):
        # the pass's one stacked _eigenbasis call raises while it holds angle 1's DFT
        # design: it is made again design by design, so only that (angle, design)'s pairs
        # fail, with the message of its own stack of one, and every other pair's samples
        # are bit for bit a clean pass's
        angles = two_angles()
        covs, designs = [cov for cov, _ in angles], [d for _, d in angles]
        args = (0, ("zf", "lmmse"))
        kwargs = {"n": 16, "trials": 9, "seeds": [11, 12]}
        clean = ergodic_capacity(covs, designs, *args, **kwargs)
        bad, original, stacks = designs[1]["dft"][0], linksim._eigenbasis, []

        def planted(s, r_eta_rd, factors):
            stacks.append(len(s))
            if any(np.array_equal(member, bad) for member in s):
                raise ValueError(f"planted fault in a stack of {len(s)}")
            return original(s, r_eta_rd, factors)

        monkeypatch.setattr(linksim, "_eigenbasis", planted)
        link = ergodic_capacity(covs, designs, *args, **kwargs)
        assert stacks == [4, 1, 1, 1, 1]
        assert link.failures[0] == {}
        assert {pair: str(exc) for pair, exc in link.failures[1].items()} == {
            ("dft", comb): "planted fault in a stack of 1" for comb in ("zf", "lmmse")}
        dft = link.designs.index("dft")
        assert np.isnan(link.samples[9:, dft]).all()
        kept = np.ones(link.samples.shape[:3], dtype=bool)
        kept[9:, dft] = False
        assert not np.isnan(clean.samples).any()
        assert np.array_equal(link.samples[kept], clean.samples[kept])
