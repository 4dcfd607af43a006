"""Beampatterns, shifting-angle sweeps and outage tabulation."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jsdmsim import (
    beampattern,
    build_covariances,
    cdf,
    compute_geb,
    group_statistics,
    steering,
    steering_matrix,
)
from jsdmsim.linalg import RankError
from jsdmsim import channel, chanest, linksim, metrics
from jsdmsim.linksim import ergodic_capacity
from jsdmsim.channel import fixed_covariances
from jsdmsim.metrics import SweepSettings, _derived_seed, build_beamformer, phi_sweep

from conftest import random_orthonormal, table1_scenario, two_group_toy


class TestBeampattern:
    def test_in_span_direction_has_unit_power(self):
        m = 16
        u = steering(14.0, m)
        rng = np.random.default_rng(1)
        other = random_orthonormal(rng, m, 2)
        s = np.column_stack([u, other[:, 0]])
        assert beampattern(s, steering_matrix([14.0], m))[0] == pytest.approx(1.0, abs=1e-10)

    def test_projector_bounds(self):
        rng = np.random.default_rng(2)
        s = random_orthonormal(rng, 24, 5)
        values = beampattern(s, steering_matrix(np.linspace(-90, 90, 721), 24))
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)

    def test_invariant_under_invertible_right_factor(self):
        rng = np.random.default_rng(3)
        s = random_orthonormal(rng, 16, 4)
        grid = steering_matrix(np.linspace(-90, 90, 181), 16)
        base = beampattern(s, grid)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a += 2 * np.eye(4)
            assert np.max(np.abs(beampattern(s @ a, grid) - base)) <= 1e-8

    def test_rank_deficient_rejected(self):
        s = np.zeros((8, 2), dtype=complex)
        s[:, 0] = 1.0
        with pytest.raises((RankError, ValueError)):
            beampattern(s, steering_matrix([0.0], 8))

    def test_geb_suppresses_interferers_below_dft(self):
        scn = table1_scenario(m=32, mobile_db=40.0, interferer_db=40.0, phi=10.0)
        cov = build_covariances(scn)
        stats = group_statistics(cov, 0)
        settings = SweepSettings(group=0)
        geb = compute_geb(stats, 4)
        s_geb = build_beamformer("geb", scn, stats, 0, settings, 0, geb)
        s_dft = build_beamformer("dft", scn, stats, 0, settings, 0, geb)
        own = np.concatenate([scn.effective_aoa(0).ravel()])
        interferers = np.concatenate([scn.effective_aoa(g).ravel() for g in (1, 2, 3)])
        geb_own = beampattern(s_geb, steering_matrix(own, 32)).max()
        geb_int = beampattern(s_geb, steering_matrix(interferers, 32))
        dft_int = beampattern(s_dft, steering_matrix(interferers, 32))
        assert np.all(geb_int <= 1e-2 * geb_own)  # 20 dB below
        assert np.all(geb_int < dft_int)


class TestCdf:
    def test_constant_values_step(self):
        values = np.full(10, 2.5)
        grid = np.array([2.0, 2.5, 3.0])
        assert_allclose(cdf(values, grid), [0.0, 0.0, 1.0])

    def test_extremes(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=50)
        assert cdf(values, np.array([values.min() - 1.0]))[0] == 0.0
        assert cdf(values, np.array([values.max() + 1.0]))[0] == 1.0

    def test_monotone_in_unit_range(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=200)
        grid = np.linspace(-4, 4, 101)
        probs = cdf(values, grid)
        assert np.all(np.diff(probs) >= 0)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf(np.array([]), np.array([0.0]))

    def test_geb_cdf_steeper_than_dft(self):
        # narrower 10-90% capacity spread over the sweep population
        scn = two_group_toy(m=16)
        settings = SweepSettings(group=0, beamformers=("geb", "dft"), combiners=("zf",),
                                 trials=6, block_length=16, seed=3)
        result = phi_sweep(scn, np.arange(-20.0, 21.0, 2.0), settings)
        spreads = {}
        for name in ("geb", "dft"):
            values = result.per_phi_capacity(name, "zf")
            lo, hi = np.quantile(values, [0.1, 0.9])
            spreads[name] = hi - lo
        assert spreads["geb"] < spreads["dft"]


class TestPhiSweep:
    def test_single_point_equals_one_shot(self):
        scn = two_group_toy()
        settings = SweepSettings(group=0, beamformers=("geb",), combiners=("zf",),
                                 trials=5, block_length=16, seed=11)
        result = phi_sweep(scn, [4.0], settings)
        rec = result.records[0]

        scn_phi = scn.with_phi(4.0)
        cov = build_covariances(scn_phi, n_quad=settings.n_quad)
        stats = group_statistics(cov, 0)
        geb = compute_geb(stats, 4)
        cap = ergodic_capacity(cov, stats, {"geb": geb.s}, 0, ("zf",), n=16, trials=5,
                               seed=_derived_seed(11, 0, 2)).estimate("geb", "zf")
        assert_allclose(rec.capacity, cap.mean, atol=1e-12)

    def test_grid_refinement_stable(self):
        scn = two_group_toy(m=16)
        settings = SweepSettings(group=0, beamformers=("geb",), combiners=("zf",),
                                 trials=4, block_length=16, seed=9)
        coarse = phi_sweep(scn, np.arange(-5.0, 5.1, 1.0), settings)
        fine = phi_sweep(scn, np.arange(-5.0, 5.01, 0.1), settings)
        c = coarse.per_phi_capacity("geb", "zf").mean()
        f = fine.per_phi_capacity("geb", "zf").mean()
        assert abs(c - f) <= 0.02 * f

    def test_failed_point_recorded_and_sweep_continues(self):
        scn = two_group_toy()
        # chains > antennas is impossible to design: force failure via block length
        settings = SweepSettings(group=0, beamformers=("geb",), combiners=("zf",),
                                 trials=2, block_length=2, seed=1)  # N < L fails
        result = phi_sweep(scn, [0.0, 1.0], settings)
        assert len(result.errors()) == 2
        assert all(r.error is not None for r in result.records)

    def test_pilots_built_once_per_angle(self, monkeypatch):
        # every design of an angle shares its pilots: they draw from the angle's seed alone
        seeds = []
        original = chanest.build_pilots

        def counting(scn, g, length, seed, energy=None):
            seeds.append(seed)
            return original(scn, g, length, seed, energy=energy)

        monkeypatch.setattr(chanest, "build_pilots", counting)
        settings = SweepSettings(group=0, beamformers=tuple(metrics.DESIGNS), combiners=("zf",),
                                 estimator="lmmse", trials=1, block_length=64, seed=2)
        result = phi_sweep(table1_scenario(m=16), [0.0, 3.0], settings)
        assert len(settings.beamformers) == 7
        assert not result.errors() and all(r.nmse is not None for r in result.records)
        assert seeds == [_derived_seed(2, i, 3) for i in range(2)]

    def test_out_of_range_phi_rejected(self):
        scn = two_group_toy()
        settings = SweepSettings(group=0, trials=1, block_length=16)
        with pytest.raises(ValueError, match="scan range"):
            phi_sweep(scn, [0.0, 95.0], settings)

    def test_programming_error_propagates(self, monkeypatch):
        # only numerical failures become failed angles; a bug must surface
        def broken_geb(stats, n_chains):
            raise TypeError("planted")

        monkeypatch.setattr(metrics, "compute_geb", broken_geb)
        settings = SweepSettings(group=0, trials=1, block_length=16)
        with pytest.raises(TypeError, match="planted"):
            phi_sweep(two_group_toy(), [0.0, 1.0], settings)

    def test_programming_error_in_the_link_pass_propagates(self, monkeypatch):
        # a ValueError in one pair's combiner fails that pair; a TypeError is a bug
        def broken_zf(eff):
            raise TypeError("planted")

        monkeypatch.setattr(linksim, "zf_combiners", broken_zf)
        settings = SweepSettings(group=0, beamformers=("geb", "dft"), combiners=("lmmse", "zf"),
                                 trials=1, block_length=16)
        with pytest.raises(TypeError, match="planted"):
            phi_sweep(two_group_toy(), [0.0], settings)


def _mobile_bytes(scn):
    """Bytes of one angle's mobile-group CCMs, the unit of the design block budget."""
    return sum(len(spec.delays) * spec.n_users * scn.n_antennas ** 2 * 16
               for spec in scn.groups if spec.mobile)


def _two_mobile_groups():
    scn = table1_scenario(m=16)
    groups = list(scn.groups)
    groups[2] = dataclasses.replace(groups[2], mobile=True)
    return dataclasses.replace(scn, groups=tuple(groups)), 0


class TestFixedCovariances:
    """Each angle's shared CCMs give a sweep equal, bit for bit, to a rebuild."""

    CASES = {
        # evaluated group mobile, interferers fixed: R_s moves, R_eta does not
        "mobile-group": lambda: (table1_scenario(m=16), 0),
        # evaluated group fixed, one interferer mobile: R_s is invariant, R_eta moves
        "fixed-group": lambda: (table1_scenario(m=16), 2),
        # two mobile groups: R_eta moves with the second one
        "two-mobile": _two_mobile_groups,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_angle_equals_a_rebuild(self, case, monkeypatch):
        scn, group = self.CASES[case]()
        phis = [-3.0, 0.0, 4.5]
        settings = SweepSettings(group=group, beamformers=("geb", "dft"), combiners=("zf",),
                                 trials=2, block_length=32, seed=5)
        original_build, original_evaluate = metrics.build_covariances, metrics._evaluate_phi

        def recording_build(scn_phi, **kwargs):
            blocks.append(kwargs["phis"])
            return original_build(scn_phi, **kwargs)

        def recording_evaluate(design, phi, phi_index, cfg):
            scn_phi, cov, stats, geb = design
            built.append((scn_phi, cov))
            solved.append((stats, geb))
            return original_evaluate(design, phi, phi_index, cfg)

        def counting_sqrt(r):
            rooted.append(r.shape)
            return original_sqrt(r)

        original_sqrt = channel.psd_sqrt
        monkeypatch.setattr(metrics, "build_covariances", recording_build)
        monkeypatch.setattr(metrics, "_evaluate_phi", recording_evaluate)
        monkeypatch.setattr(channel, "psd_sqrt", counting_sqrt)
        # design blocks of 1, 2 and 5 angles (one block, larger than the grid)
        for block in (1, 2, 5):
            monkeypatch.setattr(metrics, "_DESIGN_BLOCK_BYTES", block * _mobile_bytes(scn))
            built, solved, blocks, rooted = [], [], [], []
            result = phi_sweep(scn, phis, settings)
            assert not result.errors()
            assert [list(b) for b in blocks] == [phis[i:i + block] for i in range(0, 3, block)]
            # one square root call per block, before the link pass needs it
            assert len(rooted) == len(blocks)
            assert [s.phi for s, _ in built] == phis and len(solved) == len(phis)

            for phi, (scn_phi, cov), (stats, geb) in zip(phis, built, solved):
                ref_scn = scn.with_phi(phi)
                ref_cov = build_covariances(ref_scn, n_quad=settings.n_quad)
                ref_stats = group_statistics(ref_cov, group)
                ref_geb = compute_geb(ref_stats, ref_scn.groups[group].n_chains)
                assert scn_phi == ref_scn
                for g, spec in enumerate(scn.groups):
                    # the non-mobile groups' CCMs are the sweep's, built once
                    assert (cov.ccms[g] is result.fixed.ccms.get(g)) != spec.mobile
                    for k in range(spec.n_users):
                        for delay in spec.delays:
                            assert np.array_equal(cov.ccms[g][k][delay],
                                                  ref_cov.ccms[g][k][delay])
                assert np.array_equal(stats.r_s, ref_stats.r_s)
                assert np.array_equal(stats.r_eta, ref_stats.r_eta)
                assert np.array_equal(geb.s, ref_geb.s)
                assert np.array_equal(geb.gen_eigenvalues, ref_geb.gen_eigenvalues)
                # the block's square roots, filled before the link pass
                assert group in cov._factors
                assert np.array_equal(cov.factors(group), ref_cov.factors(group))

    @pytest.mark.parametrize("fault", ["toeplitz", "psd"])
    def test_failure_stays_with_its_angle(self, fault, monkeypatch):
        """A fault planted at the middle angle of a 3-angle block fails that angle alone,
        with the message its one-angle design or link pass gives."""
        scn = table1_scenario(m=16)
        phis, bad = [-3.0, 0.0, 4.5], 0.0
        settings = SweepSettings(group=0, beamformers=("geb", "dft"), combiners=("zf", "lmmse"),
                                 trials=2, block_length=32, seed=5)
        clean = phi_sweep(scn, phis, settings)
        original, mu_bad = channel.ccm_one_ring, scn.groups[0].mean_aoa[0, 0] + bad

        def planted(mu, delta, power, m, n_quad=channel.DEFAULT_N_QUAD):
            out = original(mu, delta, power, m, n_quad)
            hit = np.asarray(mu)[..., 0, 0] == mu_bad
            if fault == "toeplitz":  # Hermitian once summed, but not Toeplitz
                out[hit, ..., 0, 1] += 0.5
            else:  # Toeplitz, but indefinite: the GEB stands, the square roots fail
                out[hit] -= 10.0 * np.eye(m)
            return out

        monkeypatch.setattr(channel, "ccm_one_ring", planted)
        blocks = []
        original_build = metrics.build_covariances

        def recording_build(scn_phi, **kwargs):
            blocks.append(kwargs["phis"])
            return original_build(scn_phi, **kwargs)

        monkeypatch.setattr(metrics, "build_covariances", recording_build)
        result = phi_sweep(scn, phis, settings)
        assert blocks[0] is not None and list(blocks[0]) == phis
        # a failed square root leaves the block standing; a failed design redoes it angle by angle
        assert blocks[1:] == ([] if fault == "psd" else [None] * 3)
        failed = result.errors()
        assert len(failed) == 4 and {r.phi for r in failed} == {bad}
        if fault == "toeplitz":
            with pytest.raises(ValueError) as info:
                metrics.angle_design(result.fixed, bad, settings)
            expected = f"ValueError: {info.value}"
            assert expected.startswith("ValueError: A is not Hermitian Toeplitz")
        else:
            [(_, cov, stats, _)] = metrics.angle_design(result.fixed, bad, settings)
            with pytest.raises(ValueError) as info:
                cov.factors(0)
            expected = f"PsdError: {info.value}"
            assert expected.startswith("PsdError: R[0, 0] is not PSD")
        assert all(r.error == expected for r in failed)
        for rec, ref in zip(result.records, clean.records):
            if rec.phi != bad:
                assert rec.error is None
                assert np.array_equal(rec.capacity, ref.capacity)
                assert rec.expected_sinr == ref.expected_sinr

    def test_shared_only_with_their_own_scenario_and_quadrature(self):
        scn = two_group_toy()
        fixed = fixed_covariances(scn, n_quad=64)
        cov = build_covariances(scn.with_phi(7.0), n_quad=64, fixed=fixed)
        assert cov.ccms[1] is fixed.ccms[1]
        with pytest.raises(ValueError, match="another scenario or n_quad"):
            build_covariances(scn.with_phi(7.0), n_quad=65, fixed=fixed)
        with pytest.raises(ValueError, match="another scenario or n_quad"):
            build_covariances(two_group_toy(), n_quad=64, fixed=fixed)

    def test_bad_quadrature_rejected_before_the_sweep(self):
        with pytest.raises(ValueError, match="n_quad"):
            SweepSettings(group=0, n_quad=4)
