"""Beampatterns, shifting-angle sweeps and outage tabulation."""

import dataclasses
import os
import re
import threading
import time
from importlib import resources

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from jsdmsim import channel, chanest, constrained, linksim, metrics, statistics
from jsdmsim.linksim import ergodic_capacity
from jsdmsim.channel import fixed_covariances
from jsdmsim.config import ConfigError, parse_config
from jsdmsim.metrics import SweepSettings, _derived_seed, build_beamformer, phi_sweep

from conftest import ccm, random_orthonormal, table1_scenario, two_group_toy, with_reduced


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
        cap = ergodic_capacity(cov, with_reduced(stats, {"geb": geb.s}), 0, ("zf",), n=16,
                               trials=5, seed=_derived_seed(11, 0, 2)).estimate("geb", "zf")
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

    def test_nan_phi_rejected(self):
        # |nan| > 90 is False: the range rule must not let NaN through to every angle
        settings = SweepSettings(group=0, trials=1, block_length=16)
        with pytest.raises(ValueError, match="scan range"):
            phi_sweep(two_group_toy(), [np.nan], settings)

    def test_programming_error_propagates(self, monkeypatch):
        # only numerical failures become failed angles; a bug must surface
        def broken_geb(stats, n_chains):
            raise TypeError("planted")

        monkeypatch.setattr(metrics, "compute_geb", broken_geb)
        settings = SweepSettings(group=0, trials=1, block_length=16)
        with pytest.raises(TypeError, match="planted"):
            phi_sweep(two_group_toy(), [0.0, 1.0], settings)

    def test_programming_error_in_the_link_pass_propagates(self, monkeypatch):
        # a ValueError in one pair's kernel fails that pair; a TypeError is a bug
        def broken_zf(g, h, symbol_energy, n_users):
            raise TypeError("planted")

        monkeypatch.setattr(linksim, "zf_capacity", broken_zf)
        settings = SweepSettings(group=0, beamformers=("geb", "dft"), combiners=("lmmse", "zf"),
                                 trials=1, block_length=16)
        with pytest.raises(TypeError, match="planted"):
            phi_sweep(two_group_toy(), [0.0], settings)

    def test_one_rank_check_per_angle_and_design(self, monkeypatch):
        # one stacked rank check over the unit's (angle, design) grid checks each stage
        # once, and one reduce gives the S^H R_eta S that serves the estimation and the
        # link pass; a rank-deficient design fails only its own pairs
        checks, calls = [], []
        full_rank = statistics._full_rank

        def counting_check(s):
            calls.append(np.shape(s))
            checks.extend(np.reshape(s, (-1,) + np.shape(s)[-2:]))
            return full_rank(s)

        monkeypatch.setattr(statistics, "_full_rank", counting_check)
        settings = SweepSettings(group=0, beamformers=tuple(metrics.DESIGNS),
                                 combiners=("zf", "lmmse"), estimator="lmmse", trials=3,
                                 block_length=16)
        phis = [0.0, 7.0]
        clean = phi_sweep(two_group_toy(), phis, settings)
        assert not clean.errors()
        assert len(checks) == len(phis) * len(metrics.DESIGNS) and len(calls) == 1
        assert len({s.tobytes() for s in checks}) == len(checks)

        def copied_column(unit, cfg):
            stages = [geb.s.copy() for geb in unit.gebs]
            for s in stages:
                s[:, 1] = s[:, 0]
            return stages

        monkeypatch.setitem(metrics.DESIGNS, "dft", copied_column)
        checks.clear()
        calls.clear()
        result = phi_sweep(two_group_toy(), phis, settings)
        assert len(checks) == len(phis) * len(metrics.DESIGNS) and len(calls) == 1
        assert len({s.tobytes() for s in checks}) == len(checks)
        assert len(result.records) == len(clean.records)
        for rec, ref in zip(result.records, clean.records):
            assert (rec.phi, rec.beamformer, rec.combiner) == (ref.phi, ref.beamformer,
                                                               ref.combiner)
            if rec.beamformer == "dft":
                assert rec.error == "ValueError: beamformer must have full column rank"
            else:
                assert rec.error is None
                assert np.array_equal(rec.capacity, ref.capacity)
                assert (rec.expected_sinr, rec.nmse) == (ref.expected_sinr, ref.nmse)

    def test_a_stack_whose_svd_fails_is_checked_member_by_member(self, monkeypatch):
        # a NaN stage fails the stacked rank check's SVD: every stage is checked again on
        # its own, and only the NaN design's pairs fail, with their lone check's message
        settings = SweepSettings(group=0, beamformers=("geb", "dft", "pe"), combiners=("zf",),
                                 trials=2, block_length=16)
        phis = [0.0, 7.0]
        clean = phi_sweep(two_group_toy(), phis, settings)
        monkeypatch.setitem(metrics.DESIGNS, "dft",
                            lambda unit, cfg: [np.full_like(geb.s, np.nan) for geb in unit.gebs])
        result = phi_sweep(two_group_toy(), phis, settings)
        for rec, ref in zip(result.records, clean.records, strict=True):
            if rec.beamformer == "dft":
                assert rec.error == "LinAlgError: SVD did not converge"
            else:
                assert rec.error is None
                assert np.array_equal(rec.capacity, ref.capacity)


class TestSweepSettings:
    """A name list holds at least one name and none twice, in settings and configs alike."""

    CASES = [
        ({"beamformers": ("geb", "pe-am", "pe-am"), "combiners": ("zf", "zf")},
         "duplicate names in 'beamformers'"),
        ({"combiners": ("zf", "lmmse", "zf")}, "duplicate names in 'combiners'"),
        ({"beamformers": ()}, "'beamformers' must list at least one name"),
        ({"combiners": ()}, "'combiners' must list at least one name"),
    ]

    @pytest.mark.parametrize("lists, message", CASES)
    def test_settings_reject_empty_or_repeated_names(self, lists, message):
        with pytest.raises(ValueError) as info:
            SweepSettings(group=0, **lists)
        assert str(info.value) == message

    @pytest.mark.parametrize("lists, message", CASES)
    def test_configs_give_the_same_messages_with_their_line(self, lists, message):
        text = resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()
        key, names = next(iter(lists.items()))
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {' '.join(names)}", text)
        line = 1 + text.splitlines().index(f"{key} = {' '.join(names)}")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"line {line}: {message}"


def _mobile_bytes(scn):
    """Bytes of one angle's mobile-group CCMs, what the unit budget counts."""
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

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_angle_equals_a_rebuild(self, case, monkeypatch):
        scn, group = self.CASES[case]()
        phis = [-3.0, 0.0, 4.5]
        settings = SweepSettings(group=group, beamformers=("geb", "dft"), combiners=("zf",),
                                 trials=2, block_length=32, seed=5)
        original_build, original_evaluate = metrics.build_covariances, metrics._evaluate_unit

        def recording_build(scn_phi, **kwargs):
            blocks.append(kwargs["phis"])
            return original_build(scn_phi, **kwargs)

        def recording_evaluate(entries, stages, phis, tokens, cfg):
            for scn_phi, cov, stats, geb in entries:
                built.append((scn_phi, cov))
                solved.append((stats, geb))
            return original_evaluate(entries, stages, phis, tokens, cfg)

        def counting_factor(r):
            factored.append(r.shape)
            return original_factor(r)

        original_factor = channel.psd_factor
        monkeypatch.setattr(metrics, "build_covariances", recording_build)
        monkeypatch.setattr(metrics, "_evaluate_unit", recording_evaluate)
        monkeypatch.setattr(channel, "psd_factor", counting_factor)
        # units of 1, 2 and 5 angles (one unit, larger than the grid); a unit of one is a
        # lone build, with no unit axis
        for size in (1, 2, 5):
            monkeypatch.setattr(metrics, "_UNIT_BYTES", size * _mobile_bytes(scn))
            built, solved, blocks, factored = [], [], [], []
            result = phi_sweep(scn, phis, settings)
            assert not result.errors()
            units = [phis[i:i + size] for i in range(0, 3, size)]
            assert [None if b is None else list(b) for b in blocks] == [
                unit if len(unit) > 1 else None for unit in units]
            # one factor call per unit, before the link pass needs it
            assert len(factored) == len(units)
            assert [s.phi for s, _ in built] == phis and len(solved) == len(phis)

            for phi, (scn_phi, cov), (stats, geb) in zip(phis, built, solved):
                ref_scn = scn.with_phi(phi)
                ref_cov = build_covariances(ref_scn, n_quad=settings.n_quad)
                ref_stats = group_statistics(ref_cov, group)
                ref_geb = compute_geb(ref_stats, ref_scn.groups[group].n_chains)
                assert scn_phi == ref_scn
                for g, spec in enumerate(scn.groups):
                    # the non-mobile groups' CCMs are the sweep's, built once
                    assert (cov.stacks[g] is result.fixed.stacks.get(g)) != spec.mobile
                    for k in range(spec.n_users):
                        for delay in spec.delays:
                            assert np.array_equal(ccm(cov, g, k, delay),
                                                  ccm(ref_cov, g, k, delay))
                assert np.array_equal(stats.r_s, ref_stats.r_s)
                assert np.array_equal(stats.r_eta, ref_stats.r_eta)
                assert np.array_equal(geb.s, ref_geb.s)
                assert np.array_equal(geb.gen_eigenvalues, ref_geb.gen_eigenvalues)
                # the unit's sampling factors, filled before the link pass
                assert group in cov._factors
                assert np.array_equal(cov.factors(group), ref_cov.factors(group))

    @pytest.mark.parametrize("fault", ["toeplitz", "psd"])
    def test_failure_stays_with_its_angle(self, fault, monkeypatch):
        """A fault planted at the middle angle of a 3-angle unit fails that angle alone,
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
            else:  # Toeplitz, but indefinite: the GEB stands, the sampling factors fail
                out[hit] -= 10.0 * np.eye(m)
            return out

        monkeypatch.setattr(channel, "ccm_one_ring", planted)
        units = []
        original_build = metrics.build_covariances

        def recording_build(scn_phi, **kwargs):
            # a unit of one is a lone build at its own angle, with no unit axis
            lone = kwargs["phis"] is None
            units.append([scn_phi.phi] if lone else list(kwargs["phis"]))
            return original_build(scn_phi, **kwargs)

        monkeypatch.setattr(metrics, "build_covariances", recording_build)
        result = phi_sweep(scn, phis, settings)
        assert units[0] == phis
        # a failed factor leaves the unit standing; a failed design is made again as units
        # of one
        assert units[1:] == ([] if fault == "psd" else [[phi] for phi in phis])
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
        assert cov.stacks[1] is fixed.stacks[1]
        with pytest.raises(ValueError, match="another scenario or n_quad"):
            build_covariances(scn.with_phi(7.0), n_quad=65, fixed=fixed)
        with pytest.raises(ValueError, match="another scenario or n_quad"):
            build_covariances(two_group_toy(), n_quad=64, fixed=fixed)

    def test_bad_quadrature_rejected_before_the_sweep(self):
        with pytest.raises(ValueError, match="n_quad"):
            SweepSettings(group=0, n_quad=4)


def _same_records(result, reference):
    assert len(result.records) == len(reference.records)
    for rec, ref in zip(result.records, reference.records):
        assert (rec.phi, rec.beamformer, rec.combiner, rec.error) == (ref.phi, ref.beamformer,
                                                                      ref.combiner, ref.error)
        if rec.error is None:
            assert np.array_equal(rec.capacity, ref.capacity)
            assert (rec.expected_sinr, rec.nmse) == (ref.expected_sinr, ref.nmse)


def _same_stages(stages, reference):
    assert list(stages) == list(reference)
    for name, stage in stages.items():
        if isinstance(stage, Exception):
            assert f"{type(stage).__name__}: {stage}" == (f"{type(reference[name]).__name__}:"
                                                         f" {reference[name]}")
        else:
            assert np.array_equal(stage, reference[name])


class TestBatches:
    """Each design of a unit of angles runs as one stack; a beampattern angle on the grid
    takes its twin's stages."""

    PHIS = [-3.0, 0.0, 4.5, 7.0]
    SETTINGS = SweepSettings(group=0, beamformers=tuple(metrics.DESIGNS), combiners=("zf",),
                             trials=2, block_length=32, seed=5, n_restarts=4)

    @classmethod
    def lone_stages(cls, scn, phi, cfg):
        """Every design at ``phi``, one design call at a time, with the seed token of its
        grid twin in PHIS, or -1 off the grid."""
        token = cls.PHIS.index(phi) if phi in cls.PHIS else -1
        [(scn_phi, _, stats, geb)] = metrics.angle_design(fixed_covariances(scn, cfg.n_quad),
                                                          phi, cfg)
        return {name: build_beamformer(name, scn_phi, stats, cfg.group, cfg,
                                       _derived_seed(cfg.seed, token, 1), geb)
                for name in cfg.beamformers}

    @pytest.mark.usefixtures("one_process")
    def test_batch_sizes_leave_every_record_and_stage_unchanged(self, monkeypatch):
        scn = table1_scenario(m=16)
        stacks = {"pe_am": [], "dynamic_subarray": []}

        def recording(name):
            original = getattr(constrained, name)

            def recorded(s_geb, *args, **kwargs):
                stacks[name].append(len(s_geb))
                return original(s_geb, *args, **kwargs)
            return recorded

        for name in stacks:
            monkeypatch.setattr(constrained, name, recording(name))
        whole = phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi=0.0)
        # one unit of the four angles; the beampattern angle takes its grid twin's stages
        # and adds no member
        assert stacks == {"pe_am": [4], "dynamic_subarray": [4]}
        assert not whole.errors()
        _same_stages(whole.pattern, self.lone_stages(scn, 0.0, self.SETTINGS))
        # units of one, two and three angles; a unit of one makes lone calls, stacks of one
        for size, pe_am, dynamic in ((1, [1, 1, 1, 1], [1, 1, 1, 1]), (2, [2, 2], [2, 2]),
                                     (3, [3, 1], [3, 1])):
            monkeypatch.setattr(metrics, "_UNIT_BYTES", size * _mobile_bytes(scn))
            for calls in stacks.values():
                calls.clear()
            result = phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi=0.0)
            assert stacks == {"pe_am": pe_am, "dynamic_subarray": dynamic}
            _same_records(result, whole)
            _same_stages(result.pattern, whole.pattern)

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("pattern_phi", [0.0, 7.0])
    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_the_beampattern_is_the_evaluated_design(self, monkeypatch, size, pattern_phi):
        # on the grid, each design's pattern is the very stage the twin's evaluation scored
        scn = table1_scenario(m=16)
        evaluated, original = {}, metrics._evaluate_unit

        def recording(entries, stages, phis, tokens, cfg):
            for phi, made in zip(phis, stages):
                evaluated[phi] = dict(made)
            return original(entries, stages, phis, tokens, cfg)

        monkeypatch.setattr(metrics, "_evaluate_unit", recording)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", size * _mobile_bytes(scn))
        result = phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi=pattern_phi)
        assert not result.errors()
        assert list(result.pattern) == list(self.SETTINGS.beamformers)
        for name, stage in result.pattern.items():
            assert np.array_equal(stage, evaluated[pattern_phi][name])

    @pytest.mark.parametrize("m, size", [(32, 32), (128, 2)])
    def test_one_budget_sizes_the_units(self, m, size):
        # six m x m complex mobile CCMs per table1 angle, within 3 MiB per unit
        scn = table1_scenario(m=m)
        assert metrics._UNIT_BYTES == 3 << 20
        assert metrics._unit_size(scn) == size == metrics._UNIT_BYTES // _mobile_bytes(scn)

    @pytest.mark.parametrize("size, units", [(2, [[-3.0, 0.0], [4.5, 7.0], [9.0]]),
                                             (3, [[-3.0, 0.0, 4.5], [7.0, 9.0]])])
    @pytest.mark.usefixtures("one_process")
    def test_phase_extraction_runs_once_per_unit(self, monkeypatch, size, units):
        scn = table1_scenario(m=16)
        cfg = dataclasses.replace(self.SETTINGS, beamformers=("geb", "pe"))
        calls, original = [], constrained.phase_extraction

        def recorded(s_geb):
            calls.append(np.array(s_geb))
            return original(s_geb)

        monkeypatch.setattr(constrained, "phase_extraction", recorded)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", size * _mobile_bytes(scn))
        # the beampattern angle takes its grid twin's PE stage: it adds no member
        result = phi_sweep(scn, [phi for unit in units for phi in unit], cfg, pattern_phi=0.0)
        assert not result.errors()
        fixed = fixed_covariances(scn, cfg.n_quad)
        assert len(calls) == len(units)
        for s, unit in zip(calls, units):
            phis = np.array(unit) if len(unit) > 1 else unit[0]  # a unit of one: no unit axis
            entries = metrics.angle_design(fixed, phis, cfg)
            assert np.array_equal(s, np.stack([geb.s for *_, geb in entries]))

    def test_off_grid_pattern_angle_is_a_batch_of_its_own(self, monkeypatch):
        scn = table1_scenario(m=16)
        stacks, builds = [], []
        original, original_build = constrained.pe_am, metrics.build_covariances

        def recording(s_geb, **kwargs):
            stacks.append(len(s_geb))
            return original(s_geb, **kwargs)

        def recording_build(scn_phi, **kwargs):
            builds.append(kwargs["phis"])
            return original_build(scn_phi, **kwargs)

        monkeypatch.setattr(constrained, "pe_am", recording)
        monkeypatch.setattr(metrics, "build_covariances", recording_build)
        result = phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi=0.5)
        assert stacks == [4, 1]
        assert len(builds) == 2 and builds[1] is None  # one unit, then a unit of one
        _same_stages(result.pattern, self.lone_stages(scn, 0.5, self.SETTINGS))
        _same_records(result, phi_sweep(scn, self.PHIS, self.SETTINGS))

    def test_a_sweep_without_am_designs_makes_no_am_call(self, monkeypatch):
        def no_am(*args, **kwargs):
            raise AssertionError("an AM design ran without being configured")

        for name in ("pe_am", "fixed_subarray", "dynamic_connection", "dynamic_subarray"):
            monkeypatch.setattr(constrained, name, no_am)
        cfg = dataclasses.replace(self.SETTINGS, beamformers=("geb", "dft", "pe"))
        result = phi_sweep(table1_scenario(m=16), self.PHIS, cfg, pattern_phi=4.5)
        assert not result.errors()
        _same_stages(result.pattern, self.lone_stages(table1_scenario(m=16), 4.5, cfg))

    @pytest.mark.parametrize("fault", ["exhaustion", "singular"])
    def test_a_failing_member_fails_only_its_own_designs(self, fault, monkeypatch):
        """A fault planted in one member of a stack fails that member's design alone, with
        the message its lone call gives; every other angle keeps its results bit for bit,
        and the beampattern angle, the bad angle's grid twin, carries the same errors."""
        scn, bad = table1_scenario(m=16), 0.0
        clean = phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi=bad)
        if fault == "exhaustion":
            # every restart of the bad angle's dynamic design leaves chain 3 unconnected
            first = _derived_seed(self.SETTINGS.seed, self.PHIS.index(bad), 1)
            doomed = {first + t + 1 for t in range(self.SETTINGS.n_restarts)}
            original = constrained.dynamic_connection

            def planted(s, seeds, tol, max_iter):
                candidates, traces = original(s, seeds, tol, max_iter)
                for r, seed in enumerate(seeds):
                    if seed in doomed:
                        candidates[r, :, 0] += candidates[r, :, 3]
                        candidates[r, :, 3] = 0.0
                return candidates, traces

            monkeypatch.setattr(constrained, "dynamic_connection", planted)
            failing, message = {"dynamic"}, ("CandidateExhaustionError: no connection candidate"
                                              " used every RF chain after 4 restarts;"
                                              " increase n_restarts")
        else:
            # the bad angle's fixed-subarray solve is singular: both fixed designs and the
            # dynamic design's refinement fail there
            [(_, _, _, geb)] = metrics.angle_design(fixed_covariances(scn, 200), bad,
                                                    self.SETTINGS)
            original = constrained.fixed_subarray

            def planted(s_geb, connection, **kwargs):
                if any(np.array_equal(s, geb.s) for s in np.reshape(s_geb, (-1, 16, 4))):
                    raise np.linalg.LinAlgError("Singular matrix")
                return original(s_geb, connection, **kwargs)

            monkeypatch.setattr(constrained, "fixed_subarray", planted)
            failing = {"fixed-ordered", "fixed-interlaced", "dynamic"}
            message = "LinAlgError: Singular matrix"
        result = phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi=bad)
        assert {(r.phi, r.beamformer) for r in result.errors()} == {(bad, n) for n in failing}
        assert all(r.error == message for r in result.errors())
        for rec, ref in zip(result.records, clean.records):
            if rec.error is None:
                assert np.array_equal(rec.capacity, ref.capacity)
                assert (rec.expected_sinr, rec.nmse) == (ref.expected_sinr, ref.nmse)
        for name, stage in result.pattern.items():
            if name in failing:
                assert f"{type(stage).__name__}: {stage}" == message
            else:
                assert np.array_equal(stage, clean.pattern[name])


class TestPatternChunks:
    @pytest.mark.parametrize("m", [16, 32, 127, 128])
    def test_chunks_give_the_columns_and_powers_of_the_whole_grid(self, m):
        thetas = -90.0 + 0.05 * np.arange(3601)
        whole = steering_matrix(thetas, m)
        s = random_orthonormal(np.random.default_rng(m), m, 4)
        powers = beampattern(s, whole)
        for chunk in (64, 256, 1000):
            for start in range(0, len(thetas), chunk):
                part = steering_matrix(thetas[start:start + chunk], m)
                assert np.array_equal(part, whole[:, start:start + chunk])
                assert np.array_equal(beampattern(s, part), powers[start:start + chunk])


class TestLinkBudget:
    """A unit's link pass gives every record, failure and sample bit for bit alike at any
    element budget."""

    PHIS = [-3.0, 0.0, 4.5]
    NAMES = ("geb", "dft", "pe")

    def sweep(self, budget, cfg, faulty_trial):
        """Records and link samples of a sweep whose first angle's draw of ``faulty_trial``
        (if any) is NaN, so that its ZF pairs fail naming that trial."""
        passes, draw, original = [], linksim.white_coefficients, linksim.ergodic_capacity

        def drawing(rng, trials, factors):
            z = draw(rng, trials, factors)
            if faulty_trial is not None and not passes:
                z[faulty_trial] = np.nan
            return z

        def recording(*args, **kwargs):
            link = original(*args, **kwargs)
            passes.append(link.samples)
            return link

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(linksim, "_BLOCK_ELEMENTS", budget)
            monkeypatch.setattr(linksim, "white_coefficients", drawing)
            monkeypatch.setattr(linksim, "ergodic_capacity", recording)
            result = phi_sweep(table1_scenario(m=16), self.PHIS, cfg)
        return result.records, passes

    @hypothesis.seed(20261026)
    @settings(max_examples=12, deadline=None, database=None)
    @given(trials=st.integers(1, 9), seed=st.integers(0, 2**31), data=st.data())
    def test_one_pair_and_the_whole_unit_agree(self, trials, seed, data):
        # and a budget that splits each pair's trials, leaving a tail
        split = data.draw(st.integers(1, trials))
        faulty_trial = data.draw(st.none() | st.integers(0, trials - 1))
        cfg = SweepSettings(group=0, beamformers=self.NAMES, combiners=("zf", "lmmse"),
                            trials=trials, block_length=32, seed=seed)
        unit, unit_passes = self.sweep(len(self.PHIS) * len(self.NAMES) * trials, cfg,
                                       faulty_trial)
        for budget in (trials, split):
            records, passes = self.sweep(budget, cfg, faulty_trial)
            assert len(passes) == len(unit_passes) == 1
            assert np.array_equal(passes[0], unit_passes[0], equal_nan=True)
            assert len(records) == len(unit)
            errors = set()
            for rec, ref in zip(records, unit):
                assert (rec.phi, rec.beamformer, rec.combiner, rec.error) == (
                    ref.phi, ref.beamformer, ref.combiner, ref.error)
                assert (rec.expected_sinr, rec.nmse) == (ref.expected_sinr, ref.nmse)
                assert rec.error is not None or np.array_equal(rec.capacity, ref.capacity,
                                                               equal_nan=True)
                errors.add(rec.error)
            # the faulty draw fails the first angle's ZF pairs, naming the angle's own trial
            assert errors == ({None} if faulty_trial is None else {
                None, "SingularBinError: effective channel at bin 0 of trial "
                      f"{faulty_trial} is rank deficient"})


_WORKER = metrics._Worker


def _cpus(monkeypatch, n):
    """Let the sweep see n CPUs; returns the list of the workers it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forked = []

    def counted(work, what):
        forked.append(what)
        return _WORKER(work, what)

    monkeypatch.setattr(metrics, "_Worker", counted)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """A sweep forks one worker per chunk of units but the first; no record, stage or CSV
    byte depends on how many processes swept the grid."""

    PHIS = [-3.0, -1.0, 0.0, 2.5, 4.5, 6.0, 7.0]
    # the dynamic design draws from its angle's seed token, so a pattern designed off the
    # grid (token -1) differs from its grid twin's
    SETTINGS = SweepSettings(group=0, beamformers=("geb", "dft", "pe", "dynamic"),
                             combiners=("zf", "lmmse"), estimator="lmmse", trials=2,
                             block_length=32, seed=5, n_restarts=4)

    def sweeps(self, monkeypatch, pattern_phi=None, unit=1):
        """The sweep of PHIS at 1, 2 and 3 CPUs, in units of ``unit`` angles, with the
        chunks of grid angles each sweep's workers took."""
        scn = table1_scenario(m=16)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", unit * _mobile_bytes(scn))
        results = []
        for n in (1, 2, 3):
            forked = _cpus(monkeypatch, n)
            results.append((phi_sweep(scn, self.PHIS, self.SETTINGS, pattern_phi), forked))
            _no_child_left()
        return results

    # 7 angles in 2 chunks are angles 0..2 and 3..6, in 3 chunks 0..1, 2..3 and 4..6
    @pytest.mark.parametrize("pattern_phi", [None, -1.0, 6.0, 0.5])
    @pytest.mark.parametrize("unit", [1, 2])
    def test_any_process_count_gives_the_same_records_and_pattern(self, monkeypatch, unit,
                                                                  pattern_phi):
        (one, none), (two, forked_two), (three, forked_three) = self.sweeps(
            monkeypatch, pattern_phi, unit)
        assert none == []
        assert forked_two == ["grid angles 3..6"]
        assert forked_three == ["grid angles 2..3", "grid angles 4..6"]
        assert not one.errors() and len(one.records) == len(self.PHIS) * 4 * 2
        for result in (two, three):
            _same_records(result, one)
            if pattern_phi is None:
                assert result.pattern is None
            else:
                _same_stages(result.pattern, one.pattern)

    @pytest.mark.parametrize("fault", ["toeplitz", "psd"])
    def test_failed_angles_read_the_same_in_a_worker(self, monkeypatch, fault):
        # the planted CCM fault of TestFixedCovariances, at an angle of the last chunk
        scn, bad = table1_scenario(m=16), 6.0
        original, mu_bad = channel.ccm_one_ring, scn.groups[0].mean_aoa[0, 0] + bad

        def planted(mu, delta, power, m, n_quad=channel.DEFAULT_N_QUAD):
            out = original(mu, delta, power, m, n_quad)
            hit = np.asarray(mu)[..., 0, 0] == mu_bad
            if fault == "toeplitz":
                out[hit, ..., 0, 1] += 0.5
            else:
                out[hit] -= 10.0 * np.eye(m)
            return out

        monkeypatch.setattr(channel, "ccm_one_ring", planted)
        (one, _), (two, forked_two), (three, forked_three) = self.sweeps(monkeypatch, bad,
                                                                         unit=2)
        assert len(forked_two) == 1 and len(forked_three) == 2
        assert {r.phi for r in one.errors()} == {bad}
        assert len(one.errors()) == 4 * 2
        for result in (two, three):
            _same_records(result, one)
            _same_stages(result.pattern, one.pattern)

    def test_csvs_are_byte_identical(self, monkeypatch, tmp_path):
        from jsdmsim import runner
        text = resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()
        for key, value in {"antennas": "16", "phi_start": "-3", "phi_stop": "3",
                           "phi_step": "1", "trials": "3", "beampattern_phi": "2",
                           "beamformers": "geb dft pe"}.items():
            text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
            assert hits == 1, key
        cfg = parse_config(text)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", 2 * _mobile_bytes(cfg.scenario))
        outputs = []
        for n in (1, 2, 3):
            forked = _cpus(monkeypatch, n)
            assert runner.run(cfg, tmp_path / str(n))["exit_code"] == 0
            assert len(forked) == n - 1
            outputs.append([(tmp_path / str(n) / name).read_bytes()
                            for name in ("results.csv", "cdf.csv", "beampattern.csv")])
        _no_child_left()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_a_worker_error_propagates_with_its_type(self, monkeypatch):
        # a programming error in a worker's chunk, not one of ANGLE_ERRORS
        parent, original = os.getpid(), metrics.compute_geb

        def broken_geb(stats, n_chains):
            if os.getpid() != parent:
                raise TypeError("planted")
            return original(stats, n_chains)

        monkeypatch.setattr(metrics, "compute_geb", broken_geb)
        scn = table1_scenario(m=16)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", _mobile_bytes(scn))
        forked = _cpus(monkeypatch, 3)
        with pytest.raises(TypeError) as info:
            phi_sweep(scn, self.PHIS, self.SETTINGS)
        assert str(info.value) == "planted" and len(forked) == 2
        assert "raised in the sweep worker for grid angles 2..3" in info.value.__notes__[0]
        _no_child_left()

    def test_an_error_that_cannot_be_pickled_names_its_type(self):
        class Unpicklable(Exception):  # a local class: pickle cannot find it by name
            pass

        def broken():
            raise Unpicklable("planted")

        worker = metrics._Worker(broken, "a test")
        with pytest.raises(RuntimeError) as info:
            worker.result()
        assert str(info.value) == "Unpicklable: planted"
        worker.stop()
        _no_child_left()

    def test_a_dead_worker_is_named_with_its_exit_status(self, monkeypatch):
        parent, original = os.getpid(), metrics._sweep_unit

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args)

        monkeypatch.setattr(metrics, "_sweep_unit", dying)
        scn = table1_scenario(m=16)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", _mobile_bytes(scn))
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="grid angles 3..6 died with exit status 3$"):
            phi_sweep(scn, self.PHIS, self.SETTINGS)
        _no_child_left()

    def test_an_error_in_the_parent_stops_every_worker(self, monkeypatch):
        # the workers would take a minute; the parent's error kills them at once
        parent = os.getpid()

        def broken_geb(stats, n_chains):
            if os.getpid() == parent:
                raise TypeError("planted")
            time.sleep(60)

        monkeypatch.setattr(metrics, "compute_geb", broken_geb)
        scn = table1_scenario(m=16)
        monkeypatch.setattr(metrics, "_UNIT_BYTES", _mobile_bytes(scn))
        forked = _cpus(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(TypeError, match="planted"):
            phi_sweep(scn, self.PHIS, self.SETTINGS)
        assert len(forked) == 2 and time.monotonic() - start < 30
        _no_child_left()

    @pytest.mark.parametrize("case", ["one-unit", "no-fork", "no-affinity", "threads"])
    def test_one_process_sweeps(self, monkeypatch, case):
        scn = table1_scenario(m=16)
        forked = _cpus(monkeypatch, 2)
        monkeypatch.setattr(metrics, "_UNIT_BYTES",
                            (len(self.PHIS) if case == "one-unit" else 1) * _mobile_bytes(scn))
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "threads":
            thread.start()
        try:
            result = phi_sweep(scn, self.PHIS[:3], self.SETTINGS)
        finally:
            done.set()
            if case == "threads":
                thread.join()
        assert forked == [] and not result.errors()
