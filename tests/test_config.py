"""Config rules that must fail in parse_config rather than at every angle of a run."""

import dataclasses
import re
from dataclasses import fields
from importlib import resources
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jsdmsim import build_covariances, compute_geb, config, group_statistics
from jsdmsim.channel import DEFAULT_N_QUAD, SpecError
from jsdmsim.cli import main
from jsdmsim.config import ConfigError, ExperimentConfig, OutputSettings, parse_config
from jsdmsim.constrained import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL
from jsdmsim.linksim import COMBINER_NAMES
from jsdmsim.metrics import DESIGNS, ESTIMATOR_NAMES, SweepSettings, build_beamformer

from conftest import two_group_toy


def bundled_text():
    return resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()


def line_of(text, pattern):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if re.match(pattern, line):
            return lineno
    raise AssertionError(f"no line matches {pattern!r}")


class TestBlockLength:
    def test_shorter_than_taps_rejected_with_its_line(self):
        text = re.sub(r"(?m)^block_length\s*=.*$", "block_length = 16", bundled_text())
        with pytest.raises(ConfigError,
                           match=rf"^line {line_of(text, r'block_length')}: block_length 16"):
            parse_config(text)

    def test_default_shorter_than_taps_names_the_taps_line(self):
        text = re.sub(r"(?m)^block_length\s*=.*$", "", bundled_text())
        text = re.sub(r"(?m)^taps\s*=.*$", "taps = 65", text)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'taps')}: block_length 64"):
            parse_config(text)

    def test_equal_to_taps_accepted(self):
        text = re.sub(r"(?m)^block_length\s*=.*$", "block_length = 32", bundled_text())
        assert parse_config(text).sweep.block_length == 32

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text(re.sub(r"(?m)^block_length\s*=.*$", "block_length = 16", bundled_text()))
        assert main(["validate", str(path)]) != 0
        assert "block_length 16" in capsys.readouterr().err


def test_coarse_quadrature_rejected_with_its_line():
    text = re.sub(r"(?m)^n_quad\s*=.*$", "n_quad = 4", bundled_text())
    with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'n_quad')}: n_quad must be >= 8"):
        parse_config(text)


@pytest.mark.parametrize("value", ["0", "0.0", "-1.0"])
def test_non_positive_noise_rejected_with_its_line(value):
    # zero noise makes R_eta singular, so the GEB would fail at every angle
    text = re.sub(r"(?m)^noise_power\s*=.*$", f"noise_power = {value}", bundled_text())
    with pytest.raises(ConfigError,
                       match=rf"^line {line_of(text, r'noise_power')}: noise_power must be positive"):
        parse_config(text)


class TestSubarrayChains:
    @pytest.mark.parametrize("design", ["fixed-ordered", "fixed-interlaced"])
    def test_chains_not_dividing_antennas_rejected_with_the_beamformers_line(self, design):
        text = re.sub(r"(?m)^antennas\s*=.*$", "antennas = 32", bundled_text())
        text = re.sub(r"(?m)^chains\s*=.*$", "chains = 3", text, count=1)
        text = re.sub(r"(?m)^beamformers\s*=.*$", f"beamformers = geb {design}", text)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'beamformers')}: {design}"
                                              r".*chain count 3 must divide antenna count 32"):
            parse_config(text)

    def test_other_designs_and_groups_unaffected(self):
        text = re.sub(r"(?m)^antennas\s*=.*$", "antennas = 32", bundled_text())
        # chains = 3 on the evaluated group, but no fixed-subarray design
        assert parse_config(re.sub(r"(?m)^chains\s*=.*$", "chains = 3", text, count=1))
        # chains = 3 on an interferer only: the evaluated group still divides
        text = re.sub(r"(?m)^beamformers\s*=.*$", "beamformers = fixed-ordered", text)
        lines = text.splitlines()
        second = [i for i, line in enumerate(lines) if line.startswith("chains")][1]
        lines[second] = "chains = 3"
        assert parse_config("\n".join(lines)).sweep.beamformers == ("fixed-ordered",)


class TestZfChains:
    """zf needs at least as many RF chains as users in the evaluated group."""

    def test_fewer_chains_than_users_rejected_with_the_chains_line(self):
        text = re.sub(r"(?m)^chains\s*=.*$", "chains = 1", bundled_text(), count=1)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'chains')}: zf on group 1"
                                              r" needs chains >= users, got 1 chains for 2 users"):
            parse_config(text)

    def test_lmmse_only_and_interferers_unaffected(self):
        text = re.sub(r"(?m)^chains\s*=.*$", "chains = 1", bundled_text(), count=1)
        lmmse_only = re.sub(r"(?m)^combiners\s*=.*$", "combiners = lmmse", text)
        assert parse_config(lmmse_only).sweep.combiners == ("lmmse",)
        # chains = 1 on an interferer only: the evaluated group keeps 4 chains
        lines = bundled_text().splitlines()
        second = [i for i, line in enumerate(lines) if line.startswith("chains")][1]
        lines[second] = "chains = 1"
        assert parse_config("\n".join(lines)).sweep.combiners == ("zf", "lmmse")

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "one_chain.cfg"
        path.write_text(re.sub(r"(?m)^chains\s*=.*$", "chains = 1", bundled_text(), count=1))
        assert main(["validate", str(path)]) != 0
        assert "needs chains >= users" in capsys.readouterr().err


class TestNameTable:
    """The design, combiner and estimator tables are the only lists of names."""

    @pytest.mark.parametrize("name", list(DESIGNS))
    def test_every_design_builds_an_m_by_d_beamformer(self, name):
        scn = two_group_toy()
        cov = build_covariances(scn, n_quad=64)
        stats = group_statistics(cov, 0)
        settings = SweepSettings(group=0, beamformers=(name,), n_quad=64, n_restarts=3)
        geb = compute_geb(stats, cov.factors(0), scn.groups[0].n_chains)
        s_eff = build_beamformer(name, scn, stats, 0, settings, seed=1, geb=geb)
        assert s_eff.shape == (scn.n_antennas, scn.groups[0].n_chains)
        assert np.all(np.isfinite(s_eff))

    KINDS = {
        "beamformer": ("beamformers", DESIGNS, ("geb", "bogus")),
        "combiner": ("combiners", COMBINER_NAMES, ("zf", "bogus")),
        "estimator": ("estimator", ESTIMATOR_NAMES, "bogus"),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_unknown_name_rejected_listing_the_table(self, kind):
        key, table, value = self.KINDS[kind]
        allowed = re.escape(f"(allowed: {' '.join(table)})")
        with pytest.raises(ValueError, match=rf"unknown {kind} 'bogus' {allowed}"):
            SweepSettings(group=0, **{key: value})
        listed = value if isinstance(value, str) else " ".join(value)
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {listed}", bundled_text())
        with pytest.raises(ConfigError,
                           match=rf"^line {line_of(text, key)}: unknown {kind} 'bogus' {allowed}"):
            parse_config(text)


class TestNumerics:
    """tol, max_iter and n_restarts values that would fail (or skip) every angle."""

    @pytest.mark.parametrize("key, value, rule", [
        ("tol", "0", "positive"), ("tol", "-1e-8", "positive"), ("tol", "nan", "positive"),
        ("max_iter", "0", ">= 1"), ("max_iter", "-3", ">= 1"),
        ("n_restarts", "0", ">= 1"),
    ])
    def test_rejected_with_its_line(self, key, value, rule):
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", bundled_text())
        with pytest.raises(ConfigError,
                           match=rf"^line {line_of(text, key)}: {key} must be {re.escape(rule)}"):
            parse_config(text)

    @pytest.mark.parametrize("field, value", [("tol", 0.0), ("tol", -1e-8), ("max_iter", 0),
                                              ("n_restarts", 0), ("n_quad", 4),
                                              ("pilot_length", 0), ("pilot_energy", 0.0),
                                              ("trials", 0)])
    def test_sweep_settings_reject_them(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            SweepSettings(group=0, **{field: value})

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "no_restarts.cfg"
        path.write_text(re.sub(r"(?m)^n_restarts\s*=.*$", "n_restarts = 0", bundled_text()))
        assert main(["validate", str(path)]) != 0
        assert "n_restarts must be >= 1" in capsys.readouterr().err


class TestLsPilotLength:
    """With estimator = ls, the pilots must be at least users x active delays long."""

    @staticmethod
    def ls_text(pilot_length):
        text = re.sub(r"(?m)^estimator\s*=.*$", "estimator = ls", bundled_text())
        return re.sub(r"(?m)^pilot_length\s*=.*$", f"pilot_length = {pilot_length}", text)

    def test_shorter_rejected_with_its_line(self):
        text = self.ls_text(5)  # group 1: 2 users x 3 active delays
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'pilot_length')}:"
                                              r" pilot_length 5 is shorter than the 6 users"):
            parse_config(text)

    def test_boundary_is_the_estimator_rule(self):
        from jsdmsim.chanest import PilotDesignError, build_pilots, ls_estimator
        # delays 0, 4, 5: six unknowns and no two delays alike modulo 6
        cfg = parse_config(self.ls_text(6).replace("mpc 11 =", "mpc 4 =", 1))
        scn, spec = cfg.scenario, cfg.scenario.groups[cfg.sweep.group]
        assert ls_estimator(build_pilots(scn, cfg.sweep.group, 6, 1), spec.delays, 4).shape[0] == 24
        with pytest.raises(PilotDesignError):
            ls_estimator(build_pilots(scn, cfg.sweep.group, 5, 1), spec.delays, 4)

    def test_aliased_delays_rejected_with_its_line(self):
        from jsdmsim.chanest import PilotDesignError, build_pilots, ls_estimator
        text = self.ls_text(6)  # delays 5 and 11 are the same cyclic shift of 6 pilots
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'pilot_length')}:"
                                              r" active delays 5 and 11 of group 1 coincide"):
            parse_config(text)
        cfg = parse_config(self.ls_text(7))
        with pytest.raises(PilotDesignError):
            ls_estimator(build_pilots(cfg.scenario, cfg.sweep.group, 6, 1), (0, 5, 11), 4)

    def test_default_length_names_the_estimator_line(self):
        text = re.sub(r"(?m)^pilot_length\s*=.*$\n", "", self.ls_text(0))
        extra = "".join(f"mpc {delay} = 0.5 1.5\n" for delay in (13, 14, 15, 16, 18, 19))
        text = text.replace("mpc 11 = 16.5 17.5\n", "mpc 11 = 16.5 17.5\n" + extra, 1)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'estimator')}:"
                                              r" pilot_length 16 is shorter than the 18 users"):
            parse_config(text)

    def test_other_estimators_unaffected(self):
        text = re.sub(r"(?m)^pilot_length\s*=.*$", "pilot_length = 5", bundled_text())
        assert parse_config(text).sweep.pilot_length == 5


class TestPilotsAndTrials:
    """Pilot and trial values that would fail every angle, from the same rule table."""

    @staticmethod
    def text_with(key, value):
        text = bundled_text().replace("pilot_length = 10\n",
                                      "pilot_length = 10\npilot_energy = 1.0\n", 1)
        return re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)

    @pytest.mark.parametrize("key, value, rule", [
        ("pilot_length", "0", ">= 1"), ("pilot_length", "-2", ">= 1"),
        ("pilot_energy", "0", "positive"), ("pilot_energy", "-1.0", "positive"),
        ("trials", "0", ">= 1"),
    ])
    def test_rejected_with_its_line(self, key, value, rule):
        text = self.text_with(key, value)
        with pytest.raises(ConfigError,
                           match=rf"^line {line_of(text, key)}: {key} must be {re.escape(rule)}"):
            parse_config(text)

    def test_boundary_values_accepted(self):
        assert parse_config(self.text_with("pilot_length", "1")).sweep.pilot_length == 1
        assert parse_config(self.text_with("pilot_energy", "0.5")).sweep.pilot_energy == 0.5
        assert parse_config(self.text_with("trials", "1")).sweep.trials == 1


class TestRanges:
    """One rule for the sweep and beampattern grids: step > 0 and stop >= start."""

    @staticmethod
    def text_with(key, value):
        text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", bundled_text())
        return text if hits else text + f"{key} = {value}\n"  # [output] is the last section

    @pytest.mark.parametrize("key, value, blamed, message", [
        ("phi_step", "0", "phi_step", "phi_step must be positive, got 0"),
        ("phi_step", "-0.1", "phi_step", "phi_step must be positive, got -0.1"),
        ("phi_stop", "-50", "phi_stop", "phi_stop -50 is below phi_start -45"),
        ("phi_start", "50", "phi_stop", "phi_stop 45 is below phi_start 50"),
        ("beampattern_step", "0", "beampattern_step", "beampattern_step must be positive, got 0"),
        ("beampattern_step", "-0.05", "beampattern_step",
         "beampattern_step must be positive, got -0.05"),
        ("beampattern_stop", "-100", "beampattern_stop",
         "beampattern_stop -100 is below beampattern_start -90"),
        # the stop is a default, so the start's line is cited
        ("beampattern_start", "100", "beampattern_start",
         "beampattern_stop 90 is below beampattern_start 100"),
    ])
    def test_rejected_with_the_offending_line(self, key, value, blamed, message):
        text = self.text_with(key, value)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, blamed)}: {message}$"):
            parse_config(text)

    def test_single_point_grids_accepted(self):
        cfg = parse_config(self.text_with("phi_stop", "-45"))
        assert list(cfg.phi_values()) == [-45.0]
        cfg = parse_config(self.text_with("beampattern_start", "90"))
        assert cfg.output.beampattern_start == cfg.output.beampattern_stop == 90.0

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "no_step.cfg"
        path.write_text(self.text_with("beampattern_step", "0"))
        assert main(["validate", str(path)]) != 0
        assert "beampattern_step must be positive" in capsys.readouterr().err


class TestGridSize:
    """A grid longer than numpy can hold in one array fails in parse_config, not in the run."""

    @pytest.mark.parametrize("key", ["phi_step", "beampattern_step"])
    def test_rejected_with_the_step_line(self, key):
        text = TestRanges.text_with(key, "1e-300")
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, key)}: {key} 1e-300 makes"
                                              r" a grid of .* points, more than the \d+ an"
                                              " array can hold$"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["phi_step", "beampattern_step"])
    def test_validate_reports_it(self, key, tmp_path, capsys):
        path = tmp_path / "endless.cfg"
        text = TestRanges.text_with(key, "1e-300")
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: line {line_of(text, key)}: {key} 1e-300 makes a grid of")

    def test_validate_counts_the_grid_without_building_it(self, tmp_path, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("validate built the grid")

        monkeypatch.setattr(config, "grid_values", unbuilt)
        path = tmp_path / "fine.cfg"
        path.write_text(TestRanges.text_with("phi_step", "1e-6"))
        assert main(["validate", str(path)]) == 0
        assert "(90000001 angles)" in capsys.readouterr().out


class TestGroupHeader:
    """A [group N] header takes a canonical positive integer N and nothing else."""

    @pytest.mark.parametrize("arg", ["x", "02", "0", "-1", "+2", "2.0", "\u00b2"])
    def test_rejected_with_its_line(self, arg):
        text = bundled_text().replace("[group 2]", f"[group {arg}]", 1)
        lineno = line_of(text, re.escape(f"[group {arg}]"))
        with pytest.raises(ConfigError, match=rf"^line {lineno}: section \[group\] takes an"
                                              " integer argument$"):
            parse_config(text)

    @pytest.mark.parametrize("arg", ["x", "02"])
    def test_validate_reports_it(self, arg, tmp_path, capsys):
        path = tmp_path / "group.cfg"
        text = bundled_text().replace("[group 2]", f"[group {arg}]", 1)
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        lineno = line_of(text, re.escape(f"[group {arg}]"))
        assert capsys.readouterr().err == (f"error: line {lineno}: section [group] takes an"
                                           " integer argument\n")


def edit_in_group(text, gid, pattern, line):
    """``text`` with the first line of [group gid] that matches ``pattern`` set to ``line``,
    and that line's number."""
    lines = text.splitlines()
    start = lines.index(f"[group {gid}]")
    i = next(i for i in range(start, len(lines)) if re.match(pattern, lines[i]))
    lines[i] = line
    return "\n".join(lines), i + 1


class TestGroupRules:
    """A GroupSpec or Scenario rule a config breaks is cited with the line of its key, or
    of the mpc D entry, and the 1-based group; each rule stays in GroupSpec or Scenario."""

    @pytest.mark.parametrize("gid, pattern, line, message", [
        (1, "chains", "chains = 500", "more RF chains than antennas"),
        (2, "chains", "chains = 500", "more RF chains than antennas"),
        (1, "chains", "chains = 0", "group must have at least one RF chain"),
        (2, "spread", "spread = -1", "angular spreads must be positive"),
        (1, "gain", "gain = 0", "channel gains must be positive"),
        (1, "symbol_energy_db", "symbol_energy_db = -4000", "symbol energy must be positive"),
        # the user count comes before the AoA count of each mpc entry
        (1, "users", "users = 0", "group must have at least one user"),
        (3, "users", "users = -2", "group must have at least one user"),
        # "mpc 05" is a second entry of delay 5: the repeat is cited
        (1, "mpc 11", "mpc 05 = 16.5 17.5", "active delays must be non-empty and distinct"),
    ])
    def test_group_rule_rejected_with_its_line_and_group(self, gid, pattern, line, message):
        text, lineno = edit_in_group(bundled_text(), gid, pattern, line)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"line {lineno}: group {gid}: {message}"

    @pytest.mark.parametrize("taps, gid, delay", [(3, 1, 5), (12, 3, 17)])
    def test_delay_past_the_taps_rejected_with_its_mpc_line(self, taps, gid, delay):
        text = re.sub(r"(?m)^taps\s*=.*$", f"taps = {taps}", bundled_text())
        lines = text.splitlines()
        lineno = lines.index(next(line for line in lines[lines.index(f"[group {gid}]"):]
                                  if line.startswith(f"mpc {delay} "))) + 1
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == (f"line {lineno}: group {gid}: active delay outside"
                                   f" 0..{taps - 1}")

    def test_no_antennas_rejected_with_its_line(self):
        text = re.sub(r"(?m)^antennas\s*=.*$", "antennas = 0", bundled_text())
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"line {line_of(text, 'antennas')}: antenna count must be >= 1"

    # a user count far past the entries is refused before any per-user array is built
    @pytest.mark.parametrize("users", [3, 10**12])
    def test_mpc_entries_still_hold_one_aoa_per_user(self, users):
        text, _ = edit_in_group(bundled_text(), 1, "users", f"users = {users}")
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, 'mpc 0')}: mpc 0: expected"
                                              f" {users} AoAs, got 2$"):
            parse_config(text)

    def test_the_library_keeps_its_own_messages(self):
        # a Scenario names its groups by their 0-based index
        scn = two_group_toy(m=16)
        wide = dataclasses.replace(scn.groups[1], n_chains=17)
        with pytest.raises(SpecError, match="^group 1: more RF chains than antennas$") as info:
            dataclasses.replace(scn, groups=(scn.groups[0], wide))
        assert (info.value.group, info.value.field) == (1, "n_chains")

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "chains.cfg"
        text, lineno = edit_in_group(bundled_text(), 2, "chains", "chains = 500")
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: line {lineno}: group 2: more RF chains"
                                           " than antennas\n")


class TestSectionRules:
    """A rule on a whole [group N] section cites its header; [run] group cites its key."""

    @pytest.mark.parametrize("gid, pattern, line, message", [
        (4, "mpc 29", "", "needs at least one mpc entry"),
        (3, "symbol_energy_db", "", "give exactly one of symbol_energy_db/symbol_energy"),
        (2, "gain", "gain = 1.0\nsymbol_energy = 5",
         "give exactly one of symbol_energy_db/symbol_energy"),
    ])
    def test_group_section_rule_rejected_with_its_header_line(self, gid, pattern, line, message):
        text, _ = edit_in_group(bundled_text(), gid, pattern, line)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        lineno = line_of(text, re.escape(f"[group {gid}]"))
        assert str(info.value) == f"line {lineno}: group {gid}: {message}"

    @pytest.mark.parametrize("group", [0, 5, 9])
    def test_run_group_out_of_range_rejected_with_its_line(self, group):
        text = bundled_text().replace("estimator = lmmse\n",
                                      f"estimator = lmmse\ngroup = {group}\n", 1)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == (f"line {line_of(text, 'group =')}: [run] group {group} out of"
                                   " range 1..4")

    def test_no_unique_mobile_group_has_no_line(self):
        text = bundled_text().replace("mobile = true\n", "", 1)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == "no unique mobile group; set 'group' in [run]"


class TestScanRange:
    """Shifting angles outside -90..90 degrees fail in parse_config, not in the run."""

    SCAN = "shifting angles must stay within the -90..90 degree scan range"

    @pytest.mark.parametrize("edits, blamed, message", [
        ({"phi_start": "-100", "phi_stop": "-99"}, "phi_start", "angle -100"),
        ({"phi_stop": "95"}, "phi_stop", "angle 95"),
        # the grid's last angle, not the stop, is what must lie in range
        ({"phi_start": "86", "phi_stop": "92.5", "phi_step": "2"}, "phi_stop", "angle 92"),
        ({"beampattern_phi": "120"}, "beampattern_phi", "angle 120"),
    ])
    def test_rejected_with_the_offending_line(self, edits, blamed, message):
        text = bundled_text()
        for key, value in edits.items():
            text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        with pytest.raises(ConfigError,
                           match=rf"^line {line_of(text, blamed)}: {message}: {self.SCAN}$"):
            parse_config(text)

    def test_grid_ending_inside_the_range_accepted(self):
        text = re.sub(r"(?m)^phi_start\s*=.*$", "phi_start = 80", bundled_text())
        text = re.sub(r"(?m)^phi_stop\s*=.*$", "phi_stop = 90.5", text)
        text = re.sub(r"(?m)^phi_step\s*=.*$", "phi_step = 1", text)
        assert parse_config(text).phi_values()[-1] == 90.0

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "far.cfg"
        text = re.sub(r"(?m)^phi_start\s*=.*$", "phi_start = -100", bundled_text())
        path.write_text(re.sub(r"(?m)^phi_stop\s*=.*$", "phi_stop = -99", text))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"line {line_of(text, 'phi_start')}: angle -100: {self.SCAN}" in err


class TestDefaults:
    """Each default lives in the dataclass field it fills, and nowhere in the parser."""

    def test_left_out_keys_take_the_dataclass_defaults(self):
        text = re.sub(r"(?ms)^\[numerics\].*?(?=^\[)", "", bundled_text())
        text = re.sub(r"(?m)^(block_length|pilot_length|beampattern_phi)\s*=.*\n", "", text)
        cfg = parse_config(text)
        assert cfg.sweep == SweepSettings(group=0, beamformers=("geb", "pe", "pe-am", "dft"),
                                          combiners=("zf", "lmmse"), estimator="lmmse",
                                          trials=200, seed=1)
        assert cfg.output == OutputSettings()
        numerics = (cfg.sweep.n_quad, cfg.sweep.tol, cfg.sweep.max_iter, cfg.sweep.n_restarts)
        assert numerics == (DEFAULT_N_QUAD, DEFAULT_TOL, DEFAULT_MAX_ITER, DEFAULT_RESTARTS)

    def test_experiment_config_adds_only_what_the_sweep_does_not_own(self):
        assert [f.name for f in fields(ExperimentConfig)] == [
            "scenario", "sweep", "phi_start", "phi_stop", "phi_step", "output"]

    @pytest.mark.parametrize("section, key, value", [("output", "formats", "csv"),
                                                     ("scenario", "phi", "33")],
                             ids=["formats", "phi"])
    def test_formats_rejected_with_its_line(self, section, key, value):
        text = bundled_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, key + ' =')}:"
                                              rf" unknown key '{key}' in section \[{section}\]"):
            parse_config(text)


def _keys(line):
    """Key names on one line of key documentation, without annotations, each
    mapped to whether it is marked required (``*``)."""
    line = re.sub(r"\([^()]*\)|<[^<>]*>", "", line)
    return {tok.rstrip("*"): tok.endswith("*") for tok in line.split()
            if re.fullmatch(r"[a-z_]+\*?", tok)}


# section -> key -> required, from the one key table
TABLE = {section: {key: required for key, (_, required) in keys.items()}
         for section, keys in config._KEYS.items()}
FLOAT_KEYS = sorted(key for keys in config._KEYS.values()
                    for key, (kind, _) in keys.items() if kind is float)


class TestDocumentedKeys:
    """The config docstring and README list exactly the keys of the key table,
    and mark (*) exactly its required keys."""

    def test_docstring_grammar(self):
        block = config.__doc__.split("Sections and their keys")[1].split("\n\n")[1]
        documented, section = {}, None
        for line in block.splitlines():
            header = re.match(r"\s*\[(\w+)[^\]]*\]", line)
            if header:
                section, line = header.group(1), line[header.end():]
            documented.setdefault(section, {}).update(_keys(line))
        assert documented == TABLE

    def test_readme_sections_and_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Sections and keys")[1].split("\n\n")[1]
        documented = {}
        for bullet in re.split(r"(?m)^- ", block)[1:]:
            bullet = " ".join(bullet.split())
            section = re.match(r"`\[(\w+)", bullet).group(1)
            body = re.sub(r"\([^()]*\)", "", bullet.split("—", 1)[1])
            first_sentence = body.split(". ")[0]
            documented[section] = {key: required
                                   for code in re.findall(r"`([^`]+)`", first_sentence)
                                   for key, required in _keys(code.split()[0]).items()}
        assert documented == TABLE


class TestKeyTable:
    """Each key a section hands over as ``**values`` is a field of the dataclass it fills."""

    @pytest.mark.parametrize("target, sections, extra", [
        (OutputSettings, ("output",), set()),
        (SweepSettings, ("run", "mc", "estimation", "numerics"), {"block_length"}),
        (ExperimentConfig, ("sweep",), set()),
    ], ids=["output", "sweep-settings", "grid"])
    def test_handed_keys_are_fields(self, target, sections, extra):
        handed = {key for section in sections for key in config._KEYS[section]} | extra
        handed.discard("group")  # [run] group is 1-based; the field is 0-based
        assert handed <= {f.name for f in fields(target)}


def with_float(key, value):
    """The bundled text with the first ``key`` set to ``value``, added where the text
    leaves it out."""
    text = bundled_text()
    if key == "symbol_energy":  # in place of group 1's symbol_energy_db: exactly one
        return text.replace("symbol_energy_db = 30\n", f"symbol_energy = {value}\n", 1)
    text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text, count=1)
    if hits:
        return text
    if key == "pilot_energy":
        return text.replace("pilot_length = 10\n", f"pilot_length = 10\n{key} = {value}\n", 1)
    return text + f"{key} = {value}\n"  # [output] is the last section


class TestNonFinite:
    """NaN and infinities pass no key: each would fail every angle, or the run."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_rejected_with_its_line(self, key, value):
        text = with_float(key, value)
        lineno = line_of(text, key + r"\s*=")
        with pytest.raises(ConfigError, match=rf"^line {lineno}: {key} must be"):
            parse_config(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_mpc_aoa_rejected_with_its_line(self, value):
        text = bundled_text().replace("mpc 0 = -15.5 -14.5", f"mpc 0 = {value} -14.5", 1)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, 'mpc 0')}: mpc 0: AoAs must"
                                              " be finite"):
            parse_config(text)

    def test_huge_symbol_energy_db_rejected_with_its_line(self):
        text = with_float("symbol_energy_db", "1e308")
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, 'symbol_energy_db')}:"
                                              r" symbol_energy_db 1e\+308 gives an infinite"):
            parse_config(text)

    def test_validate_reports_it(self, tmp_path, capsys):
        path = tmp_path / "endless.cfg"
        text = with_float("phi_stop", "inf")
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: line {line_of(text, 'phi_stop')}: phi_stop must be finite, got inf\n"

    @hypothesis.seed(20261019)
    @settings(max_examples=300, deadline=None, database=None)
    @given(key=st.sampled_from(FLOAT_KEYS), value=st.floats())
    def test_any_float_parses_to_a_finite_config_or_fails(self, key, value):
        try:
            cfg = parse_config(with_float(key, repr(value)))
        except ConfigError:
            return
        groups = cfg.scenario.groups
        floats = [cfg.scenario.noise_power, cfg.sweep.tol, cfg.sweep.pilot_energy or 0.0,
                  cfg.phi_start, cfg.phi_stop, cfg.phi_step, cfg.output.beampattern_phi,
                  cfg.output.beampattern_start, cfg.output.beampattern_stop,
                  cfg.output.beampattern_step, *(g.symbol_energy for g in groups)]
        arrays = [a for g in groups for a in (g.mean_aoa, g.spread, g.gain)]
        assert np.all(np.isfinite(floats)) and all(np.all(np.isfinite(a)) for a in arrays)
