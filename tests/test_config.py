"""Config rules that must fail in parse_config rather than at every angle of a run."""

import re
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from jsdmsim import build_covariances, compute_geb, config, group_statistics
from jsdmsim.channel import DEFAULT_N_QUAD
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
        stats = group_statistics(build_covariances(scn, n_quad=64), 0)
        settings = SweepSettings(group=0, beamformers=(name,), n_quad=64, n_restarts=3)
        geb = compute_geb(stats, scn.groups[0].n_chains)
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
    """Lower-case key names on one line of key documentation, without annotations."""
    line = re.sub(r"\([^()]*\)|<[^<>]*>", "", line)
    return {tok.rstrip("*") for tok in line.split() if re.fullmatch(r"[a-z_]+\*?", tok)}


class TestDocumentedKeys:
    """The config docstring and README list exactly the keys the parser accepts."""

    def test_docstring_grammar(self):
        block = config.__doc__.split("Sections and their keys")[1].split("\n\n")[1]
        documented, section = {}, None
        for line in block.splitlines():
            header = re.match(r"\s*\[(\w+)[^\]]*\]", line)
            if header:
                section, line = header.group(1), line[header.end():]
            documented.setdefault(section, set()).update(_keys(line))
        assert documented == config._SECTION_KEYS

    def test_readme_sections_and_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Sections and keys")[1].split("\n\n")[1]
        documented = {}
        for bullet in re.split(r"(?m)^- ", block)[1:]:
            bullet = " ".join(bullet.split())
            section = re.match(r"`\[(\w+)", bullet).group(1)
            body = re.sub(r"\([^()]*\)", "", bullet.split("—", 1)[1])
            first_sentence = body.split(". ")[0]
            documented[section] = set().union(
                *(_keys(code.split()[0]) for code in re.findall(r"`([^`]+)`", first_sentence)))
        assert documented == config._SECTION_KEYS
