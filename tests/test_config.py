"""Config rules that must fail in parse_config rather than at every angle of a run."""

import re
from importlib import resources

import numpy as np
import pytest

from jsdmsim import build_covariances, group_statistics
from jsdmsim.cli import main
from jsdmsim.config import ConfigError, parse_config
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
        assert parse_config(text).block_length == 32

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
        assert parse_config("\n".join(lines)).beamformers == ("fixed-ordered",)


class TestNameTable:
    """The design, combiner and estimator tables are the only lists of names."""

    @pytest.mark.parametrize("name", list(DESIGNS))
    def test_every_design_builds_an_m_by_d_beamformer(self, name):
        scn = two_group_toy()
        stats = group_statistics(build_covariances(scn, n_quad=64), scn, 0)
        settings = SweepSettings(group=0, beamformers=(name,), n_quad=64, n_restarts=3)
        s_eff = build_beamformer(name, scn, stats, 0, settings, seed=1)
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
                                              ("n_restarts", 0), ("n_quad", 4)])
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
        scn, spec = cfg.scenario, cfg.scenario.groups[cfg.group]
        assert ls_estimator(build_pilots(scn, cfg.group, 6, 1), spec.delays, 4).shape[0] == 24
        with pytest.raises(PilotDesignError):
            ls_estimator(build_pilots(scn, cfg.group, 5, 1), spec.delays, 4)

    def test_aliased_delays_rejected_with_its_line(self):
        from jsdmsim.chanest import PilotDesignError, build_pilots, ls_estimator
        text = self.ls_text(6)  # delays 5 and 11 are the same cyclic shift of 6 pilots
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'pilot_length')}:"
                                              r" active delays 5 and 11 of group 1 coincide"):
            parse_config(text)
        cfg = parse_config(self.ls_text(7))
        with pytest.raises(PilotDesignError):
            ls_estimator(build_pilots(cfg.scenario, cfg.group, 6, 1), (0, 5, 11), 4)

    def test_default_length_names_the_estimator_line(self):
        text = re.sub(r"(?m)^pilot_length\s*=.*$\n", "", self.ls_text(0))
        extra = "".join(f"mpc {delay} = 0.5 1.5\n" for delay in (13, 14, 15, 16, 18, 19))
        text = text.replace("mpc 11 = 16.5 17.5\n", "mpc 11 = 16.5 17.5\n" + extra, 1)
        with pytest.raises(ConfigError, match=rf"^line {line_of(text, r'estimator')}:"
                                              r" pilot_length 16 is shorter than the 18 users"):
            parse_config(text)

    def test_other_estimators_unaffected(self):
        text = re.sub(r"(?m)^pilot_length\s*=.*$", "pilot_length = 5", bundled_text())
        assert parse_config(text).pilot_length == 5
