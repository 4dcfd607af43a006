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
