"""Config rules that must fail in parse_config rather than at every angle of a run."""

import re
from importlib import resources

import pytest

from jsdmsim.cli import main
from jsdmsim.config import ConfigError, parse_config


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
