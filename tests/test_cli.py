"""Config parsing, the experiment runner and the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import jsdmsim
from jsdmsim.cli import main
from jsdmsim.config import ConfigError, load_config, parse_config
from jsdmsim.runner import run


def bundled_text():
    return resources.files("jsdmsim.configs").joinpath("table1.cfg").read_text()


def desk_config_text(beamformers="geb pe", combiners="zf lmmse", estimator="lmmse",
                     phi="-2.0 2.0 2.0", trials=3, m=16):
    start, stop, step = phi.split()
    return f"""
[scenario]
antennas = {m}
taps = 32
noise_power = 1.0
block_length = 32

[group 1]
mobile = true
users = 2
chains = 4
symbol_energy_db = 30
spread = 2.0
gain = 1.0
mpc 0 = -15.5 -14.5
mpc 5 = -2.5 -1.5
mpc 11 = 16.5 17.5

[group 2]
users = 2
chains = 4
symbol_energy_db = 20
spread = 2.0
gain = 1.0
mpc 3 = 40.5 41.5
mpc 9 = 20.5 21.5

[run]
beamformers = {beamformers}
combiners = {combiners}
estimator = {estimator}

[estimation]
pilot_length = 8

[sweep]
phi_start = {start}
phi_stop = {stop}
phi_step = {step}

[mc]
trials = {trials}
seed = 7

[output]
beampattern_step = 1.0
"""


class TestConfigParsing:
    def test_bundled_table1(self):
        cfg = parse_config(bundled_text())
        scn = cfg.scenario
        assert scn.n_antennas == 128
        assert scn.n_groups == 4
        assert scn.n_taps == 32
        assert scn.noise_power == 1.0
        assert scn.groups[0].delays == (0, 5, 11)
        assert scn.groups[0].mobile
        assert scn.groups[1].delays == (3, 9)
        assert scn.groups[3].delays == (29,)
        np.testing.assert_allclose(scn.groups[0].mean_aoa,
                                   [[-15.5, -2.5, 16.5], [-14.5, -1.5, 17.5]])
        np.testing.assert_allclose(scn.groups[0].spread, 2.0)
        np.testing.assert_allclose(scn.groups[0].gain, 1.0)
        assert cfg.sweep.group == 0
        assert cfg.phi_step == pytest.approx(0.1)

    def test_missing_required_key(self):
        text = desk_config_text().replace("chains = 4", "", 1)
        with pytest.raises(ConfigError, match="chains"):
            parse_config(text)

    def test_zero_chains_invariant(self):
        text = desk_config_text().replace("chains = 4", "chains = 0", 1)
        with pytest.raises(ConfigError, match="chain"):
            parse_config(text)

    def test_unknown_key_with_location(self):
        text = desk_config_text() + "\n[numerics]\nbogus = 3\n"
        with pytest.raises(ConfigError, match=r"line \d+.*bogus"):
            parse_config(text)

    def test_unknown_beamformer(self):
        with pytest.raises(ConfigError, match="svd-magic"):
            parse_config(desk_config_text(beamformers="geb svd-magic"))

    def test_duplicate_key(self):
        text = desk_config_text().replace("trials = 3", "trials = 3\ntrials = 4")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_phi_values(self):
        cfg = parse_config(desk_config_text(phi="-1.0 1.0 0.5"))
        np.testing.assert_allclose(cfg.phi_values(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_estimator_requires_section(self):
        text = desk_config_text()
        text = text.replace("[estimation]\npilot_length = 8\n", "")
        with pytest.raises(ConfigError, match="estimation"):
            parse_config(text)


class TestRunner:
    def test_smoke_emits_all_files(self, tmp_path):
        cfg_file = tmp_path / "desk.cfg"
        cfg_file.write_text(desk_config_text())
        cfg = load_config(cfg_file)
        manifest = run(cfg, tmp_path / "out")
        assert manifest["exit_code"] == 0
        for name in ("results.csv", "cdf.csv", "beampattern.csv", "manifest.json"):
            assert (tmp_path / "out" / name).is_file()
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert header == "phi,beamformer,combiner,user,capacity,expected_sinr,nmse"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(desk_config_text())
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ("results.csv", "cdf.csv", "beampattern.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sweep_and_outputs_run_on_one_blas_thread(self, tmp_path, monkeypatch):
        from jsdmsim import runner
        from jsdmsim.linalg import _openblas_thread_controls

        controls = _openblas_thread_controls()
        seen = []
        sweep, write = runner.phi_sweep, runner._write_beampattern

        def counted(f):
            def call(*args, **kwargs):
                seen.append([get() for get, _ in controls])
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(runner, "phi_sweep", counted(sweep))
        monkeypatch.setattr(runner, "_write_beampattern", counted(write))
        before = [get() for get, _ in controls]
        run(parse_config(desk_config_text(estimator="none")), tmp_path / "out")
        assert seen == [[1] * len(controls)] * 2
        assert [get() for get, _ in controls] == before

    def test_beamformer_labels_in_csv(self, tmp_path):
        cfg = parse_config(desk_config_text(beamformers="geb dft", combiners="zf",
                                            estimator="none"))
        run(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        labels = {row.split(",")[1] for row in rows}
        assert labels == {"geb", "dft"}

    def test_db_flag_changes_columns(self, tmp_path):
        cfg = parse_config(desk_config_text(estimator="none"))
        run(cfg, tmp_path / "out", db=True)
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert "expected_sinr_db" in header

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config(desk_config_text())
        run(cfg, tmp_path / "out", seed=99)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["failures"] == []
        assert manifest["numerics"]["tol"] == 1e-8
        assert "numpy" in manifest["versions"]

    def test_beampattern_rows_equal_each_design_on_a_fresh_steering_matrix(self, tmp_path):
        from jsdmsim import beampattern, steering_matrix
        from jsdmsim.channel import fixed_covariances
        from jsdmsim.metrics import _derived_seed, angle_design, build_beamformer
        cfg = parse_config(desk_config_text(beamformers="geb pe-am fixed-ordered dynamic",
                                            combiners="zf", estimator="none"))
        run(cfg, tmp_path)
        rows = [line.split(",") for line in
                (tmp_path / "beampattern.csv").read_text().splitlines()[1:]]
        out, settings = cfg.output, cfg.sweep
        [(scn, _, stats, geb)] = angle_design(fixed_covariances(cfg.scenario, cfg.sweep.n_quad),
                                            out.beampattern_phi, settings)
        count = int(round((out.beampattern_stop - out.beampattern_start)
                          / out.beampattern_step)) + 1
        thetas = out.beampattern_start + out.beampattern_step * np.arange(count)
        expected = []
        for name in cfg.sweep.beamformers:
            s_eff = build_beamformer(name, scn, stats, cfg.sweep.group, settings,
                                     _derived_seed(cfg.sweep.seed, -1, 1), geb=geb)
            values = beampattern(s_eff, steering_matrix(thetas, scn.n_antennas))
            expected += [[name, f"{t:.9g}", f"{v:.9g}"] for t, v in zip(thetas, values)]
        assert rows == expected

    def test_beampattern_grid_ends_at_or_before_its_stop(self, tmp_path):
        # 180 / 0.13 = 1384.6 steps: the last point is 89.92, not one step past 90
        cfg = parse_config(desk_config_text(combiners="zf", estimator="none").replace(
            "beampattern_step = 1.0", "beampattern_step = 0.13"))
        run(cfg, tmp_path)
        rows = [line.split(",") for line in
                (tmp_path / "beampattern.csv").read_text().splitlines()[1:]]
        for name in cfg.sweep.beamformers:
            thetas = [float(theta) for label, theta, _ in rows if label == name]
            assert len(thetas) == 1385
            assert thetas[0] == -90.0 and thetas[-1] == pytest.approx(89.92)

    def test_beampattern_orthonormalizes_each_design_once(self, tmp_path, monkeypatch):
        # 1,385 directions are three chunks of the steering matrix; one QR per design
        # serves them all
        from jsdmsim import metrics, runner
        cfg = parse_config(desk_config_text(beamformers="geb dft pe", combiners="zf",
                                            estimator="none").replace(
            "beampattern_step = 1.0", "beampattern_step = 0.13"))
        result = metrics.phi_sweep(cfg.scenario, cfg.phi_values(), cfg.sweep,
                                   cfg.output.beampattern_phi)
        calls = []

        def counted(qr):
            def call(a):
                calls.append(a)
                return qr(a)
            return call

        monkeypatch.setattr(runner, "qr", counted(runner.qr))
        monkeypatch.setattr(metrics, "qr", counted(metrics.qr))
        assert runner._write_beampattern(tmp_path / "beampattern.csv", cfg.output, result,
                                         db=False) == []
        assert -(-1385 // runner.PATTERN_CHUNK) == 3
        assert len(calls) == 3
        assert all(np.array_equal(s, result.pattern[name])
                   for s, name in zip(calls, cfg.sweep.beamformers, strict=True))

    def test_beampattern_stage_failure_flagged(self, tmp_path):
        # a chain count that does not divide the array breaks the fixed designs
        # at every stage; the run completes with every failure in the manifest
        # (parse_config rejects it, so the array is resized after parsing)
        cfg = parse_config(desk_config_text(beamformers="geb fixed-ordered", combiners="zf",
                                            estimator="none"))
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, n_antennas=18))
        manifest = run(cfg, tmp_path / "out")
        assert manifest["exit_code"] == 2
        pattern_rows = [f for f in manifest["failures"] if f["combiner"] == "(beampattern)"]
        assert pattern_rows and pattern_rows[0]["beamformer"] == "fixed-ordered"
        body = (tmp_path / "out" / "beampattern.csv").read_text().splitlines()
        labels = {row.split(",")[0] for row in body[1:]}
        assert labels == {"geb"}

    def test_partial_failures_flagged(self, tmp_path):
        # block length below the delay spread fails every angle at run time
        # (parse_config rejects it, so the config is edited after parsing)
        cfg = parse_config(desk_config_text())
        cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, block_length=8))
        manifest = run(cfg, tmp_path / "out")
        assert manifest["exit_code"] == 2
        assert manifest["partial"] is True
        assert len(manifest["failures"]) > 0
        assert "block length" in manifest["failures"][0]["error"]
        # outputs still exist, with the failed rows omitted
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert rows[0].startswith("phi,")
        assert len(rows) == 1

    def test_beampattern_angle_outside_scan_range_flagged(self, tmp_path):
        # parse_config rejects it, so the config is edited after parsing
        cfg = parse_config(desk_config_text(beamformers="geb dft", estimator="none"))
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output,
                                                                  beampattern_phi=120.0))
        manifest = run(cfg, tmp_path / "out")
        assert manifest["exit_code"] == 2
        assert [f["beamformer"] for f in manifest["failures"]] == ["geb", "dft"]
        assert all("scan range" in f["error"] for f in manifest["failures"])
        assert (tmp_path / "out" / "beampattern.csv").read_text() == "beamformer,theta,power\n"


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        cfg_file = tmp_path / "desk.cfg"
        cfg_file.write_text(desk_config_text())
        assert main(["validate", str(cfg_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[scenario]\nantennas = what\n")
        assert main(["validate", str(cfg_file)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_and_seed_override(self, tmp_path):
        cfg_file = tmp_path / "desk.cfg"
        cfg_file.write_text(desk_config_text(beamformers="geb", combiners="zf",
                                             estimator="none", trials=2))
        out = tmp_path / "out"
        assert main(["run", str(cfg_file), "--out", str(out), "--seed", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_scenario_emission_and_scaling(self, tmp_path):
        out = tmp_path / "desk_t1.cfg"
        assert main(["scenario", "table1", "--scale", "32", "-o", str(out)]) == 0
        cfg = load_config(out)
        assert cfg.scenario.n_antennas == 32
        assert cfg.phi_step == pytest.approx(1.0)
        assert cfg.sweep.trials == 200
        # unscaled emission keeps the canonical values
        full = tmp_path / "full_t1.cfg"
        assert main(["scenario", "table1", "-o", str(full)]) == 0
        cfg_full = load_config(full)
        assert cfg_full.scenario.n_antennas == 128
        assert cfg_full.phi_step == pytest.approx(0.1)

    def test_env_output_override(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "desk.cfg"
        cfg_file.write_text(desk_config_text(beamformers="geb", combiners="zf",
                                             estimator="none", trials=2, phi="0.0 0.0 1.0"))
        monkeypatch.setenv("JSDMSIM_OUT", str(tmp_path / "envout"))
        assert main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "envout" / "results.csv").is_file()

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_module_entry_point_runs(self, tmp_path):
        # ``python -m jsdmsim.cli`` must dispatch to main, not import and exit 0
        src = str(Path(jsdmsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "jsdmsim.cli", "run", str(tmp_path / "nope.cfg")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert "error: config file not found" in proc.stderr


class TestPatternPass:
    @pytest.mark.parametrize("phi", ["-2.0 2.0 2.0", "8.0 12.0 2.0"], ids=["off-grid", "twin"])
    def test_a_design_the_projection_rejects_fails_alone(self, phi, tmp_path, monkeypatch):
        # a rank-deficient dft stage: each design is projected alone, so only dft is
        # flagged, with its own one-design message
        from jsdmsim import metrics

        def copied_column(unit, cfg):
            stages = [geb.s.copy() for geb in unit.gebs]
            for s in stages:
                s[:, 1] = s[:, 0]
            return stages

        cfg = parse_config(desk_config_text(beamformers="geb dft pe", combiners="zf",
                                            estimator="none", phi=phi))
        run(cfg, tmp_path / "clean")
        monkeypatch.setitem(metrics.DESIGNS, "dft", copied_column)
        manifest = run(cfg, tmp_path / "out")
        pattern = [f for f in manifest["failures"] if f["combiner"] == "(beampattern)"]
        assert [(f["phi"], f["beamformer"]) for f in pattern] == [(10.0, "dft")]
        assert pattern[0]["error"].startswith("RankError: rank-deficient input: ")
        rows = (tmp_path / "out" / "beampattern.csv").read_text().splitlines()
        clean = (tmp_path / "clean" / "beampattern.csv").read_text().splitlines()
        assert rows == [row for row in clean if not row.startswith("dft,")]
