"""Command-line entry point: run experiments, validate configs, emit scenarios.

    jsdmsim run CONFIG [--out DIR] [--seed N] [--db]
    jsdmsim validate CONFIG
    jsdmsim scenario table1 [--scale M] [--phi-step S] [--trials N] [-o FILE]

Environment override: JSDMSIM_OUT (output directory).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, _grid_size, load_config
from .runner import run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jsdmsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--db", action="store_true", help="emit power-ratio columns in dB")

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config", type=Path)

    p_scn = sub.add_parser("scenario", help="emit a bundled scenario config")
    p_scn.add_argument("name", choices=["table1"])
    p_scn.add_argument("--scale", type=int, default=None,
                       help="rewrite the antenna count for a desk-sized variant")
    p_scn.add_argument("--phi-step", type=float, default=None,
                       help="sweep step for the scaled variant (default 1.0 when scaling)")
    p_scn.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials for the scaled variant (default 200 when scaling)")
    p_scn.add_argument("-o", "--output", type=Path, default=None, help="write to a file")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or os.environ.get("JSDMSIM_OUT")
    if out_dir is None:
        out_dir = cfg.output.directory or "results"
    try:
        manifest = run(cfg, out_dir, seed=args.seed, db=args.db)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    n_fail = len(manifest["failures"])
    print(f"wrote {', '.join(manifest['outputs'])} and manifest.json to {out_dir}")
    print(f"{manifest['phi']['count']} angles, {n_fail} failed, "
          f"{manifest['wall_time_s']} s")
    if n_fail:
        print("partial results; see manifest.json failures", file=sys.stderr)
    return manifest["exit_code"]


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scn, sweep = cfg.scenario, cfg.sweep
    print(f"OK: {args.config}")
    print(f"  {scn.n_antennas} antennas, {scn.n_groups} groups, {scn.n_taps} taps, "
          f"evaluated group {sweep.group + 1}")
    print(f"  beamformers: {' '.join(sweep.beamformers)}; "
          f"combiners: {' '.join(sweep.combiners)}; estimator: {sweep.estimator}")
    print(f"  sweep {cfg.phi_start}..{cfg.phi_stop} step {cfg.phi_step} "
          f"({int(_grid_size(cfg.phi_start, cfg.phi_stop, cfg.phi_step))} angles), "
          f"{sweep.trials} trials, seed {sweep.seed}")
    return 0


def _scaled_scenario(text: str, scale: int | None, phi_step: float | None,
                     trials: int | None) -> str:
    if scale is not None:
        text = re.sub(r"(?m)^antennas\s*=.*$", f"antennas = {scale}", text)
        if phi_step is None:
            phi_step = 1.0
        if trials is None:
            trials = 200
    if phi_step is not None:
        text = re.sub(r"(?m)^phi_step\s*=.*$", f"phi_step = {phi_step:g}", text)
    if trials is not None:
        text = re.sub(r"(?m)^trials\s*=.*$", f"trials = {trials}", text)
    return text


def _cmd_scenario(args) -> int:
    text = resources.files("jsdmsim.configs").joinpath(f"{args.name}.cfg").read_text()
    text = _scaled_scenario(text, args.scale, args.phi_step, args.trials)
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        code = _cmd_run(args)
    elif args.command == "validate":
        code = _cmd_validate(args)
    else:
        code = _cmd_scenario(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
