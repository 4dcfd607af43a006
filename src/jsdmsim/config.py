"""Experiment configuration: a line-oriented sectioned key/value format.

Grammar (one construct per line, ``#`` starts a comment anywhere):

    file    := { line }
    line    := blank | comment | section | entry
    section := '[' NAME [ARG] ']'
    entry   := KEY [ARG] '=' VALUE...

Sections and their keys (* marks required):

    [scenario]   antennas* taps* noise_power*  block_length
    [group N]    users* chains* spread* gain*  mobile
                 symbol_energy_db | symbol_energy  (exactly one)
                 mpc D = <one mean AoA in degrees per user>   (one per delay)
    [run]        beamformers* combiners*  estimator  group
    [estimation] pilot_length  pilot_energy          (estimator != none)
    [sweep]      phi_start* phi_stop* phi_step*
    [mc]         trials* seed*
    [numerics]   n_quad tol max_iter n_restarts
    [output]     directory beampattern_phi
                 beampattern_start beampattern_stop beampattern_step

Keys left out keep the defaults of :class:`OutputSettings` and
:class:`~jsdmsim.metrics.SweepSettings`.  Unknown sections or keys, and values
that would fail every angle, are rejected with their line number.  Mobile
groups state their AoAs relative to the sweep's shifting angle; the sweep
grid and ``beampattern_phi`` stay within -90..90 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import GroupSpec, Scenario
from .linksim import COMBINER_NAMES
from .metrics import (DESIGNS, ESTIMATOR_NAMES, NUMERICS_RULES, SUBARRAY_MASKS, SweepSettings,
                      check_names, check_numeric, check_scan_range)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed or semantically invalid experiment configuration."""


def grid_values(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop (1e-9 of a step beyond it absorbs round-off),
    and at least start: the one rule of the sweep and beampattern grids."""
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(max(count, 1))


_SECTION_KEYS = {
    "scenario": {"antennas", "taps", "noise_power", "block_length"},
    "group": {"users", "chains", "symbol_energy_db", "symbol_energy",
              "spread", "gain", "mobile", "mpc"},
    "run": {"beamformers", "combiners", "estimator", "group"},
    "estimation": {"pilot_length", "pilot_energy"},
    "sweep": {"phi_start", "phi_stop", "phi_step"},
    "mc": {"trials", "seed"},
    "numerics": {"n_quad", "tol", "max_iter", "n_restarts"},
    "output": {"directory", "beampattern_phi", "beampattern_start", "beampattern_stop",
               "beampattern_step"},
}


@dataclass(frozen=True)
class OutputSettings:
    """Output directory and the grid of the reference-angle beampattern."""

    directory: str | None = None
    beampattern_phi: float = 10.0
    beampattern_start: float = -90.0
    beampattern_stop: float = 90.0
    beampattern_step: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: the scenario, the per-angle ``sweep`` settings,
    the shifting-angle grid and the outputs."""

    scenario: Scenario
    sweep: SweepSettings
    phi_start: float
    phi_stop: float
    phi_step: float
    output: OutputSettings

    def phi_values(self) -> np.ndarray:
        return grid_values(self.phi_start, self.phi_stop, self.phi_step)


def _check_range(settings, prefix: str, section) -> None:
    """The one rule of a ``<prefix>start/stop/step`` grid: step > 0 and stop >= start.

    The error cites the stop's line in the raw ``section``, or the start's
    when the stop is a default."""
    start, stop, step = (getattr(settings, prefix + end) for end in ("start", "stop", "step"))
    if not step > 0:
        blame, msg = ("step",), f"{prefix}step must be positive, got {step:g}"
    elif not stop >= start:
        blame, msg = ("stop", "start"), f"{prefix}stop {stop:g} is below {prefix}start {start:g}"
    else:
        return
    raise ConfigError(f"line {_line(section, *(prefix + end for end in blame))}: {msg}")


class _RawConfig:
    """Parsed but untyped entries: (section, section_arg) -> {(key, arg): (value, line)}."""

    def __init__(self):
        self.sections: dict[tuple[str, str | None], dict[tuple[str, str | None], tuple[str, int]]] = {}

    def section(self, name: str, arg: str | None = None, required=False):
        section = self.sections.get((name, arg))
        if section is None and required:
            raise ConfigError(f"missing [{name}] section")
        return section


def _tokenize(text: str) -> _RawConfig:
    raw = _RawConfig()
    current: tuple[str, str | None] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            parts = stripped[1:-1].split()
            if not parts:
                raise ConfigError(f"line {lineno}: empty section header")
            name, arg = parts[0], (parts[1] if len(parts) > 1 else None)
            if len(parts) > 2:
                raise ConfigError(f"line {lineno}: too many tokens in section header")
            if name not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if (name == "group") != (arg is not None):
                raise ConfigError(f"line {lineno}: section [{name}] takes "
                                  f"{'an integer argument' if name == 'group' else 'no argument'}")
            current = (name, arg)
            if current in raw.sections:
                raise ConfigError(f"line {lineno}: duplicate section [{stripped[1:-1]}]")
            raw.sections[current] = {}
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: entry before any section header")
        left, value = stripped.split("=", 1)
        tokens = left.split()
        if not tokens or len(tokens) > 2:
            raise ConfigError(f"line {lineno}: malformed key {left.strip()!r}")
        key, arg = tokens[0], (tokens[1] if len(tokens) > 1 else None)
        if key not in _SECTION_KEYS[current[0]]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current[0]}]")
        if (key == "mpc") != (arg is not None):
            raise ConfigError(f"line {lineno}: key {key!r} takes "
                              f"{'a delay argument' if key == 'mpc' else 'no argument'}")
        entry = (key, arg)
        if entry in raw.sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw.sections[current][entry] = (value.strip(), lineno)
    return raw


def _line(section: dict, *keys: str) -> int:
    """Line of the first of ``keys`` that ``section`` sets."""
    return next(section[(key, None)][1] for key in keys if (key, None) in section)


def _typed(section: dict, key: str, kind, required=False, lineno_hint=""):
    """``key`` parsed as ``kind`` (None when unset), checked with its line
    against its NUMERICS_RULES rule, if it has one."""
    item = section.get((key, None))
    if item is None:
        if required:
            raise ConfigError(f"missing required key {key!r}{lineno_hint}")
        return None
    text, lineno = item
    try:
        value = {"true": True, "false": False}[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"line {lineno}: cannot parse {key!r} value {text!r}") from None
    if key in NUMERICS_RULES:
        try:
            check_numeric(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return value


def _given(section: dict, kinds: dict) -> dict:
    """Typed values of the keys of ``kinds`` that ``section`` sets; keys left
    out keep the default of the dataclass the values go to."""
    if section is None:
        return {}
    return {key: _typed(section, key, kind) for key, kind in kinds.items()
            if (key, None) in section}


def _group_from(raw_grp: dict, gid: int, lineno_hint: str) -> GroupSpec:
    users = _typed(raw_grp, "users", int, required=True, lineno_hint=lineno_hint)
    chains = _typed(raw_grp, "chains", int, required=True, lineno_hint=lineno_hint)
    spread = _typed(raw_grp, "spread", float, required=True, lineno_hint=lineno_hint)
    gain = _typed(raw_grp, "gain", float, required=True, lineno_hint=lineno_hint)
    energy_db = _typed(raw_grp, "symbol_energy_db", float)
    energy = _typed(raw_grp, "symbol_energy", float)
    if (energy_db is None) == (energy is None):
        raise ConfigError(f"group {gid}: give exactly one of symbol_energy_db/symbol_energy")
    if energy is None:
        energy = 10.0 ** (energy_db / 10.0)

    mpcs = []
    for (key, arg), (value, lineno) in raw_grp.items():
        if key != "mpc":
            continue
        try:
            delay = int(arg)
        except ValueError:
            raise ConfigError(f"line {lineno}: mpc delay {arg!r} is not an integer") from None
        try:
            aoas = [float(tok) for tok in value.split()]
        except ValueError:
            raise ConfigError(f"line {lineno}: mpc {delay}: bad AoA list {value!r}") from None
        if len(aoas) != users:
            raise ConfigError(f"line {lineno}: mpc {delay}: expected {users} AoAs, got {len(aoas)}")
        mpcs.append((delay, aoas, lineno))
    if not mpcs:
        raise ConfigError(f"group {gid}: needs at least one mpc entry")
    mpcs.sort(key=lambda item: item[0])
    delays = tuple(delay for delay, _, _ in mpcs)
    aoa = np.array([aoas for _, aoas, _ in mpcs], dtype=float).T  # users x delays
    try:
        return GroupSpec(users, chains, energy, delays, aoa, np.full_like(aoa, spread),
                         np.full(users, gain), **_given(raw_grp, {"mobile": bool}))
    except ValueError as exc:
        raise ConfigError(f"group {gid}: {exc}") from None


def _enum_list(section: dict, key: str, allowed):
    item = section.get((key, None))
    if item is None:
        raise ConfigError(f"missing required key {key!r} in [run]")
    value, lineno = item
    names = tuple(value.split())
    if not names:
        raise ConfigError(f"line {lineno}: {key!r} must list at least one name")
    try:
        check_names(key[:-1], names, allowed)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None
    if len(set(names)) != len(names):
        raise ConfigError(f"line {lineno}: duplicate names in {key!r}")
    return names


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Rules on one key apply, with its line, as the key is read; rules across
    keys read the built settings."""
    raw = _tokenize(text)

    scn_raw = raw.section("scenario", required=True)
    antennas = _typed(scn_raw, "antennas", int, required=True, lineno_hint=" in [scenario]")
    taps = _typed(scn_raw, "taps", int, required=True, lineno_hint=" in [scenario]")
    noise = _typed(scn_raw, "noise_power", float, required=True, lineno_hint=" in [scenario]")
    if not noise > 0:
        raise ConfigError(f"line {_line(scn_raw, 'noise_power')}: noise_power must be"
                          f" positive, got {noise:g}")

    group_ids = sorted(int(arg) for name, arg in raw.sections if name == "group")
    if not group_ids:
        raise ConfigError("no [group N] sections found")
    if group_ids != list(range(1, len(group_ids) + 1)):
        raise ConfigError(f"group ids must be 1..G without gaps, got {group_ids}")
    groups = [_group_from(raw.section("group", str(gid)), gid, f" in [group {gid}]")
              for gid in group_ids]

    try:
        scenario = Scenario(antennas, taps, noise, tuple(groups))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    run_raw = raw.section("run", required=True)
    beamformers = _enum_list(run_raw, "beamformers", DESIGNS)
    combiners = _enum_list(run_raw, "combiners", COMBINER_NAMES)
    estimator = _given(run_raw, {"estimator": str})
    try:
        check_names("estimator", tuple(estimator.values()), ESTIMATOR_NAMES)
    except ValueError as exc:
        raise ConfigError(f"line {_line(run_raw, 'estimator')}: {exc}") from None
    group_1based = _typed(run_raw, "group", int)
    if group_1based is None:
        mobile_ids = [i + 1 for i, g in enumerate(groups) if g.mobile]
        if len(mobile_ids) != 1:
            raise ConfigError("no unique mobile group; set 'group' in [run]")
        group_1based = mobile_ids[0]
    if not 1 <= group_1based <= len(groups):
        raise ConfigError(f"[run] group {group_1based} out of range 1..{len(groups)}")
    evaluated = groups[group_1based - 1]
    for name in beamformers:
        if name in SUBARRAY_MASKS:
            try:
                SUBARRAY_MASKS[name](antennas, evaluated.n_chains)
            except ValueError as exc:
                raise ConfigError(f"line {_line(run_raw, 'beamformers')}: {name} on"
                                  f" group {group_1based}: {exc}") from None
    if "zf" in combiners and evaluated.n_chains < evaluated.n_users:
        # Otherwise every zf pair fails at every angle: D x K bins with D < K
        # have no zero-forcing combiner.
        raise ConfigError(f"line {_line(raw.section('group', str(group_1based)), 'chains')}:"
                          f" zf on group {group_1based} needs chains >= users, got"
                          f" {evaluated.n_chains} chains for {evaluated.n_users} users")

    sweep_raw = raw.section("sweep", required=True)
    phi_start = _typed(sweep_raw, "phi_start", float, required=True, lineno_hint=" in [sweep]")
    phi_stop = _typed(sweep_raw, "phi_stop", float, required=True, lineno_hint=" in [sweep]")
    phi_step = _typed(sweep_raw, "phi_step", float, required=True, lineno_hint=" in [sweep]")

    mc_raw = raw.section("mc", required=True)
    est_raw = raw.section("estimation")
    sweep = SweepSettings(
        group=group_1based - 1, beamformers=beamformers, combiners=combiners,
        trials=_typed(mc_raw, "trials", int, required=True, lineno_hint=" in [mc]"),
        seed=_typed(mc_raw, "seed", int, required=True, lineno_hint=" in [mc]"),
        **estimator, **_given(scn_raw, {"block_length": int}),
        **_given(est_raw, {"pilot_length": int, "pilot_energy": float}),
        **_given(raw.section("numerics"),
                 {"n_quad": int, "tol": float, "max_iter": int, "n_restarts": int}))

    if sweep.block_length < taps:
        raise ConfigError(f"line {_line(scn_raw, 'block_length', 'taps')}: block_length"
                          f" {sweep.block_length} is shorter than the delay spread"
                          f" (taps = {taps})")
    if sweep.estimator != "none" and est_raw is None:
        raise ConfigError("estimator set but [estimation] section missing")
    if sweep.estimator == "ls":
        # Otherwise the pruned LS pilot matrix is rank deficient at every angle:
        # fewer rows than columns, or two columns that are the same cyclic shift.
        where = (est_raw.get(("pilot_length", None)) or run_raw[("estimator", None)])[1]
        pilot_length = sweep.pilot_length
        unknowns = evaluated.n_users * len(evaluated.delays)
        if pilot_length < unknowns:
            raise ConfigError(f"line {where}: pilot_length {pilot_length} is shorter than the"
                              f" {unknowns} users x active delays of group {group_1based},"
                              " which the ls estimator needs")
        shifts: dict[int, int] = {}
        for delay in evaluated.delays:
            first = shifts.setdefault(delay % pilot_length, delay)
            if first != delay:
                raise ConfigError(f"line {where}: active delays {first} and {delay} of group"
                                  f" {group_1based} coincide modulo pilot_length {pilot_length},"
                                  " so the ls estimator cannot tell them apart")

    out_raw = raw.section("output")
    output = OutputSettings(**_given(out_raw, {
        "directory": str, "beampattern_phi": float, "beampattern_start": float,
        "beampattern_stop": float, "beampattern_step": float}))
    cfg = ExperimentConfig(scenario, sweep, phi_start, phi_stop, phi_step, output)
    _check_range(cfg, "phi_", sweep_raw)
    _check_range(output, "beampattern_", out_raw)
    phis = cfg.phi_values()
    for section, key, phi in ((sweep_raw, "phi_start", phis[0]), (sweep_raw, "phi_stop", phis[-1]),
                              (out_raw, "beampattern_phi", output.beampattern_phi)):
        try:
            check_scan_range(phi)
        except ValueError as exc:
            raise ConfigError(f"line {_line(section, key)}: angle {phi:g}: {exc}") from None
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate a configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())
