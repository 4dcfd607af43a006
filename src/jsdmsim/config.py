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

Each key's section, type and requiredness is declared once, in ``_KEYS``, and
every value is read through one parser that checks it with its line: every
float must be finite.  Keys left out keep the defaults of
:class:`OutputSettings` and :class:`~jsdmsim.metrics.SweepSettings`.  Unknown
sections or keys, and values that would fail every angle, are rejected with
their line number; a rule on a whole [group N] section (at least one ``mpc``
entry, exactly one symbol energy) cites its header's line.  What is left out
has no line to cite: a required section or key, a [group N] id below the
largest, the [estimation] section of an estimator, and the ``group`` of [run]
when no single group is mobile.  Mobile groups state their AoAs relative to the
sweep's shifting angle; the sweep grid and ``beampattern_phi`` stay within
-90..90 degrees.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import GroupSpec, Scenario, SpecError
from .linksim import COMBINER_NAMES
from .metrics import (DESIGNS, ESTIMATOR_NAMES, NUMERICS_RULES, SUBARRAY_MASKS, SweepSettings,
                      check_names, check_numeric, check_scan_range)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed or semantically invalid experiment configuration."""


def _grid_size(start: float, stop: float, step: float) -> float:
    """How many points :func:`grid_values` has, found without building them."""
    return max(np.floor((stop - start) / step + 1e-9) + 1, 1.0)


# The most points of a grid: the longest float64 array numpy can describe.  np.arange
# refuses a longer one ("Maximum allowed size exceeded").
_MAX_GRID_SIZE = np.iinfo(np.intp).max // np.dtype(float).itemsize


def grid_values(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop (1e-9 of a step beyond it absorbs round-off),
    and at least start: the one rule of the sweep and beampattern grids."""
    return start + step * np.arange(int(_grid_size(start, stop, step)))


# Every key: section -> key -> (kind, required).  A kind is int, float, bool or
# str; a table of names, for one name from it; or that table in a list, for a
# list of distinct names from it.  The ``mpc D`` lines (kind None) are read by
# _group_from.  A key is the name of the field its value fills, but for the
# 1-based [run] group and the [scenario] and [group] keys that build the Scenario.
_KEYS = {
    "scenario": {"antennas": (int, True), "taps": (int, True), "noise_power": (float, True),
                 "block_length": (int, False)},
    "group": {"users": (int, True), "chains": (int, True), "spread": (float, True),
              "gain": (float, True), "symbol_energy_db": (float, False),
              "symbol_energy": (float, False), "mobile": (bool, False), "mpc": (None, False)},
    "run": {"beamformers": ([DESIGNS], True), "combiners": ([COMBINER_NAMES], True),
            "estimator": (ESTIMATOR_NAMES, False), "group": (int, False)},
    "estimation": {"pilot_length": (int, False), "pilot_energy": (float, False)},
    "sweep": {"phi_start": (float, True), "phi_stop": (float, True), "phi_step": (float, True)},
    "mc": {"trials": (int, True), "seed": (int, True)},
    "numerics": {"n_quad": (int, False), "tol": (float, False), "max_iter": (int, False),
                 "n_restarts": (int, False)},
    "output": {"directory": (str, False), "beampattern_phi": (float, False),
               "beampattern_start": (float, False), "beampattern_stop": (float, False),
               "beampattern_step": (float, False)},
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
    """The one rule of a ``<prefix>start/stop/step`` grid: step > 0, stop >= start and
    no more points than numpy can hold in one array.

    The error cites the step's line in the raw ``section`` for a bad step, else the
    stop's, or the start's when the stop is a default."""
    start, stop, step = (getattr(settings, prefix + end) for end in ("start", "stop", "step"))
    if not step > 0:
        blame, msg = ("step",), f"{prefix}step must be positive, got {step:g}"
    elif not stop >= start:
        blame, msg = ("stop", "start"), f"{prefix}stop {stop:g} is below {prefix}start {start:g}"
    elif _grid_size(start, stop, step) > _MAX_GRID_SIZE:
        blame = ("step", "stop", "start")
        msg = (f"{prefix}step {step:g} makes a grid of {_grid_size(start, stop, step):.3g}"
               f" points, more than the {_MAX_GRID_SIZE} an array can hold")
    else:
        return
    raise ConfigError(f"line {_line(section, *(prefix + end for end in blame))}: {msg}")


class _Section(dict):
    """A section's parsed but untyped entries {(key, arg): (value, line)}, and the line of
    its header, which a rule on the section as a whole cites."""

    def __init__(self, line: int):
        super().__init__()
        self.line = line


def _tokenize(text: str) -> dict[str, _Section]:
    """Parsed but untyped sections: section header ('scenario', 'group 1', ...) -> its
    entries."""
    raw = {}
    entries = None
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
            if name not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            # a group id is a canonical positive integer, so "[group 02]" is not group 2
            if (name == "group") != (arg is not None and re.fullmatch("[1-9][0-9]*", arg)
                                     is not None):
                raise ConfigError(f"line {lineno}: section [{name}] takes "
                                  f"{'an integer argument' if name == 'group' else 'no argument'}")
            header = " ".join(parts)
            if header in raw:
                raise ConfigError(f"line {lineno}: duplicate section [{stripped[1:-1]}]")
            entries, keys = raw.setdefault(header, _Section(lineno)), _KEYS[name]
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if entries is None:
            raise ConfigError(f"line {lineno}: entry before any section header")
        left, value = stripped.split("=", 1)
        tokens = left.split()
        if not tokens or len(tokens) > 2:
            raise ConfigError(f"line {lineno}: malformed key {left.strip()!r}")
        key, arg = tokens[0], (tokens[1] if len(tokens) > 1 else None)
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{name}]")
        if (key == "mpc") != (arg is not None):
            raise ConfigError(f"line {lineno}: key {key!r} takes "
                              f"{'a delay argument' if key == 'mpc' else 'no argument'}")
        entry = (key, arg)
        if entry in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[entry] = (value.strip(), lineno)
    return raw


def _line(section: dict, *keys: str) -> int:
    """Line of the first of ``keys`` that ``section`` sets."""
    return next(section[(key, None)][1] for key in keys if (key, None) in section)


# GroupSpec and Scenario field -> the keys that may set it
_FIELD_KEYS = {"n_antennas": ("antennas",), "n_users": ("users",), "n_chains": ("chains",),
               "symbol_energy": ("symbol_energy", "symbol_energy_db"), "spread": ("spread",),
               "gain": ("gain",)}


def _cited(exc: SpecError, raw: dict, gid: int | None = None) -> ConfigError:
    """A broken GroupSpec or Scenario rule with the line of the key or ``mpc D`` entry it
    blames (the repeat, when two name one delay) and its 1-based group, ``gid`` by default."""
    gid = gid if exc.group is None else exc.group + 1
    section = raw["scenario"] if gid is None else raw[f"group {gid}"]
    lines = [line for (key, arg), (_, line) in section.items()
             if key in _FIELD_KEYS.get(exc.field, ()) or key == "mpc" and int(arg) == exc.delay]
    return ConfigError(f"line {max(lines)}: {'' if gid is None else f'group {gid}: '}{exc.rule}")


def _typed(key: str, kind, text: str, lineno: int):
    """``text``, the value of ``key`` on line ``lineno``, parsed as ``kind`` and
    checked with that line: a float is finite, names come from their table,
    and a key of NUMERICS_RULES keeps its rule."""
    if isinstance(kind, type):
        try:
            value = {"true": True, "false": False}[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise ConfigError(f"line {lineno}: cannot parse {key!r} value {text!r}") from None
    else:
        value = tuple(text.split()) if isinstance(kind, list) else text
    try:
        if isinstance(kind, list):
            check_names(key[:-1], value, kind[0])
        elif not isinstance(kind, type):
            check_names(key, (value,), kind)
        if key in NUMERICS_RULES:
            check_numeric(key, value)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None
    return value


def _values(raw: dict, header: str) -> dict:
    """Typed values of the keys that section [header] sets.  A required key (or
    the section of one) left out is an error; other keys left out keep the
    default of the field they fill."""
    name = header.split()[0]
    section = raw.get(header, {})
    if header not in raw and any(required for _, required in _KEYS[name].values()):
        raise ConfigError(f"missing [{name}] section")
    values = {}
    for key, (kind, required) in _KEYS[name].items():
        if (key, None) in section:
            values[key] = _typed(key, kind, *section[(key, None)])
        elif required:
            raise ConfigError(f"missing required key {key!r} in [{header}]")
    return values


def _group_from(raw: dict, gid: int) -> GroupSpec:
    raw_grp = raw[f"group {gid}"]
    values = _values(raw, f"group {gid}")
    users, chains, spread, gain = (values.pop(key) for key in ("users", "chains", "spread", "gain"))
    energy_db, energy = values.pop("symbol_energy_db", None), values.pop("symbol_energy", None)
    if (energy_db is None) == (energy is None):
        raise ConfigError(f"line {raw_grp.line}: group {gid}: give exactly one of"
                          " symbol_energy_db/symbol_energy")
    if energy is None:
        try:
            energy = 10.0 ** (energy_db / 10.0)
        except OverflowError:
            raise ConfigError(f"line {_line(raw_grp, 'symbol_energy_db')}: symbol_energy_db"
                              f" {energy_db:g} gives an infinite symbol energy") from None

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
        if not all(map(math.isfinite, aoas)):
            raise ConfigError(f"line {lineno}: mpc {delay}: AoAs must be finite, got {value!r}")
        mpcs.append((delay, aoas, lineno))
    if not mpcs:
        raise ConfigError(f"line {raw_grp.line}: group {gid}: needs at least one mpc entry")
    delays, aoas, lines = zip(*sorted(mpcs, key=lambda item: item[0]))
    try:
        GroupSpec.check(users, chains, energy, delays, spread, gain)
    except SpecError as exc:
        raise _cited(exc, raw, gid) from None
    # the user count is valid now, so each entry can be held to one AoA per user
    for delay, row, lineno in zip(delays, aoas, lines):
        if len(row) != users:
            raise ConfigError(f"line {lineno}: mpc {delay}: expected {users} AoAs, got {len(row)}")
    aoa = np.array(aoas, dtype=float).T  # users x delays
    return GroupSpec(users, chains, energy, delays, aoa, spread, gain, **values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Rules on one key apply, with its line, as the key is read; rules across
    keys read the built settings."""
    raw = _tokenize(text)

    scn = _values(raw, "scenario")  # block_length stays: a SweepSettings field
    antennas, taps, noise = scn.pop("antennas"), scn.pop("taps"), scn.pop("noise_power")
    scn_raw = raw["scenario"]
    if not noise > 0:
        raise ConfigError(f"line {_line(scn_raw, 'noise_power')}: noise_power must be"
                          f" positive, got {noise:g}")

    group_ids = sorted(int(header.split()[1]) for header in raw if header.startswith("group "))
    if not group_ids:
        raise ConfigError("no [group N] sections found")
    if group_ids != list(range(1, len(group_ids) + 1)):
        raise ConfigError(f"group ids must be 1..G without gaps, got {group_ids}")
    groups = [_group_from(raw, gid) for gid in group_ids]

    try:
        scenario = Scenario(antennas, taps, noise, tuple(groups))
    except SpecError as exc:
        raise _cited(exc, raw) from None

    run = _values(raw, "run")
    run_raw = raw["run"]
    group_1based = run.pop("group", None)
    if group_1based is None:
        mobile_ids = [i + 1 for i, g in enumerate(groups) if g.mobile]
        if len(mobile_ids) != 1:
            raise ConfigError("no unique mobile group; set 'group' in [run]")
        group_1based = mobile_ids[0]
    if not 1 <= group_1based <= len(groups):
        raise ConfigError(f"line {_line(run_raw, 'group')}: [run] group {group_1based} out of"
                          f" range 1..{len(groups)}")
    evaluated = groups[group_1based - 1]
    for name in run["beamformers"]:
        if name in SUBARRAY_MASKS:
            try:
                SUBARRAY_MASKS[name](antennas, evaluated.n_chains)
            except ValueError as exc:
                raise ConfigError(f"line {_line(run_raw, 'beamformers')}: {name} on"
                                  f" group {group_1based}: {exc}") from None
    if "zf" in run["combiners"] and evaluated.n_chains < evaluated.n_users:
        # Otherwise every zf pair fails at every angle: D x K bins with D < K
        # have no zero-forcing combiner.
        raise ConfigError(f"line {_line(raw[f'group {group_1based}'], 'chains')}:"
                          f" zf on group {group_1based} needs chains >= users, got"
                          f" {evaluated.n_chains} chains for {evaluated.n_users} users")

    grid = _values(raw, "sweep")
    est_raw = raw.get("estimation")
    sweep = SweepSettings(group=group_1based - 1, **run, **scn, **_values(raw, "mc"),
                          **_values(raw, "estimation"), **_values(raw, "numerics"))

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

    sweep_raw, out_raw = raw["sweep"], raw.get("output")
    output = OutputSettings(**_values(raw, "output"))
    cfg = ExperimentConfig(scenario, sweep, output=output, **grid)
    _check_range(cfg, "phi_", sweep_raw)
    _check_range(output, "beampattern_", out_raw)
    start, stop, step = cfg.phi_start, cfg.phi_stop, cfg.phi_step
    last = start + step * (_grid_size(start, stop, step) - 1)  # without building the grid
    for section, key, phi in ((sweep_raw, "phi_start", start), (sweep_raw, "phi_stop", last),
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
