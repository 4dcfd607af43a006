"""Experiment configuration: a line-oriented sectioned key/value format.

Grammar (one construct per line, ``#`` starts a comment anywhere):

    file    := { line }
    line    := blank | comment | section | entry
    section := '[' NAME [ARG] ']'
    entry   := KEY [ARG] '=' VALUE...

Sections and their keys (* marks required):

    [scenario]   antennas* taps* noise_power*  phi  block_length
    [group N]    users* chains* spread* gain*  mobile
                 symbol_energy_db | symbol_energy  (exactly one)
                 mpc D = <one mean AoA in degrees per user>   (one per delay)
    [run]        beamformers* combiners*  estimator  group
    [estimation] pilot_length  pilot_energy          (estimator != none)
    [sweep]      phi_start* phi_stop* phi_step*
    [mc]         trials* seed*
    [numerics]   n_quad tol max_iter n_restarts
    [output]     directory formats beampattern_phi
                 beampattern_start beampattern_stop beampattern_step

Unknown sections or keys are rejected with their line number.  Mobile groups
state their AoAs relative to the sweep's shifting angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import GroupSpec, Scenario
from .linksim import COMBINER_NAMES
from .metrics import (DESIGNS, ESTIMATOR_NAMES, SUBARRAY_MASKS, SweepSettings, check_names,
                      check_numeric)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed or semantically invalid experiment configuration."""


_SECTION_KEYS = {
    "scenario": {"antennas", "taps", "noise_power", "phi", "block_length"},
    "group": {"users", "chains", "symbol_energy_db", "symbol_energy",
              "spread", "gain", "mobile", "mpc"},
    "run": {"beamformers", "combiners", "estimator", "group"},
    "estimation": {"pilot_length", "pilot_energy"},
    "sweep": {"phi_start", "phi_stop", "phi_step"},
    "mc": {"trials", "seed"},
    "numerics": {"n_quad", "tol", "max_iter", "n_restarts"},
    "output": {"directory", "formats", "beampattern_phi", "beampattern_start",
               "beampattern_stop", "beampattern_step"},
}


@dataclass(frozen=True)
class OutputSettings:
    directory: str | None = None
    formats: tuple[str, ...] = ("csv",)
    beampattern_phi: float = 10.0
    beampattern_start: float = -90.0
    beampattern_stop: float = 90.0
    beampattern_step: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description ready to drive the runner."""

    scenario: Scenario
    beamformers: tuple[str, ...]
    combiners: tuple[str, ...]
    estimator: str
    group: int
    phi_start: float
    phi_stop: float
    phi_step: float
    trials: int
    seed: int
    block_length: int = 64
    pilot_length: int = 16
    pilot_energy: float | None = None
    n_quad: int = 200
    tol: float = 1e-8
    max_iter: int = 500
    n_restarts: int = 20
    output: OutputSettings = field(default_factory=OutputSettings)

    def phi_values(self) -> np.ndarray:
        if self.phi_step <= 0:
            raise ConfigError("phi_step must be positive")
        count = int(np.floor((self.phi_stop - self.phi_start) / self.phi_step + 1e-9)) + 1
        return self.phi_start + self.phi_step * np.arange(max(count, 1))

    def sweep_settings(self) -> SweepSettings:
        return SweepSettings(
            group=self.group, beamformers=self.beamformers, combiners=self.combiners,
            estimator=self.estimator, pilot_length=self.pilot_length,
            pilot_energy=self.pilot_energy, block_length=self.block_length,
            trials=self.trials, seed=self.seed, n_quad=self.n_quad, tol=self.tol,
            max_iter=self.max_iter, n_restarts=self.n_restarts)


class _RawConfig:
    """Parsed but untyped entries: (section, section_arg) -> {(key, arg): (value, line)}."""

    def __init__(self):
        self.sections: dict[tuple[str, str | None], dict[tuple[str, str | None], tuple[str, int]]] = {}

    def section(self, name: str, arg: str | None = None):
        return self.sections.get((name, arg))


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


def _typed(section: dict, key: str, kind, default=None, required=False, lineno_hint=""):
    item = section.get((key, None)) if section is not None else None
    if item is None:
        if required:
            raise ConfigError(f"missing required key {key!r}{lineno_hint}")
        return default
    value, lineno = item
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ValueError
            return lowered == "true"
        return kind(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse {key!r} value {value!r}") from None


def _group_from(raw_grp: dict, gid: int, lineno_hint: str) -> GroupSpec:
    users = _typed(raw_grp, "users", int, required=True, lineno_hint=lineno_hint)
    chains = _typed(raw_grp, "chains", int, required=True, lineno_hint=lineno_hint)
    spread = _typed(raw_grp, "spread", float, required=True, lineno_hint=lineno_hint)
    gain = _typed(raw_grp, "gain", float, required=True, lineno_hint=lineno_hint)
    mobile = _typed(raw_grp, "mobile", bool, default=False)
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
                         np.full(users, gain), mobile)
    except ValueError as exc:
        raise ConfigError(f"group {gid}: {exc}") from None


def _enum_list(section: dict, key: str, allowed, required=False, default=()):
    item = section.get((key, None)) if section is not None else None
    if item is None:
        if required:
            raise ConfigError(f"missing required key {key!r} in [run]")
        return tuple(default)
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
    """Parse and validate a configuration document."""
    raw = _tokenize(text)

    scn_raw = raw.section("scenario")
    if scn_raw is None:
        raise ConfigError("missing [scenario] section")
    antennas = _typed(scn_raw, "antennas", int, required=True, lineno_hint=" in [scenario]")
    taps = _typed(scn_raw, "taps", int, required=True, lineno_hint=" in [scenario]")
    noise = _typed(scn_raw, "noise_power", float, required=True, lineno_hint=" in [scenario]")
    if not noise > 0:
        raise ConfigError(f"line {scn_raw[('noise_power', None)][1]}: noise_power must be"
                          f" positive, got {noise:g}")
    phi0 = _typed(scn_raw, "phi", float, default=0.0)
    block_length = _typed(scn_raw, "block_length", int, default=64)
    if block_length < taps:
        key = "block_length" if ("block_length", None) in scn_raw else "taps"
        raise ConfigError(f"line {scn_raw[(key, None)][1]}: block_length {block_length}"
                          f" is shorter than the delay spread (taps = {taps})")

    group_ids = sorted(int(arg) for name, arg in raw.sections if name == "group")
    if not group_ids:
        raise ConfigError("no [group N] sections found")
    if group_ids != list(range(1, len(group_ids) + 1)):
        raise ConfigError(f"group ids must be 1..G without gaps, got {group_ids}")
    groups = [_group_from(raw.section("group", str(gid)), gid, f" in [group {gid}]")
              for gid in group_ids]

    try:
        scenario = Scenario(antennas, taps, noise, tuple(groups), phi=phi0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    run_raw = raw.section("run")
    if run_raw is None:
        raise ConfigError("missing [run] section")
    beamformers = _enum_list(run_raw, "beamformers", DESIGNS, required=True)
    combiners = _enum_list(run_raw, "combiners", COMBINER_NAMES, required=True)
    estimator = _typed(run_raw, "estimator", str, default="none")
    try:
        check_names("estimator", (estimator,), ESTIMATOR_NAMES)
    except ValueError as exc:
        raise ConfigError(f"line {run_raw[('estimator', None)][1]}: {exc}") from None
    group_1based = _typed(run_raw, "group", int)
    if group_1based is None:
        mobile_ids = [i + 1 for i, g in enumerate(groups) if g.mobile]
        if len(mobile_ids) != 1:
            raise ConfigError("no unique mobile group; set 'group' in [run]")
        group_1based = mobile_ids[0]
    if not 1 <= group_1based <= len(groups):
        raise ConfigError(f"[run] group {group_1based} out of range 1..{len(groups)}")
    chains = groups[group_1based - 1].n_chains
    for name in beamformers:
        if name in SUBARRAY_MASKS:
            try:
                SUBARRAY_MASKS[name](antennas, chains)
            except ValueError as exc:
                raise ConfigError(f"line {run_raw[('beamformers', None)][1]}: {name} on"
                                  f" group {group_1based}: {exc}") from None

    sweep_raw = raw.section("sweep")
    if sweep_raw is None:
        raise ConfigError("missing [sweep] section")
    phi_start = _typed(sweep_raw, "phi_start", float, required=True, lineno_hint=" in [sweep]")
    phi_stop = _typed(sweep_raw, "phi_stop", float, required=True, lineno_hint=" in [sweep]")
    phi_step = _typed(sweep_raw, "phi_step", float, required=True, lineno_hint=" in [sweep]")
    if phi_step <= 0 or phi_stop < phi_start:
        raise ConfigError("[sweep] needs phi_step > 0 and phi_stop >= phi_start")

    mc_raw = raw.section("mc")
    if mc_raw is None:
        raise ConfigError("missing [mc] section")
    trials = _typed(mc_raw, "trials", int, required=True, lineno_hint=" in [mc]")
    seed = _typed(mc_raw, "seed", int, required=True, lineno_hint=" in [mc]")
    if trials < 1:
        raise ConfigError("[mc] trials must be >= 1")

    num_raw = raw.section("numerics")
    numerics = {"n_quad": _typed(num_raw, "n_quad", int, default=200),
                "tol": _typed(num_raw, "tol", float, default=1e-8),
                "max_iter": _typed(num_raw, "max_iter", int, default=500),
                "n_restarts": _typed(num_raw, "n_restarts", int, default=20)}
    for key, value in numerics.items():
        try:
            check_numeric(key, value)
        except ValueError as exc:  # the defaults pass, so the key has a line
            raise ConfigError(f"line {num_raw[(key, None)][1]}: {exc}") from None

    est_raw = raw.section("estimation")
    pilot_length = _typed(est_raw, "pilot_length", int, default=16)
    pilot_energy = _typed(est_raw, "pilot_energy", float, default=None)
    if estimator != "none" and est_raw is None:
        raise ConfigError("estimator set but [estimation] section missing")
    if estimator == "ls":
        # Otherwise the pruned LS pilot matrix is rank deficient at every angle:
        # fewer rows than columns, or two columns that are the same cyclic shift.
        where = (est_raw.get(("pilot_length", None)) or run_raw[("estimator", None)])[1]
        evaluated = groups[group_1based - 1]
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
    formats = _enum_list(out_raw, "formats", ("csv",), default=("csv",))
    output = OutputSettings(
        directory=_typed(out_raw, "directory", str, default=None),
        formats=formats,
        beampattern_phi=_typed(out_raw, "beampattern_phi", float, default=10.0),
        beampattern_start=_typed(out_raw, "beampattern_start", float, default=-90.0),
        beampattern_stop=_typed(out_raw, "beampattern_stop", float, default=90.0),
        beampattern_step=_typed(out_raw, "beampattern_step", float, default=0.05),
    )

    return ExperimentConfig(
        scenario=scenario, beamformers=beamformers, combiners=combiners,
        estimator=estimator, group=group_1based - 1, phi_start=phi_start,
        phi_stop=phi_stop, phi_step=phi_step, trials=trials, seed=seed,
        block_length=block_length, pilot_length=pilot_length, pilot_energy=pilot_energy,
        **numerics, output=output)


def load_config(path) -> ExperimentConfig:
    """Read and validate a configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())
