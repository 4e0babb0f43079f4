"""Scenario runner: config parsing, subcommands, CSV/JSON artifacts.

Subcommands: stand, trot, mpc-trot, slope, estimate, jump-opt, jump-sim.
Each run writes a CSV time-series log and a JSON summary into the output
directory; jump-sim always tracks the reference read from ``jump_ref.csv``
(see :func:`cmd_jump_sim`). Configuration is a YAML key/value tree
validated against the schema below (unknown keys, and values of another type
than the default's, are rejected); any leaf can be overridden through
environment variables named QUADSTACK_<SECTION>__<KEY>.
A key set to other than its default that the subcommand does not read (see
``READS``) is rejected too, before the run starts.

Exit codes: 0 success, 1 run failure (an error JSON is written), 2
configuration error. A run failure is of kind "solver" when the scenario
failed on its inputs (a solver status, an unreachable foot, a simulated
state outside the simulator's model, terrain or gait weights the controller
cannot use, an unusable replay log or jump reference)
and of kind "internal" for any other exception, which points at a defect of
the program.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np
import yaml

from . import scenarios
from .balance import BodyModel, ForceDistributionError
from .gait import DegenerateWeightsError
from .mpc import MpcInfeasibleError
from .sim import BreachError, SensorNoise
from .swing import UnreachableError
from .terrain import SlopeTooSteepError
from .trajopt import NoConvergenceError, SpecError

SCHEMA_VERSION = 1
ENV_PREFIX = "QUADSTACK_"

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "duration_s": None,          # per-scenario default when null
    "out_dir": "runs",
    "robot": {
        "mass_kg": 45.0,
        "inertia_diag": [0.35, 2.1, 2.1],
        "z0_m": 0.45,
    },
    "gait": {
        "preset": "trot",
        "period_s": 0.3,
    },
    "controller": {
        "type": "balance",       # balance | mpc (trot only)
        "use_estimates": False,
    },
    "command": {
        "vx_mps": 1.0,
        "vy_mps": 0.0,
        "ramp_s": 0.8,
    },
    "noise": {
        "accel_std": 0.05,
        "gyro_std": 0.005,
        "accel_bias": 0.2,
    },
    "slope": {
        "grade": 0.17,
    },
    "estimate": {
        "input_csv": None,
    },
    "jump": {
        "preset": "hop",         # hop | spin90
        "n_knots": 30,
        "flight_min_s": None,    # null: the preset's own (hop 0.3 s, spin90 0.25 s)
        "yaw_goal_deg": None,    # spin90 only; null: the preset's own 90 deg
        "reference_csv": None,   # jump-sim input; defaults to <out_dir>/jump_ref.csv
    },
}


# the type of each leaf whose default is null; null stays allowed there
_NULL_TYPES = {"duration_s": float, "estimate.input_csv": str, "jump.flight_min_s": float,
               "jump.yaw_goal_deg": float, "jump.reference_csv": str}


class ConfigError(ValueError):
    pass


# exceptions by which a scenario fails on its inputs: reported as kind "solver"
RUN_FAILURES = (NoConvergenceError, MpcInfeasibleError, ForceDistributionError,
                np.linalg.LinAlgError, UnreachableError, BreachError, SlopeTooSteepError,
                DegenerateWeightsError, scenarios.ReplayLogError)


def _merge_validate(defaults: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a mapping")
            out[key] = _merge_validate(defaults[key], value, where)
        else:
            _check_type(where, defaults[key], value)
            out[key] = value
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(where: str, default, value) -> None:
    """Reject a leaf value of other than its default's type: a bool takes
    only a bool, a number an int or a float (never a bool), a list only
    numbers, and a null default null or its type in ``_NULL_TYPES``."""
    if default is None and value is None:
        return
    kind = _NULL_TYPES[where] if default is None else type(default)
    if kind in (int, float):
        ok, what = _is_number(value), "a number"
    elif kind is list:
        ok, what = isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
    else:
        ok, what = isinstance(value, kind), f"a {kind.__name__}"
    if not ok:
        raise ConfigError(f"config key {where} must be {what}, got {value!r}")


def _leaves(cfg: dict) -> dict:
    """Dotted name -> value of each leaf of a config tree, in its order."""
    return {name: value for key, node in cfg.items() for name, value in (
        [(f"{key}.{k}", v) for k, v in node.items()] if isinstance(node, dict) else [(key, node)])}


def _apply_env(cfg: dict) -> dict:
    """Overrides like QUADSTACK_NOISE__ACCEL_STD=0.1 (numbers parsed via YAML)."""
    defaults = _leaves(DEFAULT_CONFIG)
    for name, raw in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        if key not in defaults:
            raise ConfigError(f"unknown config key in {name}")
        value = yaml.safe_load(raw)
        _check_type(key, defaults[key], value)
        section, _, leaf = key.rpartition(".")
        (cfg[section] if section else cfg)[leaf] = value
    return cfg


def load_config(path: str | None) -> dict:
    override = {}
    if path is not None:
        with open(path) as fh:
            override = yaml.safe_load(fh) or {}
        if not isinstance(override, dict):
            raise ConfigError("config root must be a mapping")
    return _apply_env(_merge_validate(DEFAULT_CONFIG, override, ""))


# -- CSV log I/O -------------------------------------------------------------


def write_csv(path: Path, log: dict[str, np.ndarray]) -> None:
    """Column-ordered CSV with a header row of names (units in the names)."""
    cols = list(log.keys())
    columns = [np.asarray(log[c], dtype=float).tolist() for c in cols]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Replay loader: inverse of :func:`write_csv`."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            return {}
        cols = header.split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return {c: np.zeros(0) for c in cols}
    return {c: data[:, i].copy() for i, c in enumerate(cols)}


def write_summary(path: Path, summary: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(summary)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


# -- subcommands --------------------------------------------------------------


def _positive(where: str, value) -> float:
    """A config number as a float, finite and above 0."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ConfigError(f"config key {where} must be finite and positive, got {value!r}")
    return value


def _at_least(where: str, value, low: float) -> float:
    """A config number as a float, finite and at least ``low``."""
    value = float(value)
    if not low <= value < math.inf:
        raise ConfigError(f"config key {where} must be finite and at least {low}, got {value!r}")
    return value


def _whole(where: str, value) -> int:
    """A config number as an int, whole and at least 0."""
    if not ((isinstance(value, int) or value.is_integer()) and value >= 0):
        raise ConfigError(f"config key {where} must be a whole number of at least 0, "
                          f"got {value!r}")
    return int(value)


def _finite(where: str, value) -> float:
    """A config number as a float, finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config key {where} must be finite, got {value!r}")
    return value


def _body_model(cfg: dict) -> BodyModel:
    robot = cfg["robot"]
    if len(robot["inertia_diag"]) != 3:
        raise ConfigError(f"config key robot.inertia_diag must have 3 entries, "
                          f"got {robot['inertia_diag']!r}")
    return BodyModel(mass=_positive("robot.mass_kg", robot["mass_kg"]),
                     inertia=np.diag([_positive("robot.inertia_diag", x)
                                      for x in robot["inertia_diag"]]))


def _duration(cfg: dict, default: float) -> float:
    """``duration_s``, at least one control tick, or ``default`` when null."""
    if cfg["duration_s"] is None:
        return default
    return _at_least("duration_s", cfg["duration_s"], scenarios.DT)


def _noise(cfg: dict) -> SensorNoise:
    """The sensors' noise, each figure at least 0, drawn from the run's seed."""
    noise = cfg["noise"]
    return scenarios.sensor_noise(_at_least("noise.accel_std", noise["accel_std"], 0.0),
                                  _at_least("noise.gyro_std", noise["gyro_std"], 0.0),
                                  _at_least("noise.accel_bias", noise["accel_bias"], 0.0),
                                  cfg["seed"])


def cmd_stand(cfg: dict, out: Path) -> dict:
    res = scenarios.run_stand(noise=_noise(cfg), duration=_duration(cfg, 10.0),
                              model=_body_model(cfg), log_every=1)
    write_csv(out / "stand_log.csv", res.log)
    return res.summary


def _trot_args(cfg: dict) -> dict:
    """``TrotDriver`` arguments shared by the trot and slope subcommands."""
    from .gait import _PRESETS

    if cfg["gait"]["preset"] not in _PRESETS:
        raise ConfigError(f"unknown gait.preset: {cfg['gait']['preset']!r} "
                          f"(choose from {sorted(_PRESETS)})")
    command = cfg["command"]
    args = dict(
        v_des=(_finite("command.vx_mps", command["vx_mps"]),
               _finite("command.vy_mps", command["vy_mps"])),
        preset=str(cfg["gait"]["preset"]),
        period=_positive("gait.period_s", cfg["gait"]["period_s"]),
        z0=_positive("robot.z0_m", cfg["robot"]["z0_m"]), model=_body_model(cfg),
        ramp_time=_at_least("command.ramp_s", command["ramp_s"], 0.0),
        # the sensors are read only on estimates (READ_IF holds noise at its defaults)
        noise=_noise(cfg) if cfg["controller"]["use_estimates"] else None)
    return args


def _trot(cfg: dict, out: Path, controller: str) -> dict:
    res = scenarios.run_trot(duration=_duration(cfg, 5.0), controller=controller,
                             **_trot_args(cfg))
    write_csv(out / f"trot_{controller}_log.csv", res.log)
    return res.summary


def cmd_trot(cfg: dict, out: Path) -> dict:
    controller = cfg["controller"]["type"]
    if controller not in ("balance", "mpc"):
        raise ConfigError(f"unknown controller.type: {controller!r} (choose balance or mpc)")
    return _trot(cfg, out, controller)


def cmd_mpc_trot(cfg: dict, out: Path) -> dict:
    return _trot(cfg, out, "mpc")


def cmd_slope(cfg: dict, out: Path) -> dict:
    res = scenarios.run_slope(duration=_duration(cfg, 4.0),
                              slope=_finite("slope.grade", cfg["slope"]["grade"]),
                              **_trot_args(cfg))
    write_csv(out / "slope_log.csv", res.log)
    return res.summary


def cmd_estimate(cfg: dict, out: Path) -> dict:
    src = cfg["estimate"]["input_csv"]
    if not src:
        raise ConfigError("estimate.input_csv is required for the estimate subcommand")
    if not Path(src).is_file():
        raise ConfigError(f"estimate.input_csv not found: {src}")
    log = read_csv(Path(src))
    res = scenarios.run_estimate(log)
    write_csv(out / "estimate_log.csv", res.log)
    return res.summary


def _jump_spec(cfg: dict):
    """The preset's spec and its published timings; a ``jump.*`` key left
    null keeps the preset's own value."""
    jump = cfg["jump"]
    kw = dict(n_knots=_whole("jump.n_knots", jump["n_knots"]),
              z0=_positive("robot.z0_m", cfg["robot"]["z0_m"]), model=_body_model(cfg))
    if jump["flight_min_s"] is not None:
        kw["flight_min"] = _positive("jump.flight_min_s", jump["flight_min_s"])
    if jump["preset"] == "hop":
        return scenarios.hop_spec(**kw), None
    if jump["preset"] == "spin90":
        if jump["yaw_goal_deg"] is not None:
            kw["yaw_deg"] = _finite("jump.yaw_goal_deg", jump["yaw_goal_deg"])
        return scenarios.spin_spec(**kw), scenarios.SPIN90_REFERENCE_TIMINGS_10MS
    raise ConfigError(f"unknown jump preset: {jump['preset']!r}")


def cmd_jump_opt(cfg: dict, out: Path) -> dict:
    spec, context = _jump_spec(cfg)
    res = scenarios.run_jump_opt(spec, context_timings_10ms=context)
    write_csv(out / "jump_ref.csv", res.log)
    return res.summary


def cmd_jump_sim(cfg: dict, out: Path) -> dict:
    """Track ``jump.reference_csv``, or ``<out_dir>/jump_ref.csv``, which is
    solved for and written first when it is absent."""
    spec, _ = _jump_spec(cfg)
    ref_csv = cfg["jump"]["reference_csv"]
    if ref_csv and not Path(ref_csv).exists():
        raise ConfigError(f"jump.reference_csv not found: {ref_csv}")
    ref_csv = Path(ref_csv or out / "jump_ref.csv")
    if not ref_csv.exists():
        opt_res = scenarios.run_jump_opt(spec)
        write_csv(ref_csv, opt_res.log)
    ref = scenarios.reference_from_log(read_csv(ref_csv))
    res = scenarios.run_jump_sim(spec, ref)
    write_csv(out / "jump_sim_log.csv", res.log)
    return res.summary


COMMANDS = {
    "stand": cmd_stand,
    "trot": cmd_trot,
    "mpc-trot": cmd_mpc_trot,
    "slope": cmd_slope,
    "estimate": cmd_estimate,
    "jump-opt": cmd_jump_opt,
    "jump-sim": cmd_jump_sim,
}


# The config keys each subcommand reads; a section stands for all its keys.
# Every subcommand also reads seed and out_dir (see run).
READS = {
    "stand": ("duration_s", "robot.mass_kg", "robot.inertia_diag", "noise"),
    "trot": ("duration_s", "robot", "gait", "command", "controller"),
    "mpc-trot": ("duration_s", "robot", "gait", "command", "controller.use_estimates"),
    "slope": ("duration_s", "robot", "gait", "command", "controller.use_estimates", "slope"),
    "estimate": ("estimate",),
    "jump-opt": ("robot", "jump.preset", "jump.n_knots", "jump.flight_min_s"),
    "jump-sim": ("robot", "jump.preset", "jump.n_knots", "jump.flight_min_s", "jump.reference_csv"),
}
# keys also read where a subcommand reads the condition key and it holds
READ_IF = {"noise": ("controller.use_estimates", True),
           "jump.yaw_goal_deg": ("jump.preset", "spin90")}


def read_keys(subcommand: str, leaves: dict) -> set[str]:
    """The dotted leaves ``subcommand`` reads, given every leaf's value."""
    named = {"seed", "out_dir", *READS[subcommand]}
    for key, (cond, value) in READ_IF.items():
        if {cond, cond.partition(".")[0]} & named and leaves[cond] == value:
            named.add(key)
    return {key for key in leaves if {key, key.partition(".")[0]} & named}


def run(subcommand: str, config_path: str | None = None,
        overrides: dict | None = None) -> tuple[int, dict]:
    """Programmatic entry point; returns (exit code, summary/error dict)."""
    try:
        cfg = load_config(config_path)
        for key, value in (overrides or {}).items():
            if value is not None:
                cfg[key] = value
        cfg["seed"] = _whole("seed", cfg["seed"])
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        handler = COMMANDS[subcommand]
        leaves, defaults = _leaves(cfg), _leaves(DEFAULT_CONFIG)
        read = read_keys(subcommand, leaves)
        unread = [key for key in leaves if key not in read and leaves[key] != defaults[key]]
        if unread:
            raise ConfigError(f"{unread[0]} does not apply to {subcommand}")
    except (ConfigError, KeyError, FileNotFoundError, yaml.YAMLError) as exc:
        return 2, {"error": str(exc), "kind": "config"}

    try:
        summary = handler(cfg, out)
    except (ConfigError, SpecError) as exc:
        return 2, {"error": str(exc), "kind": "config"}
    except RUN_FAILURES as exc:
        err = {"error": str(exc), "kind": "solver", "type": type(exc).__name__,
               "scenario": subcommand}
    except Exception as exc:
        err = {"error": str(exc), "kind": "internal", "type": type(exc).__name__,
               "scenario": subcommand, "traceback": traceback.format_exc()}
    else:
        summary["seed"] = cfg["seed"]
        write_summary(out / f"{subcommand.replace('-', '_')}_summary.json", summary)
        return 0, summary
    write_summary(out / f"{subcommand.replace('-', '_')}_error.json", err)
    return 1, err


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadstack",
        description="Quadruped locomotion stack scenario runner")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--duration", type=float, default=None,
                        help="scenario duration in seconds")
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "out_dir": args.out_dir,
                 "duration_s": args.duration}
    code, payload = run(args.subcommand, args.config, overrides)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=float)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
