"""Scenario runner: config parsing, subcommands, CSV/JSON artifacts.

Subcommands: stand, trot, mpc-trot, slope, estimate, jump-opt, jump-sim.
Each run writes a CSV time-series log and a JSON summary into the output
directory. Configuration is a YAML key/value tree validated against the
schema below (unknown keys are rejected); any leaf can be overridden
through environment variables named QUADSTACK_<SECTION>__<KEY>.

Exit codes: 0 success, 1 run failure (an error JSON is written), 2
configuration error. A run failure is of kind "solver" when the scenario
failed on its inputs (a solver status, an unreachable foot, terrain or gait
weights the controller cannot use, an unusable replay log) and of kind
"internal" for any other exception, which points at a defect of the program.
"""

from __future__ import annotations

import argparse
import copy
import json
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
        "flight_min_s": 0.3,
        "yaw_goal_deg": 90.0,
        "reference_csv": None,   # jump-sim input; defaults to <out_dir>/jump_ref.csv
    },
}


class ConfigError(ValueError):
    pass


# exceptions by which a scenario fails on its inputs: reported as kind "solver"
RUN_FAILURES = (NoConvergenceError, MpcInfeasibleError, ForceDistributionError,
                np.linalg.LinAlgError, UnreachableError, SlopeTooSteepError,
                DegenerateWeightsError, scenarios.ReplayLogError)


def _merge_validate(defaults: dict, override: dict, path: str = "") -> dict:
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
            out[key] = value
    return out


def _apply_env(cfg: dict) -> dict:
    """Overrides like QUADSTACK_NOISE__ACCEL_STD=0.1 (numbers parsed via YAML)."""
    for name, raw in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        keypath = name[len(ENV_PREFIX):].lower().split("__")
        node = cfg
        for part in keypath[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config section in {name}")
            node = node[part]
        leaf = keypath[-1]
        if leaf not in node:
            raise ConfigError(f"unknown config key in {name}")
        node[leaf] = yaml.safe_load(raw)
    return cfg


def load_config(path: str | None) -> dict:
    override = {}
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        override = loaded
    cfg = _merge_validate(DEFAULT_CONFIG, override)
    return _apply_env(cfg)


# -- CSV log I/O -------------------------------------------------------------


def write_csv(path: Path, log: dict[str, np.ndarray]) -> None:
    """Column-ordered CSV with a header row of names (units in the names)."""
    cols = list(log.keys())
    arrays = [np.asarray(log[c], dtype=float) for c in cols]
    n = len(arrays[0]) if arrays else 0
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            fh.write(",".join(repr(float(a[i])) for a in arrays) + "\n")


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


def _body_model(cfg: dict) -> BodyModel:
    robot = cfg["robot"]
    return BodyModel(mass=float(robot["mass_kg"]),
                     inertia=np.diag([float(x) for x in robot["inertia_diag"]]))


def _duration(cfg: dict, default: float) -> float:
    return float(cfg["duration_s"]) if cfg["duration_s"] is not None else default


def cmd_stand(cfg: dict, out: Path) -> dict:
    res = scenarios.run_stand(
        duration=_duration(cfg, 10.0), seed=int(cfg["seed"]),
        accel_std=float(cfg["noise"]["accel_std"]),
        gyro_std=float(cfg["noise"]["gyro_std"]),
        accel_bias_mag=float(cfg["noise"]["accel_bias"]),
        model=_body_model(cfg), log_every=1)
    write_csv(out / "stand_log.csv", res.log)
    return res.summary


def _trot_args(cfg: dict) -> dict:
    """``TrotDriver`` arguments shared by the trot and slope subcommands."""
    from .gait import _PRESETS

    if cfg["gait"]["preset"] not in _PRESETS:
        raise ConfigError(f"unknown gait preset: {cfg['gait']['preset']!r} "
                          f"(choose from {sorted(_PRESETS)})")
    return dict(
        v_des=(float(cfg["command"]["vx_mps"]), float(cfg["command"]["vy_mps"])),
        seed=int(cfg["seed"]),
        use_estimates=bool(cfg["controller"]["use_estimates"]),
        preset=str(cfg["gait"]["preset"]),
        period=float(cfg["gait"]["period_s"]),
        z0=float(cfg["robot"]["z0_m"]), model=_body_model(cfg),
        ramp_time=float(cfg["command"]["ramp_s"]))


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
    # the posture adaptation acts through the balance controller's target;
    # the MPC tracks its own flat-body reference and would ignore it
    if cfg["controller"]["type"] != "balance":
        raise ConfigError(f"slope runs the balance controller only, not "
                          f"controller.type {cfg['controller']['type']!r}")
    res = scenarios.run_slope(duration=_duration(cfg, 4.0),
                              slope=float(cfg["slope"]["grade"]), **_trot_args(cfg))
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
    jump = cfg["jump"]
    model = _body_model(cfg)
    n = int(jump["n_knots"])
    if jump["preset"] == "hop":
        return scenarios.hop_spec(n_knots=n, z0=float(cfg["robot"]["z0_m"]),
                                  flight_min=float(jump["flight_min_s"]), model=model), None
    if jump["preset"] == "spin90":
        context = scenarios.SPIN90_REFERENCE_TIMINGS_10MS
        return scenarios.spin_spec(yaw_deg=float(jump["yaw_goal_deg"]), n_knots=n,
                                   z0=float(cfg["robot"]["z0_m"]), model=model), context
    raise ConfigError(f"unknown jump preset: {jump['preset']!r}")


def cmd_jump_opt(cfg: dict, out: Path) -> dict:
    spec, context = _jump_spec(cfg)
    res, _ref = scenarios.run_jump_opt(spec, context_timings_10ms=context)
    write_csv(out / "jump_ref.csv", res.log)
    return res.summary


def cmd_jump_sim(cfg: dict, out: Path) -> dict:
    spec, _ = _jump_spec(cfg)
    ref_csv = cfg["jump"]["reference_csv"] or (out / "jump_ref.csv")
    if not Path(ref_csv).exists():
        opt_res, ref = scenarios.run_jump_opt(spec)
        write_csv(out / "jump_ref.csv", opt_res.log)
    else:
        ref = _reference_from_log(read_csv(Path(ref_csv)), spec)
    res = scenarios.run_jump_sim(spec, ref, z_land=float(cfg["robot"]["z0_m"]),
                                 seed=int(cfg["seed"]))
    write_csv(out / "jump_sim_log.csv", res.log)
    return res.summary


def _reference_from_log(log: dict[str, np.ndarray], spec) -> "scenarios.BodyReference":
    from .trajopt import BodyReference

    n = len(log["t_s"])
    rot = np.zeros((n, 3, 3))
    for r in range(3):
        for c in range(3):
            rot[:, r, c] = log[f"r{r}{c}"]
    pos = np.stack([log[f"p{ax}_m"] for ax in "xyz"], axis=1)
    vel = np.stack([log[f"v{ax}_mps"] for ax in "xyz"], axis=1)
    omega = np.stack([log[f"w{ax}_radps"] for ax in "xyz"], axis=1)
    forces = np.stack([log[f"f{f}{ax}_N"] for f in range(4) for ax in "xyz"], axis=1)
    # takeoff = end of the first contiguous block of commanded force (a
    # landing phase later in the file may carry force again)
    active = np.abs(forces).sum(axis=1) > 1e-9
    t_take = log["t_s"][-1]
    for i in range(1, n):
        if active[i - 1] and not active[i]:
            t_take = log["t_s"][i]
            break
    phase_times = np.array([t_take, log["t_s"][-1]])
    return BodyReference(t=log["t_s"], pos=pos, vel=vel, rot=rot, omega=omega,
                         forces=forces, phase_times=phase_times)


COMMANDS = {
    "stand": cmd_stand,
    "trot": cmd_trot,
    "mpc-trot": cmd_mpc_trot,
    "slope": cmd_slope,
    "estimate": cmd_estimate,
    "jump-opt": cmd_jump_opt,
    "jump-sim": cmd_jump_sim,
}


def run(subcommand: str, config_path: str | None = None,
        overrides: dict | None = None) -> tuple[int, dict]:
    """Programmatic entry point; returns (exit code, summary/error dict)."""
    try:
        cfg = load_config(config_path)
        for key, value in (overrides or {}).items():
            if value is not None:
                cfg[key] = value
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        handler = COMMANDS[subcommand]
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
        summary["seed"] = int(cfg["seed"])
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
