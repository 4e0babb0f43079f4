"""quadstack benchmark: real-time factor, control-tick latency and time-to-solution.

    python3 perfbench/run.py --workload trot-est --seed 0 --seconds 10 --trace 0

Runs one workload through the public entry point ``quadstack.cli.run`` in
this process, from the ``src/`` tree next to this directory, with BLAS
pinned to one thread. Each run is closed-loop with one client and gets a
fresh output directory. Runs repeat until ``--seconds`` have passed (at
least one run). Every run's outputs are checked.

``--trace 0`` reports the end-to-end metrics. The only hooks are a
timestamp at each ``SimWorld.step`` return and a timer around
``scenarios.solve_timing``. Its timings are scaled to a reference host
speed, which a fixed probe loop measures around every run (see ``probe``).
``--trace 1`` alternates untraced, traced (see ``layers.py``) and hook-free
runs of the first input. It reports the per-layer metrics of the first
traced run, the tracing and hook overhead, and whether runs of the one input
repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Environment, per-run
details and the span table go to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import os
import sys

# pin BLAS before anything imports numpy; drop config overrides from the
# caller's environment so that every run sees the workload's config only
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("QUADSTACK_")]:
    del os.environ[_var]

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DT = 1e-3                    # control tick of every scenario, s
SETUP_REPEATS = 3            # fresh interpreters per set-up measurement, after one warm-up

# workload -> (subcommand, config overrides, velocity commands per invocation)
WORKLOADS = {
    "trot-est": ("trot", {"controller": {"type": "balance", "use_estimates": True}}, 4),
    "trot-mpc": ("mpc-trot", {}, 4),
    "hop": ("jump-sim", {"jump": {"preset": "hop", "n_knots": 30}}, 0),
}
TROTS = ("trot-est", "trot-mpc")
HOP_TAIL_REPLAYS = 5
# The host's speed swings by up to 2x, in stretches that can outlast an
# invocation. The control loop's timings are therefore scaled to a reference
# host speed: a fixed probe loop runs for PROBE_S before and after each run,
# and the timing is multiplied by the probe's rate over both, divided by
# PROBE_REFERENCE_HZ.
PROBE_S = 0.5
PROBE_REFERENCE_HZ = 5_000.0     # probe rounds per second on an idle core
_PROBE_MATRIX = np.linspace(0.0, 1.0, 144).reshape(12, 12) + 3.0 * np.eye(12)
_PROBE_V, _PROBE_W = np.array([0.1, 0.2, 0.3]), np.array([0.3, -0.1, 0.2])
_PROBE_R = np.eye(3)

# criterion-6 tracking thresholds (trots); criteria 7 and 10 (hop)
MAX_HEIGHT_RMS_M = 0.02
MAX_VEL_RMSE_MPS = 0.15
MAX_CHECKER_VIOLATION = 1e-4
MAX_LANDING_ORIENT_DEG = 5.0
MAX_LANDING_HEIGHT_M = 0.03

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from quadstack import cli
cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def import_quadstack():
    if not (SRC / "quadstack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quadstack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("quadstack")
    if Path(pkg.__file__).resolve().parent != (SRC / "quadstack").resolve():
        raise SystemExit(f"perfbench: imported quadstack from {pkg.__file__}, not {SRC}")
    for mod in ("cli", "scenarios", "sim", "swing", "so3", "trajopt", "qpsolver",
                "balance", "gait"):
        importlib.import_module(f"quadstack.{mod}")
    return pkg


def commands_for(workload: str, seed: int) -> list:
    """The inputs an invocation cycles through: trot velocity commands (vx, vy).

    Seed 0 is the acceptance command (1.0, 0) alone. Any other seed draws
    the workload's command count from vx in [0.8, 1.0] and vy in [-0.1, 0.1]
    m/s, in antithetic pairs: vx from one stratum of the lower half and its
    mirror about 0.9, |vy| and 0.1 - |vy| with opposite signs. Tracking
    error grows about linearly with vx and |vy|, so a pair's mean barely
    moves from seed to seed while each command still varies. ``hop`` has no
    input beyond the sim seed.
    """
    if workload not in TROTS:
        return [None]
    if seed == 0:
        return [(1.0, 0.0)]
    rng = np.random.default_rng(seed)
    k = WORKLOADS[workload][2]
    commands = []
    for stratum in range(k // 2):
        vx = 0.8 + 0.2 * (stratum + rng.uniform()) / k
        vy = 0.1 * rng.uniform() * rng.choice((-1.0, 1.0))
        commands += [(vx, vy), (1.8 - vx, -np.copysign(0.1 - abs(vy), vy))]
    return [(float(x), float(y)) for x, y in commands]


def workload_config(workload: str, seed: int, command, out_dir: Path) -> dict:
    _sub, overrides, _k = WORKLOADS[workload]
    cfg = {"seed": seed, "out_dir": str(out_dir), **overrides}
    if command is not None:
        cfg["command"] = {"vx_mps": command[0], "vy_mps": command[1]}
    return cfg


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(json.dumps(cfg, indent=1))  # JSON is valid YAML
    return path


def fresh_dir(workload: str) -> Path:
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK / "runs"))


def measure_setup(workload: str, seed: int, command) -> float:
    """Median time, in fresh interpreters, to import quadstack.cli and load the config."""
    out = fresh_dir(workload)
    try:
        cfg_path = write_config(workload_config(workload, seed, command, out),
                                out / "config.yaml")
        samples = []
        for _ in range(SETUP_REPEATS + 1):
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
                                  capture_output=True, text=True, timeout=120, check=True)
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        return statistics.median(samples[1:])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def read_log(path: Path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", names=True)


class Hooks:
    """The two untraced hooks: tick timestamps and the timing-solve timer."""

    def __init__(self, qs):
        self.ticks: list[float] = []
        self.solve: tuple | None = None      # (seconds, problem, solution)
        self._qs = qs
        self._step = qs.sim.SimWorld.__dict__["step"]
        self._solve_timing = qs.scenarios.solve_timing

    @staticmethod
    def tick_hook(step, ticks: list):
        def timed_step(world, *args, **kwargs):
            out = step(world, *args, **kwargs)
            ticks.append(time.perf_counter())
            return out

        return timed_step

    def __enter__(self):
        solve_timing = self._solve_timing

        def timed_solve(problem, *args, **kwargs):
            t0 = time.perf_counter()
            sol = solve_timing(problem, *args, **kwargs)
            self.solve = (time.perf_counter() - t0, problem, sol)
            return sol

        self._qs.sim.SimWorld.step = self.tick_hook(self._step, self.ticks)
        self._qs.scenarios.solve_timing = timed_solve
        return self

    def __exit__(self, *exc):
        self._qs.sim.SimWorld.step = self._step
        self._qs.scenarios.solve_timing = self._solve_timing


def tick_hook_us(calls: int = 200_000) -> float:
    """Cost of one tick-hook call, from a calibrated loop around a no-op step."""
    def noop(world):
        return world

    hooked = Hooks.tick_hook(noop, [])
    best = {}
    for fn in (noop, hooked, noop, hooked, noop, hooked):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(None)
        best[fn] = min(best.get(fn, np.inf), time.perf_counter() - t0)
    return (best[hooked] - best[noop]) / calls * 1e6


def quality(qs, workload: str, out: Path, summary: dict, solve,
            replay: bool) -> tuple[dict, list[str]]:
    """Tracking and cost figures of one run, and the checks it failed.

    A ``replay`` of hop's tracking tail is checked for its landing only.
    """
    sub = WORKLOADS[workload][0]
    written = json.loads((out / f"{sub.replace('-', '_')}_summary.json").read_text())
    failures = [] if written.get("scenario") == summary.get("scenario") else [
        "summary file does not match the returned summary"]
    if workload in TROTS:
        ctrl = WORKLOADS[workload][1].get("controller", {}).get("type", "mpc")
        log = read_log(out / f"trot_{ctrl}_log.csv")
        height, vel = float(summary["height_rms_m"]), float(summary["vel_rmse_mps"])
        if not height <= MAX_HEIGHT_RMS_M:
            failures.append(f"height_rms_m {height:.4g} > {MAX_HEIGHT_RMS_M}")
        if not vel <= MAX_VEL_RMSE_MPS:
            failures.append(f"vel_rmse_mps {vel:.4g} > {MAX_VEL_RMSE_MPS}")
        # control effort: squared ground-reaction force per logged tick,
        # in units of body weight squared
        weight = float(qs.balance.BodyModel().weight)
        f2 = sum(log[f"f{f}{ax}_N"] ** 2 for f in range(4) for ax in "xyz")
        cost = float(np.mean(f2)) / weight**2
        return {"height_rms_m": height, "vel_rmse_mps": vel, "traj_cost": cost}, failures

    if not summary.get("landed"):
        failures.append("did not land")
    if not summary["final_orientation_error_deg"] <= MAX_LANDING_ORIENT_DEG:
        failures.append(f"orientation {summary['final_orientation_error_deg']:.3g} deg")
    if not summary["final_height_error_m"] <= MAX_LANDING_HEIGHT_M:
        failures.append(f"height {summary['final_height_error_m']:.3g} m")
    if replay:
        return {}, failures
    if solve is None:
        return {}, failures + ["timing solve did not return"]
    _seconds, problem, sol = solve
    spec = problem.spec
    checker = float(qs.trajopt.check_constraints(spec, sol)["max"])
    total = float(np.sum(sol.durations))
    if not sol.converged:
        failures.append("timing solve not converged")
    if not checker <= MAX_CHECKER_VIOLATION:
        failures.append(f"checker max {checker:.3g} > {MAX_CHECKER_VIOLATION}")
    if not spec.t_min <= total <= spec.t_max:
        failures.append(f"duration {total:.4g} s outside [{spec.t_min}, {spec.t_max}]")
    # tracking of the optimized reference over its duration
    ref, log = read_log(out / "jump_ref.csv"), read_log(out / "jump_sim_log.csv")
    t = log["t_s"][log["t_s"] <= ref["t_s"][-1]]
    n = t.size
    dz = log["pz_m"][:n] - np.interp(t, ref["t_s"], ref["pz_m"])
    dv2 = sum((log[f"v{ax}_mps"][:n] - np.interp(t, ref["t_s"], ref[f"v{ax}_mps"])) ** 2
              for ax in "xyz")
    return {"height_rms_m": float(np.sqrt(np.mean(dz**2))),
            "vel_rmse_mps": float(np.sqrt(np.mean(dv2))),
            "traj_cost": float(sol.cost)}, failures


def run_once(qs, workload: str, seed: int, command, mode: str = "hooks",
             reference_csv=None) -> dict:
    """One cli.run in a fresh output directory.

    ``mode`` is "hooks" (the two untraced hooks), "none" (no hook at all) or
    "traced" (the layer tracer). ``reference_csv`` runs only the tracking
    tail of ``hop`` from an exported reference.
    """
    sub = WORKLOADS[workload][0]
    out = fresh_dir(workload)
    try:
        cfg = workload_config(workload, seed, command, out)
        if reference_csv is not None:
            cfg["jump"] = {**cfg["jump"], "reference_csv": str(reference_csv)}
        cfg_path = write_config(cfg, out / "config.yaml")
        run = {"workload": workload, "seed": seed, "command": command, "mode": mode,
               "replay": reference_csv is not None}
        tracer = hooks = None
        entry = qs.cli.run
        with contextlib.ExitStack() as patched:
            if mode == "traced":
                tracer = layers.Tracer()
                patched.callback(tracer.restore)
                layers.install(tracer, qs)
                entry = tracer.wrap("cli.run", entry)
            elif mode == "hooks":
                hooks = patched.enter_context(Hooks(qs))
            t0 = time.perf_counter()
            code, summary = entry(sub, str(cfg_path))
            run["wall_s"] = time.perf_counter() - t0
        run["exit_code"] = code
        run["summary"] = summary
        failures = [] if code == 0 else [f"exit code {code}: {summary.get('error')}"]
        solve = None
        if hooks is not None:
            solve = hooks.solve
            ticks = np.asarray(hooks.ticks)
            run["tick_ms"] = np.diff(ticks) * 1e3
            if ticks.size > 1:
                loop_s = float(ticks[-1] - ticks[0])
                run["rtf"] = (ticks.size - 1) * DT / loop_s
                if workload in TROTS:
                    run["solve_s"] = loop_s
                elif solve is not None:
                    run["solve_s"] = solve[0]
        if tracer is not None:
            run["tracer"] = tracer
            solve = next((s[5] for s in tracer.spans if s[0] == "trajopt.solve"), None)
        run["solve"] = solve
        if code == 0:
            try:
                figures, bad = quality(qs, workload, out, summary, solve, run["replay"])
            except (OSError, ValueError, KeyError) as exc:
                figures, bad = {}, [f"unreadable artifacts: {exc!r}"]
            run.update(figures)
            failures += bad
        run["failures"] = failures
        if workload == "hop" and code == 0 and not run["replay"]:
            run["reference"] = (out / "jump_ref.csv").read_bytes()
        return run
    finally:
        shutil.rmtree(out, ignore_errors=True)


@contextlib.contextmanager
def exported_reference(run: dict):
    """The reference a full hop run exported, as a file for tail-only replays."""
    path = fresh_dir("hop") / "jump_ref.csv"
    path.write_bytes(run["reference"])
    try:
        yield path
    finally:
        shutil.rmtree(path.parent, ignore_errors=True)


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z

    def norm(self):
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def _probe_round(a=_PROBE_MATRIX, v=_PROBE_V, w=_PROBE_W, r=_PROBE_R) -> None:
    """One round of the probe: the mix of work in a control tick.

    A 12x12 solve, Python objects with attribute access and float math, and
    the tiny 3-vector numpy calls that dominate the controllers.
    """
    np.linalg.solve(a, a[0] @ a)
    norms = {i: _Point(0.1 * i, math.sin(i), math.cos(i)).norm() for i in range(30)}
    sorted(norms.values())
    for _ in range(5):
        c = np.cross(v, w)
        np.clip(r @ c, -1.0, 1.0)
        np.concatenate([v, w])
        np.linalg.norm(c)


def probe(seconds: float = PROBE_S) -> tuple[int, float]:
    """Probe rounds run in about ``seconds``, and the wall time they took.

    Raises if other threads of this process ran during the probe, since they
    would slow it and make the program look faster.
    """
    rounds = 0
    c0, t0 = time.process_time(), time.perf_counter()
    while (t := time.perf_counter()) - t0 < seconds:
        for _ in range(10):
            _probe_round()
        rounds += 10
    wall = t - t0
    if time.process_time() - c0 > 1.2 * wall:
        raise RuntimeError("other threads of the benchmark process ran during the host-speed probe")
    return rounds, wall


def host_speed(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Host speed over two probes, against the reference rate."""
    return (before[0] + after[0]) / (before[1] + after[1]) / PROBE_REFERENCE_HZ


def at_reference_speed(run: dict, speed: float, loop_only: bool = False) -> None:
    """Scale a run's timings to the reference host speed, keeping the measured ones.

    ``loop_only`` scales the control loop's ticks and leaves the wall and
    solve times as measured. A full hop run is mostly the trajectory solve,
    vectorised numpy and Fortran L-BFGS-B, which the probe does not track:
    over four sets of 10 seeds, scaling widened its spread from 0.03-0.15
    to 0.11-0.16.
    """
    run["host_speed"] = speed
    run["measured"] = {k: run[k] for k in ("wall_s", "rtf", "solve_s") if k in run}
    if not loop_only:
        run["wall_s"] *= speed
        if "solve_s" in run:
            run["solve_s"] *= speed
    if "rtf" in run:
        run["rtf"] /= speed
    run["tick_ms"] = run["tick_ms"] * speed


def untraced(qs, workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    commands = commands_for(workload, seed)
    probes = [probe()]
    setup_s = measure_setup(workload, seed, commands[0])
    probes.append(probe())
    setup_speed = host_speed(probes[0], probes[1])
    runs = []

    def timed_run(*args, **kwargs):
        run = run_once(qs, workload, seed, *args, **kwargs)
        probes.append(probe())
        at_reference_speed(run, host_speed(probes[-2], probes[-1]),
                           loop_only=workload == "hop" and not run["replay"])
        runs.append(run)

    t_start = time.perf_counter()
    # whole cycles over the commands, so that each weighs the same
    while len(runs) % len(commands) or not runs or time.perf_counter() - t_start < seconds:
        timed_run(commands[len(runs) % len(commands)])
    # hop's tracking tail lasts about 2.5 s; replaying it pools enough ticks
    # for steady tick and real-time figures
    if workload == "hop" and "reference" in runs[0]:
        with exported_reference(runs[0]) as ref_path:
            for _ in range(HOP_TAIL_REPLAYS):
                timed_run(None, reference_csv=ref_path)
    # runs that failed a check still ran to completion and timed validly
    done = [r for r in runs if r["exit_code"] == 0]
    full = [r for r in done if not r["replay"]]
    passed = sum(not r["failures"] for r in runs)
    nan = float("nan")

    def median(key, among=full):
        vals = [r[key] for r in among if key in r]
        return float(statistics.median(vals)) if vals else nan

    def mean(key):  # deterministic per command: average over the command set
        vals = [r[key] for r in full if key in r]
        return float(np.mean(vals)) if vals else nan

    def tick_figures(tick_ms):
        # The p99 is per run, and the lowest over the runs is reported: the
        # host stalls single ticks in phases of tens of seconds, which set the
        # tail of the runs they hit and barely move the p50.
        tick_ms = [t for t in tick_ms if t.size]
        if not tick_ms:
            return {"rtf": nan, "tick_ms_p50": nan, "tick_ms_p99": nan}
        pool = np.concatenate(tick_ms)
        return {"rtf": pool.size * DT / (pool.sum() * 1e-3),
                "tick_ms_p50": float(np.percentile(pool, 50)),
                "tick_ms_p99": float(min(np.percentile(t, 99) for t in tick_ms))}

    metrics = {
        "setup_s": setup_s * setup_speed,
        "wall_s": median("wall_s"),
        **tick_figures([r["tick_ms"] for r in done]),
        "solve_s": median("solve_s"),
        "vel_rmse_mps": mean("vel_rmse_mps"),
        "height_rms_m": mean("height_rms_m"),
        "traj_cost": mean("traj_cost"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": passed / len(runs),
    }
    # the same timings as measured, before scaling to the reference speed
    measured = [r["measured"] for r in full]
    details = {"ticks": int(sum(r["tick_ms"].size for r in done)),
               "host_speed": [n / t / PROBE_REFERENCE_HZ for n, t in probes],
               "measured": {"setup_s": setup_s,
                            "wall_s": median("wall_s", measured),
                            **tick_figures([r["tick_ms"] / r["host_speed"] for r in done]),
                            "solve_s": median("solve_s", measured)}}
    return {"metrics": metrics, "details": details}, runs


def traced(qs, workload: str, seed: int) -> tuple[dict, list[dict]]:
    """Untraced, traced and hook-free runs of the workload's first input.

    The host's speed drifts by tens of percent within a minute, so each
    overhead is the median ratio over rounds of back-to-back runs. Tracing
    must not change what the program does: each traced run's summary must
    equal the untraced one bit for bit. The trots make two rounds, and the
    exact counts of their two traced runs must agree. A second traced hop
    would not fit the 180 s limit on a slow host, so on hop the traced solve
    must instead equal the untraced one bit for bit (cost, durations, outer
    iterations): L-BFGS-B on the same iterates makes the same evaluations.
    The tick hook runs only in hop's tracking tail, so hop's hook rounds
    replay that tail from the exported reference.
    """
    command = commands_for(workload, seed)[0]
    hop = workload == "hop"
    runs, bases, traces, hook_ratios, counts = [], [], [], [], []
    spans = None
    mismatches = {}
    for _ in range(1 if hop else 2):
        base = run_once(qs, workload, seed, command, "hooks")
        tr = run_once(qs, workload, seed, command, "traced")
        runs += [base, tr]
        bases.append(base["wall_s"])
        traces.append(tr["wall_s"])
        tracer = tr.pop("tracer")
        spans = spans or tracer.spans
        counts.append(layers.layer_metrics(tracer.spans))
        mismatches.update({f"summary.{k}": (v, tr["summary"].get(k))
                           for k, v in base["summary"].items()
                           if k != "runtime_s" and isinstance(v, (int, float))
                           and tr["summary"].get(k) != v})
        if hop and base.get("solve") and tr.get("solve"):
            a, b = base["solve"][2], tr["solve"][2]
            if (a.cost, a.outer_iterations) != (b.cost, b.outer_iterations) \
                    or not np.array_equal(a.durations, b.durations):
                mismatches["trajopt.solution"] = ((a.cost, a.outer_iterations),
                                                  (b.cost, b.outer_iterations))
        if not hop:
            none = run_once(qs, workload, seed, command, "none")
            runs.append(none)
            hook_ratios.append(base["wall_s"] / none["wall_s"])
    metrics = counts[0]
    for k in layers.EXACT_COUNTS:
        if any(c[k] != metrics[k] for c in counts[1:]):
            mismatches[k] = [c[k] for c in counts]
    if hop and "reference" in runs[0]:
        with exported_reference(runs[0]) as ref_path:
            for _ in range(2):
                pair = [run_once(qs, workload, seed, command, mode, reference_csv=ref_path)
                        for mode in ("hooks", "none")]
                runs += pair
                hook_ratios.append(pair[0]["wall_s"] / pair[1]["wall_s"])
    metrics.update({
        "overhead.untraced_wall_s": statistics.median(bases),
        "overhead.traced_wall_s": statistics.median(traces),
        "overhead.trace_frac": statistics.median(t / b for t, b in zip(traces, bases)) - 1.0,
        "overhead.hooks_frac": (statistics.median(hook_ratios) - 1.0
                                if hook_ratios else float("nan")),
        "overhead.hook_us_per_tick": tick_hook_us(),
        "determinism.mismatches": float(len(mismatches)),
    })
    if mismatches:
        runs[1]["failures"].append(f"runs of one input differ: {mismatches}")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    layers.write_spans(spans, WORK / "results" / f"spans-{workload}.csv")
    return {"metrics": metrics, "details": {"mismatches": mismatches}}, runs


def environment() -> dict:
    def git_commit():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadstack").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    qs = import_quadstack()
    env = environment()
    if args.trace:
        result, runs = traced(qs, args.workload, args.seed)
    else:
        result, runs = untraced(qs, args.workload, args.seed, args.seconds)
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(units))}")
    failed = sum(bool(r["failures"]) for r in runs)
    metrics = {k: {"value": v if np.isfinite(v) else None, "unit": units[k]}
               for k, v in result["metrics"].items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": result["details"],
              "runs": [{k: v for k, v in r.items()
                        if k in ("mode", "replay", "command", "wall_s", "rtf", "solve_s",
                                 "host_speed", "measured", "vel_rmse_mps",
                                 "height_rms_m", "traj_cost", "exit_code", "failures")}
                       for r in runs],
              "metrics": metrics}
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)}  failed {failed}  failed_frac {failed / len(runs):.4f}")
    print("env " + json.dumps(env))
    if "measured" in result["details"]:
        print("as measured, before scaling to the reference host speed: "
              + json.dumps(result["details"]["measured"]))
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED ({r['mode']}): {failure}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value'] if m['value'] is None else format(m['value'], '14.6g')}"
              f" {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
