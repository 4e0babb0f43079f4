"""Per-layer tracing, patched in from outside the program.

A :class:`Tracer` replaces the module or class attribute that each caller
looks up with a wrapper that records a span (name, start, end, parent).
Spans stay in memory until :func:`layer_metrics` reduces them and
:func:`write_spans` stores them at the end of the run. A layer's self
time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import csv
import inspect
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# span names that own the 1 kHz loop; "per tick" figures count only spans
# nested inside one of them
LOOP_SPANS = ("scenarios.trot_loop", "scenarios.jump_sim")
QP_CALLERS = ("balance.compute", "mpc.solve")

# counts that must repeat exactly between two traced runs of one input
EXACT_COUNTS = ("mpc.replans", "qpsolver.balance.iters", "qpsolver.mpc.iters",
                "trajopt.evals", "trajopt.inner_iters", "trajopt.outer_iters")


class Tracer:
    def __init__(self):
        # one record per span: [name, start_ns, end_ns, parent, raised, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, post=None):
        """``fn`` timed as span ``name``; ``post(rec, args, kwargs, out)`` may replace ``out``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter_ns()
                rec[4] = True
                stack.pop()
                raise
            rec[2] = perf_counter_ns()
            stack.pop()
            return out if post is None else post(rec, args, kwargs, out)

        return traced

    def patch(self, owner, attr: str, name: str, post=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, post))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()



def write_spans(spans: list[list], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "name", "start_ns", "end_ns", "parent", "raised"])
        for i, (name, t0, t1, parent, raised, _info) in enumerate(spans):
            out.writerow([i, name, t0, t1, parent, int(raised)])


def _qp_post(rec, args, kwargs, out):
    qp = args[1]
    x0 = args[2] if len(args) > 2 else kwargs.get("x0")
    rec[5] = (qp.n, out.iterations, len(out.active_set),
              out.status.name == "OPTIMAL", x0 is not None)
    return out


def _solve_post(rec, args, kwargs, out):
    # same shape as the untraced hook's record, for the run's checks
    rec[5] = ((rec[2] - rec[1]) * 1e-9, args[0], out)
    return out


def _minimize_post(rec, args, kwargs, out):
    rec[5] = int(out.nit)
    return out


def install(tracer: Tracer, quadstack) -> None:
    """Patch every layer boundary the scenarios cross."""
    cli, scenarios, sim, swing, so3, trajopt, qpsolver, balance, gait = (
        quadstack.cli, quadstack.scenarios, quadstack.sim, quadstack.swing,
        quadstack.so3, quadstack.trajopt, quadstack.qpsolver, quadstack.balance,
        quadstack.gait)
    p = tracer.patch

    p(cli, "load_config", "cli.config")
    p(cli, "write_csv", "cli.write_csv")

    p(scenarios.TrotDriver, "run", "scenarios.trot_loop")
    p(scenarios.TrotDriver, "desired", "scenarios.desired")
    p(scenarios.TrotDriver, "mpc_tables", "scenarios.mpc_tables")
    p(scenarios.TrotDriver, "plan_swing", "scenarios.plan_swing")
    p(scenarios.EstimatorLoop, "step", "scenarios.estimator_step")
    p(scenarios, "run_jump_opt", "scenarios.jump_opt")
    p(scenarios, "run_jump_sim", "scenarios.jump_sim")

    p(sim.SimWorld, "step", "sim.step")
    p(sim.SimWorld, "synth_encoders", "sim.encoders")
    p(sim.SimWorld, "synth_imu", "sim.imu")

    p(scenarios, "orientation_step", "estimation.orient")
    p(scenarios, "kf_predict", "estimation.kf_predict")
    p(scenarios, "kf_update", "estimation.kf_update")
    p(scenarios, "leg_measurements_batch", "estimation.legmeas")

    p(balance.BalanceController, "compute", "balance.compute")
    p(scenarios, "solve_mpc", "mpc.solve")
    p(qpsolver.ActiveSetSolver, "solve", "qpsolver.solve", post=_qp_post)

    for fn in ("subphase", "total_weight", "support_polygon", "desired_com", "footstep"):
        p(gait, fn, f"gait.{fn}")

    p(swing.SwingTrajectory, "sample", "swing.sample")
    # run_jump_sim imports these from swing inside its body on every call
    for fn in ("leg_ik", "stance_torque", "jump_track_torque", "grf_from_torque"):
        p(swing, fn, f"swing.{fn}")

    for fn, obj in vars(so3).items():
        if inspect.isfunction(obj) and obj.__module__ == so3.__name__ and not fn.startswith("_"):
            p(so3, fn, f"so3.{fn}")

    def eval_post(rec, args, kwargs, out):
        need_grad = args[2] if len(args) > 2 else kwargs["need_grad"]
        rec[5] = bool(need_grad)
        if not need_grad:
            return out
        cost, c_eq, c_in, grad = out
        return cost, c_eq, c_in, tracer.wrap("trajopt.grad", grad)

    p(trajopt.TimingProblem, "_eval", "trajopt.eval", post=eval_post)
    p(trajopt, "minimize", "trajopt.minimize", post=_minimize_post)
    p(trajopt, "_row_scales", "trajopt.row_scales")
    p(scenarios, "solve_timing", "trajopt.solve", post=_solve_post)
    p(scenarios, "check_constraints", "trajopt.check")
    p(scenarios, "export_reference", "trajopt.export")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce one traced run's spans to the per-layer metrics (see BENCHMARK.json)."""
    n = len(spans)
    dur = np.array([(s[2] - s[1]) * 1e-3 for s in spans])  # microseconds
    child = np.zeros(n)
    in_loop = np.zeros(n, dtype=bool)
    owner = [""] * n          # nearest enclosing QP caller
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    for i, (name, _t0, _t1, parent, _raised, _info) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_loop[i] = in_loop[parent]
            owner[i] = owner[parent]
        if name in LOOP_SPANS:
            in_loop[i] = True
        if name in QP_CALLERS:
            owner[i] = name.split(".", 1)[0]
    self_us = dur - child
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def durs(name):
        return dur[by_name[name]]

    def entry(i):  # first span of its layer on the call path
        parent = spans[i][3]
        return parent < 0 or layer_of[parent] != layer_of[i]

    ticks = len(by_name["sim.step"])
    per_tick = 1.0 / max(ticks, 1)
    m: dict[str, float] = {"scenarios.ticks": float(ticks)}

    m["sim.step_us"] = _mean(durs("sim.step"))
    m["sim.encoders_us"] = _mean(durs("sim.encoders"))
    m["sim.imu_us"] = _mean(durs("sim.imu"))

    for key in ("orient", "kf_predict", "kf_update", "legmeas"):
        m[f"estimation.{key}_us"] = _mean(durs(f"estimation.{key}"))

    qp_top = [i for i in by_name["qpsolver.solve"] if entry(i)]
    nested = {spans[i][3] for i in by_name["qpsolver.solve"] if not entry(i)}
    for caller in ("balance", "mpc"):
        top = [i for i in qp_top if owner[i] == caller]
        calls = [i for i in by_name["qpsolver.solve"] if owner[i] == caller]
        info = [spans[i][5] for i in top]
        m[f"qpsolver.{caller}.solves"] = float(len(top))
        m[f"qpsolver.{caller}.solve_us_p50"] = _pct(dur[top], 50)
        m[f"qpsolver.{caller}.solve_us_p99"] = _pct(dur[top], 99)
        m[f"qpsolver.{caller}.iters"] = float(sum(spans[i][5][1] for i in calls))
        m[f"qpsolver.{caller}.active"] = _mean([x[2] for x in info])
        m[f"qpsolver.{caller}.phase1_share"] = (
            sum(i in nested for i in top) / len(top) if top else 0.0)
        m[f"qpsolver.{caller}.warm_share"] = (
            sum(x[4] for x in info) / len(top) if top else 0.0)
        m[f"qpsolver.{caller}.nonoptimal"] = float(sum(not x[3] for x in info))

    computes = by_name["balance.compute"]
    m["balance.compute_us_p50"] = _pct(dur[computes], 50)
    m["balance.compute_us_p99"] = _pct(dur[computes], 99)
    m["balance.self_us"] = _mean(self_us[computes])
    top_qps_per_compute = defaultdict(int)
    for i in qp_top:
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "balance.compute":
            top_qps_per_compute[spans[i][3]] += 1
    m["balance.backoffs"] = float(sum(c > 1 for c in top_qps_per_compute.values()))

    solves = by_name["mpc.solve"]
    qp_in_solve = defaultdict(float)
    qp_n = []
    for i in qp_top:
        parent = spans[i][3]
        if parent >= 0 and spans[parent][0] == "mpc.solve":
            qp_in_solve[parent] += dur[i]
            qp_n.append(spans[i][5][0])
    m["mpc.solve_ms_p50"] = _pct(dur[solves], 50) * 1e-3
    m["mpc.solve_ms_p99"] = _pct(dur[solves], 99) * 1e-3
    m["mpc.build_ms"] = _pct([dur[i] - qp_in_solve[i] for i in solves], 50) * 1e-3
    m["mpc.replans"] = float(len(solves))
    m["mpc.qp_n"] = _mean(qp_n)

    gait_loop = [i for i, layer in enumerate(layer_of) if layer == "gait" and in_loop[i] and entry(i)]
    m["gait.us_per_tick"] = float(dur[gait_loop].sum()) * per_tick

    m["scenarios.desired_us"] = _mean(durs("scenarios.desired"))
    m["scenarios.mpc_tables_us"] = _mean(durs("scenarios.mpc_tables"))
    scen_loop = [i for i, layer in enumerate(layer_of) if layer == "scenarios" and in_loop[i]]
    m["scenarios.self_us_per_tick"] = float(self_us[scen_loop].sum()) * per_tick

    m["swing.sample_us"] = _mean(durs("swing.sample"))
    swing_loop = [i for i, layer in enumerate(layer_of) if layer == "swing" and in_loop[i] and entry(i)]
    m["swing.track_us_per_tick"] = float(dur[swing_loop].sum()) * per_tick
    m["swing.ik_fallbacks"] = float(sum(spans[i][4] for i in by_name["swing.leg_ik"]))

    so3_loop = [i for i, layer in enumerate(layer_of) if layer == "so3" and in_loop[i] and entry(i)]
    m["so3.calls_per_tick"] = len(so3_loop) * per_tick
    m["so3.us_per_tick"] = float(dur[so3_loop].sum()) * per_tick

    evals = by_name["trajopt.eval"]
    m["trajopt.evals"] = float(sum(spans[i][5] for i in evals))
    m["trajopt.evals_nograd"] = float(sum(not spans[i][5] for i in evals))
    m["trajopt.eval_us"] = _mean(dur[evals])
    m["trajopt.grad_us"] = _mean(durs("trajopt.grad"))
    m["trajopt.lbfgs_self_s"] = float(self_us[by_name["trajopt.minimize"]].sum()) * 1e-6
    m["trajopt.inner_iters"] = float(sum(spans[i][5] for i in by_name["trajopt.minimize"]))
    m["trajopt.outer_iters"] = float(len(by_name["trajopt.minimize"]))
    m["trajopt.row_scales_s"] = float(durs("trajopt.row_scales").sum()) * 1e-6
    m["trajopt.check_s"] = float(durs("trajopt.check").sum()) * 1e-6
    m["trajopt.export_s"] = float(durs("trajopt.export").sum()) * 1e-6

    m["cli.config_s"] = float(durs("cli.config").sum()) * 1e-6
    m["cli.write_csv_s"] = float(durs("cli.write_csv").sum()) * 1e-6

    # self time per layer, seconds; the root span is the benchmark's own
    # cli.run wrapper, so the layers below add up to the traced wall time
    totals = defaultdict(float)
    for i, layer in enumerate(layer_of):
        totals[layer] += self_us[i]
    for layer in ("cli", "scenarios", "sim", "estimation", "balance", "qpsolver",
                  "mpc", "gait", "swing", "so3", "trajopt"):
        m[f"{layer}.self_s"] = totals[layer] * 1e-6
    m["trace.spans"] = float(n)
    return m
