"""The public names and class members each module declares, and the layer
boundaries the benchmark patches."""

import ast
import importlib
import importlib.util
import itertools
import pkgutil
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import quadstack
from quadstack import so3
from quadstack.sim import SensorNoise
from quadstack.swing import UnreachableError, leg_ik
from quadstack.trajopt import BodyReference

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadstack.__path__))
LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"quadstack.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"quadstack.{name}.__all__ names missing attributes: {missing}"


def _layers():
    for name in MODULES:
        importlib.import_module(f"quadstack.{name}")
    spec = importlib.util.spec_from_file_location("quadstack_bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_tracer_installs_and_restores():
    # the tracer patches class and module attributes by name; a deleted or
    # renamed boundary makes install raise instead of tracing nothing
    layers = _layers()
    tracer = layers.Tracer()
    patched = []
    try:
        layers.install(tracer, quadstack)
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


# the per-tick helpers of the trot loop that the tracer times; a loop that
# inlines one of them makes its per-layer metric read 0
TROT_BOUNDARIES = ("gait.subphase", "gait.total_weight", "gait.support_polygon",
                   "gait.desired_com", "gait.footstep", "scenarios.desired",
                   "scenarios.plan_swing", "swing.sample", "sim.step")


# the estimator and balance layers of a balance trot on estimates
ESTIMATE_BOUNDARIES = ("scenarios.estimator_step", "estimation.orient", "estimation.kf_predict",
                       "estimation.kf_update", "estimation.legmeas", "sim.imu", "sim.encoders",
                       "balance.compute", "qpsolver.solve")


@pytest.mark.parametrize("controller, noise", [
    pytest.param("balance", None, id="balance"), pytest.param("mpc", None, id="mpc"),
    pytest.param("balance", SensorNoise(), id="balance-estimates")])
def test_trot_loop_calls_traced_boundaries(controller, noise):
    layers = _layers()
    tracer = layers.Tracer()
    try:
        layers.install(tracer, quadstack)
        quadstack.scenarios.run_trot(duration=0.2, controller=controller, noise=noise)
    finally:
        tracer.restore()
    # the MPC replan's layers: the tables, the condensed solve and its QP
    expected = TROT_BOUNDARIES + (("scenarios.mpc_tables", "mpc.solve", "qpsolver.solve")
                                  if controller == "mpc" else ())
    expected += ESTIMATE_BOUNDARIES if noise is not None else ()
    traced = {name for name, *_ in tracer.spans}
    missing = [name for name in expected if name not in traced]
    assert not missing, f"no span recorded for {missing}"
    metrics = layers.layer_metrics(tracer.spans)
    # one traced sim.step per tick: the tracer counts ticks by it
    assert metrics["scenarios.ticks"] == 200
    for key in ("gait.us_per_tick", "scenarios.desired_us", "swing.sample_us", "sim.step_us"):
        assert metrics[key] > 0.0, key
    if controller == "mpc":
        for key in ("scenarios.mpc_tables_us", "mpc.build_ms", "qpsolver.mpc.iters"):
            assert metrics[key] > 0.0, key
    if noise is not None:
        for key in ("estimation.orient_us", "estimation.kf_predict_us", "estimation.kf_update_us",
                    "estimation.legmeas_us", "sim.imu_us", "sim.encoders_us",
                    "balance.compute_us_p50", "qpsolver.balance.solve_us_p50"):
            assert metrics[key] > 0.0, key
        # one top-level balance QP per tick, each inside balance.compute
        assert metrics["qpsolver.balance.solves"] == 200


def test_timing_solve_calls_traced_boundaries():
    # the tracer's _eval hook reads need_grad and times the derivative handle
    # it returns; a changed _eval signature fails here, not first under --trace
    layers = _layers()
    tracer = layers.Tracer()
    try:
        layers.install(tracer, quadstack)
        problem = quadstack.trajopt.TimingProblem(quadstack.scenarios.hop_spec(n_knots=4))
        sol = quadstack.scenarios.solve_timing(problem)
    finally:
        tracer.restore()
    traced = {name for name, *_ in tracer.spans}
    missing = [name for name in ("trajopt.solve", "trajopt.minimize", "trajopt.eval",
                                 "trajopt.grad") if name not in traced]
    assert not missing, f"no span recorded for {missing}"
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["trajopt.outer_iters"] == sol.outer_iterations
    assert metrics["trajopt.inner_iters"] == sum(e["newton_steps"] for e in sol.trace)
    assert metrics["trajopt.evals"] == sum(e["merit_evals"] for e in sol.trace)


# the tracking helpers run_jump_sim calls per stance tick, plus the sim
JUMP_BOUNDARIES = ("swing.leg_ik", "swing.stance_torque", "swing.jump_track_torque",
                   "swing.grf_from_torque", "sim.step", "sim.encoders")


def _traced_jump_sim(spec, ref):
    layers = _layers()
    tracer = layers.Tracer()
    try:
        layers.install(tracer, quadstack)
        res = quadstack.scenarios.run_jump_sim(spec, ref)
    finally:
        tracer.restore()
    return res, tracer.spans, layers.layer_metrics(tracer.spans)


def test_jump_sim_calls_traced_boundaries(monkeypatch):
    # a jump loop that inlines a tracking helper makes swing.track_us_per_tick
    # read 0
    monkeypatch.setattr(quadstack.scenarios, "_RECOVER_TIME", 0.0)
    spec = quadstack.scenarios.hop_spec(n_knots=4)
    ref = quadstack.scenarios.reference_from_log(quadstack.scenarios.run_jump_opt(spec).log)
    _, spans, metrics = _traced_jump_sim(spec, ref)
    traced = {name for name, *_ in spans}
    missing = [name for name in JUMP_BOUNDARIES if name not in traced]
    assert not missing, f"no span recorded for {missing}"
    assert metrics["swing.track_us_per_tick"] > 0.0


def test_jump_sim_counts_each_ik_fallback_tick(monkeypatch):
    # leg targets are kept per 10 ms reference sample, but only after leg_ik
    # succeeds: a target outside the workspace is retried and counted on every
    # stance tick, by the summary and by the tracer alike
    monkeypatch.setattr(quadstack.scenarios, "_RECOVER_TIME", 0.0)
    spec = quadstack.scenarios.hop_spec(n_knots=4)
    n = 31
    forces = np.zeros((n, 12))
    forces[:, 2::3] = spec.model.weight / 4.0
    ref = BodyReference(t=np.arange(n) * 0.01, pos=np.tile(spec.p_start, (n, 1)),
                        vel=np.zeros((n, 3)), rot=np.tile(np.eye(3), (n, 1, 1)),
                        omega=np.zeros((n, 3)), forces=forces,
                        phase_times=np.array([0.25, 0.3]))
    # samples 5-8 raise and pitch the body: the front feet leave the workspace
    ref.pos[5:9, 2] += 0.2
    ref.rot[5:9] = so3.rot_y(-0.2)
    failing = []
    for p, r in zip(ref.pos, ref.rot):
        legs_out = 0
        for leg, foot in enumerate(spec.feet_start):
            try:
                leg_ik(r.T @ (foot - p), leg)
            except UnreachableError:
                legs_out += 1
        failing.append(legs_out)
    assert failing[5:9] == [2, 2, 2, 2] and sum(failing) == 8
    # stance ticks at t = k * 1 ms (summed as the sim sums it) read sample t // 10 ms
    expected, t = 0, 0.0
    while t < ref.phase_times[0]:
        expected += failing[min(int(t / (ref.t[1] - ref.t[0])), n - 1)]
        t += 1e-3
    res, _, metrics = _traced_jump_sim(spec, ref)
    assert res.summary["ik_fallbacks"] == expected > 0
    assert metrics["swing.ik_fallbacks"] == expected


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "quadstack").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, f"imported but never read: {unused}"


# public names that only tests call, each with the reason it stays
TEST_ONLY_ALLOWED = {
    "estimation.leg_measurement_from_kinematics":
        "per-leg reference that leg_measurements_batch is compared against",
    "gait.virtual_points": "numpy reference step that support_polygon is compared against",
    "gait.polygon_vertex": "numpy reference step that support_polygon is compared against",
    "mpc.plan_cost": "cost oracle the condensed MPC QP is compared against",
    "so3.vee": "inverse of hat, the reference hat is checked against",
    "so3.rotation_error": "orientation oracle of the acceptance suite",
    "so3.rpy_to_matrix": "I/O helper, the inverse of matrix_to_rpy",
    "trajopt.trajectory_cost": "cost oracle the timing solver's cost is compared against",
}


def _reads(node, skip=frozenset()) -> set[str]:
    """Bare names and ``name.attr`` pairs a syntax tree reads, leaving out
    type annotations and the definitions in ``skip``."""
    if node in skip:
        return set()
    if isinstance(node, ast.FunctionDef):
        children = [*node.decorator_list, *node.args.defaults,
                    *[d for d in node.args.kw_defaults if d is not None], *node.body]
    elif isinstance(node, ast.AnnAssign):
        children = [] if node.value is None else [node.value]
    else:
        children = list(ast.iter_child_nodes(node))
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.add(node.id)
    elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
          and isinstance(node.value, ast.Name)):
        out.add(f"{node.value.id}.{node.attr}")
    for child in children:
        out |= _reads(child, skip)
    return out


def _module_reads(tree) -> set[str]:
    """The ``module.name`` of each quadstack name a file reads: through a
    module attribute (``so3.log_map``) or a name imported from the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("quadstack.")
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{module}.{alias.name}"
    return {imported.get(read, read) for read in _reads(tree)}


def test_public_names_have_a_program_caller():
    # a name in __all__ is read by the program, outside its own definition,
    # or by the benchmark, or it is an oracle or I/O helper listed above
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "quadstack"
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py")) + sorted((root / "perfbench").glob("*.py"))}
    reads = {path: _module_reads(tree) for path, tree in trees.items()}
    uncalled, declared = [], set()
    for name in MODULES:
        module = importlib.import_module(f"quadstack.{name}")
        own = src / f"{name}.py"
        other_reads = set().union(*(r for path, r in reads.items() if path != own))
        for public in getattr(module, "__all__", ()):
            declared.add(f"{name}.{public}")
            own_defs = frozenset(node for node in trees[own].body
                                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                                 and node.name == public)
            if public not in _reads(trees[own], own_defs) and f"{name}.{public}" not in other_reads:
                uncalled.append(f"{name}.{public}")
    unexplained = [n for n in uncalled if n not in TEST_ONLY_ALLOWED]
    assert not unexplained, f"public names with no program caller: {unexplained}"
    stale = [n for n in TEST_ONLY_ALLOWED if n not in declared or n not in uncalled]
    assert not stale, f"allowlist entries that are not test-only public names: {stale}"


# class members that only tests read, each with the reason it stays
MEMBER_TEST_ONLY_ALLOWED = {
    "qpsolver.QpProblem.objective": "objective of the brute-force QP oracle",
    "qpsolver.QpResult.lam_ineq": "multipliers of the KKT certificate the QP tests check",
}


def _attribute_loads(node) -> Counter:
    """How often each attribute name is loaded in a syntax tree (``x.name``
    for any ``x``); bare names do not count."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _class_members(tree):
    """``(class, member, definition nodes)`` for each method, property and
    dataclass field of the module's classes, dunder methods left out. A
    field's definition includes the class's ``__post_init__``, which only
    coerces it."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        post_init = [n for n in cls.body
                     if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                yield cls.name, node.name, [node]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id, [node, *post_init]


def test_class_members_have_a_program_reader():
    # a member is read as an attribute by the program, outside its own
    # definition, or by the benchmark, or it is an oracle listed above
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "quadstack"
    paths = sorted(src.glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    unread, declared = [], set()
    for path in sorted(src.glob("*.py")):
        for cls, member, own in _class_members(trees[path]):
            name = f"{path.stem}.{cls}.{member}"
            declared.add(name)
            own_loads = sum((_attribute_loads(node)[member] for node in own), 0)
            if loads[member] - own_loads <= 0:
                unread.append(name)
    unexplained = [n for n in unread if n not in MEMBER_TEST_ONLY_ALLOWED]
    assert not unexplained, f"class members with no program reader: {unexplained}"
    stale = [n for n in MEMBER_TEST_ONLY_ALLOWED if n not in declared or n not in unread]
    assert not stale, f"allowlist entries that are not test-only members: {stale}"


# defaulted parameters and dataclass fields that only tests set, each with
# the reason it stays
SETTABLE_TEST_ONLY_ALLOWED = {
    "balance.FrictionSpec.f_min": "the pyramids' lower normal-force bound: every controller "
                                  "runs with 0, test_mpc.py checks a positive one",
    "balance.FrictionSpec.mu": "the pyramids' friction coefficient: every controller runs "
                               "with MU, tests vary it to make the pyramid bind",
    "cli.main.argv": "the entry point's arguments; the console script passes none",
    "trajopt.ContactPhase.feet_pos": "per-phase footholds of the jump corpus, "
                                     "tested in test_trajopt.py",
    "trajopt.TimingProblem._derivative_blocks.y_eq": "passed through functools.partial, "
                                                     "which the guard does not follow",
    "trajopt.TimingProblem._derivative_blocks.y_in": "passed through functools.partial, "
                                                     "which the guard does not follow",
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _settable_values(tree, module: str):
    """``(name, callee, position, keyword, own definition, field)`` for each
    defaulted parameter of the module's functions and methods and each
    defaulted dataclass field. ``callee`` is the name a call uses (the class
    for a constructor or a field), ``position`` the index among the
    positional arguments of such a call (None for keyword-only ones), and
    the own definition the function, or the class of a constructor or
    field."""
    def visit(node, qual, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from fields(child, f"{qual}.{child.name}")
                yield from visit(child, f"{qual}.{child.name}", child)
            elif isinstance(child, ast.FunctionDef):
                yield from params(child, qual, cls)
                yield from visit(child, f"{qual}.{child.name}", None)

    def params(fn, qual, cls):
        method = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        ctor = method and fn.name == "__init__"
        prefix, callee, own = ((qual, cls.name, cls) if ctor else
                               (f"{qual}.{fn.name}", fn.name, fn))
        positional = [*fn.args.posonlyargs, *fn.args.args][1 if method else 0:]
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield f"{prefix}.{arg.arg}", callee, i, arg.arg, own, False
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{prefix}.{arg.arg}", callee, None, arg.arg, own, False

    def fields(cls, qual):
        if not any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                   for d in cls.decorator_list):
            return
        names = [n for n in cls.body
                 if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        for i, node in enumerate(names):
            if node.value is not None:
                yield f"{qual}.{node.target.id}", cls.name, i, node.target.id, cls, True

    yield from visit(tree, module, None)


def _sets(call: ast.Call, position: int | None, keyword: str) -> bool:
    """Whether a call passes the argument: by keyword, by position, or
    through ``*`` or ``**``."""
    if any(kw.arg is None or kw.arg == keyword for kw in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= position
    return position < len(call.args)


def test_settable_values_have_a_program_setter():
    # a defaulted parameter or dataclass field is set by the program,
    # outside its own definition, or by the benchmark: by a call, or for a
    # field by an attribute store outside its class. A value that only
    # tests set is a module constant, or it is listed above
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "quadstack"
    paths = sorted(src.glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    calls, stores = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.attr, []).append(node)
    unset, declared = [], set()
    for path in sorted(src.glob("*.py")):
        for name, callee, position, keyword, own, field in _settable_values(trees[path],
                                                                             path.stem):
            declared.add(name)
            inside = set(ast.walk(own))
            setters = [c for c in calls.get(callee, ()) if c not in inside
                       and _sets(c, position, keyword)]
            if field:
                setters += [s for s in stores.get(keyword, ()) if s not in inside]
            if not setters:
                unset.append(name)
    unexplained = [n for n in unset if n not in SETTABLE_TEST_ONLY_ALLOWED]
    assert not unexplained, f"settable values with no program setter: {unexplained}"
    stale = [n for n in SETTABLE_TEST_ONLY_ALLOWED if n not in declared or n not in unset]
    assert not stale, f"allowlist entries that are not test-only settable values: {stale}"


# attributes stored on self in src/ that no code in src/ loads, each with
# the reason it stays
INSTANCE_ATTR_TEST_ONLY_ALLOWED = {}


def test_instance_attributes_are_read():
    # an attribute a method stores on self is loaded somewhere in src/
    # (``x.name`` for any ``x``), or it is listed above
    src = Path(__file__).resolve().parents[1] / "src" / "quadstack"
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    stored = set()
    for path, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.add(f"{path.stem}.{cls.name}.{node.attr}")
    unread = sorted(n for n in stored if loads[n.rpartition(".")[2]] == 0)
    unexplained = [n for n in unread if n not in INSTANCE_ATTR_TEST_ONLY_ALLOWED]
    assert not unexplained, f"instance attributes stored but never read: {unexplained}"
    stale = [n for n in INSTANCE_ATTR_TEST_ONLY_ALLOWED if n not in unread]
    assert not stale, f"allowlist entries that are not unread instance attributes: {stale}"


def test_readme_constants_exist():
    # each name in the README's table of module constants: ``module.name``
    # in a row's first cell, and the bare names after it in the same module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("| constant | value |") + 2
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), readme[start:]))
    assert rows
    missing = []
    for row in rows:
        for name in re.findall(r"`([\w.]+)`", row.split("|")[1]):
            if "." in name:
                module, _, name = name.rpartition(".")
            if not hasattr(importlib.import_module(f"quadstack.{module}"), name):
                missing.append(f"{module}.{name}")
    assert not missing, f"README constants that do not exist: {missing}"



def test_one_closed_loop():
    # the scenarios share one closed loop: scenarios.py builds one SimWorld
    # and steps it in one place, so a second copy of the loop fails here
    tree = ast.parse((Path(quadstack.__file__).resolve().parent / "scenarios.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    builds = [node for node in calls if name(node.func) == "SimWorld"]
    assert len(builds) == 1, f"{len(builds)} SimWorld constructions"
    worlds = [target for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and node.value is builds[0] for target in node.targets]
    assert len(worlds) == 1, "the SimWorld is not bound to one name"
    steps = [node for node in calls if name(node.func) == "step"
             and isinstance(node.func, ast.Attribute) and name(node.func.value) == name(worlds[0])]
    assert len(steps) == 1, f"{len(steps)} calls of the world's step"
