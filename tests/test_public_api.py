"""The public names each module declares, and the layer boundaries the benchmark patches."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import quadstack

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
                   "scenarios.plan_swing", "swing.sample")


@pytest.mark.parametrize("controller", ["balance", "mpc"])
def test_trot_loop_calls_traced_boundaries(controller):
    layers = _layers()
    tracer = layers.Tracer()
    try:
        layers.install(tracer, quadstack)
        quadstack.scenarios.run_trot(duration=0.2, controller=controller)
    finally:
        tracer.restore()
    # the MPC replan's layers: the tables, the condensed solve and its QP
    expected = TROT_BOUNDARIES + (("scenarios.mpc_tables", "mpc.solve", "qpsolver.solve")
                                  if controller == "mpc" else ())
    traced = {name for name, *_ in tracer.spans}
    missing = [name for name in expected if name not in traced]
    assert not missing, f"no span recorded for {missing}"
    metrics = layers.layer_metrics(tracer.spans)
    for key in ("gait.us_per_tick", "scenarios.desired_us", "swing.sample_us"):
        assert metrics[key] > 0.0, key
    if controller == "mpc":
        for key in ("scenarios.mpc_tables_us", "mpc.build_ms", "qpsolver.mpc.iters"):
            assert metrics[key] > 0.0, key


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
