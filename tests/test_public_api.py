"""The public names each module declares, and the layer boundaries the benchmark patches."""

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


def test_benchmark_tracer_installs_and_restores():
    # the tracer patches class and module attributes by name; a deleted or
    # renamed boundary makes install raise instead of tracing nothing
    for name in MODULES:
        importlib.import_module(f"quadstack.{name}")
    spec = importlib.util.spec_from_file_location("quadstack_bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

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
