"""The benchmark harness's view of the package.

perfbench/tracing.py names the functions and methods it wraps, and every
benchmark run, traced or not, resolves all of them.  These tests load
that file unchanged and check its names against geostab, so a rename or
deletion in the package fails here rather than in the benchmark.
"""

import importlib
import importlib.util
import math
import pathlib

import geostab.cli  # noqa: F401  (imports every traced module)
from geostab.integrators import expansivity_ratio, integrate

from conftest import make_field, random_points

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for layer, (mod, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(mod), attr)), layer
    for prefix, (mod, base_name, methods) in tracing.METHODS.items():
        module = importlib.import_module(mod)
        base = getattr(module, base_name)
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and issubclass(c, base)]
        for name in methods:
            assert any(name in vars(c) for c in classes), f"{prefix}.{name}"
    layers = {layer for _, _, layer, _ in tracing.targets()}
    assert layers == set(tracing.layer_names())


def test_traced_steps_are_recorded_through_the_step_table(rng):
    """integrate and expansivity_ratio call the module's current step
    functions, so the tracer's wrappers see every step they take."""
    tracing = load_tracing()
    field = make_field("s2", eps=1.0)
    p, q = random_points(field.manifold, rng, 2)
    snapshot = tracing.targets()
    tracer = tracing.Tracer()
    tracer.install(snapshot)
    try:
        integrate(field, p, 0.1, 3)
        expansivity_ratio(field, p, q, 0.1, method="gie")
    finally:
        tracer.uninstall()
    tracing.check_unwrapped(snapshot)
    counts = tracer.reduce(0, tracer.mark(), math.inf)
    assert counts["integrators.gee_step.calls"] == 3
    assert counts["integrators.gie_step.calls"] == 2
