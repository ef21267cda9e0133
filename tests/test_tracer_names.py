"""The functions the benchmark tracer times are where it looks for them.

``bench/tracer.py`` wraps a function of a traced module only if the module
lists it in ``__all__`` and defines it (its ``__module__``).  A function
moved to another module would leave its per-layer metrics at 0 without an
error, so every function that a metric or a count names is checked here.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_names(tracer):
    """``module.function`` for each count-only function and each function
    a per-layer metric ``module.function.quantity`` names."""
    names = set(tracer.COUNT_ONLY)
    for metric in tracer.LAYER_METRICS:
        parts = metric.split(".")
        if len(parts) >= 3 and parts[0] in tracer.MODULES:
            names.add(".".join(parts[:2]))
    return sorted(names)


@pytest.mark.parametrize("name", traced_names(load_tracer()))
def test_traced_function_is_public_and_defined_in_its_module(name):
    short, attr = name.split(".")
    module = importlib.import_module(f"tensorreg.{short}")
    assert attr in module.__all__, f"{name} is not in {module.__name__}.__all__"
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (
        f"{name} is not a function defined in {module.__name__}"
    )
