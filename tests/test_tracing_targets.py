"""Every function, method and counter that bench/tracing.py rebinds still
exists in the package, so a rename fails here before a traced benchmark run
fails on it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def module(name):
    return importlib.import_module(f"geolqr.{name}")


FUNCTION_TARGETS = [target for targets in tracing.FUNCTIONS.values() for target in targets]
FUNCTION_TARGETS += list(tracing.BATCH_COUNTERS.values())
FUNCTION_TARGETS.append(tuple(tracing.SIMULATE.split(".")))
METHOD_TARGETS = [target for targets in tracing.METHODS.values() for target in targets]


@pytest.mark.parametrize("mod, attr", FUNCTION_TARGETS,
                         ids=[".".join(t) for t in FUNCTION_TARGETS])
def test_function_target_resolves(mod, attr):
    assert callable(getattr(module(mod), attr, None))


@pytest.mark.parametrize("mod, cls, attr", METHOD_TARGETS,
                         ids=[".".join(t) for t in METHOD_TARGETS])
def test_method_target_resolves(mod, cls, attr):
    # The tracer replaces the method in the class's own namespace.
    assert callable(vars(getattr(module(mod), cls)).get(attr))
