"""Every function, method and counter that bench/tracing.py rebinds still
exists in the package, so a rename fails here before a traced benchmark run
fails on it; the closed loop still steps through the exp_so3 that dynamics
binds, which the tracer counts; and short track and DRE regulate runs
complete inside the tracer, with a law span per sample and an exp_so3 span
per step."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from geolqr import dynamics, scenarios
from geolqr.config import parse_config
from geolqr.dynamics import InertiaTensor, RigidBodyState, SimParams, simulate, time_grid

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


@pytest.mark.parametrize("steps", [1, 300])
def test_simulate_calls_the_bound_exp_so3_once_per_step(monkeypatch, steps):
    calls = []
    exp_so3 = dynamics.exp_so3

    def counting(v):
        calls.append(v)
        return exp_so3(v)

    monkeypatch.setattr(dynamics, "exp_so3", counting)
    p = SimParams(1e-3, steps * 1e-3, InertiaTensor.diagonal([1.0, 2.0, 3.0]))
    log = simulate(lambda r, w: (0.1, 0.0, -0.2),
                   RigidBodyState(np.eye(3), np.array([0.3, 0.1, 0.0])), p)
    assert len(log) == steps + 1
    assert len(calls) == steps


# The tracer wraps a third positional argument of simulate as a diagnostics
# callback, so the tables must reach simulate by keyword.
@pytest.mark.parametrize("config", [
    {"command": "track", "sim": {"t_end": 0.3}},
    {"command": "regulate", "sim": {"t_end": 0.3}, "controller": {"gain_source": "dre"}},
], ids=["track", "regulate-dre"])
def test_traced_run_counts_a_span_per_sample_and_step(tmp_path, config):
    cfg = parse_config(json.dumps(config))
    steps = len(time_grid(cfg.sim.h, cfg.sim.t_end)) - 1
    with tracing.instrument(tracing.Tracer()) as tracer:
        summary, ok, _ = scenarios.run(cfg, str(tmp_path))
    stats = tracer.stats()
    assert ok and summary.final_distance is not None
    assert stats[tracing.SIMULATE]["calls"] == 1
    assert stats[tracing.CONTROLLER_CB]["calls"] == steps + 1
    assert stats["so3.exp_so3"]["calls"] == steps
