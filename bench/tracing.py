"""Spans around geolqr's module boundaries, recorded from outside the package.

`instrument` replaces each traced function at every module attribute of the
geolqr package that is bound to it (for example `dynamics.exp_so3` and
`regulators.exp_so3` as well as `so3.exp_so3`), because callers look functions
up in their own module's namespace. Methods are replaced on their class. The
callables `scenarios` hands to `simulate` are wrapped too. Everything is put
back when the context exits.

A span is (name, start, end, parent); spans stay in memory and are written out
with `save`. A name's self time is the sum over its spans of the span's length
minus the length of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Span name -> functions recorded under it, as (module, attribute). A name
# with several functions (the three torque laws) sums them.
FUNCTIONS = {
    "so3.exp_so3": [("so3", "exp_so3")],
    "so3.log_so3": [("so3", "log_so3")],
    "dynamics.lie_euler_step": [("dynamics", "lie_euler_step")],
    "regulators.torque": [("regulators", "regulation_torque"),
                          ("regulators", "tracking_pd_torque"),
                          ("regulators", "feedforward_torque")],
    "riccati.are_solve": [("riccati", "are_solve")],
    "riccati.dre_integrate": [("riccati", "dre_integrate")],
    "pmp.shooting_solve": [("pmp", "shooting_solve")],
    "pmp.rollout": [("pmp", "_integrate_extremal")],
    "pmp.costate_integrate": [("pmp", "costate_integrate")],
    "pmp.trajectory_cost": [("pmp", "trajectory_cost")],
    "pmp.oracle": [("pmp", "transcription_oracle")],
    "scenarios.csv_write": [("scenarios", "_write_rows")],
}
# Span name -> methods, as (module, class, method).
METHODS = {
    "regulators.reference_sample": [("regulators", "TrackingReference", "sample")],
    "regulators.reference_build": [("regulators", "TrackingReference", "__init__")],
    "riccati.gain_lookup": [("riccati", "GainSchedule", "gains_at"),
                            ("riccati", "GainSchedule", "solution_at")],
}
SIMULATE = "dynamics.simulate"
CONTROLLER_CB = "scenarios.controller_cb"
DIAGNOSTICS_CB = "scenarios.diagnostics_cb"
# Counter name -> function (scenario, controls, ...) whose controls' leading
# dimension is added on every call: the control grids the oracle rolls out.
BATCH_COUNTERS = {"pmp.oracle_rollouts": ("pmp", "_batched_rollout")}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = {name: 0 for name in self.counters}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind = tracer.kind
            idx = len(kind)
            kind.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()

        return traced

    def count_batches(self, name: str, fn):
        self.counters.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def counted(scenario, controls, *args, **kwargs):
            tracer.counters[name] += int(np.shape(controls)[0])
            return fn(scenario, controls, *args, **kwargs)

        return counted

    def span_arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        return kind, start, end, parent

    def stats(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds and the
        inclusive seconds of each span."""
        kind, start, end, parent = self.span_arrays()
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(kind))
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = kind == nid
            out[name] = {"calls": int(sel.sum()), "self_s": float(own[sel].sum()),
                         "total_s": float(dur[sel].sum()), "spans_s": dur[sel]}
        return out

    def save(self, path: Path) -> None:
        kind, start, end, parent = self.span_arrays()
        np.savez(path, names=np.array(self.names), kind=kind, start_ns=start,
                 end_ns=end, parent=parent)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "geolqr" or name.startswith("geolqr."))]


def _rebind(original, replacement, undo) -> None:
    """Point every geolqr module attribute bound to `original` at `replacement`."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the geolqr package for the duration of the block."""
    import geolqr.scenarios  # noqa: F401  (loads every submodule it runs)

    mods = {m.__name__.split(".")[-1]: m for m in _package_modules()}
    undo: list = []
    try:
        for name, targets in FUNCTIONS.items():
            for mod, attr in targets:
                fn = getattr(mods[mod], attr)
                _rebind(fn, tracer.wrap(name, fn), undo)
        for name, targets in METHODS.items():
            for mod, cls_name, attr in targets:
                cls = getattr(mods[mod], cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, tracer.wrap(name, original))
                undo.append((cls, attr, original))
        for name, (mod, attr) in BATCH_COUNTERS.items():
            fn = getattr(mods[mod], attr)
            _rebind(fn, tracer.count_batches(name, fn), undo)

        simulate = mods["dynamics"].simulate
        traced_simulate = tracer.wrap(SIMULATE, simulate)

        @functools.wraps(simulate)
        def simulate_with_callbacks(controller, *args, **kwargs):
            args = list(args)
            if len(args) >= 3 and args[2] is not None:
                args[2] = tracer.wrap(DIAGNOSTICS_CB, args[2])
            elif kwargs.get("diagnostics") is not None:
                kwargs["diagnostics"] = tracer.wrap(DIAGNOSTICS_CB, kwargs["diagnostics"])
            return traced_simulate(tracer.wrap(CONTROLLER_CB, controller), *args, **kwargs)

        _rebind(simulate, simulate_with_callbacks, undo)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def op_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced operation, from its span statistics."""

    def get(name):
        return stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                "spans_s": np.zeros(0)})

    m = {}
    for name in ("so3.exp_so3", "so3.log_so3", "dynamics.lie_euler_step",
                 "regulators.torque", "regulators.reference_sample",
                 "riccati.gain_lookup"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    for name in (SIMULATE, CONTROLLER_CB, DIAGNOSTICS_CB):
        m[f"{name}.self_s"] = get(name)["self_s"]
    steps = get("dynamics.lie_euler_step")["calls"]
    m["dynamics.step_us"] = get(SIMULATE)["total_s"] / steps * 1e6 if steps else 0.0
    m["regulators.reference_build_s"] = get("regulators.reference_build")["total_s"]
    m["riccati.dre_integrate_s"] = get("riccati.dre_integrate")["total_s"]
    m["riccati.are_solve_s"] = get("riccati.are_solve")["total_s"]
    m["pmp.shooting_solve_s"] = get("pmp.shooting_solve")["total_s"]
    rollouts = get("pmp.rollout")
    m["pmp.rollouts"] = rollouts["calls"]
    m["pmp.rollout_ms"] = (statistics.median(rollouts["spans_s"].tolist()) * 1e3
                           if rollouts["calls"] else 0.0)
    m["pmp.costate_integrate_s"] = get("pmp.costate_integrate")["total_s"]
    m["pmp.trajectory_cost_s"] = get("pmp.trajectory_cost")["total_s"]
    m["pmp.oracle_s"] = get("pmp.oracle")["total_s"]
    m["pmp.oracle_rollouts"] = counters.get("pmp.oracle_rollouts", 0)
    m["scenarios.csv_write_s"] = get("scenarios.csv_write")["total_s"]
    return m
