"""Scenario configuration: a single JSON object, strictly validated.

Top-level keys: command, cost, sim, inertia, initial, goal, reference,
controller, avoidance, output. Unknown keys at any level are errors, and
errors carry the dotted path of the offending field. Angles are radians,
time is seconds. Rotations are given as 9 numbers row-major and must already
be rotations within so3.ROTATION_TOL (so3.as_rotation); they are rejected, never
re-orthonormalized.

Every field is read by one rule, in order: presence and default (_field;
a required field has none), JSON shape (a type, or a predicate for a
length, a range or a choice), finiteness of numbers (_numbers), then the range rule of the
library type the section builds (SimParams, RigidBodyState, CostParams,
InertiaTensor, SphereObstacle, AvoidanceScenario, drift_matrix), whose
errors _build prefixes with the section path. Only the rotations' check
and the rules that span sections (DRE steps, the avoidance grid) live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import MAX_STEPS, InertiaTensor, RigidBodyState, SimParams, _is_int
from .errors import ParseError, ValidationError
from .pmp import AvoidanceScenario, SphereObstacle
from .riccati import CostParams, drift_matrix
from .so3 import as_rotation

GAIN_SOURCES = ("are", "dre")

# Per-command defaults (alpha, gamma, sim.t_end, a_matrix_mode): the
# published regulation table was produced with alpha = 0.5, the tracking
# table with alpha = 1, gamma = -2.
_DEFAULTS = {
    "gains": (0.5, -1.0, 20.0, "published-regulation"),
    "regulate": (0.5, -1.0, 20.0, "published-regulation"),
    "track": (1.0, -2.0, 50.0, "published-tracking"),
    "avoid": (1.0, 0.0, 20.0, "published-regulation"),
    "check": (0.5, -1.0, 20.0, "published-regulation"),
}
COMMANDS = tuple(_DEFAULTS)


def _build(path, cls, *args):
    """cls(*args), with the path of a ValidationError it raises prefixed by
    the config path of its arguments."""
    try:
        return cls(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}.{exc.path}" if exc.path else path,
                              exc.message) from None


def _object(value, path, allowed) -> dict:
    """value, an object whose keys are all in allowed; path "" is the top level."""
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}" if path else key, "unknown key")
    return value


def _field(obj, key, path, default, valid, expected):
    """obj[key], an instance of valid (a type) or satisfying it (a predicate),
    or default when absent (None: required); path "" is the top level."""
    where = f"{path}.{key}" if path else key
    if key not in obj:
        if default is None:
            raise ValidationError(where, "missing required value")
        return default
    value = obj[key]
    if not (isinstance(value, valid) if isinstance(valid, type) else valid(value)):
        raise ValidationError(where, f"expected {expected}")
    return value


def _shaped(value, shape) -> bool:
    """Whether value is a JSON number (shape ()) or nested lists of them of
    the given shape."""
    if not shape:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return (isinstance(value, list) and len(value) == shape[0]
            and all(_shaped(x, shape[1:]) for x in value))


def _numbers(obj, key, path, shape, default=None):
    """obj[key] (default when absent, None: required) as finite numbers of
    shape (), a float, or (k,) or (k, k), a float array."""
    expected = "a number" if not shape else f"numbers nested as shape {shape}"
    value = _field(obj, key, path, default, lambda v: _shaped(v, shape), expected)
    arr = _finite(value, f"{path}.{key}" if path else key)
    return arr if shape else float(arr)


def _finite(value, path) -> np.ndarray:
    """value as a float array; an integer too large for a float is not finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:
        arr = np.array(np.inf)
    if not np.isfinite(arr).all():
        raise ValidationError(path, "must be finite")
    return arr


def _rotation(obj, key, path):
    return as_rotation(_numbers(obj, key, path, (9,), np.eye(3).ravel()).reshape(3, 3),
                       f"{path}.{key}")


def _coeffs(value) -> bool:
    """Three non-empty lists of numbers: the per-axis polynomials."""
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(axis, list) and axis and _shaped(axis, (len(axis),))
                    for axis in value))


@dataclass
class ReferenceConfig:
    """Per-axis polynomial coefficients of the reference angular velocity,
    ascending order, plus the initial reference rotation."""

    omega_coeffs: list
    r0: np.ndarray

    def omega(self, t) -> np.ndarray:
        """w_ref at a time, (3,), or at an array of times, (..., 3)."""
        return _horner(self.omega_coeffs, t)

    def omega_dot(self, t) -> np.ndarray:
        """Derivative of w_ref, shaped as omega(t)."""
        return _horner([[k * c for k, c in enumerate(axis)][1:]
                        for axis in self.omega_coeffs], t)


def _horner(coeffs, t) -> np.ndarray:
    """Per-axis polynomials with ascending coefficients at t (a time or an
    array of times, evaluated all at once), stacked along a new last axis.
    Overflow is left to TrackingReference's velocity check."""
    t = np.asarray(t, dtype=float)
    axes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in coeffs:
            acc = np.zeros_like(t)
            for c in reversed(axis):
                acc = acc * t + c
            axes.append(acc)
    return np.stack(axes, axis=-1)


@dataclass
class ControllerSettings:
    gain_source: str
    feedforward_accel_term: bool
    a_matrix_mode: str


@dataclass
class OutputConfig:
    directory: str
    decimation: int


@dataclass
class ScenarioConfig:
    command: str
    cost: CostParams
    sim: SimParams
    initial: RigidBodyState
    goal: np.ndarray
    reference: ReferenceConfig
    controller: ControllerSettings
    avoidance: AvoidanceScenario | None
    output: OutputConfig


def _parse_cost(obj, command) -> CostParams:
    section = _object(obj.get("cost", {}), "cost", ("alpha", "gamma", "q_weights"))
    d_alpha, d_gamma = _DEFAULTS[command][:2]
    return _build("cost", CostParams, _numbers(section, "alpha", "cost", (), d_alpha),
                  _numbers(section, "gamma", "cost", (), d_gamma),
                  _numbers(section, "q_weights", "cost", (2, 2), np.eye(2)))


def _parse_sim(obj, command) -> SimParams:
    inertia = _build("inertia", InertiaTensor, _numbers(obj, "inertia", "", (3, 3), np.eye(3)))
    section = _object(obj.get("sim", {}), "sim", ("h", "t_end"))
    return _build("sim", SimParams, _numbers(section, "h", "sim", (), 1e-3),
                  _numbers(section, "t_end", "sim", (), _DEFAULTS[command][2]), inertia)


def _parse_initial(obj) -> RigidBodyState:
    section = _object(obj.get("initial", {}), "initial", ("rotation", "omega"))
    return RigidBodyState(_rotation(section, "rotation", "initial"),
                          _numbers(section, "omega", "initial", (3,), np.zeros(3)))


def _parse_reference(obj) -> ReferenceConfig:
    section = _object(obj.get("reference", {}), "reference", ("omega_coeffs", "r0"))
    coeffs = _field(section, "omega_coeffs", "reference", [[0.0, 0.5], [0.0, 0.3], [0.0, 0.4]],
                    _coeffs, "3 non-empty lists of numbers")
    return ReferenceConfig(
        omega_coeffs=[_finite(axis, "reference.omega_coeffs").tolist()
                      for axis in coeffs],
        r0=_rotation(section, "r0", "reference"))


def _parse_controller(obj, command) -> ControllerSettings:
    section = _object(obj.get("controller", {}), "controller",
                      ("gain_source", "feedforward_accel_term", "a_matrix_mode"))
    source = _field(section, "gain_source", "controller", "are",
                    lambda v: v in GAIN_SOURCES, f"one of {GAIN_SOURCES}")
    accel = _field(section, "feedforward_accel_term", "controller", False, bool, "a boolean")
    mode = _field(section, "a_matrix_mode", "controller", _DEFAULTS[command][3], str, "a string")
    _build("controller", drift_matrix, mode)
    return ControllerSettings(source, accel, mode)


def _parse_avoidance(obj, command, alpha: float) -> AvoidanceScenario | None:
    if "avoidance" not in obj:
        if command == "avoid":
            raise ValidationError("avoidance", "required for the avoid command")
        return None
    section = _object(obj["avoidance"], "avoidance",
                      ("dimension", "q0", "v0", "target", "horizon", "obstacles"))
    dim = _field(section, "dimension", "avoidance", None,
                 lambda d: _is_int(d) and 1 <= d <= 3, "an integer in [1, 3]")
    q0 = _numbers(section, "q0", "avoidance", (dim,))
    v0 = _numbers(section, "v0", "avoidance", (dim,), np.zeros(dim))
    target = _numbers(section, "target", "avoidance", (dim,))
    horizon = _numbers(section, "horizon", "avoidance", (), 1.0)
    obstacles = []
    for i, entry in enumerate(_field(section, "obstacles", "avoidance", [], list, "a list")):
        path = f"avoidance.obstacles[{i}]"
        entry = _object(entry, path, ("center", "radius"))
        obstacles.append(_build(path, SphereObstacle, _numbers(entry, "center", path, (dim,)),
                                _numbers(entry, "radius", path, ())))
    return _build("avoidance", AvoidanceScenario, dim, alpha, target, horizon, q0, v0,
                  tuple(obstacles))


def _parse_output(obj) -> OutputConfig:
    section = _object(obj.get("output", {}), "output", ("directory", "decimation"))
    return OutputConfig(
        _field(section, "directory", "output", ".", str, "a string"),
        _field(section, "decimation", "output", 10, lambda d: _is_int(d) and d >= 1,
               "a positive integer"))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario configuration.

    Raises:
        ParseError: malformed JSON, non-finite literals, or a non-object root.
        ValidationError: any schema violation, naming the field path.
    """
    def _no_constants(name):
        raise ParseError(f"non-finite literal {name!r} not allowed")

    # Beyond JSONDecodeError, the decoder refuses an integer literal past
    # Python's digit limit (ValueError) and deep nesting (RecursionError).
    try:
        obj = json.loads(text, parse_constant=_no_constants)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")

    _object(obj, "", ("command", "cost", "sim", "inertia", "initial", "goal",
                      "reference", "controller", "avoidance", "output"))
    command = _field(obj, "command", "", None, lambda v: v in COMMANDS, f"one of {COMMANDS}")

    cost = _parse_cost(obj, command)
    cfg = ScenarioConfig(
        command=command,
        cost=cost,
        sim=_parse_sim(obj, command),
        initial=_parse_initial(obj),
        goal=_rotation(_object(obj.get("goal", {}), "goal", ("rotation",)), "rotation", "goal"),
        reference=_parse_reference(obj),
        controller=_parse_controller(obj, command),
        avoidance=_parse_avoidance(obj, command, cost.alpha),
        output=_parse_output(obj),
    )
    # The backward Riccati sweep needs at least one step of size h (SimParams
    # holds h > 0 and t_end finite), and a closed loop reads its samples on
    # the simulation grid.
    if command in ("gains", "regulate", "track") and cfg.controller.gain_source == "dre":
        if cfg.sim.h > cfg.sim.t_end:
            raise ValidationError("sim.t_end", "must be at least sim.h for DRE gains")
        steps = cfg.sim.t_end / cfg.sim.h
        if command != "gains" and abs(steps - round(steps)) > 1e-9:
            raise ValidationError("sim.t_end",
                                  "must be a whole number of sim.h steps for DRE gains")
    # The boundary-value solvers sweep the horizon on a grid of step sim.h.
    if cfg.avoidance is not None and cfg.avoidance.horizon / cfg.sim.h > MAX_STEPS:
        raise ValidationError("avoidance.horizon",
                              f"must be at most {MAX_STEPS:g} steps of sim.h")
    return cfg


def default_config(command: str = "check") -> ScenarioConfig:
    """Config with every default filled, used by the bare check command."""
    return parse_config(json.dumps({"command": command}))
