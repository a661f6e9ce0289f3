"""Scenario configuration: a single JSON object, strictly validated.

Top-level keys: command, cost, sim, inertia, initial, goal, reference,
controller, avoidance, output. Unknown keys at any level are errors, and
errors carry the dotted path of the offending field. Angles are radians,
time is seconds. Rotations are given as 9 numbers row-major and must already
be rotations within ROTATION_TOL (so3.is_rotation); they are rejected, never
re-orthonormalized.

The parser checks the JSON's shape: types, lengths, finiteness and the
choices of string keys. Range rules live in the library types it builds
(SimParams, RigidBodyState, CostParams, InertiaTensor, SphereObstacle,
AvoidanceScenario), whose errors _build prefixes with the section path; the
goal is its (3, 3) rotation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import MAX_STEPS, InertiaTensor, RigidBodyState, SimParams
from .errors import ParseError, ValidationError
from .pmp import AvoidanceScenario, SphereObstacle
from .riccati import CostParams, check_dre_step, drift_matrix
from .so3 import is_rotation

GAIN_SOURCES = ("are", "dre")

ROTATION_TOL = 1e-6

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


def _choice(obj, key, path, choices, default=None):
    """obj[key] (default when absent), one of choices; path "" is the top level."""
    value = obj.get(key, default)
    if value not in choices:
        raise ValidationError(f"{path}.{key}" if path else key, f"expected one of {choices}")
    return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(obj, key, path, default=None):
    if key not in obj:
        if default is None:
            raise ValidationError(f"{path}.{key}", "missing required value")
        return default
    value = obj[key]
    if not _is_number(value):
        raise ValidationError(f"{path}.{key}", "expected a number")
    return float(_finite(value, f"{path}.{key}", "must be finite"))


def _finite(value, path, message) -> np.ndarray:
    """value as a float array; an integer too large for a float is not finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:
        arr = np.array(np.inf)
    if not np.isfinite(arr).all():
        raise ValidationError(path, message)
    return arr


def _vector(obj, key, path, length, default=None):
    if key not in obj:
        if default is None:
            raise ValidationError(f"{path}.{key}", "missing required value")
        return np.asarray(default, dtype=float)
    value = obj[key]
    if (not isinstance(value, list) or len(value) != length
            or not all(_is_number(x) for x in value)):
        raise ValidationError(f"{path}.{key}", f"expected a list of {length} numbers")
    return _finite(value, f"{path}.{key}", "entries must be finite")


def _matrix(value, path, n) -> np.ndarray:
    """An n x n nested list of finite numbers."""
    if not (isinstance(value, list) and len(value) == n
            and all(isinstance(row, list) and len(row) == n
                    and all(_is_number(x) for x in row) for row in value)):
        raise ValidationError(path, f"expected a {n}x{n} nested list of numbers")
    return _finite(value, path, "entries must be finite")


def _rotation(obj, key, path):
    if key not in obj:
        return np.eye(3)
    arr = _vector(obj, key, path, 9).reshape(3, 3)
    if not is_rotation(arr, ROTATION_TOL):
        raise ValidationError(f"{path}.{key}", f"not a rotation within {ROTATION_TOL:g}")
    return arr


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
    alpha = _number(section, "alpha", "cost", default=d_alpha)
    gamma = _number(section, "gamma", "cost", default=d_gamma)
    q = np.eye(2)
    if "q_weights" in section:
        q = _matrix(section["q_weights"], "cost.q_weights", 2)
    return _build("cost", CostParams, alpha, gamma, q)


def _parse_sim(obj, command, inertia: InertiaTensor) -> SimParams:
    section = _object(obj.get("sim", {}), "sim", ("h", "t_end"))
    h = _number(section, "h", "sim", default=1e-3)
    t_end = _number(section, "t_end", "sim", default=_DEFAULTS[command][2])
    return _build("sim", SimParams, h, t_end, inertia)


def _parse_inertia(obj) -> InertiaTensor:
    if "inertia" not in obj:
        return InertiaTensor(np.eye(3))
    return _build("inertia", InertiaTensor, _matrix(obj["inertia"], "inertia", 3))


def _parse_initial(obj) -> RigidBodyState:
    section = _object(obj.get("initial", {}), "initial", ("rotation", "omega"))
    return RigidBodyState(_rotation(section, "rotation", "initial"),
                          _vector(section, "omega", "initial", 3, default=[0.0, 0.0, 0.0]))


def _parse_goal(obj) -> np.ndarray:
    return _rotation(_object(obj.get("goal", {}), "goal", ("rotation",)), "rotation", "goal")


def _parse_reference(obj) -> ReferenceConfig:
    section = _object(obj.get("reference", {}), "reference", ("omega_coeffs", "r0"))
    if "omega_coeffs" in section:
        coeffs, message = section["omega_coeffs"], "expected 3 lists of finite coefficients"
        if not (isinstance(coeffs, list) and len(coeffs) == 3
                and all(isinstance(axis, list) and axis
                        and all(_is_number(c) for c in axis) for axis in coeffs)):
            raise ValidationError("reference.omega_coeffs", message)
        coeffs = [_finite(axis, "reference.omega_coeffs", message).tolist() for axis in coeffs]
    else:
        coeffs = [[0.0, 0.5], [0.0, 0.3], [0.0, 0.4]]
    return ReferenceConfig(omega_coeffs=coeffs,
                           r0=_rotation(section, "r0", "reference"))


def _parse_controller(obj, command) -> ControllerSettings:
    section = _object(obj.get("controller", {}), "controller",
                      ("gain_source", "feedforward_accel_term", "a_matrix_mode"))
    source = _choice(section, "gain_source", "controller", GAIN_SOURCES, "are")
    accel = section.get("feedforward_accel_term", False)
    if not isinstance(accel, bool):
        raise ValidationError("controller.feedforward_accel_term", "expected a boolean")
    mode = section.get("a_matrix_mode", _DEFAULTS[command][3])
    _build("controller", drift_matrix, mode)
    return ControllerSettings(source, accel, mode)


def _parse_avoidance(obj, command, alpha: float) -> AvoidanceScenario | None:
    if "avoidance" not in obj:
        if command == "avoid":
            raise ValidationError("avoidance", "required for the avoid command")
        return None
    section = _object(obj["avoidance"], "avoidance",
                      ("dimension", "q0", "v0", "target", "horizon", "obstacles"))
    dim = section.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 3:
        raise ValidationError("avoidance.dimension", "expected an integer in [1, 3]")
    q0 = _vector(section, "q0", "avoidance", dim)
    v0 = _vector(section, "v0", "avoidance", dim, default=[0.0] * dim)
    target = _vector(section, "target", "avoidance", dim)
    horizon = _number(section, "horizon", "avoidance", default=1.0)
    obstacles = []
    raw = section.get("obstacles", [])
    if not isinstance(raw, list):
        raise ValidationError("avoidance.obstacles", "expected a list")
    for i, entry in enumerate(raw):
        path = f"avoidance.obstacles[{i}]"
        entry = _object(entry, path, ("center", "radius"))
        obstacles.append(_build(path, SphereObstacle, _vector(entry, "center", path, dim),
                                _number(entry, "radius", path)))
    return _build("avoidance", AvoidanceScenario, dim, alpha, target, horizon, q0, v0,
                  tuple(obstacles))


def _parse_output(obj) -> OutputConfig:
    section = _object(obj.get("output", {}), "output", ("directory", "decimation"))
    directory = section.get("directory", ".")
    if not isinstance(directory, str):
        raise ValidationError("output.directory", "expected a string")
    decimation = section.get("decimation", 10)
    if not isinstance(decimation, int) or isinstance(decimation, bool) or decimation < 1:
        raise ValidationError("output.decimation", "expected a positive integer")
    return OutputConfig(directory, decimation)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario configuration.

    Raises:
        ParseError: malformed JSON, non-finite literals, or a non-object root.
        ValidationError: any schema violation, naming the field path.
    """
    def _no_constants(name):
        raise ParseError(f"non-finite literal {name!r} not allowed")

    try:
        obj = json.loads(text, parse_constant=_no_constants)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")

    _object(obj, "", ("command", "cost", "sim", "inertia", "initial", "goal",
                      "reference", "controller", "avoidance", "output"))
    command = _choice(obj, "command", "", COMMANDS)

    cost = _parse_cost(obj, command)
    cfg = ScenarioConfig(
        command=command,
        cost=cost,
        sim=_parse_sim(obj, command, _parse_inertia(obj)),
        initial=_parse_initial(obj),
        goal=_parse_goal(obj),
        reference=_parse_reference(obj),
        controller=_parse_controller(obj, command),
        avoidance=_parse_avoidance(obj, command, cost.alpha),
        output=_parse_output(obj),
    )
    # The backward Riccati sweep needs at least one step of size h, and a
    # closed loop reads its samples on the simulation grid.
    if command in ("gains", "regulate", "track") and cfg.controller.gain_source == "dre":
        try:
            check_dre_step(cfg.sim.t_end, cfg.sim.h)
        except ValueError:
            raise ValidationError("sim.t_end", "must be at least sim.h for DRE gains") from None
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
