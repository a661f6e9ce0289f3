"""Configuration schema, CSV contract, summaries, and CLI exit codes."""

import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolqr import pmp
from geolqr.cli import main
from geolqr.config import parse_config
from geolqr.dynamics import (MAX_STEPS, InertiaTensor, RigidBodyState, SimParams, kept_rows,
                             nearest_sample, simulate, time_grid)
from geolqr.errors import GeoLqrError, ParseError, ValidationError
from geolqr.pmp import (AvoidanceScenario, BVPSolution, SphereObstacle, control_cost,
                        goal_errors, shooting_solve, transcription_oracle)
from geolqr.regulators import TrackingReference, regulation_controller
from geolqr.riccati import CostParams, GainPair, dre_integrate, drift_matrix
from geolqr.scenarios import CSV_HEADER, RunSummary, _write_rows, run, run_avoid
from geolqr.so3 import (ROTATION_TOL, attitude_errors, exp_so3, log_so3,
                        orthogonality_defect, row_dots)

IDENTITY9 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_regulate_fills_defaults(self):
        cfg = parse_config(json.dumps({"command": "regulate",
                                       "goal": {"rotation": IDENTITY9}}))
        assert cfg.sim.h == 1e-3
        assert cfg.sim.t_end == 20.0
        assert cfg.cost.alpha == 0.5
        assert cfg.controller.a_matrix_mode == "published-regulation"
        assert np.array_equal(cfg.goal, np.eye(3))

    def test_track_defaults(self):
        cfg = parse_config(json.dumps({"command": "track"}))
        assert cfg.sim.t_end == 50.0
        assert cfg.cost.alpha == 1.0
        assert cfg.cost.gamma == -2.0
        assert cfg.controller.a_matrix_mode == "published-tracking"
        assert cfg.controller.feedforward_accel_term is False

    def test_reference_polynomial(self):
        cfg = parse_config(json.dumps({
            "command": "track",
            "reference": {"omega_coeffs": [[0, 0.5], [0, 0.3], [0, 0.4]]}}))
        assert np.allclose(cfg.reference.omega(2.0), [1.0, 0.6, 0.8], atol=1e-15)
        assert np.allclose(cfg.reference.omega_dot(2.0), [0.5, 0.3, 0.4], atol=1e-15)

    def test_rejects_non_orthogonal_rotation(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({
                "command": "regulate",
                "initial": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 0.9]}}))
        assert err.value.path == "initial.rotation"

    def test_rejects_unknown_keys_with_path(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"command": "regulate", "sim": {"dt": 1e-3}}))
        assert err.value.path == "sim.dt"

    def test_rejects_malformed_json(self):
        with pytest.raises(ParseError):
            parse_config("{not json")

    def test_rejects_non_object_root(self):
        with pytest.raises(ParseError):
            parse_config("[]")

    def test_rejects_non_finite(self):
        with pytest.raises(ParseError):
            parse_config('{"command": "regulate", "cost": {"alpha": Infinity}}')

    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"command": "regulate", "sim": {"h": 0.02}}))
        assert err.value.path == "sim.h"

    def test_rejects_bad_command(self):
        with pytest.raises(ValidationError):
            parse_config(json.dumps({"command": "fly"}))

    @pytest.mark.parametrize("inertia", [
        [[1, 0.1, 0], [0, 2, 0], [0, 0, 3]],
        [[1, 0, 0], [0, -2, 0], [0, 0, 3]],
        [["1", 0, 0], [0, 2, 0], [0, 0, 3]],
        [[True, 0, 0], [0, 2, 0], [0, 0, 3]],
    ])
    def test_rejects_bad_inertia_with_path(self, inertia):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"command": "regulate", "inertia": inertia}))
        assert err.value.path == "inertia"

    def test_rejects_non_numeric_q_weights_with_path(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"command": "regulate",
                                     "cost": {"q_weights": [["a", 0], [0, 1]]}}))
        assert err.value.path == "cost.q_weights"

    def test_inertia_parsed_once(self):
        cfg = parse_config(json.dumps({"command": "regulate",
                                       "inertia": [[1, 0, 0], [0, 2, 0], [0, 0, 4]]}))
        assert isinstance(cfg.sim.inertia, InertiaTensor)
        assert np.array_equal(cfg.sim.inertia.j_inv, np.diag([1.0, 0.5, 0.25]))

    def test_avoid_requires_spec(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"command": "avoid"}))
        assert err.value.path == "avoidance"

    def test_avoid_obstacle_validation(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({
                "command": "avoid",
                "avoidance": {"dimension": 1, "q0": [0.0], "target": [2.0],
                              "obstacles": [{"center": [0.1], "radius": 0.5}]}}))
        assert err.value.path == "avoidance.obstacles[0]"

    def test_avoid_obstacle_validation_names_the_containing_obstacle(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({
                "command": "avoid",
                "avoidance": {"dimension": 1, "q0": [0.0], "target": [2.0],
                              "obstacles": [{"center": [3.0], "radius": 0.5},
                                            {"center": [0.1], "radius": 0.5}]}}))
        assert err.value.path == "avoidance.obstacles[1]"
        assert "inside obstacle" in str(err.value)


AVOID_1D = {"dimension": 1, "q0": [0.0], "target": [2.0],
            "obstacles": [{"center": [1.0], "radius": 0.3}]}


# Each range rule lives in the library type the config builds, and each
# schema rule (a type, a length, a choice, a missing value) in the parser;
# either error names the config path, through parse_config and the CLI.
@pytest.mark.parametrize("payload, path", [
    ({"command": "regulate", "cost": {"alpha": 0}}, "cost.alpha"),
    ({"command": "regulate", "sim": {"h": 0}}, "sim.h"),
    ({"command": "regulate", "sim": {"t_end": -1}}, "sim.t_end"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "horizon": 0}}, "avoidance.horizon"),
    ({"command": "avoid",
      "avoidance": {**AVOID_1D, "obstacles": [{"center": [1.0], "radius": 0}]}},
     "avoidance.obstacles[0].radius"),
    ({"command": "regulate", "cost": {"q_weights": [[1, 0.5], [0, 1]]}}, "cost.q_weights"),
    ({"command": "regulate", "sim": []}, "sim"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "obstacles": [{"center": [1.0]}]}},
     "avoidance.obstacles[0].radius"),
    ({"command": "regulate", "cost": {"alpha": "0.5"}}, "cost.alpha"),
    ({"command": "avoid", "avoidance": {"dimension": 1, "target": [2.0]}}, "avoidance.q0"),
    ({"command": "regulate", "initial": {"omega": [0, 0]}}, "initial.omega"),
    ({"command": "track", "reference": {"omega_coeffs": [[0], [0]]}},
     "reference.omega_coeffs"),
    ({"command": "regulate", "controller": {"gain_source": "lqr"}}, "controller.gain_source"),
    ({"command": "track", "controller": {"feedforward_accel_term": 1}},
     "controller.feedforward_accel_term"),
    ({"command": "regulate", "controller": {"a_matrix_mode": "x"}}, "controller.a_matrix_mode"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "dimension": 4}}, "avoidance.dimension"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "obstacles": {}}}, "avoidance.obstacles"),
    ({"command": "regulate", "output": {"directory": 1}}, "output.directory"),
    ({"command": "regulate", "output": {"decimation": 0}}, "output.decimation"),
    # A horizon of more than MAX_STEPS steps is refused before any grid is
    # allocated, for the closed loops, the DRE sweep and the boundary-value
    # solvers alike.
    ({"command": "regulate", "sim": {"t_end": 1e300}}, "sim.t_end"),
    ({"command": "track", "sim": {"t_end": 1e300}}, "sim.t_end"),
    ({"command": "gains", "controller": {"gain_source": "dre"}, "sim": {"t_end": 1e300}},
     "sim.t_end"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "horizon": 1e300}}, "avoidance.horizon"),
    ({"command": "regulate", "cost": {"gamma": "-1"}}, "cost.gamma"),
    ({"command": "regulate", "goal": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 0.9]}},
     "goal.rotation"),
    ({"command": "track", "reference": {"r0": [1, 0, 0, 0, 1, 0, 0, 0, 0.9]}}, "reference.r0"),
    ({"command": "regulate", "initial": {"rotation": IDENTITY9[:8]}}, "initial.rotation"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "v0": [0.0, 0.0]}}, "avoidance.v0"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "target": [2.0, 0.0]}}, "avoidance.target"),
    ({"command": "avoid",
      "avoidance": {**AVOID_1D, "obstacles": [{"center": [1.0, 0.0], "radius": 0.3}]}},
     "avoidance.obstacles[0].center"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "dimension": True}}, "avoidance.dimension"),
    ({"command": "avoid", "avoidance": {k: v for k, v in AVOID_1D.items() if k != "dimension"}},
     "avoidance.dimension"),
    ({"command": "regulate", "output": {"decimation": True}}, "output.decimation"),
    ({"command": "regulate", "output": {"decimation": 2.0}}, "output.decimation"),
    ({}, "command"),
    ({"command": ["regulate"]}, "command"),
], ids=["alpha", "h", "t_end", "horizon", "radius", "q_weights", "section", "missing-radius",
        "string-alpha", "missing-q0", "omega-length", "coeff-axes", "gain_source",
        "accel-term", "a_matrix_mode", "dimension", "obstacles", "directory", "decimation",
        "regulate-steps", "track-steps", "gains-dre-steps", "avoid-steps", "string-gamma",
        "goal-rotation", "r0", "rotation-length", "v0-length", "target-length",
        "center-length", "boolean-dimension", "missing-dimension", "boolean-decimation",
        "float-decimation", "missing-command", "list-command"])
def test_range_rules_report_the_config_path(tmp_path, capsys, payload, path):
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(payload))
    assert err.value.path == path
    cfg = write_config(tmp_path, payload)
    # A config without a usable command runs under any CLI command.
    command = payload.get("command")
    command = command if isinstance(command, str) else "regulate"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    line = json.loads(capsys.readouterr().err.strip())
    assert line["error"] == "ValidationError"
    assert line["path"] == path


# The types' own errors name the constructor's argument, and stay the
# ValueError of a bad argument.
@pytest.mark.parametrize("build, name", [
    (lambda: SimParams(0.02, 1.0, InertiaTensor(np.eye(3))), "h"),
    (lambda: SimParams(0.01, (MAX_STEPS + 1) * 0.01, InertiaTensor(np.eye(3))), "t_end"),
    (lambda: CostParams(alpha=0.0), "alpha"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=0.0,
                               q0=[1.0], v0=[0.0]), "horizon"),
    (lambda: SphereObstacle(np.array([0.0, 1.0]), 0.0), "radius"),
    (lambda: AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, 0.0], horizon=1.0,
                               q0=[1.0, 0.0, 0.0], v0=[0.0, 0.0]), "q0"),
    (lambda: AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0, 0.0], v0=[0.0, 0.0]), "target"),
    (lambda: AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
                               q0=np.eye(3), v0=np.zeros(2), manifold="so3-biinvariant"),
     "v0"),
    (lambda: AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
                               q0=np.eye(3), v0=np.zeros(3), manifold="so3-biinvariant",
                               obstacles=(SphereObstacle(np.zeros(3), 0.1),)),
     "obstacles[0]"),
    (lambda: AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, 0.0], horizon=1.0,
                               q0=[1.0, 0.0], v0=[0.0, 0.0],
                               obstacles=(SphereObstacle(np.zeros(3), 0.1),)),
     "obstacles[0]"),
    (lambda: AvoidanceScenario(dimension=2, alpha=1.0, target=np.eye(3), horizon=1.0,
                               q0=np.eye(3), v0=np.zeros(3), manifold="so3-biinvariant"),
     "dimension"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0], manifold="sphere"), "manifold"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0], manifold=["flat"]), "manifold"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0], mode="minimum-time"), "mode"),
    (lambda: AvoidanceScenario(dimension=0, alpha=1.0, target=[], horizon=1.0,
                               q0=[], v0=[]), "dimension"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=float("inf"),
                               q0=[1.0], v0=[0.0]), "horizon"),
    # Points and velocities are checked where the scenario is built: a
    # non-rotation on the group, or a non-finite vector, never reaches a sweep.
    (lambda: AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
                               q0=2.0 * np.eye(3), v0=np.zeros(3),
                               manifold="so3-biinvariant"), "q0"),
    (lambda: AvoidanceScenario(dimension=3, alpha=1.0, target=np.diag([1.0, 1.0, -1.0]),
                               horizon=1.0, q0=np.eye(3), v0=np.zeros(3),
                               manifold="so3-biinvariant"), "target"),
    (lambda: AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
                               q0=np.eye(3), v0=[0.0, math.nan, 0.0],
                               manifold="so3-biinvariant"), "v0"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[math.nan], v0=[0.0]), "q0"),
    (lambda: AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[math.inf]), "v0"),
    (lambda: AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, -math.inf], horizon=1.0,
                               q0=[1.0, 0.0], v0=[0.0, 0.0]), "target"),
    (lambda: SphereObstacle(np.array([0.0, math.nan]), 0.5), "center"),
    # Riccati and inertia inputs: finiteness is checked before any other rule.
    (lambda: CostParams(alpha=1.0, gamma=math.nan), "gamma"),
    (lambda: CostParams(alpha=1.0, q_weights=np.diag([math.inf, 1.0])), "q_weights"),
    (lambda: CostParams(alpha=1.0, q_weights=np.diag([1.0, math.nan])), "q_weights"),
    (lambda: InertiaTensor(np.diag([math.inf, 1.0, 1.0])), ""),
    (lambda: InertiaTensor(np.diag([1.0, math.nan, 1.0])), ""),
    # The closed loop's inputs, checked once per call where they are built
    # or first read: rotations within ROTATION_TOL, as config checks them.
    (lambda: TrackingReference(np.zeros((3, 3)), np.zeros((3, 3)), 1e-3, r0=2.0 * np.eye(3)),
     "r0"),
    (lambda: TrackingReference(np.zeros((3, 3)), np.zeros((3, 3)), math.nan), "h"),
    (lambda: simulate(lambda r, w: (0.0, 0.0, 0.0), RigidBodyState(2.0 * np.eye(3), np.zeros(3)),
                      SimParams(1e-3, 0.01, InertiaTensor(np.eye(3)))), "init.r"),
    (lambda: regulation_controller(2.0 * np.eye(3), GainPair(1.0, 1.0)), "r_d"),
    # Every other library argument error is a ValidationError naming it.
    (lambda: nearest_sample(0.5, 1e-3, 10), "t"),
    (lambda: simulate(lambda r, w: (0.0, 0.0, 0.0), RigidBodyState(np.eye(3), np.zeros(3)),
                      SimParams(1e-3, 0.01, InertiaTensor(np.eye(3))), every=0), "every"),
    (lambda: simulate(lambda r, w, kp: (0.0, 0.0, 0.0), RigidBodyState(np.eye(3), np.zeros(3)),
                      SimParams(1e-3, 0.01, InertiaTensor(np.eye(3))), tables=(np.zeros(3),)),
     "tables[0]"),
    (lambda: TrackingReference(np.zeros((3, 3)), np.zeros((4, 3)), 1e-3), "omegas"),
    (lambda: dre_integrate(np.zeros((2, 2)), np.eye(2), 1.0, t_end=1.0, h=math.nan), "h"),
    (lambda: dre_integrate(np.zeros((2, 2)), np.eye(2), 1.0, t_end=1.0, h=2.0), "t_end"),
    (lambda: control_cost(AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                                            q0=[1.0], v0=[0.0], mode="terminal"),
                          np.array([0.0, 1.0]), np.zeros((2, 1)), 1e-2), "scenario"),
    (lambda: transcription_oracle(AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0],
                                                    horizon=1.0, q0=[1.0], v0=[0.0],
                                                    mode="terminal"), 100), "scenario"),
    (lambda: transcription_oracle(AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0],
                                                    horizon=1.0, q0=[1.0], v0=[0.0]), 10),
     "n_grid"),
    (lambda: transcription_oracle(AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0],
                                                    horizon=1.0, q0=[1.0], v0=[0.0]), 100.5),
     "n_grid"),
    (lambda: control_cost(AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, 0.0],
                                            horizon=1.0, q0=[1.0, 0.0], v0=[0.0, 0.0]),
                          np.linspace(0.0, 1.0, 11), np.zeros(11), 1e-2), "u"),
    (lambda: control_cost(AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, 0.0],
                                            horizon=1.0, q0=[1.0, 0.0], v0=[0.0, 0.0]),
                          np.linspace(0.0, 1.0, 11), np.zeros((5, 2)), 1e-2), "u"),
    (lambda: simulate(lambda r, w: (0.0, 0.0, 0.0), RigidBodyState(np.eye(3), np.zeros(4)),
                      SimParams(1e-3, 0.01, InertiaTensor(np.eye(3)))), "init.w"),
    (lambda: nearest_sample(np.array([0.0, 0.5]), 0.1, 10), "t"),
    (lambda: dre_integrate(np.zeros((2, 2)), np.eye(2), 1.0, t_end=1.0, h=0.1)
     .solution_at(np.array([0.0, 0.5])), "t"),
    (lambda: shooting_solve(AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3),
                                              horizon=1.0, q0=np.eye(3), v0=np.zeros(3),
                                              manifold="so3-biinvariant"), h=0.1,
                            start=BVPSolution(np.array([0.0, 1.0]), np.zeros((2, 3)),
                                              np.zeros((2, 3)), np.zeros((2, 3)), None,
                                              0.0, 0, 0.0)), "start"),
    (lambda: shooting_solve(AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, 0.0],
                                              horizon=1.0, q0=[1.0, 0.0], v0=[0.0, 0.0]),
                            h=0.1, start=BVPSolution(np.array([0.0, 1.0]), np.zeros((2, 1)),
                                                     np.zeros((2, 1)), np.zeros((2, 1)), None,
                                                     0.0, 0, 0.0)), "start"),
    # dimension, a table's rows and an obstacle's type are checked before use.
    (lambda: shooting_solve(AvoidanceScenario(dimension=1.0, alpha=1.0, target=[0.0],
                                              horizon=1.0, q0=[1.0], v0=[0.0]), h=0.1),
     "dimension"),
    (lambda: transcription_oracle(AvoidanceScenario(dimension=True, alpha=1.0, target=[0.0],
                                                    horizon=1.0, q0=[1.0], v0=[0.0]), 100),
     "dimension"),
    (lambda: TrackingReference(np.zeros((0, 3)), np.zeros((0, 3)), 1e-3), "omegas"),
    (lambda: AvoidanceScenario(dimension=2, alpha=1.0, target=[0.0, 0.0], horizon=1.0,
                               q0=[1.0, 0.0], v0=[0.0, 0.0], obstacles=([0.0, 0.0],)),
     "obstacles[0]"),
], ids=["SimParams", "SimParams-steps", "CostParams", "AvoidanceScenario", "SphereObstacle",
        "q0", "target", "group-v0", "group-obstacle", "obstacle-center", "group-dimension",
        "manifold", "manifold-unhashable", "mode", "dimension-zero", "horizon-infinite",
        "group-q0-not-rotation", "group-target-reflection", "group-v0-nan", "q0-nan",
        "v0-infinite", "target-infinite", "center-nan", "gamma-nan", "q_weights-infinite",
        "q_weights-nan", "inertia-infinite", "inertia-nan", "reference-r0-scaled",
        "reference-h-nan", "simulate-init-scaled", "regulation-goal-scaled",
        "nearest-sample-off-grid", "simulate-every", "simulate-table-rows",
        "reference-table-shapes", "dre-h-nan", "dre-h-above-t_end", "control-cost-scenario",
        "oracle-scenario", "oracle-n_grid", "oracle-n_grid-float", "control-cost-u-vector",
        "control-cost-u-rows", "simulate-init-w", "nearest-sample-array",
        "solution-at-array", "shooting-start-group", "shooting-start-dimension",
        "dimension-float", "dimension-bool", "reference-no-rows", "obstacle-not-sphere"])
def test_constructors_name_their_argument(build, name):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.path == name
    assert isinstance(err.value, ValueError)


# One rotation tolerance: a group scenario takes a point that config's
# rotation check takes and refuses one that it refuses.
@pytest.mark.parametrize("eps, ok", [(0.2 * ROTATION_TOL, True), (ROTATION_TOL, False)])
def test_group_scenario_shares_the_config_rotation_tolerance(eps, ok):
    q0 = np.diag([1.0 + eps, 1.0, 1.0])
    config = {"command": "regulate", "initial": {"rotation": q0.ravel().tolist()}}
    build = [lambda: parse_config(json.dumps(config)),
             lambda: AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
                                       q0=q0, v0=np.zeros(3), manifold="so3-biinvariant")]
    for b in build:
        if ok:
            b()
        else:
            with pytest.raises(ValidationError):
                b()


def test_step_cap_admits_exactly_max_steps():
    assert SimParams(0.01, MAX_STEPS * 0.01, InertiaTensor(np.eye(3))).t_end == MAX_STEPS * 0.01


# A JSON integer too large for a float is not finite: exit 2 naming the
# path, not an OverflowError traceback.
@pytest.mark.parametrize("payload, path", [
    ({"command": "regulate", "cost": {"alpha": 10 ** 400}}, "cost.alpha"),
    ({"command": "avoid", "avoidance": {**AVOID_1D, "q0": [10 ** 400]}}, "avoidance.q0"),
    ({"command": "regulate", "cost": {"q_weights": [[10 ** 400, 0], [0, 1]]}}, "cost.q_weights"),
    ({"command": "track", "reference": {"omega_coeffs": [[10 ** 400], [0.0], [0.0]]}},
     "reference.omega_coeffs"),
], ids=["scalar", "vector", "matrix", "coefficients"])
def test_number_too_large_for_a_float_exits_two(tmp_path, capsys, payload, path):
    cfg = write_config(tmp_path, payload)
    assert main([payload["command"], "--config", str(cfg), "--out", str(tmp_path)]) == 2
    line = json.loads(capsys.readouterr().err.strip())
    assert line["error"] == "ValidationError"
    assert line["path"] == path


# JSON that the decoder refuses beyond JSONDecodeError, an integer literal
# past Python's digit limit or nesting past the recursion limit, and a file
# that is not UTF-8: exit 2 with one JSON line, not a traceback.
@pytest.mark.parametrize("text, error", [
    ('{"command": "regulate", "cost": {"alpha": ' + "1" * 5000 + "}}", "ParseError"),
    ("[" * 200000, "ParseError"),
    (b'{"command": "\xff"}', "ConfigError"),
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_json_the_decoder_refuses_exits_two(tmp_path, capsys, text, error):
    cfg = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text, encoding="utf-8")
    assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


# A finite number whose square overflows is checked without a numpy warning
# or an OverflowError: the rotation and the radius exit 2 with one JSON line,
# and a far obstacle is outside.
@pytest.mark.parametrize("payload, path", [
    ({"command": "regulate", "initial": {"rotation": [1e300] + IDENTITY9[1:]}},
     "initial.rotation"),
    ({"command": "avoid",
      "avoidance": {**AVOID_1D, "obstacles": [{"center": [1.0], "radius": 1e300}]}},
     "avoidance.obstacles[0].radius"),
    ({"command": "avoid",
      "avoidance": {**AVOID_1D, "obstacles": [{"center": [1e300], "radius": 0.3}]}}, None),
], ids=["rotation", "radius", "far-center"])
def test_huge_finite_numbers_are_checked_quietly(tmp_path, capsys, payload, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if path is None:
            assert parse_config(json.dumps(payload)).avoidance.obstacles[0].center[0] == 1e300
            return
        cfg = write_config(tmp_path, payload)
        assert main([payload["command"], "--config", str(cfg), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["path"] == path


# A state weight this large overflows the norm of the ARE's residual, which
# the Newton polish certifies the gain by: a typed error and one JSON line,
# with no numpy overflow warning on stderr.
@pytest.mark.parametrize("weight", [1e200, 1e250, 1e300])
def test_huge_state_weight_ends_in_a_typed_error(tmp_path, capsys, weight):
    payload = {"command": "regulate", "cost": {"q_weights": [[weight, 0], [0, 1]]},
               "sim": {"t_end": 0.01}}
    cfg = write_config(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["regulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code in (2, 3)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in ("NoStabilizingSolution", "ValidationError")


# 1 / alpha overflows to inf in the solvers' S = B B.T / alpha: exit 2 with
# one JSON line on stderr, not a LinAlgError traceback or a numpy warning.
@pytest.mark.parametrize("source", ["are", "dre"])
def test_alpha_with_infinite_reciprocal_exits_two(tmp_path, capsys, source):
    payload = {"command": "gains", "cost": {"alpha": 1e-320},
               "controller": {"gain_source": source}}
    cfg = write_config(tmp_path, payload)
    assert main(["gains", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    line = json.loads(err[0])
    assert line["error"] == "ValidationError"
    assert line["path"] == "cost.alpha"
    with pytest.raises(ValidationError) as exc:
        CostParams(alpha=1e-320)
    assert exc.value.path == "alpha"


class TestRunSummary:
    def test_round_trip(self):
        summary = RunSummary(command="regulate",
                             gains={"source": "are", "kP": 1.25, "kD": 2.5},
                             final_distance=0.007,
                             final_velocity_norm=1e-4,
                             min_obstacle_clearance=None,
                             iterations={"newton": 3},
                             wall_clock_seconds=0.125)
        assert RunSummary.from_json(summary.to_json()) == summary

    def test_non_finite_field_raises(self):
        summary = RunSummary(command="regulate", gains=None,
                             final_distance=float("nan"), final_velocity_norm=0.0,
                             min_obstacle_clearance=None, iterations={},
                             wall_clock_seconds=0.1)
        with pytest.raises(GeoLqrError):
            summary.to_json()

    def test_non_finite_summary_exits_three(self, monkeypatch, capsys):
        summary = RunSummary(command="check", gains=None, final_distance=float("inf"),
                             final_velocity_norm=None, min_obstacle_clearance=None,
                             iterations={}, wall_clock_seconds=0.1)
        monkeypatch.setattr("geolqr.cli.run", lambda cfg, out: (summary, True, []))
        assert main(["check"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "NumericalDivergence"


class TestRegulateCommand:
    def make_config(self, tmp_path, t_end=1.0, decimation=10):
        r0 = exp_so3([0.9, -0.4, 0.2]).reshape(9).tolist()
        return write_config(tmp_path, {
            "command": "regulate",
            "sim": {"t_end": t_end},
            "inertia": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
            "initial": {"rotation": r0},
            "output": {"decimation": decimation},
        })

    def test_exit_zero_and_summary(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "regulate"
        assert abs(summary["gains"]["kP"] - 1.4142) <= 1e-3
        assert summary["final_distance"] < 1.01

    def test_csv_contract(self, tmp_path):
        cfg = self.make_config(tmp_path, t_end=0.1, decimation=5)
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # 101 samples decimated by 5 -> indices 0,5,...,100: 21 rows.
        assert len(lines) == 22
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 20
            rot = np.array([float(x) for x in cells[1:10]]).reshape(3, 3)
            assert orthogonality_defect(rot) <= 1e-9
            assert cells[19] == ""  # hamiltonian undefined for regulate

    def test_final_row_kept_when_off_stride(self, tmp_path):
        # 101 samples decimated by 7 leaves index 100 off stride; the last
        # row must still be written.
        cfg = self.make_config(tmp_path, t_end=0.1, decimation=7)
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 15 + 1   # header + ceil(101/7) + final row
        assert lines[-1].split(",")[0] == "0.10000000000000001"

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = self.make_config(tmp_path, t_end=0.2)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["regulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["regulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_cut_locus_start_exits_three(self, tmp_path, capsys):
        r0 = exp_so3([math.pi - 0.05, 0.0, 0.0]).reshape(9).tolist()
        cfg = write_config(tmp_path, {
            "command": "regulate",
            "initial": {"rotation": r0},
        })
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "AngleNearPi"

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "regulate",
                                      "initial": {"rotation": [1] * 9}})
        assert main(["regulate", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValidationError"
        assert err["path"] == "initial.rotation"

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["regulate", "--config", str(tmp_path / "none.json")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, out):
        cfg = self.make_config(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith("cannot write output")

    def test_unopenable_csv_exits_two(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    # A CSV whose write or close fails after open, on a full disk.
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_disk_csv_exits_two(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trajectory.csv").symlink_to("/dev/full")
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["detail"].startswith("cannot write output")

    def test_too_fast_initial_velocity_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "regulate", "sim": {"t_end": 1.0},
                                      "initial": {"omega": [1e300, 0, 0]}})
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "NumericalDivergence"

    def test_command_mismatch_exits_two(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        assert main(["track", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["path"] == "command"


class TestDreGainSource:
    def test_regulate_with_scheduled_gains(self, tmp_path, capsys):
        r0 = exp_so3([0.4, 0.1, -0.2]).reshape(9).tolist()
        cfg = write_config(tmp_path, {
            "command": "regulate",
            "sim": {"t_end": 0.5},
            "initial": {"rotation": r0},
            "controller": {"gain_source": "dre"},
            "output": {"decimation": 50},
        })
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["gains"]["source"] == "dre"
        assert summary["gains"]["kP"] > 0.0

    @pytest.mark.parametrize("command", ["gains", "regulate", "track"])
    @pytest.mark.parametrize("source, code", [("dre", 2), ("are", 0)])
    def test_horizon_shorter_than_step(self, tmp_path, capsys, command, source, code):
        # The backward sweep needs one step; ARE gains need no sweep.
        cfg = write_config(tmp_path, {
            "command": command,
            "sim": {"h": 0.001, "t_end": 0.0004},
            "controller": {"gain_source": source},
        })
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == code
        if code == 2:
            error = json.loads(capsys.readouterr().err.strip())
            assert error["path"] == "sim.t_end"
            assert error["detail"] == "sim.t_end: must be at least sim.h for DRE gains"

    @pytest.mark.parametrize("command, code", [("gains", 0), ("regulate", 2), ("track", 2)])
    def test_horizon_off_the_step_grid(self, tmp_path, capsys, command, code):
        # A closed loop reads K on the simulation grid, so the horizon must
        # be a whole number of steps; the gains command reads only K(0).
        cfg = write_config(tmp_path, {
            "command": command,
            "sim": {"h": 0.001, "t_end": 0.0503},
            "controller": {"gain_source": "dre"},
        })
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == code
        if code == 2:
            assert json.loads(capsys.readouterr().err.strip())["path"] == "sim.t_end"

    def test_csv_channels_recomputed_from_rows(self, tmp_path):
        # Every row's dist, lyap and value follow from that row's R, w and
        # the schedule's K(t) alone.
        r_d = exp_so3([0.1, 0.2, -0.1])
        cfg = write_config(tmp_path, {
            "command": "regulate",
            "sim": {"t_end": 0.3},
            "initial": {"rotation": exp_so3([0.4, 0.1, -0.2]).reshape(9).tolist(),
                        "omega": [0.2, -0.1, 0.3]},
            "goal": {"rotation": r_d.reshape(9).tolist()},
            "controller": {"gain_source": "dre"},
            "output": {"decimation": 7},
        })
        assert main(["regulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        parsed = parse_config(cfg.read_text())
        sched = dre_integrate(
            drift_matrix(parsed.controller.a_matrix_mode, parsed.cost.gamma),
            parsed.cost.q_weights, parsed.cost.alpha, t_end=parsed.sim.t_end, h=parsed.sim.h)
        names = CSV_HEADER.split(",")
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 43 + 1   # header + ceil(301/7) + final row
        for line in lines[1:]:
            row = dict(zip(names, line.split(",")))
            r = np.array([float(row[n]) for n in names[1:10]]).reshape(3, 3)
            w = np.array([float(row[n]) for n in ("wx", "wy", "wz")])
            k = sched.solution_at(float(row["t"]))
            e = log_so3(r_d.T @ r)
            d2 = float(e @ e)
            w2 = float(w @ w)
            lyap = k.gains(parsed.cost.alpha).kP * 0.5 * d2 + 0.5 * w2
            value = k.k1 * 0.5 * d2 + 0.5 * k.k2 * w2 + k.k3 * float(e @ w)
            assert float(row["dist"]) == pytest.approx(math.sqrt(d2), rel=1e-12, abs=1e-15)
            assert float(row["lyap"]) == pytest.approx(lyap, rel=1e-12, abs=1e-15)
            assert float(row["value"]) == pytest.approx(value, rel=1e-12, abs=1e-15)
            assert row["hamiltonian"] == ""


# Finite doubles, with -0.0 and subnormals drawn often.
_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]))


class TestWriteRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_samples=st.integers(1, 30), decimation=st.integers(1, 40),
           present=st.lists(st.booleans(), min_size=1, max_size=6).filter(any))
    def test_cells_rows_and_absent_names(self, data, n_samples, decimation, present):
        names = [f"c{j}" for j in range(len(present))]
        columns = {name: np.array(data.draw(st.lists(_CELLS, min_size=n_samples,
                                                     max_size=n_samples)))
                   for name, keep in zip(names, present) if keep}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            _write_rows(path, ",".join(names),
                        {name: kept_rows(c, decimation) for name, c in columns.items()})
            lines = path.read_text(encoding="utf-8").splitlines()
        expected = list(range(0, n_samples, decimation))
        if expected[-1] != n_samples - 1:
            expected.append(n_samples - 1)
        assert lines[0] == ",".join(names)
        assert len(lines) == 1 + len(expected)
        for i, line in zip(expected, lines[1:]):
            cells = line.split(",")
            assert len(cells) == len(names)
            for name, cell in zip(names, cells):
                want = f"{float(columns[name][i]):.17g}" if name in columns else ""
                assert cell == want


class TestGainsCommand:
    def test_regulation_table_printout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "gains", "cost": {"alpha": 0.5},
            "controller": {"a_matrix_mode": "published-regulation"}})
        assert main(["gains", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kP=1.4142, kD=2.7671"
        summary = json.loads(out[-1])
        assert summary["gains"]["source"] == "are"

    def test_tracking_table_printout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "gains", "cost": {"alpha": 1.0, "gamma": -2.0},
            "controller": {"a_matrix_mode": "published-tracking"}})
        assert main(["gains", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "kP=8.7852, kD=8.3357"


class TestTrackCommand:
    def test_short_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "track",
            "sim": {"t_end": 0.5},
            "inertia": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
            "controller": {"feedforward_accel_term": True},
            "output": {"decimation": 50},
        })
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["final_distance"] <= 1e-6
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[17] == "" and cells[18] == "" and cells[19] == ""

    def test_peak_memory_holds_only_the_kept_rows(self, tmp_path):
        # tracemalloc's peak over one run of 5,001 samples: decimated by 10,
        # only the 501 rows the CSV writes are logged and given channels, so
        # the peak is about 0.78 of the same run at decimation 1. Logging
        # every sample at both decimations puts the ratio at about 1.0.
        def peak(decimation):
            cfg = parse_config(json.dumps({"command": "track", "sim": {"t_end": 5.0},
                                           "output": {"decimation": decimation}}))
            out = tmp_path / str(decimation)
            out.mkdir()
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run(cfg, str(out))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()

        assert peak(10) <= 0.9 * peak(1)

    # The second reference overflows while its polynomial is evaluated.
    @pytest.mark.parametrize("coeffs", [[[0, 1e200], [0.3], [0.4]],
                                        [[0, 1e308, 1e308], [0, 0.3], [0, 0.4]]],
                             ids=["fast", "overflow"])
    def test_reference_beyond_the_velocity_limit_exits_three(self, tmp_path, capsys, coeffs):
        cfg = write_config(tmp_path, {"command": "track",
                                      "reference": {"omega_coeffs": coeffs}})
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NumericalDivergence"


class TestAvoidCommand:
    def test_one_dimensional_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "avoid",
            "cost": {"alpha": 1.0},
            "avoidance": {"dimension": 1, "q0": [1.0], "target": [0.0],
                          "horizon": 1.0},
            "output": {"decimation": 100},
        })
        assert main(["avoid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "avoid"
        assert summary["iterations"]["newton"] >= 1
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert cells[1] == ""          # no rotation for a flat run
        assert cells[19] != ""         # hamiltonian channel present
        path_lines = (tmp_path / "avoidance_path.csv").read_text().splitlines()
        assert path_lines[0] == "t,q1,v1,u1"

    @pytest.mark.parametrize("decimation", [7, 10])
    def test_decimated_csvs_are_the_full_csvs_kept_rows(self, tmp_path, decimation):
        # 1001 samples: 1000 % 7 leaves the last row off the stride, 1000 % 10 on it.
        def csvs(d):
            cfg = write_config(tmp_path, {
                "command": "avoid", "cost": {"alpha": 1.0},
                "avoidance": {**AVOID_1D, "horizon": 1.0}, "output": {"decimation": d}})
            out = tmp_path / f"d{d}"
            assert main(["avoid", "--config", str(cfg), "--out", str(out)]) == 0
            return [(out / name).read_text().splitlines()
                    for name in ("trajectory.csv", "avoidance_path.csv")]

        kept = [i for i in range(1001) if i % decimation == 0 or i == 1000]
        for full, lines in zip(csvs(1), csvs(decimation)):
            assert len(full) == 1 + 1001
            assert lines == full[:1] + [full[1 + i] for i in kept]


class TestAvoidErrorAndClearance:
    def test_two_dimensional_obstacle_clearance_in_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "avoid",
            "cost": {"alpha": 0.2},
            "sim": {"h": 5e-3},
            "avoidance": {"dimension": 2, "q0": [-1.2, 0.0], "v0": [0.0, 0.0],
                          "target": [1.2, 0.15], "horizon": 2.0,
                          "obstacles": [{"center": [-0.1, 0.28], "radius": 0.4}]},
            "output": {"decimation": 100},
        })
        assert main(["avoid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["min_obstacle_clearance"] > 0.0

    @pytest.mark.parametrize("center", [1e100, 1e160, 1e308])
    def test_far_obstacle_changes_no_byte_and_warns_of_nothing(self, tmp_path, capsys, center):
        # An obstacle this far has O (1e160, 1e308) or only O^2 (1e100)
        # overflow to inf, where its barrier 1/O and its pull 2 d / O^2 are
        # 0 exactly; at 1e308 the gradient 2 d overflows too.
        config = Path(__file__).resolve().parents[1] / "configs" / "avoid.json"
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload["avoidance"]["obstacles"].append({"center": [center, 0.0], "radius": 1.0})
        far = write_config(tmp_path, payload)
        summaries = []
        for name, path in (("near", config), ("far", far)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["avoid", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            summaries.append(json.loads(out.strip().splitlines()[-1]))
        for csv in ("trajectory.csv", "avoidance_path.csv"):
            assert (tmp_path / "near" / csv).read_bytes() == (tmp_path / "far" / csv).read_bytes()
        assert summaries[0]["min_obstacle_clearance"] == summaries[1]["min_obstacle_clearance"]

    def test_stiff_scenario_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "avoid",
            "cost": {"alpha": 1e-6},
            "avoidance": {"dimension": 1, "q0": [1.0], "target": [0.0],
                          "horizon": 2.0},
        })
        assert main(["avoid", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NoConvergence"


class TestShippedConfigs:
    CONFIG_DIR = None

    def _config_dir(self):
        from pathlib import Path
        return Path(__file__).resolve().parents[1] / "configs"

    def test_all_shipped_configs_parse(self):
        paths = sorted(self._config_dir().glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            cfg = parse_config(path.read_text(encoding="utf-8"))
            assert cfg.command in ("gains", "regulate", "track", "avoid")

    def test_shipped_avoid_reports_newton_residuals(self, tmp_path, capsys):
        config = self._config_dir() / "avoid.json"
        assert main(["avoid", "--config", str(config), "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        iterations = json.loads(line)["iterations"]
        # Shooting starts from the transcription oracle's path: 200 descent
        # iterations on 201 control points (step 10 h).
        assert iterations["start"] == "oracle"
        assert iterations["oracle"]["iterations"] == 200
        assert iterations["newton"] == 2
        # The start and one residual per Newton iteration.
        assert len(iterations["residuals"]) == 3
        assert iterations["residuals"][-1] <= 1e-6
        # 2,000 grid steps in 40 segments of 50.
        assert iterations["segments"] == 40
        # The accepted step lengths and the batched sweeps (the start and
        # every trial point) pin the iterate sequence.
        assert iterations["steps"] == [1.0, 1.0]
        assert iterations["sweeps"] == 3
        summary = RunSummary.from_json(line)
        assert summary.iterations == iterations
        assert summary.to_json() == line

    def test_shipped_stiff_avoid_converges(self, tmp_path, capsys):
        config = self._config_dir() / "avoid_stiff.json"
        assert main(["avoid", "--config", str(config), "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        iterations = json.loads(line)["iterations"]
        # No obstacle: the problem is linear and shooting starts cold.
        assert iterations["start"] == "zero"
        assert "oracle" not in iterations
        assert iterations["segments"] == 80
        assert iterations["residuals"][-1] <= 1e-6
        assert RunSummary.from_json(line).to_json() == line

    @pytest.mark.parametrize("command, phases", [
        ("track", ["gain_solve", "reference_build", "simulate", "channels", "csv_write"]),
        ("avoid", ["seed", "shoot", "costates", "csv_write"]),
    ])
    def test_phases_add_up_to_the_wall_clock(self, tmp_path, capsys, command, phases):
        config = self._config_dir() / f"{command}.json"
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        summary = RunSummary.from_json(line)
        assert list(summary.phases) == phases
        assert all(seconds >= 0.0 for seconds in summary.phases.values())
        total = sum(summary.phases.values())
        assert abs(total - summary.wall_clock_seconds) <= 0.05 * summary.wall_clock_seconds
        assert summary.to_json() == line

    def test_shipped_gain_tables_reproduce(self, capsys):
        directory = self._config_dir()
        assert main(["gains", "--config", str(directory / "gains_regulation.json")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "kP=1.4142, kD=2.7671"
        assert main(["gains", "--config", str(directory / "gains_tracking.json")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "kP=8.7852, kD=8.3357"


class TestStraddlingObstacle:
    """configs/avoid.json's data with the obstacle centred at (0, 0.07),
    across the straight path. From the zero guess, damped Newton stalls at
    radius 0.3 and takes 41 iterations at radius 0.5; run_avoid starts
    shooting from the transcription oracle's path instead."""

    @pytest.mark.parametrize("radius", [0.3, 0.5])
    def test_seeded_shooting_converges_and_is_certified(self, tmp_path, monkeypatch, radius):
        payload = json.loads((Path(__file__).resolve().parents[1] / "configs" / "avoid.json")
                             .read_text(encoding="utf-8"))
        payload["avoidance"]["obstacles"] = [{"center": [0.0, 0.07], "radius": radius}]
        cfg = parse_config(json.dumps(payload))
        got = {}
        for name in ("transcription_oracle", "shooting_solve", "costate_integrate"):
            def spy(*args, _solve=getattr(pmp, name), _name=name, **kwargs):
                got[_name] = result = _solve(*args, **kwargs)
                return result
            monkeypatch.setattr(pmp, name, spy)
        summary = run_avoid(cfg, tmp_path)
        sc, sol, costates = cfg.avoidance, got["shooting_solve"], got["costate_integrate"]
        oracle = got["transcription_oracle"]
        assert summary.iterations["start"] == "oracle"
        assert sol.residual_norm <= 1e-6
        assert summary.min_obstacle_clearance > 0.0
        # Criterion 09's certificates: H constant, u = -p2 / alpha.
        assert float(costates.hamiltonian.max() - costates.hamiltonian.min()) <= 1e-3
        assert np.abs(-costates.p2 / sc.alpha - sol.u).max() <= 1e-3
        # The extremal costs no more than its seed under one evaluator.
        assert (control_cost(sc, sol.times, sol.u, 1e-3)
                <= control_cost(sc, oracle.times, oracle.u, 1e-3))


class TestTrackWithScheduledGains:
    def test_track_dre_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "track",
            "sim": {"t_end": 0.5},
            "controller": {"gain_source": "dre", "feedforward_accel_term": True},
            "output": {"decimation": 100},
        })
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["gains"]["source"] == "dre"


def _csv_columns(path) -> dict:
    """A CSV's non-empty columns as float arrays; %.17g cells round-trip."""
    lines = path.read_text().splitlines()
    names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    return {name: np.array([float(row[i]) for row in rows])
            for i, name in enumerate(names) if rows[0][i] != ""}


class TestOneDistance:
    """Every scenario's dist is sqrt(row_dots(e, e)) of the row's error e to
    its reference, bit for bit, and final_distance is the last row's."""

    GOAL = exp_so3([0.1, 0.2, -0.1])
    CLOSED_LOOP = {"sim": {"t_end": 2.0},
                   "initial": {"rotation": exp_so3([0.9, -0.4, 0.6]).reshape(9).tolist(),
                               "omega": [0.2, -0.1, 0.3]},
                   "output": {"decimation": 1}}
    PAYLOADS = {
        "regulate": {"command": "regulate", **CLOSED_LOOP,
                     "goal": {"rotation": GOAL.reshape(9).tolist()}},
        "track-are": {"command": "track", **CLOSED_LOOP,
                      "controller": {"feedforward_accel_term": True}},
        "track-dre": {"command": "track", **CLOSED_LOOP,
                      "controller": {"feedforward_accel_term": True, "gain_source": "dre"}},
        "avoid": {"command": "avoid", "cost": {"alpha": 0.2},
                  "avoidance": {"dimension": 2, "q0": [-1.2, 0.0], "v0": [0.0, 0.0],
                                "target": [1.2, 0.15], "horizon": 2.0,
                                "obstacles": [{"center": [-0.1, 0.28], "radius": 0.4}]},
                  "output": {"decimation": 1}},
    }

    @pytest.mark.parametrize("case", PAYLOADS)
    def test_dist_is_the_norm_of_the_error(self, tmp_path, capsys, case):
        payload = self.PAYLOADS[case]
        command = payload["command"]
        path = write_config(tmp_path, payload)
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        cfg = parse_config(path.read_text())
        columns = _csv_columns(tmp_path / "trajectory.csv")
        if command == "avoid":
            path_columns = _csv_columns(tmp_path / "avoidance_path.csv")
            q = np.column_stack([path_columns["q1"], path_columns["q2"]])
            e = goal_errors(cfg.avoidance, q)
        else:
            rotations = np.column_stack([columns[n] for n in CSV_HEADER.split(",")[1:10]])
            rotations = rotations.reshape(-1, 3, 3)
            if command == "regulate":
                r_ref = np.broadcast_to(cfg.goal, rotations.shape)
            else:
                times = time_grid(cfg.sim.h, cfg.sim.t_end)
                ref = TrackingReference(cfg.reference.omega(times),
                                        cfg.reference.omega_dot(times), cfg.sim.h,
                                        r0=cfg.reference.r0)
                r_ref = np.array([ref.sample(t).r for t in columns["t"].tolist()])
            e = attitude_errors(r_ref, rotations)
        assert len(columns["dist"]) > 1000
        assert np.array_equal(columns["dist"], np.sqrt(row_dots(e, e)))
        assert summary["final_distance"] == columns["dist"][-1]


class TestCheckCommand:
    def test_passes_and_prints_lines(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out.splitlines()
        ok_lines = [line for line in out if line.startswith("ok   ")]
        assert len(ok_lines) >= 10
        assert not any(line.startswith("FAIL") for line in out)
        summary = json.loads(out[-1])
        assert summary["iterations"]["failures"] == 0
