"""Scenario execution: resolve gains, run the closed loop or the
boundary-value solver, write the trajectory CSV, and build the run summary.

The closed loop only logs (`dynamics.simulate`) and makes one feedback-law
call per step, with ARE gains built once before the loop. The dist, lyap
and value channels are then computed from the logged arrays: the attitude
errors in one chunked array pass (`so3.attitude_errors`) against the goal
or the reference table on the same grid, and K(t) from one
Riccati-solution lookup over all logged times.

Trajectory CSV column contract, in order:

    t, r11,r12,r13,r21,r22,r23,r31,r32,r33, wx,wy,wz,
    tau_x,tau_y,tau_z, dist, lyap, value, hamiltonian

Numbers are printed with 17 significant digits; fields a command does not
define stay empty. The avoid command additionally writes an
avoidance_path.csv with dimension-appropriate columns, since the contract
has no slots for a flat configuration. Both files are written by
_write_rows from named columns.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import pmp, regulators, riccati, so3
from .config import ScenarioConfig
from .dynamics import InertiaTensor, RigidBodyState, SimParams, simulate, time_grid
from .errors import AngleNearPi, NumericalDivergence

CSV_HEADER = ("t,r11,r12,r13,r21,r22,r23,r31,r32,r33,wx,wy,wz,"
              "tau_x,tau_y,tau_z,dist,lyap,value,hamiltonian")
_NAMES = CSV_HEADER.split(",")

# Scenarios refuse initial attitudes this close to the cut locus instead of
# attempting control across it.
INITIAL_DISTANCE_GUARD = math.pi - 0.1


@dataclass
class RunSummary:
    """What a command resolved, how the run ended, and where its time went:
    phases maps each phase of the run, in order, to its wall seconds."""

    command: str
    gains: dict | None
    final_distance: float | None
    final_velocity_norm: float | None
    min_obstacle_clearance: float | None
    iterations: dict
    wall_clock_seconds: float
    phases: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """One strict JSON line; a NaN or infinite field raises NumericalDivergence."""
        try:
            return json.dumps(asdict(self), allow_nan=False)
        except ValueError as exc:
            raise NumericalDivergence(f"run summary is not finite: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "RunSummary":
        return cls(**json.loads(text))


class _Clock:
    """Wall time of one run: consecutive laps named by the phase that just
    ended, so the phases add up to the run's time."""

    def __init__(self):
        self.start = self._last = time.perf_counter()
        self.phases = {}

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.phases[phase] = now - self._last
        self._last = now

    def summary(self, command: str, **fields) -> "RunSummary":
        """The run's summary, timed up to now."""
        fields = {"gains": None, "final_distance": None, "final_velocity_norm": None,
                  "min_obstacle_clearance": None, "iterations": {}, **fields}
        return RunSummary(command=command, wall_clock_seconds=time.perf_counter() - self.start,
                          phases=self.phases, **fields)


def _write_rows(path: Path, header: str, columns: dict, decimation: int) -> None:
    """Write a CSV of the comma-separated header and every decimation-th
    sample plus the last. columns maps header names to equally long 1-D
    arrays; a name without a column gets empty cells."""
    names = header.split(",")
    present = [columns[name] for name in names if name in columns]
    row = ",".join("%.17g" if name in columns else "" for name in names) + "\n"
    n = len(present[0])
    # Streamed from column views, one row at a time: the largest CSV is
    # several megabytes.
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines(row % cells for cells in zip(*(c[::decimation] for c in present)))
        if (n - 1) % decimation:
            f.write(row % tuple(c[-1] for c in present))


def _block_columns(names, block) -> dict:
    """Columns of a (samples, k) array under the first k of names."""
    return dict(zip(names, block.reshape(len(block), -1).T))


def _resolve_gain_setup(cfg: ScenarioConfig):
    """Riccati solution lookup t -> RiccatiSolution (ARE: constant; DRE: the
    backward sweep on the simulation grid), feedback gains lookup t ->
    GainPair (ARE: one pair built here; DRE: one schedule lookup per call)
    and the gain summary at t = 0."""
    a = riccati.drift_matrix(cfg.controller.a_matrix_mode, cfg.cost.gamma)
    b = riccati.B_CANONICAL
    alpha = cfg.cost.alpha
    if cfg.controller.gain_source == "are":
        sol = riccati.are_solve(a, b, cfg.cost.q_weights, alpha)
        g = sol.gains(alpha)

        def solution_at(t):
            return sol

        def gains_at(t):
            return g
    else:
        schedule = riccati.dre_integrate(a, b, cfg.cost.q_weights, alpha,
                                         t_end=cfg.sim.t_end, h=cfg.sim.h)
        solution_at = schedule.solution_at

        def gains_at(t):
            return solution_at(t).gains(alpha)
    g0 = gains_at(0.0)
    summary = {"source": cfg.controller.gain_source, "kP": g0.kP, "kD": g0.kD}
    return solution_at, gains_at, summary


def _guard_initial_distance(r_from, r0, what: str) -> None:
    """Refuse an initial attitude within the guard of r_from's cut locus."""
    d0 = so3.geodesic_distance(r_from, r0)
    if d0 >= INITIAL_DISTANCE_GUARD:
        raise AngleNearPi(
            f"initial attitude {d0:.4f} rad from the {what} exceeds the guard "
            f"{INITIAL_DISTANCE_GUARD:.4f}")


def run_gains(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    _, _, gains = _resolve_gain_setup(cfg)
    clock.lap("gain_solve")
    return clock.summary("gains", gains=gains)


def _run_closed_loop(cfg: ScenarioConfig, out_dir: Path, clock: _Clock,
                     gain_summary: dict, controller, channels) -> RunSummary:
    """Simulate from the configured initial state, compute channels(log) (a
    dict with at least "dist") from the log, write the trajectory CSV and
    summarise."""
    log = simulate(controller, RigidBodyState(cfg.initial.rotation, cfg.initial.omega),
                   SimParams(cfg.sim.h, cfg.sim.t_end, cfg.inertia))
    clock.lap("simulate")
    derived = channels(log)
    clock.lap("channels")
    columns = {"t": log.times, **_block_columns(_NAMES[1:10], log.rotations),
               **_block_columns(_NAMES[10:13], log.omegas),
               **_block_columns(_NAMES[13:16], log.torques), **derived}
    _write_rows(out_dir / "trajectory.csv", CSV_HEADER, columns, cfg.output.decimation)
    clock.lap("csv_write")
    return clock.summary(cfg.command, gains=gain_summary,
                         final_distance=float(derived["dist"][-1]),
                         final_velocity_norm=float(np.linalg.norm(log.omegas[-1])))


def run_regulate(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    goal = regulators.RegulationGoal(cfg.goal.rotation)
    _guard_initial_distance(goal.r_d, cfg.initial.rotation, "goal")
    solution_at, gains_at, gain_summary = _resolve_gain_setup(cfg)
    clock.lap("gain_solve")
    alpha = cfg.cost.alpha

    def controller(t, s):
        return regulators.regulation_torque(s, goal, gains_at(t))

    def channels(log):
        # The Lyapunov and value formulas are written out so that one attitude
        # error per sample serves all three channels.
        k = solution_at(log.times)
        e = so3.attitude_errors(np.broadcast_to(goal.r_d, log.rotations.shape),
                                log.rotations)
        d2 = pmp._dots(e, e)
        w2 = pmp._dots(log.omegas, log.omegas)
        return {
            "dist": np.sqrt(d2),
            "lyap": k.gains(alpha).kP * 0.5 * d2 + 0.5 * w2,
            "value": k.k1 * 0.5 * d2 + 0.5 * k.k2 * w2 + k.k3 * pmp._dots(e, log.omegas),
        }

    return _run_closed_loop(cfg, out_dir, clock, gain_summary, controller, channels)


def run_track(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    _, gains_at, gain_summary = _resolve_gain_setup(cfg)
    clock.lap("gain_solve")
    accel_term = cfg.controller.feedforward_accel_term
    times = time_grid(cfg.sim.h, cfg.sim.t_end)
    ref = regulators.TrackingReference(cfg.reference.omega(times),
                                       cfg.reference.omega_dot(times), cfg.sim.h,
                                       r0=cfg.reference.r0)
    _guard_initial_distance(ref.rotations[0], cfg.initial.rotation, "reference")
    clock.lap("reference_build")

    def controller(t, s):
        return regulators.tracking_torque(s, ref.sample(t), gains_at(t), cfg.inertia,
                                          accel_term)

    def channels(log):
        # so3.geodesic_distance's sum of squares, in its order.
        e2 = so3.attitude_errors(ref.rotations, log.rotations) ** 2
        return {"dist": np.sqrt(e2[:, 0] + e2[:, 1] + e2[:, 2])}

    return _run_closed_loop(cfg, out_dir, clock, gain_summary, controller, channels)


def run_avoid(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    scenario = cfg.avoidance
    solution = pmp.shooting_solve(scenario, h=cfg.sim.h)
    clock.lap("shoot")
    lagrangian = pmp.AvoidanceLagrangian(scenario)
    n = scenario.dimension
    costates = pmp.costate_integrate(solution.times, solution.q, solution.v,
                                     solution.u, lagrangian,
                                     (np.zeros(n), np.zeros(n)))
    dist = np.linalg.norm(solution.q - scenario.target, axis=1)
    clearance = None
    if scenario.obstacles:
        clearance = float(pmp._clearances(scenario, solution.q).min())
    clock.lap("costates")

    _write_rows(out_dir / "trajectory.csv", CSV_HEADER,
                {"t": solution.times, **_block_columns(_NAMES[10:13], solution.v),
                 **_block_columns(_NAMES[13:16], solution.u),
                 "dist": dist, "hamiltonian": costates.hamiltonian},
                cfg.output.decimation)
    path_names = [f"{x}{i + 1}" for x in "qvu" for i in range(n)]
    _write_rows(out_dir / "avoidance_path.csv", ",".join(["t"] + path_names),
                {"t": solution.times,
                 **_block_columns(path_names, np.hstack([solution.q, solution.v, solution.u]))},
                cfg.output.decimation)
    clock.lap("csv_write")
    return clock.summary("avoid", final_distance=float(dist[-1]),
                         final_velocity_norm=float(np.linalg.norm(solution.v[-1])),
                         min_obstacle_clearance=clearance,
                         iterations={"newton": solution.iterations,
                                     "residuals": solution.trace["residuals"]})


def run_check(cfg: ScenarioConfig, out_dir: Path):
    """Built-in invariant suite. Returns (summary, ok, lines)."""
    clock = _Clock()
    rng = np.random.default_rng(2024)
    lines = []
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        if ok:
            lines.append(f"ok   {name}")
        else:
            failures += 1
            lines.append(f"FAIL {name}: {detail}")

    # Group math round trips.
    vs = rng.standard_normal((10000, 3))
    vs *= (rng.uniform(0.0, math.pi - 1e-3, 10000) /
           np.linalg.norm(vs, axis=1))[:, None]
    worst = max(np.linalg.norm(so3.log_so3(so3.exp_so3(v)) - v) for v in vs[:10000])
    check("exp-log roundtrip (1e4 draws, 1e-9)", worst <= 1e-9, f"worst {worst:.2e}")

    worst = max(so3.orthogonality_defect(so3.exp_so3(v * 10.0)) for v in vs[:500])
    check("exponential orthogonality (1e-12)", worst <= 1e-12, f"worst {worst:.2e}")

    worst = 0.0
    for v in vs[:500]:
        r = so3.exp_so3(v)
        phi = math.acos(max(-1.0, min(1.0, (np.trace(r) - 1.0) / 2.0)))
        worst = max(worst, abs(phi - np.linalg.norm(v)))
    check("angle identity (1e-9)", worst <= 1e-9, f"worst {worst:.2e}")

    worst = max(np.linalg.norm(so3.vee(so3.hat(v)) - v) for v in vs[:200])
    check("vee(hat(v)) = v (exact)", worst == 0.0, f"worst {worst:.2e}")

    # Distance gradient against central differences.
    r_d = so3.exp_so3(vs[0])
    r = so3.exp_so3(vs[1])
    w = vs[2] / np.linalg.norm(vs[2])
    step = 1e-5
    dp = so3.geodesic_distance(r_d, r @ so3.exp_so3(step * w)) ** 2 / 2.0
    dm = so3.geodesic_distance(r_d, r @ so3.exp_so3(-step * w)) ** 2 / 2.0
    fd = (dp - dm) / (2.0 * step)
    inner = float(so3.log_so3(r_d.T @ r) @ w)
    check("distance gradient (1e-6)", abs(fd - inner) <= 1e-6, f"err {abs(fd - inner):.2e}")

    # Published gain tables.
    b = riccati.B_CANONICAL
    q2 = np.eye(2)
    sol_r = riccati.are_solve(riccati.drift_matrix("published-regulation"), b, q2, 0.5)
    g_r = riccati.gains_from_K(sol_r, riccati.CostParams(alpha=0.5))
    ok_r = abs(g_r.kP - 1.4142) <= 1e-3 and abs(g_r.kD - 2.7671) <= 1e-3
    check("regulation gain table (1e-3)", ok_r, f"got ({g_r.kP:.5f}, {g_r.kD:.5f})")
    sol_t = riccati.are_solve(riccati.drift_matrix("published-tracking", -2.0), b, q2, 1.0)
    g_t = riccati.gains_from_K(sol_t, riccati.CostParams(alpha=1.0))
    ok_t = abs(g_t.kP - 8.7852) <= 1e-3 and abs(g_t.kD - 8.3357) <= 1e-3
    check("tracking gain table (1e-3)", ok_t, f"got ({g_t.kP:.5f}, {g_t.kD:.5f})")

    worst = 0.0
    for _ in range(10):
        gam = rng.uniform(-2.0, 2.0)
        al = rng.uniform(0.1, 10.0)
        sol = riccati.are_solve(riccati.drift_matrix("reconciled", gam), b, q2, al)
        res = riccati.scalar_residual(sol, riccati.CostParams(alpha=al, gamma=gam))
        worst = max(worst, float(np.abs(res).max()))
    check("scalar-matrix consistency (1e-9)", worst <= 1e-9, f"worst {worst:.2e}")

    sched = riccati.dre_integrate(riccati.drift_matrix("published-tracking", -2.0),
                                  b, q2, 1.0, t_end=10.0, h=1e-3)
    terminal_zero = (sched.k1[-1] == 0.0 and sched.k2[-1] == 0.0 and sched.k3[-1] == 0.0)
    k0 = sched.solution_at(0.0)
    dre_err = max(abs(k0.k1 - sol_t.k1), abs(k0.k2 - sol_t.k2), abs(k0.k3 - sol_t.k3))
    check("backward Riccati sweep (terminal 0, fixed point 1e-4)",
          terminal_zero and dre_err <= 1e-4, f"err {dre_err:.2e}")

    # Integrator group preservation and first-order drift.
    from .dynamics import lie_euler_step

    inertia = InertiaTensor.diagonal([1.0, 2.0, 3.0])
    state = RigidBodyState(np.eye(3), np.array([0.3, 1.1, -0.2]))
    worst = 0.0
    for i in range(10000):
        state = lie_euler_step(state, np.zeros(3), 1e-3, inertia)
        if i % 100 == 0:
            worst = max(worst, so3.orthogonality_defect(state.r))
    worst = max(worst, so3.orthogonality_defect(state.r))
    check("group preservation over 1e4 steps (1e-10)", worst <= 1e-10,
          f"worst {worst:.2e}")

    def energy_drift(h):
        s = RigidBodyState(np.eye(3), np.array([0.3, 1.1, -0.2]))
        e0 = 0.5 * float(s.w @ (inertia.j @ s.w))
        worst_d = 0.0
        for _ in range(int(round(5.0 / h))):
            s = lie_euler_step(s, np.zeros(3), h, inertia)
            e = 0.5 * float(s.w @ (inertia.j @ s.w))
            worst_d = max(worst_d, abs(e - e0) / e0)
        return worst_d

    d1, d2 = energy_drift(1e-3), energy_drift(5e-4)
    ratio = d2 / d1
    check("free-body energy drift halves with h (factor 1.5)",
          1.0 / 3.0 <= ratio <= 0.75, f"ratio {ratio:.3f}")

    # Feedback laws vanish where they should.
    goal = regulators.RegulationGoal(so3.exp_so3(vs[3]))
    at_goal = RigidBodyState(goal.r_d.copy(), np.zeros(3))
    tau = regulators.regulation_torque(at_goal, goal, riccati.GainPair(2.0, 3.0))
    check("regulation torque zero at goal (exact)", float(np.abs(tau).max()) == 0.0,
          f"{tau}")

    worst = 0.0
    for _ in range(100):
        r1 = so3.exp_so3(rng.standard_normal(3))
        r2 = so3.exp_so3(rng.standard_normal(3))
        wv = rng.standard_normal(3)
        worst = max(worst, abs(np.linalg.norm(so3.transport_velocity(r1, r2, wv))
                               - np.linalg.norm(wv)))
    check("velocity transport isometry (1e-12)", worst <= 1e-12, f"worst {worst:.2e}")

    clock.lap("checks")
    summary = clock.summary("check", iterations={"checks": len(lines), "failures": failures})
    return summary, failures == 0, lines


def run(cfg: ScenarioConfig, out_dir: str | None = None):
    """Dispatch a validated config. Returns (RunSummary, ok, lines)."""
    directory = Path(out_dir if out_dir is not None else cfg.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    if cfg.command == "gains":
        return run_gains(cfg, directory), True, []
    if cfg.command == "regulate":
        return run_regulate(cfg, directory), True, []
    if cfg.command == "track":
        return run_track(cfg, directory), True, []
    if cfg.command == "avoid":
        return run_avoid(cfg, directory), True, []
    return run_check(cfg, directory)
