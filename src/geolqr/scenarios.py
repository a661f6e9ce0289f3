"""Scenario execution: resolve gains, run the closed loop or the
boundary-value solver, write the trajectory CSV, and build the run summary.

The closed loop (`dynamics.simulate`) calls, once per step, the law of
`regulators.regulation_controller` or `tracking_controller` with sample i
of the tables the factory returns beside it, built before the loop: the
reference rows, and the gains as ARE's constant pair or as the DRE
schedule's rows, which are the simulation grid's samples. It logs only the
samples the CSV keeps, every output.decimation-th and the last
(`dynamics.kept_rows`). The channels are then computed from the logged
arrays in _run_closed_loop: the attitude errors e against the reference
rotations (the goal, broadcast, or the tracking table's kept rows) in one
chunked array pass (`so3.attitude_errors`), dist = |e| by `so3.row_dots`,
and regulate's lyap and value from `regulators.lyapunov_value` and
`value_candidate` with the same e and K(t) at the kept rows.
The avoid command's dist is the same norm of `pmp.goal_errors`, and its
CSVs keep the same rows of the shooting path, which starts from the
transcription oracle's path when there are obstacles (run_avoid). Every
norm in a CSV or the summary, final_velocity_norm too, is a
`so3.row_dots` sum, rounded as the laws round.

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
from .dynamics import InertiaTensor, RigidBodyState, SimParams, kept_rows, simulate, time_grid
from .errors import AngleNearPi, ConfigError, NumericalDivergence

CSV_HEADER = ("t,r11,r12,r13,r21,r22,r23,r31,r32,r33,wx,wy,wz,"
              "tau_x,tau_y,tau_z,dist,lyap,value,hamiltonian")
_NAMES = CSV_HEADER.split(",")

# Scenarios refuse initial attitudes this close to the cut locus instead of
# attempting control across it.
INITIAL_DISTANCE_GUARD = math.pi - 0.1

# With obstacles, run_avoid seeds shooting with pmp.transcription_oracle on a
# control grid of step SEED_STEP_FACTOR * sim.h (at least
# pmp.ORACLE_MIN_GRID points), stopped after at most SEED_MAX_ITER descent
# iterations.
SEED_STEP_FACTOR = 10
SEED_MAX_ITER = 200


@dataclass
class RunSummary:
    """What a command resolved, how the run ended, and where its time went:
    phases maps each phase of the run, in order, to its wall seconds."""

    command: str
    gains: dict | None = None
    final_distance: float | None = None
    final_velocity_norm: float | None = None
    min_obstacle_clearance: float | None = None
    iterations: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
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
        return RunSummary(command=command, wall_clock_seconds=time.perf_counter() - self.start,
                          phases=self.phases, **fields)


def _write_rows(path: Path, header: str, columns: dict) -> None:
    """Write a CSV of the comma-separated header and one row per entry of
    columns, which maps header names to equally long 1-D arrays; a name
    without a column gets empty cells."""
    names = header.split(",")
    present = [columns[name] for name in names if name in columns]
    row = ",".join("%.17g" if name in columns else "" for name in names) + "\n"
    # Streamed from column views, one row at a time: the largest CSV is
    # several megabytes. A full disk fails the write or the close.
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(header + "\n")
            f.writelines(row % cells for cells in zip(*present))
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from None


def _block_columns(names, block) -> dict:
    """Columns of a (samples, k) array under the first k of names."""
    return dict(zip(names, block.reshape(len(block), -1).T))


def _resolve_gain_setup(cfg: ScenarioConfig):
    """K on the simulation grid and the gain summary at t = 0. ARE: the
    constant solution. DRE: the backward sweep's rows, which a closed loop
    reads as its samples (config requires a whole number of sim.h steps)."""
    a = riccati.drift_matrix(cfg.controller.a_matrix_mode, cfg.cost.gamma)
    if cfg.controller.gain_source == "are":
        k = k0 = riccati.are_solve(a, cfg.cost.q_weights, cfg.cost.alpha)
    else:
        sched = riccati.dre_integrate(a, cfg.cost.q_weights, cfg.cost.alpha,
                                      t_end=cfg.sim.t_end, h=cfg.sim.h)
        k, k0 = riccati.RiccatiSolution(sched.k1, sched.k2, sched.k3), sched.solution_at(0.0)
    g0 = k0.gains(cfg.cost.alpha)
    return k, {"source": cfg.controller.gain_source, "kP": g0.kP, "kD": g0.kD}


def _guard_initial_distance(r_from, r0, what: str) -> None:
    """Refuse an initial attitude within the guard of r_from's cut locus."""
    d0 = so3.geodesic_distance(r_from, r0)
    if d0 >= INITIAL_DISTANCE_GUARD:
        raise AngleNearPi(
            f"initial attitude {d0:.4f} rad from the {what} exceeds the guard "
            f"{INITIAL_DISTANCE_GUARD:.4f}")


def run_gains(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    _, gains = _resolve_gain_setup(cfg)
    clock.lap("gain_solve")
    return clock.summary("gains", gains=gains)


def _run_closed_loop(cfg: ScenarioConfig, out_dir: Path, clock: _Clock,
                     gain_summary: dict, controller, r_ref, channels=None) -> RunSummary:
    """Simulate controller, a regulators factory's (law, tables), from the
    configured initial state, logging the samples the CSV keeps; take the
    attitude errors e of the log against r_ref (one goal rotation, or one
    reference rotation per logged row, the table's kept_rows) in one pass
    and dist = |e| row by row, plus the columns of channels(e, log), if
    given; write the trajectory CSV and summarise."""
    law, tables = controller
    log = simulate(law, cfg.initial, cfg.sim, tables=tables, every=cfg.output.decimation)
    clock.lap("simulate")
    e = so3.attitude_errors(np.broadcast_to(r_ref, log.rotations.shape), log.rotations)
    dist = np.sqrt(so3.row_dots(e, e))
    derived = channels(e, log) if channels else {}
    clock.lap("channels")
    columns = {"t": log.times, **_block_columns(_NAMES[1:10], log.rotations),
               **_block_columns(_NAMES[10:13], log.omegas),
               **_block_columns(_NAMES[13:16], log.torques), "dist": dist, **derived}
    _write_rows(out_dir / "trajectory.csv", CSV_HEADER, columns)
    clock.lap("csv_write")
    w = log.omegas[-1]
    return clock.summary(cfg.command, gains=gain_summary, final_distance=float(dist[-1]),
                         final_velocity_norm=math.sqrt(so3.row_dots(w, w)))


def run_regulate(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    _guard_initial_distance(cfg.goal, cfg.initial.r, "goal")
    k, gain_summary = _resolve_gain_setup(cfg)
    clock.lap("gain_solve")
    g = k.gains(cfg.cost.alpha)

    def channels(e, log):
        # K(t) at the logged samples: a DRE schedule's kept rows, or ARE's constants.
        every = cfg.output.decimation
        k_log = riccati.RiccatiSolution(*(kept_rows(x, every) for x in (k.k1, k.k2, k.k3)))
        return {"lyap": regulators.lyapunov_value(e, log.omegas, kept_rows(g.kP, every)),
                "value": regulators.value_candidate(e, log.omegas, k_log)}

    return _run_closed_loop(cfg, out_dir, clock, gain_summary,
                            regulators.regulation_controller(cfg.goal, g), cfg.goal, channels)


def run_track(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    clock = _Clock()
    k, gain_summary = _resolve_gain_setup(cfg)
    clock.lap("gain_solve")
    times = time_grid(cfg.sim.h, cfg.sim.t_end)
    ref = regulators.TrackingReference(cfg.reference.omega(times),
                                       cfg.reference.omega_dot(times), cfg.sim.h,
                                       r0=cfg.reference.r0)
    _guard_initial_distance(ref.rotations[0], cfg.initial.r, "reference")
    clock.lap("reference_build")
    controller = regulators.tracking_controller(ref, k.gains(cfg.cost.alpha), cfg.sim.inertia,
                                                cfg.controller.feedforward_accel_term)
    return _run_closed_loop(cfg, out_dir, clock, gain_summary, controller,
                            kept_rows(ref.rotations, cfg.output.decimation))


def run_avoid(cfg: ScenarioConfig, out_dir: Path) -> RunSummary:
    """Solve the avoidance BVP by multiple shooting, integrate its costates,
    write both CSVs and summarise.

    With obstacles, the direct transcription oracle runs first (phase
    "seed", SEED_STEP_FACTOR and SEED_MAX_ITER) and its path is shooting's
    start; iterations records start "oracle" and the oracle's stop_reason
    and iteration count under "oracle". Without obstacles the problem is
    linear and shooting starts from the zero guess (start "zero"): the
    oracle would cost more than it saves there.
    """
    clock = _Clock()
    scenario = cfg.avoidance
    seed, start_keys = None, {"start": "zero"}
    if scenario.obstacles:
        n_grid = max(pmp.ORACLE_MIN_GRID,
                     round(scenario.horizon / (SEED_STEP_FACTOR * cfg.sim.h)) + 1)
        seed = pmp.transcription_oracle(scenario, n_grid, max_iter=SEED_MAX_ITER)
        start_keys = {"start": "oracle", "oracle": {"stop_reason": seed.trace["stop_reason"],
                                                    "iterations": seed.iterations}}
        clock.lap("seed")
    solution = pmp.shooting_solve(scenario, h=cfg.sim.h, start=seed)
    clock.lap("shoot")
    costates = pmp.costate_integrate(scenario, solution)
    e = pmp.goal_errors(scenario, solution.q)
    dist = np.sqrt(so3.row_dots(e, e))
    clearance = None
    if scenario.obstacles:
        with np.errstate(over="ignore"):  # a far obstacle's O is inf
            clearance = float(min(obs.value(solution.q).min() for obs in scenario.obstacles))
    clock.lap("costates")

    t, q, v, u, dist_rows, hamiltonian = (
        kept_rows(x, cfg.output.decimation)
        for x in (solution.times, solution.q, solution.v, solution.u, dist, costates.hamiltonian))
    _write_rows(out_dir / "trajectory.csv", CSV_HEADER,
                {"t": t, **_block_columns(_NAMES[10:13], v), **_block_columns(_NAMES[13:16], u),
                 "dist": dist_rows, "hamiltonian": hamiltonian})
    path_names = [f"{x}{i + 1}" for x in "qvu" for i in range(scenario.dimension)]
    _write_rows(out_dir / "avoidance_path.csv", ",".join(["t"] + path_names),
                {"t": t, **_block_columns(path_names, np.hstack([q, v, u]))})
    clock.lap("csv_write")
    v_end = solution.v[-1]
    return clock.summary("avoid", final_distance=float(dist[-1]),
                         final_velocity_norm=math.sqrt(so3.row_dots(v_end, v_end)),
                         min_obstacle_clearance=clearance,
                         iterations={"newton": solution.iterations, **start_keys,
                                     **solution.trace})


def run_check(cfg: ScenarioConfig, out_dir: Path):
    """Built-in invariant suite. Returns (summary, ok, lines)."""
    clock = _Clock()
    rng = np.random.default_rng(2024)
    lines = []

    def check(name, ok, detail=""):
        lines.append(f"ok   {name}" if ok else f"FAIL {name}: {detail}")

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
    q2 = np.eye(2)
    sol_r = riccati.are_solve(riccati.drift_matrix("published-regulation"), q2, 0.5)
    g_r = sol_r.gains(0.5)
    ok_r = abs(g_r.kP - 1.4142) <= 1e-3 and abs(g_r.kD - 2.7671) <= 1e-3
    check("regulation gain table (1e-3)", ok_r, f"got ({g_r.kP:.5f}, {g_r.kD:.5f})")
    sol_t = riccati.are_solve(riccati.drift_matrix("published-tracking", -2.0), q2, 1.0)
    g_t = sol_t.gains(1.0)
    ok_t = abs(g_t.kP - 8.7852) <= 1e-3 and abs(g_t.kD - 8.3357) <= 1e-3
    check("tracking gain table (1e-3)", ok_t, f"got ({g_t.kP:.5f}, {g_t.kD:.5f})")

    worst = 0.0
    for _ in range(10):
        gam = rng.uniform(-2.0, 2.0)
        al = rng.uniform(0.1, 10.0)
        sol = riccati.are_solve(riccati.drift_matrix("reconciled", gam), q2, al)
        res = riccati.scalar_residual(sol, riccati.CostParams(alpha=al, gamma=gam))
        worst = max(worst, float(np.abs(res).max()))
    check("scalar-matrix consistency (1e-9)", worst <= 1e-9, f"worst {worst:.2e}")

    sched = riccati.dre_integrate(riccati.drift_matrix("published-tracking", -2.0),
                                  q2, 1.0, t_end=10.0, h=1e-3)
    terminal_zero = (sched.k1[-1] == 0.0 and sched.k2[-1] == 0.0 and sched.k3[-1] == 0.0)
    k0 = sched.solution_at(0.0)
    dre_err = max(abs(k0.k1 - sol_t.k1), abs(k0.k2 - sol_t.k2), abs(k0.k3 - sol_t.k3))
    check("backward Riccati sweep (terminal 0, fixed point 1e-4)",
          terminal_zero and dre_err <= 1e-4, f"err {dre_err:.2e}")

    # Integrator group preservation and first-order drift, on the free body.
    inertia = InertiaTensor.diagonal([1.0, 2.0, 3.0])

    def free_body(h, t_end):
        return simulate(lambda r, w: (0.0, 0.0, 0.0),
                        RigidBodyState(np.eye(3), np.array([0.3, 1.1, -0.2])),
                        SimParams(h, t_end, inertia))

    rots = free_body(1e-3, 10.0).rotations
    # After steps 1, 101, ... and the last.
    worst = max(so3.orthogonality_defect(r) for r in [*rots[1::100], rots[-1]])
    check("group preservation over 1e4 steps (1e-10)", worst <= 1e-10,
          f"worst {worst:.2e}")

    def energy_drift(h):
        w = free_body(h, 5.0).omegas
        e = 0.5 * so3.row_dots(w, w @ inertia.j)
        return float(np.abs(e - e[0]).max() / e[0])

    d1, d2 = energy_drift(1e-3), energy_drift(5e-4)
    ratio = d2 / d1
    check("free-body energy drift halves with h (factor 1.5)",
          1.0 / 3.0 <= ratio <= 0.75, f"ratio {ratio:.3f}")

    # Feedback laws vanish where they should.
    r_goal = so3.exp_so3(vs[3])
    at_goal = RigidBodyState(r_goal.copy(), np.zeros(3))
    tau = regulators.regulation_torque(at_goal, r_goal, riccati.GainPair(2.0, 3.0))
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
    failures = sum(line.startswith("FAIL") for line in lines)
    summary = clock.summary("check", iterations={"checks": len(lines), "failures": failures})
    return summary, failures == 0, lines


_SCENARIOS = {"gains": run_gains, "regulate": run_regulate, "track": run_track, "avoid": run_avoid}


def run(cfg: ScenarioConfig, out_dir: str | None = None):
    """Dispatch a validated config. Returns (RunSummary, ok, lines); only
    the check command reports lines or fails.

    Raises:
        ConfigError: the output directory or a CSV in it cannot be created.
    """
    directory = Path(out_dir if out_dir is not None else cfg.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output {directory}: {exc}") from None
    if cfg.command == "check":
        return run_check(cfg, directory)
    return _SCENARIOS[cfg.command](cfg, directory), True, []
