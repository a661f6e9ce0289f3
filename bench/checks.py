"""Correctness checks on what a workload wrote and returned.

The references are independent of the program's own numbers: scipy's ARE
solver and ODE integrator for the gains, the closed-form reference rotation
for tracking, and a trapezoid/symplectic-Euler cost evaluation written here
for avoidance. Each check returns a list of failure messages; an empty list
is a pass.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = ["t", "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
              "wx", "wy", "wz", "tau_x", "tau_y", "tau_z",
              "dist", "lyap", "value", "hamiltonian"]
ROTATION_COLS = CSV_HEADER[1:10]

# Columns each command fills; the others stay empty (README, "Trajectory CSV").
FILLED_COLUMNS = {
    "track": ["t"] + CSV_HEADER[1:16] + ["dist"],
    "regulate_dre": ["t"] + CSV_HEADER[1:16] + ["dist", "lyap", "value"],
    "avoid": ["t", "wx", "wy", "tau_x", "tau_y", "dist", "hamiltonian"],
}

GAIN_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-10
TRACK_FINAL_DISTANCE_MAX = 0.05
DISTANCE_MATCH_TOL = 1e-9
SHOOTING_TOL = 1e-6
HAMILTONIAN_SPREAD_MAX = 1e-3
ORACLE_REL_GAP_MAX = 1e-2
ORACLE_MARGIN = 1e-3
COST_EVAL_STEP = 1e-3


class Table:
    """A CSV file as its header and its cells, with float views by column."""

    def __init__(self, text: str):
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        self.header = lines[0].split(",") if lines else []
        self.rows = [line.split(",") for line in lines[1:]]

    def dumps(self) -> str:
        return "".join(",".join(r) + "\n" for r in [self.header] + self.rows)

    @classmethod
    def read(cls, path) -> "Table":
        with open(path, encoding="utf-8", newline="") as f:
            return cls(f.read())

    def col(self, name: str) -> np.ndarray:
        j = self.header.index(name)
        return np.array([float(r[j]) for r in self.rows])

    def cols(self, names) -> np.ndarray:
        return np.stack([self.col(n) for n in names], axis=1)

    def rotations(self) -> np.ndarray:
        return self.cols(ROTATION_COLS).reshape(-1, 3, 3)


def expected_rows(n_samples: int, decimation: int) -> int:
    """Rows the writer keeps: every decimation-th sample plus the last one."""
    kept = len(range(0, n_samples, decimation))
    return kept + (0 if (n_samples - 1) % decimation == 0 else 1)


def check_trajectory_csv(table: Table, n_rows: int, filled) -> list[str]:
    """Header, row count, 20 fields per row, filled columns finite numbers,
    every other column empty."""
    fails = []
    if table.header != CSV_HEADER:
        fails.append(f"trajectory header {table.header} differs from the contract")
        return fails
    fails += _check_cells(table, n_rows, filled, "trajectory.csv")
    return fails


def check_path_csv(table: Table, n_rows: int, dimension: int) -> list[str]:
    names = (["t"] + [f"q{i + 1}" for i in range(dimension)]
             + [f"v{i + 1}" for i in range(dimension)]
             + [f"u{i + 1}" for i in range(dimension)])
    if table.header != names:
        return [f"avoidance_path header {table.header} differs from {names}"]
    return _check_cells(table, n_rows, names, "avoidance_path.csv")


def _check_cells(table: Table, n_rows: int, filled, label: str) -> list[str]:
    fails = []
    if len(table.rows) != n_rows:
        fails.append(f"{label}: {len(table.rows)} rows, expected {n_rows}")
    width = len(table.header)
    filled_idx = {table.header.index(c) for c in filled}
    for i, row in enumerate(table.rows):
        if len(row) != width:
            fails.append(f"{label} row {i}: {len(row)} fields, expected {width}")
            break
        bad = [table.header[j] for j, cell in enumerate(row)
               if (j in filled_idx) != (cell != "")
               or (cell != "" and not math.isfinite(float(cell)))]
        if bad:
            fails.append(f"{label} row {i}: columns {bad} break the fill contract")
            break
    return fails


def check_rotations(rotations: np.ndarray) -> list[str]:
    """Every logged rotation is orthogonal with determinant +1."""
    eye = np.eye(3)
    defect = np.linalg.norm(np.transpose(rotations, (0, 2, 1)) @ rotations - eye,
                            axis=(1, 2))
    det_err = np.abs(np.linalg.det(rotations) - 1.0)
    worst = float(max(defect.max(), det_err.max()))
    if not worst <= ORTHOGONALITY_TOL:
        i = int(np.argmax(np.maximum(defect, det_err)))
        return [f"rotation at row {i} off the group by {worst:.3e} > {ORTHOGONALITY_TOL:g}"]
    return []


def drift_matrix(mode: str, gamma: float) -> np.ndarray:
    """The documented drift matrix of each bookkeeping (README, Configuration)."""
    return {
        "published-regulation": np.array([[0.0, 2.0], [0.0, 0.0]]),
        "published-tracking": np.array([[-gamma, 2.0], [0.0, -gamma]]),
        "reconciled": np.array([[-gamma / 2.0, 1.0], [0.0, -gamma / 2.0]]),
    }[mode]


def _gain_fails(label: str, got: dict, kp: float, kd: float) -> list[str]:
    err = max(abs(got["kP"] - kp), abs(got["kD"] - kd))
    if not err <= GAIN_TOL:
        return [f"{label}: gains ({got['kP']!r}, {got['kD']!r}) differ from "
                f"({kp!r}, {kd!r}) by {err:.3e}"]
    return []


def check_are_gains(gains: dict, cfg) -> list[str]:
    """Summary gains against scipy.linalg.solve_continuous_are."""
    import scipy.linalg

    a = drift_matrix(cfg.controller.a_matrix_mode, cfg.cost.gamma)
    b = np.array([[0.0], [1.0]])
    k = scipy.linalg.solve_continuous_are(a, b, cfg.cost.q_weights,
                                          np.array([[cfg.cost.alpha]]))
    return _gain_fails("ARE gains", gains, k[0, 1] / cfg.cost.alpha,
                       k[1, 1] / cfg.cost.alpha)


def dre_reference(cfg):
    """K(t) on [0, T] from scipy's solve_ivp of the backward Riccati sweep,
    K(T) = 0; returns a callable t -> (k1, k2, k3)."""
    from scipy.integrate import solve_ivp

    a = drift_matrix(cfg.controller.a_matrix_mode, cfg.cost.gamma)
    s = np.array([[0.0, 0.0], [0.0, 1.0 / cfg.cost.alpha]])
    q = cfg.cost.q_weights
    t_end = cfg.sim.t_end

    def rate(_, y):
        k = np.array([[y[0], y[2]], [y[2], y[1]]])
        m = a.T @ k + k @ a - k @ s @ k + q
        return [m[0, 0], m[1, 1], m[0, 1]]

    sol = solve_ivp(rate, (0.0, t_end), [0.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference DRE integration failed: {sol.message}")
    return lambda t: sol.sol(t_end - np.asarray(t, dtype=float))


def check_dre_gains(gains: dict, table: Table, cfg) -> list[str]:
    """Summary gains at t = 0, and kP(t) recovered from the lyap column,
    against scipy's solve_ivp of the DRE."""
    k_of_t = dre_reference(cfg)
    alpha = cfg.cost.alpha
    k0 = k_of_t(0.0)
    fails = _gain_fails("DRE gains at t=0", gains, k0[2] / alpha, k0[1] / alpha)
    # lyap = kP d^2/2 + |w|^2/2; kP is well conditioned where d is not small.
    t, d, lyap = table.col("t"), table.col("dist"), table.col("lyap")
    w = table.cols(["wx", "wy", "wz"])
    rows = d > 0.1
    if rows.sum() < 2:
        return fails + ["too few rows with dist > 0.1 to recover kP(t)"]
    kp_csv = (lyap[rows] - 0.5 * np.einsum("ij,ij->i", w[rows], w[rows])) / (0.5 * d[rows] ** 2)
    kp_ref = k_of_t(t[rows])[2] / alpha
    err = float(np.abs(kp_csv - kp_ref).max())
    if not err <= GAIN_TOL:
        fails.append(f"DRE schedule: kP(t) from the lyap column off by {err:.3e}")
    return fails


def reference_rotations(cfg, times: np.ndarray) -> np.ndarray:
    """Closed-form reference R_ref(t_n) = r0 exp(hat(c) h^2 n (n - 1) / 2).

    Holds for a reference velocity c t about one fixed axis, which is what the
    shipped track config uses: the group-preserving update multiplies by
    exp(hat(c) t_i h), and rotations about one axis add their angles.
    """
    from scipy.spatial.transform import Rotation

    coeffs = cfg.reference.omega_coeffs
    if any(len(axis) != 2 or axis[0] != 0.0 for axis in coeffs):
        raise ValueError("closed-form reference needs omega_ref(t) = c t")
    c = np.array([axis[1] for axis in coeffs])
    h = cfg.sim.h
    n = np.rint(times / h)
    angle_scale = h * h * n * (n - 1.0) / 2.0
    rots = Rotation.from_rotvec(angle_scale[:, None] * c[None, :]).as_matrix()
    return cfg.reference.r0 @ rots


def check_track_distance(table: Table, summary, cfg) -> list[str]:
    """The dist column and the summary's final distance, recomputed against
    the closed-form reference."""
    from scipy.spatial.transform import Rotation

    rotations = table.rotations()
    ref = reference_rotations(cfg, table.col("t"))
    rel = np.transpose(ref, (0, 2, 1)) @ rotations
    dist = Rotation.from_matrix(rel).magnitude()
    fails = []
    err = float(np.abs(dist - table.col("dist")).max())
    if not err <= DISTANCE_MATCH_TOL:
        fails.append(f"dist column differs from the closed-form distance by {err:.3e}")
    final = float(dist[-1])
    if not final <= TRACK_FINAL_DISTANCE_MAX:
        fails.append(f"final tracking distance {final:.3e} > {TRACK_FINAL_DISTANCE_MAX}")
    if not abs(final - summary.final_distance) <= DISTANCE_MATCH_TOL:
        fails.append(f"summary final distance {summary.final_distance!r} differs from "
                     f"the recomputed {final!r}")
    return fails


def running_cost(scenario, q, v, u) -> np.ndarray:
    """L = |q - q*|^2/2 + |v|^2/2 + (alpha/2)|u|^2 + sum_i 1/O_i(q), per row;
    +inf where an obstacle is touched."""
    d = q - scenario.target
    lk = 0.5 * (np.einsum("kn,kn->k", d, d) + np.einsum("kn,kn->k", v, v)
                + scenario.alpha * np.einsum("kn,kn->k", u, u))
    for obs in scenario.obstacles:
        dq = q - obs.center
        o = np.einsum("kn,kn->k", dq, dq) - obs.radius ** 2
        lk = lk + np.where(o > 0.0, 1.0 / np.where(o > 0.0, o, 1.0), np.inf)
    return lk


def trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))


def evaluated_cost(scenario, times, u) -> float:
    """Cost of a control signal on a common grid: linear interpolation onto
    step COST_EVAL_STEP, symplectic-Euler states, trapezoid rule."""
    steps = max(1, int(round(scenario.horizon / COST_EVAL_STEP)))
    tt = np.linspace(0.0, scenario.horizon, steps + 1)
    ht = tt[1] - tt[0]
    uu = np.stack([np.interp(tt, times, u[:, j]) for j in range(u.shape[1])], axis=1)
    v = np.empty_like(uu)
    q = np.empty_like(uu)
    v[0], q[0] = scenario.v0, scenario.q0
    v[1:] = scenario.v0 + ht * np.cumsum(uu[:-1], axis=0)
    q[1:] = scenario.q0 + ht * np.cumsum(v[1:], axis=0)
    return trapezoid(running_cost(scenario, q, v, uu), tt)


def check_avoid(path: Table, traj: Table, summary, oracle, scenario) -> list[str]:
    """Terminal condition, Hamiltonian constancy, obstacle clearance, and the
    extremal's cost against the transcription oracle's."""
    n = scenario.dimension
    t = path.col("t")
    q = path.cols([f"q{i + 1}" for i in range(n)])
    v = path.cols([f"v{i + 1}" for i in range(n)])
    u = path.cols([f"u{i + 1}" for i in range(n)])
    fails = []
    u_end = float(np.abs(u[-1]).max())
    if not u_end <= SHOOTING_TOL:
        fails.append(f"|u(T)| = {u_end:.3e} > shooting tolerance {SHOOTING_TOL:g}")
    ham = traj.col("hamiltonian")
    spread = float(ham.max() - ham.min())
    if not spread <= HAMILTONIAN_SPREAD_MAX:
        fails.append(f"hamiltonian spread {spread:.3e} > {HAMILTONIAN_SPREAD_MAX:g}")
    clearance = min(float((np.einsum("kn,kn->k", q - o.center, q - o.center)
                           - o.radius ** 2).min()) for o in scenario.obstacles)
    if not clearance > 0.0:
        fails.append(f"path clearance {clearance:.3e} is not positive")
    if not clearance >= summary.min_obstacle_clearance:
        fails.append(f"path clearance {clearance!r} below the summary's "
                     f"{summary.min_obstacle_clearance!r}")
    j_shoot = trapezoid(running_cost(scenario, q, v, u), t)
    gap = abs(j_shoot - oracle.cost) / oracle.cost
    if not gap <= ORACLE_REL_GAP_MAX:
        fails.append(f"shooting cost {j_shoot:.6g} vs oracle {oracle.cost:.6g}: "
                     f"relative gap {gap:.3e} > {ORACLE_REL_GAP_MAX:g}")
    e_shoot = evaluated_cost(scenario, t, u)
    e_oracle = evaluated_cost(scenario, oracle.times, oracle.u)
    if not e_shoot <= e_oracle * (1.0 + ORACLE_MARGIN):
        fails.append(f"extremal cost {e_shoot:.8g} above the oracle's {e_oracle:.8g} "
                     f"by more than {ORACLE_MARGIN:g}")
    return fails
