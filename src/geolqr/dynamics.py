"""Rigid-body attitude dynamics with a fixed point, the group-preserving
Euler integrator, a flat-space double integrator, and the one classical
Runge-Kutta sweep that the Riccati and optimality solvers share.

The body angular velocity satisfies w' = J^-1 (J w x w) + tau and the
kinematics R' = R hat(w), both in body coordinates. One explicit step is

    R_next = R exp_so3(h w)
    w_next = w + h (J^-1 (J w x w) + tau)

with the torque evaluated at the pre-step state. The rotation update
multiplies by an exact exponential, so group membership holds at machine
precision for arbitrarily many steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._float3 import cross, flat, mv
from .errors import NumericalDivergence
from .so3 import exp_so3

OMEGA_DIVERGENCE_LIMIT = 1e6


class InertiaTensor:
    """Symmetric positive definite inertia matrix with a cached inverse.

    j_rows and j_inv_rows hold both matrices' entries row by row as Python
    floats, for the per-step float kernels.
    """

    def __init__(self, j):
        j = np.asarray(j, dtype=float)
        if j.shape != (3, 3):
            raise ValueError(f"inertia must be 3x3, got shape {j.shape}")
        if np.abs(j - j.T).max() > 1e-12:
            raise ValueError("inertia must be symmetric within 1e-12")
        if np.linalg.eigvalsh(j).min() <= 0.0:
            raise ValueError("inertia must be positive definite")
        self.j = j
        self.j_inv = np.linalg.inv(j)
        self.j_rows = tuple(flat(j))
        self.j_inv_rows = tuple(flat(self.j_inv))

    @classmethod
    def diagonal(cls, values) -> "InertiaTensor":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __repr__(self):
        return f"InertiaTensor({self.j.tolist()})"


@dataclass
class RigidBodyState:
    """Attitude and body angular velocity: one point of the state space."""

    r: np.ndarray
    w: np.ndarray


@dataclass
class FlatState:
    """Configuration/velocity pair of the flat double integrator."""

    q: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SimParams:
    h: float
    t_end: float
    inertia: InertiaTensor

    def __post_init__(self):
        if not 0.0 < self.h <= 0.01:
            raise ValueError(f"step size must be in (0, 0.01], got {self.h}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@dataclass
class TrajectoryLog:
    """Uniformly sampled closed-loop history: time, state and applied torque."""

    times: np.ndarray
    rotations: np.ndarray
    omegas: np.ndarray
    torques: np.ndarray

    def __len__(self):
        return self.times.shape[0]


def time_grid(h: float, t_end: float) -> np.ndarray:
    """Sample times k h, k = 0..ceil(t_end / h), of a run of step h."""
    return np.arange(int(math.ceil(t_end / h - 1e-9)) + 1) * h


def euler_rhs(w, tau, j: InertiaTensor) -> tuple:
    """Angular acceleration J^-1 (J w x w) + tau as three floats, from the
    inertia's float rows; w and tau are 3-sequences."""
    a0, a1, a2 = mv(j.j_inv_rows, cross(mv(j.j_rows, w), w))
    return (a0 + tau[0], a1 + tau[1], a2 + tau[2])


def lie_euler_step(s: RigidBodyState, tau, h: float, j: InertiaTensor) -> RigidBodyState:
    """One explicit group-preserving step of size h > 0.

    s.w and tau are (3,) float arrays. The velocity update is Python float
    arithmetic: at one 3-vector per step numpy's call overhead outweighs the
    work. The rotation update stays the numpy product of s.r and
    exp_so3(h w), since both factors and the result are arrays.
    """
    w0, w1, w2 = w = s.w.tolist()
    a0, a1, a2 = euler_rhs(w, tau.tolist(), j)
    return RigidBodyState(
        r=s.r @ exp_so3((w0 * h, w1 * h, w2 * h)),
        w=np.array((w0 + h * a0, w1 + h * a1, w2 + h * a2)),
    )


def simulate(controller, init: RigidBodyState, p: SimParams) -> TrajectoryLog:
    """Roll the closed loop forward and log every sample.

    The controller is the only per-step callback. Quantities of the logged
    state (errors, Lyapunov and value channels) are computed by the caller
    from the returned arrays after the run.

    Args:
        controller: callable(t, RigidBodyState) -> torque (3,). Its output is
            recorded at each sample, including the final one.
        init: initial state.
        p: step size, horizon and inertia.

    Returns:
        TrajectoryLog with ceil(t_end / h) + 1 samples. Deterministic: two
        calls with identical inputs produce bit-identical logs.

    Raises:
        NumericalDivergence: |w| exceeded 1e6 rad/s, or the state or a
            logged torque is not finite.
    """
    times = time_grid(p.h, p.t_end)
    n = len(times) - 1
    rotations = np.empty((n + 1, 3, 3))
    omegas = np.empty((n + 1, 3))
    torques = np.empty((n + 1, 3))

    state = RigidBodyState(np.asarray(init.r, dtype=float).copy(),
                           np.asarray(init.w, dtype=float).copy())
    # Times and the guard are Python floats, like the step and the laws; the
    # times are read one at a time, since a list of all would cost memory.
    for i in range(n + 1):
        t = times.item(i)
        tau = np.asarray(controller(t, state), dtype=float)
        rotations[i] = state.r
        omegas[i] = state.w
        torques[i] = tau
        if i < n:
            state = lie_euler_step(state, tau, p.h, p.inertia)
            w0, w1, w2 = state.w.tolist()
            # Written as "not <=" so that a NaN velocity fails the guard too.
            if not w0 * w0 + w1 * w1 + w2 * w2 <= OMEGA_DIVERGENCE_LIMIT ** 2:
                raise NumericalDivergence(
                    f"|omega| exceeded {OMEGA_DIVERGENCE_LIMIT:g} rad/s or is not finite "
                    f"at t = {t + p.h:.6g}")
    # A non-finite torque before the last sample already fails the velocity
    # guard; this catches the final sample's.
    if not np.isfinite(torques).all():
        raise NumericalDivergence("controller returned a non-finite torque")
    return TrajectoryLog(times, rotations, omegas, torques)


def flat_step(s: FlatState, u, h: float, grad_w=None) -> FlatState:
    """Symplectic-Euler step of the flat double integrator.

    v' = v + h (u - grad_w(q)); q' = q + h v'. grad_w defaults to zero.
    """
    force = np.asarray(u, dtype=float)
    if grad_w is not None:
        force = force - grad_w(s.q)
    v_next = s.v + h * force
    return FlatState(q=s.q + h * v_next, v=v_next)


def rk4(rate, y0, times) -> np.ndarray:
    """Classical 4th-order Runge-Kutta sweep along a time grid.

    rate(k, theta, y) is the derivative at times[k] + theta (times[k+1] -
    times[k]) with theta in {0, 1/2, 1}, so a rate defined by samples stored
    on the grid can take sample k, the midpoint, or sample k + 1. A
    decreasing grid integrates backward. Returns the states at every grid
    time, stacked along a new leading axis.
    """
    grid = np.asarray(times, dtype=float).tolist()
    y = np.asarray(y0, dtype=float)
    ys = np.empty((len(grid),) + y.shape)
    ys[0] = y
    for k in range(len(grid) - 1):
        h = grid[k + 1] - grid[k]
        f1 = rate(k, 0.0, y)
        f2 = rate(k, 0.5, y + 0.5 * h * f1)
        f3 = rate(k, 0.5, y + 0.5 * h * f2)
        f4 = rate(k, 1.0, y + h * f3)
        y = y + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        ys[k + 1] = y
    return ys
