"""Optimal feedback laws for attitude: LQR regulation to a fixed rotation and
PD-plus-feedforward tracking of a moving reference, with the Lyapunov and
candidate-value diagnostics that certify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import InertiaTensor, RigidBodyState, _cross
from .riccati import GainPair, RiccatiSolution
from .so3 import exp_so3, log_so3


@dataclass(frozen=True)
class RegulationGoal:
    """Desired attitude."""

    r_d: np.ndarray


@dataclass(frozen=True)
class ReferenceSample:
    """Reference rotation, body velocity and body acceleration at one time."""

    r: np.ndarray
    w: np.ndarray
    wdot: np.ndarray


class TrackingReference:
    """Reference trajectory generated by integrating r' = r hat(w_ref(t)).

    The rotation, velocity and acceleration are tabulated once on a uniform
    grid, the rotation with the same explicit group-preserving update as the
    simulator; sample(t) reads all three at the grid time nearest t.
    """

    def __init__(self, omega_ref, omega_ref_dot, t_end: float, h: float,
                 r0=None):
        self.h = float(h)
        n = int(math.ceil(t_end / h - 1e-9))
        rots = np.empty((n + 1, 3, 3))
        ws = np.empty((n + 1, 3))
        wdots = np.empty((n + 1, 3))
        rots[0] = np.eye(3) if r0 is None else np.asarray(r0, dtype=float)
        for i in range(n + 1):
            ws[i] = omega_ref(i * h)
            wdots[i] = omega_ref_dot(i * h)
            if i < n:
                rots[i + 1] = rots[i] @ exp_so3(ws[i] * h)
        self.rotations = rots
        self.omegas = ws
        self.omega_dots = wdots

    def sample(self, t: float) -> ReferenceSample:
        """Grid sample nearest t; raises ValueError when t is off the grid."""
        i = int(round(t / self.h))
        if not 0 <= i < self.rotations.shape[0]:
            raise ValueError(f"t = {t:.6g} lies outside the reference grid")
        return ReferenceSample(r=self.rotations[i], w=self.omegas[i],
                               wdot=self.omega_dots[i])


def regulation_torque(s: RigidBodyState, goal: RegulationGoal, g: GainPair) -> np.ndarray:
    """-kP log(r_d.T r) - kD w. Raises AngleNearPi at the cut locus."""
    e = log_so3(goal.r_d.T @ s.r)
    return -g.kP * e - g.kD * s.w


def tracking_pd_torque(s: RigidBodyState, ref: ReferenceSample, g: GainPair) -> np.ndarray:
    """-kP log(r_ref.T r) - kD (w - r.T r_ref w_ref)."""
    e = log_so3(ref.r.T @ s.r)
    w_t = s.r.T @ (ref.r @ ref.w)
    return -g.kP * e - g.kD * (s.w - w_t)


def feedforward_torque(s: RigidBodyState, ref: ReferenceSample, j: InertiaTensor,
                       accel_term: bool = False) -> np.ndarray:
    """Reference-motion cancellation term of the tracking law.

    With w_t = r.T r_ref w_ref:

        tau_ff = (w x w_t - J^-1 (J w_t x w + J w x w_t)) / 2

    plus, when accel_term is set, the transported reference acceleration
    r.T r_ref wdot_ref.
    """
    rel = s.r.T @ ref.r
    w_t = rel @ ref.w
    w = s.w
    tau = 0.5 * (_cross(w, w_t)
                 - j.j_inv @ (_cross(j.j @ w_t, w) + _cross(j.j @ w, w_t)))
    if accel_term:
        tau = tau + rel @ ref.wdot
    return tau


def lyapunov_value(s: RigidBodyState, goal: RegulationGoal, g: GainPair) -> float:
    """kP * (squared geodesic distance) / 2 + |w|^2 / 2.

    Nonnegative, zero exactly at the goal with zero velocity, and
    non-increasing along the closed loop away from the first step.
    """
    e = log_so3(goal.r_d.T @ s.r)
    w = s.w
    return g.kP * 0.5 * float(e @ e) + 0.5 * float(w @ w)


def value_candidate(s: RigidBodyState, goal: RegulationGoal,
                    sol: RiccatiSolution) -> float:
    """Candidate value function k1 U + (k2/2)|w|^2 + k3 <log(r_d.T r), w>.

    U is half the squared geodesic distance; the cross-term sign follows the
    finite-difference calibration of the distance gradient (the directional
    derivative of U along r exp(t hat(w)) equals <log(r_d.T r), w>).
    """
    e = log_so3(goal.r_d.T @ s.r)
    w = s.w
    u = 0.5 * float(e @ e)
    return sol.k1 * u + 0.5 * sol.k2 * float(w @ w) + sol.k3 * float(e @ w)
