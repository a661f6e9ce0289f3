"""Optimal feedback laws for attitude: LQR regulation to a fixed rotation and
PD-plus-feedforward tracking of a moving reference, with the Lyapunov and
candidate-value diagnostics that certify them. The diagnostics are array
functions over rows of attitude errors and velocities, which the regulate
scenario computes once for its whole log.

Each law is one private kernel of straight-line arithmetic over Python
floats, with no helper call but the logarithm: at one 3-vector per step a
call per product costs more than the product. regulation_controller and
tracking_controller return simulate's (law, tables): law(r, w, *row), of the
state's rotation array and one row, is the kernel with its constants bound
first by functools.partial, and the tables are the reference rows and the
gains (constants, or arrays over the grid). regulation_torque,
tracking_pd_torque and feedforward_torque call the same kernels for one
RigidBodyState and ReferenceSample, bit for bit the laws' torque.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (OMEGA_DIVERGENCE_LIMIT, InertiaTensor, RigidBodyState,
                       _prefix_products, nearest_sample)
from .errors import NumericalDivergence, ValidationError
from .riccati import GainPair, RiccatiSolution
from .so3 import _CHUNK, _log_floats, as_rotation, exp_rows, row_dots


@dataclass(frozen=True)
class ReferenceSample:
    """Reference rotation, body velocity and body acceleration at one time."""

    r: np.ndarray
    w: np.ndarray
    wdot: np.ndarray


class TrackingReference:
    """Reference trajectory generated by integrating r' = r hat(w_ref(t)).

    omegas and omega_dots are w_ref and its derivative tabulated at the grid
    times k h, k = 0..N, as (N + 1, 3) arrays; config.ReferenceConfig
    evaluates its polynomial over the whole grid at once. The rotations obey
    the simulator's update r_k+1 = r_k exp(h w_k), built per so3._CHUNK steps
    by one so3.exp_rows of the independent increments and their prefix
    products (dynamics._prefix_products, log2(_CHUNK) doubling rounds); rows
    differ from a sequential chain in the last bits. sample(t) reads all
    three tables at the grid time nearest the time t.

    Raises:
        ValidationError: the tables are not both (N + 1, 3), N >= 0
            ("omegas"), h is not positive and finite ("h"), or r0, when
            given, is not a rotation within so3.ROTATION_TOL ("r0").
        NumericalDivergence: a w_ref above dynamics.OMEGA_DIVERGENCE_LIMIT
            or not finite, before any rotation is integrated.
    """

    def __init__(self, omegas, omega_dots, h: float, r0=None):
        self.h = float(h)
        self.omegas = np.asarray(omegas, dtype=float)
        self.omega_dots = np.asarray(omega_dots, dtype=float)
        if (self.omegas.shape != self.omega_dots.shape or self.omegas.shape[1:] != (3,)
                or not self.omegas.size):
            raise ValidationError("omegas", "omegas and omega_dots must be (N + 1, 3) tables")
        if not 0.0 < self.h < np.inf:
            raise ValidationError("h", "must be positive and finite")
        r0 = np.eye(3) if r0 is None else as_rotation(r0, "r0")
        with np.errstate(over="ignore"):
            fast = ~(row_dots(self.omegas, self.omegas) <= OMEGA_DIVERGENCE_LIMIT ** 2)
        if fast.any():
            raise NumericalDivergence(
                f"reference |omega| exceeds {OMEGA_DIVERGENCE_LIMIT:g} rad/s or is not "
                f"finite at t = {fast.argmax() * self.h:.6g}")
        rots = np.empty(self.omegas.shape[:1] + (3, 3))
        rots[0] = r0
        for lo in range(0, len(rots) - 1, _CHUNK):
            p = _prefix_products(exp_rows(self.h * self.omegas[:-1][lo:lo + _CHUNK]))
            rots[lo + 1:lo + _CHUNK + 1] = rots[lo] @ p
        self.rotations = rots

    def sample(self, t: float) -> ReferenceSample:
        """Grid sample nearest t (dynamics.nearest_sample); raises
        ValidationError("t") when t is not one time or is off the grid."""
        i = nearest_sample(t, self.h, len(self.rotations) - 1)
        return ReferenceSample(r=self.rotations[i], w=self.omegas[i],
                               wdot=self.omega_dots[i])


def _regulation_law(r_d, r, w, kp: float, kd: float) -> tuple:
    """-kP log(r_d.T r) - kD w from r_d's floats row by row, the rotation
    array r and w's floats; raises AngleNearPi at the cut locus."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = r_d
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = r.ravel().tolist()
    e0, e1, e2 = _log_floats((
        a0 * b0 + a3 * b3 + a6 * b6, a0 * b1 + a3 * b4 + a6 * b7, a0 * b2 + a3 * b5 + a6 * b8,
        a1 * b0 + a4 * b3 + a7 * b6, a1 * b1 + a4 * b4 + a7 * b7, a1 * b2 + a4 * b5 + a7 * b8,
        a2 * b0 + a5 * b3 + a8 * b6, a2 * b1 + a5 * b4 + a8 * b7, a2 * b2 + a5 * b5 + a8 * b8))
    w0, w1, w2 = w
    return (-kp * e0 - kd * w0, -kp * e1 - kd * w1, -kp * e2 - kd * w2)


def _tracking_law(j: InertiaTensor | None, accel_term: bool, r, w, r_ref, w_ref,
                  wdot_ref, kp, kd) -> tuple:
    """The tracking law, PD plus feedforward, as a float triple from the
    bound j and accel_term, the state (rotation array r, w's floats) and the
    floats of one reference row (r_ref row by row, w_ref, and wdot_ref, read
    only with accel_term). With kp None it is the feedforward term alone,
    which never raises; with j None the PD term alone.

    Both terms share rel = r.T r_ref and the transported reference velocity
    w_t = rel w_ref. The attitude error log(r_ref.T r) is -log(rel) exactly,
    since transposing negates the skew part and keeps the trace, so the PD
    term is kP log(rel) - kD (w - w_t).
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = r.ravel().tolist()
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = r_ref
    m0, m1, m2 = (a0 * b0 + a3 * b3 + a6 * b6, a0 * b1 + a3 * b4 + a6 * b7,
                  a0 * b2 + a3 * b5 + a6 * b8)
    m3, m4, m5 = (a1 * b0 + a4 * b3 + a7 * b6, a1 * b1 + a4 * b4 + a7 * b7,
                  a1 * b2 + a4 * b5 + a7 * b8)
    m6, m7, m8 = (a2 * b0 + a5 * b3 + a8 * b6, a2 * b1 + a5 * b4 + a8 * b7,
                  a2 * b2 + a5 * b5 + a8 * b8)
    x, y, z = w_ref
    t0, t1, t2 = m0 * x + m1 * y + m2 * z, m3 * x + m4 * y + m5 * z, m6 * x + m7 * y + m8 * z
    w0, w1, w2 = w
    if kp is not None:
        e0, e1, e2 = _log_floats((m0, m1, m2, m3, m4, m5, m6, m7, m8))
        p0, p1, p2 = (kp * e0 - kd * (w0 - t0), kp * e1 - kd * (w1 - t1),
                      kp * e2 - kd * (w2 - t2))
        if j is None:
            return p0, p1, p2
    # (w x w_t - J^-1 (J w_t x w + J w x w_t)) / 2, feedforward_torque's formula.
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = j.j_rows
    u0, u1, u2 = (j0 * t0 + j1 * t1 + j2 * t2, j3 * t0 + j4 * t1 + j5 * t2,
                  j6 * t0 + j7 * t1 + j8 * t2)
    v0, v1, v2 = (j0 * w0 + j1 * w1 + j2 * w2, j3 * w0 + j4 * w1 + j5 * w2,
                  j6 * w0 + j7 * w1 + j8 * w2)
    s0 = u1 * w2 - u2 * w1 + (v1 * t2 - v2 * t1)
    s1 = u2 * w0 - u0 * w2 + (v2 * t0 - v0 * t2)
    s2 = u0 * w1 - u1 * w0 + (v0 * t1 - v1 * t0)
    k0, k1, k2, k3, k4, k5, k6, k7, k8 = j.j_inv_rows
    f0 = 0.5 * (w1 * t2 - w2 * t1 - (k0 * s0 + k1 * s1 + k2 * s2))
    f1 = 0.5 * (w2 * t0 - w0 * t2 - (k3 * s0 + k4 * s1 + k5 * s2))
    f2 = 0.5 * (w0 * t1 - w1 * t0 - (k6 * s0 + k7 * s1 + k8 * s2))
    if accel_term:
        x, y, z = wdot_ref
        f0, f1, f2 = (f0 + (m0 * x + m1 * y + m2 * z), f1 + (m3 * x + m4 * y + m5 * z),
                      f2 + (m6 * x + m7 * y + m8 * z))
    if kp is None:
        return f0, f1, f2
    return p0 + f0, p1 + f1, p2 + f2


def regulation_controller(r_d, g: GainPair):
    """The regulation law as simulate's (law, tables): law(r, w, kp, kd)
    -> torque, with tables (g.kP, g.kD), floats (ARE gains) or arrays over
    the simulation grid (the gains of a DRE schedule's rows). A goal r_d
    that is not a rotation within so3.ROTATION_TOL raises
    ValidationError("r_d")."""
    return partial(_regulation_law, as_rotation(r_d, "r_d").ravel().tolist()), (g.kP, g.kD)


def tracking_controller(ref: TrackingReference, g: GainPair, j: InertiaTensor,
                        accel_term: bool = False):
    """The tracking law as simulate's (law, tables) on ref's grid:
    law(r, w, r_ref, w_ref, wdot_ref, kp, kd) -> torque, with tables ref's
    rotations (9 columns), omegas and omega_dots, then g as
    regulation_controller's."""
    return (partial(_tracking_law, j, accel_term),
            (ref.rotations.reshape(-1, 9), ref.omegas, ref.omega_dots, g.kP, g.kD))


def regulation_torque(s: RigidBodyState, r_d: np.ndarray, g: GainPair) -> np.ndarray:
    """-kP log(r_d.T r) - kD w to the goal rotation r_d. Raises AngleNearPi at the cut locus."""
    return np.array(_regulation_law(r_d.ravel().tolist(), s.r, s.w.tolist(), g.kP, g.kD))


def _state_and_sample(s: RigidBodyState, ref: ReferenceSample) -> tuple:
    """_tracking_law's state and reference arguments from s and ref."""
    return s.r, s.w.tolist(), ref.r.ravel().tolist(), ref.w.tolist(), ref.wdot.tolist()


def tracking_pd_torque(s: RigidBodyState, ref: ReferenceSample, g: GainPair) -> np.ndarray:
    """-kP log(r_ref.T r) - kD (w - r.T r_ref w_ref)."""
    return np.array(_tracking_law(None, False, *_state_and_sample(s, ref), g.kP, g.kD))


def feedforward_torque(s: RigidBodyState, ref: ReferenceSample, j: InertiaTensor,
                       accel_term: bool = False) -> np.ndarray:
    """Reference-motion cancellation term of the tracking law.

    With w_t = r.T r_ref w_ref:

        tau_ff = (w x w_t - J^-1 (J w_t x w + J w x w_t)) / 2

    plus, when accel_term is set, the transported reference acceleration
    r.T r_ref wdot_ref.
    """
    return np.array(_tracking_law(j, accel_term, *_state_and_sample(s, ref), None, None))


def lyapunov_value(e, w, kp) -> np.ndarray:
    """kP * (squared geodesic distance) / 2 + |w|^2 / 2 at every row of the
    (N, 3) attitude errors e = log(r_d.T r) and velocities w; kp is a scalar
    or an (N,) array.

    Nonnegative, zero exactly at the goal with zero velocity, and
    non-increasing along the closed loop away from the first step.
    """
    return kp * 0.5 * row_dots(e, e) + 0.5 * row_dots(w, w)


def value_candidate(e, w, sol: RiccatiSolution) -> np.ndarray:
    """Candidate value function k1 U + (k2/2)|w|^2 + k3 <log(r_d.T r), w> at
    every row of the (N, 3) attitude errors e = log(r_d.T r) and velocities
    w; sol's entries are scalars or (N,) arrays (a DRE schedule's lookup).

    U is half the squared geodesic distance; the cross-term sign follows the
    finite-difference calibration of the distance gradient (the directional
    derivative of U along r exp(t hat(w)) equals <log(r_d.T r), w>).
    """
    return (sol.k1 * (0.5 * row_dots(e, e)) + 0.5 * sol.k2 * row_dots(w, w)
            + sol.k3 * row_dots(e, w))
