"""Rigid-body attitude dynamics with a fixed point, the group-preserving
Euler integrator, the classical Runge-Kutta sweep of pmp's extremal with
its affine form for linear systems, and what the tracking reference and the
Riccati sweep share: the doubling prefix product and nearest_sample, the
one rule that maps a time to its grid sample.

The body angular velocity satisfies w' = J^-1 (J w x w) + tau and the
kinematics R' = R hat(w), both in body coordinates. One explicit step is

    R_next = R exp_so3(h w)
    w_next = w + h (J^-1 (J w x w) + tau)

with the torque evaluated at the pre-step state. The rotation update
multiplies by an exact exponential, so group membership holds at machine
precision for arbitrarily many steps.

The closed loop builds no per-step object: simulate holds the state as the
rotation array and three Python floats, and calls its law as
law(r, w, *row), where row is sample i of each of its tables (reference
rows, gains over the grid, or constants), so a law is a pure function of
the state and one row and never looks the time up. simulate is the one
place that walks per-sample data: per AFFINE_CHUNK samples it reads the
tables' rows into Python values and gathers only its kept samples in
lists, stored by one slice assignment. It steps and calls the law at
every sample but keeps sample i only when i % every == 0 or i == n, the
condition of kept_rows, the one decimation rule of the log and the CSVs.
The velocity update is straight-line float arithmetic (euler_rhs), and
one private step kernel serves simulate and the array wrapper
lie_euler_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NumericalDivergence, ValidationError
from .so3 import ROTATION_TOL, exp_so3, is_rotation

OMEGA_DIVERGENCE_LIMIT = 1e6

MAX_STEPS = 10 ** 7  # steps of one simulation grid: 200 times the shipped track's

# Steps per batch of affine_rk4's maps (50 kB stage matrices at m = 4) and
# of the Riccati sweep's step-map powers.
AFFINE_CHUNK = 256


class InertiaTensor:
    """Symmetric positive definite inertia matrix with a cached inverse.

    j_rows and j_inv_rows hold both matrices' entries row by row as Python
    floats, for the per-step float kernels. Any other matrix raises a
    ValidationError with an empty path: the matrix as a whole is at fault.
    """

    def __init__(self, j):
        j = np.asarray(j, dtype=float)
        if j.shape != (3, 3):
            raise ValidationError("", f"inertia must be 3x3, got shape {j.shape}")
        if not np.isfinite(j).all():
            raise ValidationError("", "inertia must be finite")
        if np.abs(j - j.T).max() > 1e-12:
            raise ValidationError("", "inertia must be symmetric within 1e-12")
        if np.linalg.eigvalsh(j).min() <= 0.0:
            raise ValidationError("", "inertia must be positive definite")
        self.j = j
        self.j_inv = np.linalg.inv(j)
        self.j_rows = tuple(j.ravel().tolist())
        self.j_inv_rows = tuple(self.j_inv.ravel().tolist())

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


@dataclass(frozen=True)
class SimParams:
    h: float
    t_end: float
    inertia: InertiaTensor

    def __post_init__(self):
        if not 0.0 < self.h <= 0.01:
            raise ValidationError("h", "must satisfy 0 < h <= 0.01")
        if not self.t_end > 0.0:
            raise ValidationError("t_end", "must be positive")
        if self.t_end / self.h > MAX_STEPS:
            raise ValidationError("t_end", f"must be at most {MAX_STEPS:g} steps of h")


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
    """The simulator's grid: times k h, k = 0..ceil(t_end / h), of exact step
    h, so the last time may overshoot t_end. Compare uniform_grid."""
    return np.arange(int(math.ceil(t_end / h - 1e-9)) + 1) * h


def nearest_sample(t: float, h: float, n: int) -> int:
    """Index k of the grid time k h, k = 0..n, nearest the time t. Raises
    ValidationError("t") when t lies off the grid, more than h / 2 outside
    [0, n h], or is NaN."""
    k = np.rint(t / h)
    if not 0 <= k <= n:
        raise ValidationError("t", f"t = {t:.6g} lies outside the grid of {n} steps of {h:.6g}")
    return int(k)


def kept_rows(table, every: int):
    """Rows 0, every, 2 every, ... and the last of a per-sample table, the
    rows a log or CSV of stride every keeps; a 0-d table is returned as it
    is. A view when the last row lies on the stride, as at every = 1;
    otherwise a new array."""
    if np.ndim(table) == 0:
        return table
    rows = table[::every]
    if (len(table) - 1) % every:
        rows = np.concatenate((rows, table[-1:]))
    return rows


def uniform_grid(t_end: float, h: float) -> np.ndarray:
    """The sweeps' grid: round(t_end / h) (at least 1) equal steps ending
    exactly at t_end, so the step is h adjusted. Compare time_grid.

    Raises:
        ValidationError("h"): h not positive and finite, or more than
            MAX_STEPS steps; checked before the grid is allocated.
    """
    if not 0.0 < h < math.inf or t_end / h > MAX_STEPS:
        raise ValidationError("h", f"must be positive, finite and give at most "
                                   f"{MAX_STEPS:g} steps")
    return np.linspace(0.0, t_end, max(1, round(t_end / h)) + 1)


def euler_rhs(w, tau, j: InertiaTensor) -> tuple:
    """Angular acceleration J^-1 (J w x w) + tau as three floats, from the
    inertia's float rows; w and tau are 3-sequences. Straight-line float
    arithmetic: at one 3-vector per step numpy's call overhead, or a helper
    call per product, outweighs the work."""
    w0, w1, w2 = w
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = j.j_rows
    v0 = j0 * w0 + j1 * w1 + j2 * w2
    v1 = j3 * w0 + j4 * w1 + j5 * w2
    v2 = j6 * w0 + j7 * w1 + j8 * w2
    c0, c1, c2 = v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0
    k0, k1, k2, k3, k4, k5, k6, k7, k8 = j.j_inv_rows
    return (k0 * c0 + k1 * c1 + k2 * c2 + tau[0], k3 * c0 + k4 * c1 + k5 * c2 + tau[1],
            k6 * c0 + k7 * c1 + k8 * c2 + tau[2])


def _step(r, w, tau, h: float, j: InertiaTensor) -> tuple:
    """One explicit group-preserving step of size h > 0 from rotation r, a
    (3, 3) array, and velocity w under torque tau, float triples; returns
    (r_next, w_next) in the same forms: euler_rhs's float velocity update,
    and the numpy product of r and exp_so3(h w).
    """
    w0, w1, w2 = w
    a0, a1, a2 = euler_rhs(w, tau, j)
    # .dot: the same BLAS product as @ at half the call overhead.
    return (r.dot(exp_so3((w0 * h, w1 * h, w2 * h))),
            (w0 + h * a0, w1 + h * a1, w2 + h * a2))


def lie_euler_step(s: RigidBodyState, tau, h: float, j: InertiaTensor) -> RigidBodyState:
    """One explicit group-preserving step of size h > 0; s.w and tau are
    (3,) float arrays. simulate's step, bit for bit."""
    r, w = _step(s.r, s.w.tolist(), tau.tolist(), h, j)
    return RigidBodyState(r, np.array(w))


def simulate(law, init: RigidBodyState, p: SimParams, *, tables=(), every=1) -> TrajectoryLog:
    """Roll the closed loop forward and log sample i when i % every == 0 or
    i == n, the final one: samples 0, every, 2 every, ... (kept_rows).

    The law is the only per-step callback, and nothing in the loop builds a
    per-step object: the state is a rotation array and three floats. Every
    sample is stepped, guarded and handed to the law, logged or not.
    Quantities of the logged state (errors, Lyapunov and value channels) are
    computed by the caller from the returned arrays after the run.

    Args:
        law: callable(r, w, *row) -> three floats, the torque of rotation r,
            a (3, 3) array, and velocity w, three floats, where row holds
            sample i of each table as Python values. Its output is recorded
            at each logged sample, including the final one.
        init: initial state.
        p: step size, horizon and inertia.
        tables: keyword-only; each is 0-d, the same value at every sample,
            or has one row per sample.
        every: keyword-only; the stride of the logged samples, a positive
            integer. 1 logs every sample.

    Returns:
        TrajectoryLog of the kept samples of the ceil(t_end / h) + 1 grid
        samples. Deterministic: two calls with identical inputs produce
        bit-identical logs, and the log of every = k is kept_rows of the
        log of every = 1, bit for bit.

    Raises:
        ValidationError: before the first step, naming "every" when it is
            not a positive integer, "init.r" when the initial attitude is
            not a rotation within so3.ROTATION_TOL, or "tables[k]" when
            table k has another row count.
        NumericalDivergence: |w| of a state, the initial one included,
            exceeded 1e6 rad/s, or the state or the final torque is not
            finite.
    """
    if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
        raise ValidationError("every", f"every must be a positive integer, got {every!r}")
    if not is_rotation(init.r, ROTATION_TOL):
        raise ValidationError("init.r", f"not a rotation within {ROTATION_TOL:g}")
    grid = time_grid(p.h, p.t_end)
    n = len(grid) - 1
    tables = [np.asarray(t) for t in tables]
    for k, t in enumerate(tables):
        if t.ndim and len(t) != n + 1:
            raise ValidationError(f"tables[{k}]",
                                  f"table {k} has {len(t)} rows; the grid has {n + 1} samples")
    times = kept_rows(grid, every)
    rotations = np.empty((len(times), 3, 3))
    omegas = np.empty((len(times), 3))
    torques = np.empty((len(times), 3))

    h, j = p.h, p.inertia
    r = np.array(init.r, dtype=float)
    w = tuple(np.asarray(init.w, dtype=float).tolist())
    # Per AFFINE_CHUNK samples, the tables' rows are read into Python values
    # and the chunk's kept samples gather in lists, stored from log row k by
    # one slice assignment: numpy indexing per sample costs more.
    limit = OMEGA_DIVERGENCE_LIMIT ** 2
    k = 0
    for lo in range(0, n + 1, AFFINE_CHUNK):
        hi = min(lo + AFFINE_CHUNK, n + 1)
        rs, ws, taus = [], [], []
        cols = [t[lo:hi].tolist() if t.ndim else repeat(t.item()) for t in tables]
        for i, row in zip(range(lo, hi), zip(*cols) if cols else repeat(())):
            w0, w1, w2 = w
            # Written as "not <=" so that a NaN velocity fails the guard too.
            if not w0 * w0 + w1 * w1 + w2 * w2 <= limit:
                raise NumericalDivergence(
                    f"|omega| exceeded {OMEGA_DIVERGENCE_LIMIT:g} rad/s or is not finite "
                    f"at t = {grid.item(i):.6g}")
            tau = law(r, w, *row)
            if i % every == 0 or i == n:  # kept_rows' rule
                rs.append(r)
                ws.append(w)
                taus.append(tau)
            if i < n:
                r, w = _step(r, w, tau, h, j)
        # A stride above AFFINE_CHUNK leaves some chunks without a kept sample.
        if rs:
            rotations[k:k + len(rs)], omegas[k:k + len(rs)], torques[k:k + len(rs)] = rs, ws, taus
            k += len(rs)
    # A non-finite torque before the final sample already fails the velocity
    # guard of the next state; this catches the final sample's.
    if not np.isfinite(torques[-1]).all():
        raise NumericalDivergence("controller returned a non-finite torque")
    return TrajectoryLog(times, rotations, omegas, torques)


def rk4(rate, y0, times) -> np.ndarray:
    """Classical 4th-order Runge-Kutta sweep along a time grid.

    rate(k, theta, y) is the derivative at times[k] + theta (times[k+1] -
    times[k]) with theta in {0, 1/2, 1}, so a rate defined by samples stored
    on the grid can take sample k, the midpoint, or sample k + 1. A
    decreasing grid integrates backward. Returns the states at every grid
    time, stacked along a new leading axis.

    The states, the stage state and the update sum live in buffers of y0's
    memory order (each step writes its state into its own slot of the
    result), written by ufuncs with out=, with the classical step's
    operations in its order. So a component-major (Fortran-ordered) batch
    stays component-major in every stage, y0 is not modified, and rate may
    return its own argument. Each stage's rate enters the sum (acc = f1,
    then acc += 2 f2, which rounds as f1 + 2 f2) and the next stage state
    before rate is called again, so the rate may return one buffer it
    reuses.
    """
    grid = np.asarray(times, dtype=float).tolist()
    y0 = np.asarray(y0, dtype=float)
    if y0.flags.f_contiguous and not y0.flags.c_contiguous:
        # Slots of y0.T's shape, each transposed back: Fortran-ordered.
        ys = np.empty((len(grid),) + y0.T.shape).transpose(0, *range(y0.ndim, 0, -1))
    else:
        ys = np.empty((len(grid),) + y0.shape)
    y = ys[0]
    y[...] = y0
    stage, acc, tmp = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for k in range(len(grid) - 1):
        h = grid[k + 1] - grid[k]
        f = rate(k, 0.0, y)
        np.copyto(acc, f)
        np.add(y, np.multiply(f, 0.5 * h, out=stage), out=stage)
        f = rate(k, 0.5, stage)
        np.add(acc, np.multiply(f, 2.0, out=tmp), out=acc)
        np.add(y, np.multiply(f, 0.5 * h, out=stage), out=stage)
        f = rate(k, 0.5, stage)
        np.add(acc, np.multiply(f, 2.0, out=tmp), out=acc)
        np.add(y, np.multiply(f, h, out=stage), out=stage)
        np.add(acc, rate(k, 1.0, stage), out=acc)
        y = np.add(y, np.multiply(acc, h / 6.0, out=acc), out=ys[k + 1])
    return ys


def affine_rk4(a, f, y0, times) -> np.ndarray:
    """rk4 on a linear system y' = A(t) y + f(t), as one affine map per step.

    a = (A at the N grid samples, A at the N - 1 interval midpoints) and f
    likewise, broadcasting against (N or N - 1, m, m) and (.., m). With
    G = [[A, f], [0, 0]] on (y, 1) the stages are linear, K1 = G0,
    K2 = Gm (I + h/2 K1), K3 = Gm (I + h/2 K2), K4 = G1 (I + h K3), and a
    step is (y, 1) <- (I + h/6 (K1 + 2 K2 + 2 K3 + K4)) (y, 1). Batched
    products build the maps, AFFINE_CHUNK steps at a time; only applying
    them is sequential. A decreasing grid integrates backward. Returns the
    states, (N, m).
    """
    h = np.diff(np.asarray(times, dtype=float))[:, None, None]
    n, m = len(h), len(y0)
    a = [np.broadcast_to(x, (n + 1 - i, m, m)) for i, x in enumerate(a)]
    f = [np.broadcast_to(x, (n + 1 - i, m)) for i, x in enumerate(f)]
    ys = np.empty((n + 1, m + 1))
    ys[0] = y = np.append(y0, 1.0)
    for lo in range(0, n, AFFINE_CHUNK):
        hc = h[lo:lo + AFFINE_CHUNK]
        g0, gm = np.zeros((len(hc) + 1, m + 1, m + 1)), np.zeros((len(hc), m + 1, m + 1))
        for g, a_g, f_g in zip((g0, gm), a, f):
            g[:, :m, :m], g[:, :m, m] = a_g[lo:lo + len(g)], f_g[lo:lo + len(g)]
        k, step = g0[:-1], g0[:-1] * (hc / 6.0)
        for g, c, w in ((gm, 0.5, 2.0), (gm, 0.5, 2.0), (g0[1:], 1.0, 1.0)):
            k = g @ k
            k *= c * hc
            k += g
            step += k * (w / 6.0 * hc)
        step[:, range(m + 1), range(m + 1)] += 1.0
        for i, p in enumerate(step, lo + 1):
            ys[i] = y = np.dot(p, y)
    return ys[:, :m]


def _prefix_products(p: np.ndarray) -> np.ndarray:
    """Inclusive prefix products p[0] p[1] ... p[i] of a stack of square
    matrices, in place, in ceil(log2(len(p))) doubling rounds of batched
    products; returns p. A matrix product is associative, so the rows agree
    with a sequential left-to-right chain up to rounding."""
    d = 1
    while d < len(p):
        p[d:] = p[:-d] @ p[d:]
        d *= 2
    return p
