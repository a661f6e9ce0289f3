"""First-order optimality machinery for the double integrator Dv/Dt = u on
flat space and on the rotation group with the bi-invariant metric:
variational (Jacobi-type) propagation, backward costate integration with a
Hamiltonian channel, indirect shooting for the avoidance and finite-time
regulation boundary-value problems, and a direct-transcription oracle.

Two problem modes share one scenario type:

    "avoidance": minimize the running cost
        integral of U(q*, q) + |v|^2 / 2 + (alpha/2)|u|^2 + V(q)
    with V(q) = sum_i 1 / O_i(q) over the obstacles, free endpoint. The
    stationarity conditions reduce to
        D^2u/Dt^2 = R(v, u) v + u/alpha - grad(U + V)(q)/alpha
    with u(T) = 0 and Du/Dt(T) = v(T)/alpha.

    "terminal": minimize integral of (alpha/2)|u|^2 plus the terminal cost
        U(q*, q(T)) + |v(T)|^2 / 2, giving the Jacobi-type equation
        D^2u/Dt^2 = R(v, u) v
    with u(T) = -v(T)/alpha and Du/Dt(T) = grad U(q(T))/alpha.

Both follow from the costate equations Dp1/Dt = -R(v, p2) v - grad_q L and
Dp2/Dt = -p1 - grad_v L with u = -p2/alpha; costate_integrate verifies that
relation and the constancy of H on converged solutions. Shooting starts
from the zero guess, or from a flat path such as the oracle's.

The extremal sweep is dynamics.rk4 over a component-major batch of packed
start states (q, v, u, w). Its rate is the space's rates(scenario, z, out),
which writes every block of the time derivative into one buffer per sweep
and returns the rows whose q touches an obstacle; the linear costate
and variational sweeps are dynamics.affine_rk4 over the matrices of
_variational_matrices. Every cost evaluator (trajectory_cost, the oracle's
trials and control_cost through _evaluate, and the costates' Hamiltonian)
reads the one array running cost of _lagrangian under one trapezoid rule,
and _grad_potential is the one pass over the obstacles: it gives grad(U +
V) to the extremal, the costates and the oracle, and each O_i to the
running cost's barriers. Every row-wise dot product, in
O, the running cost and H, is so3.row_dots, rounded as the float kernels
round. Every rule of the configuration space is a method of its object in
MANIFOLDS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _is_int, affine_rk4, rk4, uniform_grid
from .errors import NoConvergence, NoDescent, ObstacleContact, ValidationError
from .riccati import CostParams
from .so3 import as_rotation, attitude_errors, exp_rows, row_dots

MODES = ("avoidance", "terminal")

# Multiple shooting splits the grid into steps // SEGMENT_STEPS segments (at
# least one) whose lengths differ by at most one step.
SEGMENT_STEPS = 50

# shooting_solve stops at a residual sup norm <= SHOOTING_TOL, or fails after
# SHOOTING_MAX_ITER Newton iterations, or once the sup norm is above
# SHOOTING_PROGRESS_RATIO times its value SHOOTING_PROGRESS_WINDOW
# iterations earlier.
SHOOTING_TOL = 1e-6
SHOOTING_MAX_ITER = 100
SHOOTING_PROGRESS_WINDOW = 10
SHOOTING_PROGRESS_RATIO = 0.5

# transcription_oracle needs at least ORACLE_MIN_GRID control points.
ORACLE_MIN_GRID = 50

# Stopping rule of transcription_oracle: the sup-norm gradient reaches
# ORACLE_GRAD_TOL, or the last ORACLE_PLATEAU_WINDOW iterations improved the
# cost by less than ORACLE_PLATEAU_RTOL relatively. Its line search halves a
# step s at most ORACLE_HALVINGS times, until the cost falls ORACLE_ARMIJO s
# |grad|^2; ORACLE_MAX_STALLS failed searches in a row raise NoDescent.
ORACLE_GRAD_TOL = 1e-8
ORACLE_PLATEAU_WINDOW = 60
ORACLE_PLATEAU_RTOL = 1e-8
ORACLE_HALVINGS = 60
ORACLE_ARMIJO = 1e-4
ORACLE_MAX_STALLS = 50


def _cross(a, b) -> np.ndarray:
    """Cross products along the last axis, broadcast like np.cross and with
    its products and differences, but without its axis bookkeeping."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


class _Flat:
    """Flat space: q is a vector, log(a, b) = b - a, retract(q, xi) = q + xi,
    and no connection or curvature term enters rates or connect: rates
    copies (v, u, w) as one block beside _control_accel's part."""

    def log(self, a, b):
        return b - a

    def retract(self, q, xi):
        return q + xi

    def rates(self, scenario, z, out):
        n = scenario.dimension
        out[:, :3 * n] = z[:, n:]
        return _control_accel(scenario, z[:, :n], z[:, 2 * n:3 * n], out[:, 3 * n:])

    def connect(self, a, v):
        return a


class _Rotations:
    """The rotation group with the bi-invariant metric: q holds (..., 3, 3)
    rotations, tangent quantities live in body coordinates, log(a, b) =
    log(a.T b) row by row with a broadcast, and retract(q, xi) = q exp(xi)
    on (N, 3) rows xi. Rates written with a dot are covariant, D xi / Dt =
    xi' + (v x xi) / 2 along a path of velocity v, so rates and connect add
    -(v x .)/2 and the curvature terms R(v, u)v and R(v, .)v. The rows of
    q hat(v) are the rows of q crossed with v."""

    def log(self, a, b):
        rs = b.reshape(-1, 3, 3)
        e = attitude_errors(np.broadcast_to(a, b.shape).reshape(rs.shape), rs)
        return e.reshape(b.shape[:-2] + (3,))

    def retract(self, q, xi):
        return q @ exp_rows(xi)

    def curvature(self, x, y, z) -> np.ndarray:
        """R(x, y)z = -[[x, y], z]/4, i.e. -(x cross y) cross z / 4
        (sectional curvature +1/4 for orthonormal pairs)."""
        return -0.25 * _cross(_cross(x, y), z)

    def rates(self, scenario, z, out):
        q, v, u, w = _unpack(scenario, z)
        dw = out[:, 15:]
        contact = _control_accel(scenario, q, u, dw)
        half = 0.5 * v
        out[:, :9] = _cross(q, v[:, None, :]).reshape(len(v), 9)
        out[:, 9:12] = u
        np.subtract(w, _cross(half, u), out=out[:, 12:15])
        dw += self.curvature(v, u, v)  # bit for bit curvature + dw - cross
        dw -= _cross(half, w)
        return contact

    def connect(self, a, v):
        vv = v[..., None, :]
        a[..., 3:, :3] += self.curvature(vv, np.eye(3), vv).swapaxes(-1, -2)
        a[..., :3, :3] = a[..., 3:, 3:] = -0.5 * _cross(np.eye(3), vv)
        return a


MANIFOLDS = {"flat": _Flat(), "so3-biinvariant": _Rotations()}


def _space(name: str):
    """The object of MANIFOLDS named name; the tuple refuses unhashable names too."""
    names = tuple(MANIFOLDS)
    if name not in names:
        raise ValidationError("manifold", f"expected one of {names}")
    return MANIFOLDS[name]


@dataclass(frozen=True)
class SphereObstacle:
    """Smooth obstacle indicator O(q) = |q - center|^2 - radius^2, with a
    finite center and radius > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.center).all():
            raise ValidationError("center", "must be finite")
        # radius ** 2 enters every value of O, so it must be finite too.
        if not 0.0 < self.radius <= np.sqrt(np.finfo(float).max):
            raise ValidationError("radius", "must be positive, with a finite square")

    def value(self, q):
        """O at q, or at every row of a (..., n) array."""
        return self.value_and_half_grad(q)[0]

    def value_and_half_grad(self, q):
        """O, with |d|^2 from so3.row_dots, and half its gradient, d, at q,
        or at every row of a (..., n) array, from one d = q - center. Half,
        because the gradient 2 d overflows where d is finite."""
        d = np.asarray(q, dtype=float) - self.center
        o = row_dots(d, d)
        o -= self.radius ** 2  # in place: no third array the size of q's rows
        return o, d


@dataclass
class AvoidanceScenario:
    """Problem data for the boundary-value solvers.

    dimension is the tangent dimension, an integer of at least 1, and space
    the object of MANIFOLDS named by manifold. For the flat manifold q0,
    target and v0 are finite (dimension,) vectors; "so3-biinvariant" needs
    dimension 3, with q0 and target (3, 3) rotations within
    so3.ROTATION_TOL and v0 a finite (3,) body velocity. Obstacles are
    SphereObstacles, only allowed on flat space, each with a (dimension,)
    center, and q0 must lie outside each. A bad value raises a
    ValidationError naming the argument: "alpha", "horizon", "dimension", "q0", "target", "v0",
    "manifold", "mode", or "obstacles[i]" for the first bad obstacle or one
    containing q0.
    """

    dimension: int
    alpha: float
    target: np.ndarray
    horizon: float
    q0: np.ndarray
    v0: np.ndarray
    obstacles: tuple = ()
    manifold: str = "flat"
    mode: str = "avoidance"

    def __post_init__(self):
        # The control weight's range is CostParams' rule.
        CostParams(self.alpha)
        self.space = _space(self.manifold)
        if self.mode not in MODES:
            raise ValidationError("mode", f"expected one of {MODES}")
        if not 0.0 < self.horizon < np.inf:
            raise ValidationError("horizon", "must be positive and finite")
        if not _is_int(self.dimension) or self.dimension < 1:
            raise ValidationError("dimension", "must be an integer of at least 1")
        if self.manifold != "flat" and self.dimension != 3:
            raise ValidationError("dimension", "must be 3 on the rotation group")
        point = (self.dimension,) if self.manifold == "flat" else (3, 3)
        for name, shape in (("q0", point), ("target", point), ("v0", (self.dimension,))):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValidationError(name, f"expected shape {shape}")
            if shape == (3, 3):
                value = as_rotation(value, name)
            if not np.isfinite(value).all():
                raise ValidationError(name, "must be finite")
            setattr(self, name, value)
        for i, obs in enumerate(self.obstacles):
            if (not isinstance(obs, SphereObstacle) or self.manifold != "flat"
                    or np.shape(obs.center) != (self.dimension,)):
                raise ValidationError(f"obstacles[{i}]", "expected a SphereObstacle on flat "
                                      f"space with a center of shape ({self.dimension},)")
            with np.errstate(over="ignore"):  # a far obstacle's O is inf: outside
                if obs.value(self.q0) <= 0.0:
                    raise ValidationError(f"obstacles[{i}]",
                                          "initial configuration inside obstacle")


def goal_errors(scenario: AvoidanceScenario, q) -> np.ndarray:
    """Error log(q*, q) of every point of q from the goal q*, which is the
    gradient of U(q*, .) and whose norm is the distance to q*."""
    return scenario.space.log(scenario.target, np.asarray(q, dtype=float))


def running_cost(scenario: AvoidanceScenario, q, v, u) -> np.ndarray:
    """Running cost L(q, v, u) at every point of (..., N, n) arrays.

    Avoidance mode: U(q*, q) + |v|^2/2 + (alpha/2)|u|^2 + sum_i 1/O_i(q),
    and +inf where the path touches an obstacle (O_i <= 0). Terminal mode:
    (alpha/2)|u|^2.
    """
    # A far obstacle's O or O^2 overflows to inf: no barrier and no pull.
    with np.errstate(over="ignore", divide="ignore"):
        return _lagrangian(scenario, q, v, u)[0]


def _lagrangian(scenario: AvoidanceScenario, q, v, u):
    """running_cost's L under the caller's np.errstate and grad(U + V) at q
    in avoidance mode (else None). The cost is formed from the goal error g
    before _grad_potential's one pass over the obstacles, started from g,
    turns g into grad(U + V) and gives each O_i; their barriers 1/O_i are
    summed before they join the cost, and a NaN point stays NaN."""
    u2 = row_dots(u, u)
    if scenario.mode == "terminal":
        return 0.5 * scenario.alpha * u2, None
    g = goal_errors(scenario, q)
    cost = 0.5 * (row_dots(g, g) + row_dots(v, v) + scenario.alpha * u2)
    g, _, o = _grad_potential(scenario, q, g)
    o = np.array(o)
    return cost + np.where(o <= 0.0, np.inf, 1.0 / o).sum(axis=0), g


def _trapezoid_weights(times) -> np.ndarray:
    """Weights w such that w @ f is the trapezoid rule for samples f."""
    half = 0.5 * np.diff(np.asarray(times, dtype=float))
    w = np.zeros(half.size + 1)
    w[:-1] += half
    w[1:] += half
    return w


def _grad_potential(scenario: AvoidanceScenario, q, grad=None):
    """Gradient of U + V at every point of q: the goal error grad (formed
    here if None, else updated in place), less each obstacle's
    grad O_i / O_i^2 in turn, as (grad O_i / 2) / (O_i^2 / 2): the same
    bits, and 0 rather than NaN where grad O_i overflows. Also the points
    that touch an obstacle (some O_i <= 0), where costate_integrate raises
    and a batched rollout flags the row, and the list of each O_i at q."""
    if grad is None:
        grad = goal_errors(scenario, q)
    contact, values = False, []
    for obs in scenario.obstacles:
        o, g = obs.value_and_half_grad(q)
        values.append(o)
        g /= (0.5 * (o * o))[..., None]
        grad -= g
        # An array's | with the scalar False costs more than the comparison.
        touched = o <= 0.0
        contact = touched if contact is False else contact | touched
    return grad, contact, values


def _unpack(scenario: AvoidanceScenario, z):
    """Views (q, v, u, w) of packed states along the last axis of z; q takes
    the shape of q0, so it holds rotation matrices on the group."""
    d, n = scenario.q0.size, scenario.dimension
    q = z[..., :d].reshape(z.shape[:-1] + scenario.q0.shape)
    return q, z[..., d:d + n], z[..., d + n:d + 2 * n], z[..., d + 2 * n:]


def _control_accel(scenario: AvoidanceScenario, q, u, out):
    """Write the potential's part of Du/Dt's rate, (u - grad(U + V)(q))/alpha
    in avoidance mode and zero in terminal mode, into out, and return the
    rows whose q touches an obstacle. The gradient's sign follows from
    differentiating the costate relation u = -p2/alpha twice; the
    transcription oracle confirms it numerically."""
    if scenario.mode == "terminal":
        out[...] = 0.0
        return False
    grad, contact, _ = _grad_potential(scenario, q)
    np.subtract(u, grad, out=out)
    out /= scenario.alpha
    return contact


@dataclass
class BVPSolution:
    """Uniform-grid trajectory returned by the boundary-value solvers.

    udot holds the covariant control rate for shooting solutions and None
    for the transcription oracle, whose residual_norm is its final gradient
    infinity norm rather than a terminal residual. trace records how the
    solver converged; see shooting_solve and transcription_oracle.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    u: np.ndarray
    udot: np.ndarray | None
    residual_norm: float
    iterations: int
    cost: float
    trace: dict = field(default_factory=dict)


def control_cost(scenario: AvoidanceScenario, times_u, u, h_eval: float) -> float:
    """Cost of a control signal under one common discretization.

    Interpolates the control onto a uniform grid of step h_eval, rolls the
    flat dynamics with the symplectic-Euler stepper, and applies the
    trapezoid rule. Lets controls from solvers with different grids be
    ranked fairly; the cost is _evaluate's, the oracle's. A scenario that is
    not flat avoidance raises ValidationError("scenario"), a u that is not
    one row of the scenario's dimension per time ValidationError("u"), and
    a bad h_eval uniform_grid's ValidationError("h").
    """
    if scenario.manifold != "flat" or scenario.mode != "avoidance":
        raise ValidationError("scenario", "control_cost covers flat avoidance scenarios")
    shape = (len(times_u), scenario.dimension)
    if np.shape(u) != shape:
        raise ValidationError("u", f"expected shape {shape}")
    tt = uniform_grid(scenario.horizon, h_eval)
    uu = np.stack([np.interp(tt, times_u, u[:, a])
                   for a in range(scenario.dimension)], axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _evaluate(scenario, uu, tt[1] - tt[0], _trapezoid_weights(tt))[0]


def trajectory_cost(scenario: AvoidanceScenario, times, q, v, u) -> float:
    """Cost functional evaluated on a stored grid by the trapezoid rule.

    Raises:
        ObstacleContact: the running cost is infinite because the path
            touches an obstacle.
    """
    lvals = running_cost(scenario, q, v, u)
    if np.isposinf(lvals).any():
        raise ObstacleContact("the path touches an obstacle")
    cost = float(lvals @ _trapezoid_weights(times))
    if scenario.mode == "terminal":
        gT, vT = goal_errors(scenario, q[-1]), v[-1]
        cost += 0.5 * float(row_dots(gT, gT)) + 0.5 * float(row_dots(vT, vT))
    return cost


def _integrate_extremal(scenario: AvoidanceScenario, z0, times):
    """One RK4 sweep of the coupled (q, v, u, w) system along the grid times
    for a (B, .) batch of packed start states. The sweep holds the batch
    component-major (Fortran order), so each state component is contiguous
    over the rows; each row's arithmetic is that of its own sweep.

    Returns the packed states, (B, len(times), .), and the rows whose path
    touched an obstacle at an RK4 stage or a grid point. A row that
    overflows turns non-finite, silently. Every stage's rate is written
    into one component-major buffer, which rk4 reads before the next stage.
    """
    z0 = np.asfortranarray(z0)
    contact = np.zeros(len(z0), dtype=bool)
    dz = np.empty_like(z0)

    def rate(k, theta, z):
        np.logical_or(contact, scenario.space.rates(scenario, z, dz), out=contact)
        return dz

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zs = rk4(rate, z0, times).swapaxes(0, 1)
        # In avoidance mode each step's first stage has flagged its grid
        # sample, so only the final one is left; terminal mode's rhs has no
        # barrier. Obstacles exist on flat space only.
        unflagged = zs[:, -1:] if scenario.mode == "avoidance" else zs
        for obs in scenario.obstacles:
            contact |= (obs.value(_unpack(scenario, unflagged)[0]) <= 0.0).any(axis=1)
    return zs, contact


def _terminal_residual(scenario: AvoidanceScenario, z) -> np.ndarray:
    """Terminal conditions at a (B, .) batch of packed end states, (B, 2n)."""
    q, v, u, w = _unpack(scenario, z)
    a = scenario.alpha
    if scenario.mode == "avoidance":
        return np.hstack([u, w - v / a])
    gT = goal_errors(scenario, q)
    return np.hstack([u + v / a, w - gT / a])


def _continuity(scenario: AvoidanceScenario, start, end) -> np.ndarray:
    """Mismatch between (B, .) batches of packed segment starts and the ends
    they continue, (B, 4n): log(end, start) in q, start - end in v, u and w."""
    d = scenario.q0.size
    dq = scenario.space.log(_unpack(scenario, end)[0], _unpack(scenario, start)[0])
    return np.hstack([dq, start[:, d:] - end[:, d:]])


def _segment_starts(scenario: AvoidanceScenario, y) -> np.ndarray:
    """Packed start states of rows y = (xi, v, u, w), with q retracted from
    q0 along xi. Segment 0's xi is zero, and the retraction of q0 along zero
    is q0 exactly."""
    n = scenario.dimension
    q = scenario.space.retract(scenario.q0, y[:, :n])
    return np.hstack([q.reshape(len(y), -1), y[:, n:]])


def _start_rows(scenario: AvoidanceScenario, start: BVPSolution, times) -> np.ndarray:
    """Segment start rows (xi, v, u, w) read off a flat path at the given
    times: xi = log(q0, q), v and u interpolated linearly, and w from
    np.gradient of u on the path's grid."""
    if scenario.manifold != "flat":
        raise ValidationError("start", "a start path covers flat scenarios")
    shape = (len(start.times), scenario.dimension)
    if any(np.shape(a) != shape for a in (start.q, start.v, start.u)):
        raise ValidationError("start", f"expected q, v and u of shape {shape}")
    w = np.gradient(start.u, start.times, axis=0)
    cols = np.hstack([scenario.space.log(scenario.q0, start.q), start.v, start.u, w])
    return np.stack([np.interp(times, start.times, c) for c in cols.T], axis=1)


def shooting_solve(scenario: AvoidanceScenario, h: float = 1e-3,
                   start: BVPSolution | None = None) -> BVPSolution:
    """Damped-Newton multiple shooting.

    The grid splits into M = steps // SEGMENT_STEPS segments (M = 1 on
    short grids is single shooting) whose lengths differ by at most one
    step, the longer ones last. The unknowns are (u(0), Du/Dt(0)) and each
    later segment's start (xi, v, u, w), where q is retracted from q0 along
    xi. By default segment starts begin at the zero guess (q0, v0, 0, 0);
    given a start path on flat space, such as transcription_oracle's, they
    begin at that path's values at each segment's start time (_start_rows).
    Either way segment 0 starts at (q0, v0). The residual joins each base
    row's closing block: the continuity of q (by the space's log), v, u and
    w at the next segment's start, or the last one's terminal condition.
    The rhs is autonomous, so every segment sweeps the grid of the longest
    one and reads its end at its own length. Each trial point goes through
    one sweep with one forward-difference perturbation per unknown, whose
    closing blocks give the Jacobian that an accepted trial brings along.
    A trial whose base rows touch an obstacle or overflow halves the step.
    The path joins the segments' base rows on the global grid. trace holds
    "residuals" (sup norm, the start's first), "steps" (the accepted step
    lengths), "sweeps" and "segments" (M).

    Raises:
        NoConvergence: residual above SHOOTING_TOL after SHOOTING_MAX_ITER
            iterations, a sup-norm residual above SHOOTING_PROGRESS_RATIO
            times its value SHOOTING_PROGRESS_WINDOW iterations earlier, a
            non-finite path from the start, a non-finite Jacobian, or a
            stalled step.
        ObstacleContact: the start's trajectory, or a perturbed one whose
            Jacobian column is needed, touched an obstacle.
        ValidationError: h not positive and finite, or more than MAX_STEPS
            steps ("h", uniform_grid), or a start on a space other than
            flat or whose q, v and u are not one row of the scenario's
            dimension per time ("start").
    """
    n = scenario.dimension
    times = uniform_grid(scenario.horizon, h)
    steps = len(times) - 1
    m = max(1, steps // SEGMENT_STEPS)
    lengths = np.full(m, steps // m)
    lengths[m - steps % m:] += 1
    # Unknown i sits at entry 2n + i of the segments' (xi, v, u, w) rows,
    # whose first 2n entries, (0, v0) in segment 0, are fixed.
    place = 2 * n + np.arange((4 * m - 2) * n)
    seg, comp = place // (4 * n), place % (4 * n)
    row_seg = np.concatenate([np.arange(m), seg])
    row_end = (np.arange(row_seg.size), lengths[row_seg])

    def closing(starts, ends, rows):
        # The (rows, 4n) closing blocks of sweep rows: the continuity against
        # the next segment's base start, or the terminal condition and 2n zeros.
        last = row_seg[rows] == m - 1
        blocks = np.zeros((rows.size, 4 * n))
        blocks[~last] = _continuity(scenario, starts[row_seg[rows[~last]] + 1], ends[rows[~last]])
        blocks[last, :2 * n] = _terminal_residual(scenario, ends[rows[last]])
        return blocks

    def jacobian(starts, ends, deltas, blocks):
        # Column i: row m + i's closing block less its segment's base block,
        # and past segment 0 the continuity at its start less the block before.
        i, j = np.arange(seg.size), np.flatnonzero(seg)
        jac = np.zeros((m, 4 * n, seg.size))
        jac[seg, :, i] = closing(starts, ends, m + i) - blocks[seg]
        jac[seg[j] - 1, :, j] = (_continuity(scenario, starts[m + j], ends[seg[j] - 1])
                                 - blocks[seg[j] - 1])
        jac /= deltas
        return jac.reshape(-1, seg.size)[:seg.size]

    def sweep(x):
        deltas = 1e-6 * np.maximum(1.0, np.abs(x))
        y = np.concatenate([np.zeros(n), scenario.v0, x]).reshape(m, 4 * n)
        ys = np.vstack([y, y[seg]])
        ys[m + np.arange(x.size), comp] += deltas
        starts = _segment_starts(scenario, ys)
        # A shorter segment's row runs one step past its end, into the next
        # segment's span, and its contact flag covers that step too.
        zs, contact = _integrate_extremal(scenario, starts, times[:lengths[-1] + 1])
        ends = zs[row_end]
        blocks = closing(starts, ends, np.arange(m))
        return blocks.ravel()[:-2 * n], (starts, ends, deltas, blocks), contact, zs[:m].copy()

    if start is None:
        x = np.tile(np.concatenate([np.zeros(n), scenario.v0, np.zeros(2 * n)]), m)[2 * n:]
    else:
        seg_times = times[np.concatenate([[0], np.cumsum(lengths[:-1])])]
        x = _start_rows(scenario, start, seg_times).ravel()[2 * n:]
    # Overflow is expected on stiff problems: it shows as a non-finite
    # residual, Jacobian or norm, which the checks below act on.
    with np.errstate(over="ignore", invalid="ignore"):
        res, swept, contact, base = sweep(x)
        sweeps = 1
        if contact[:m].any():
            raise ObstacleContact("the path from the start touches an obstacle")
        if not np.isfinite(res).all():
            raise NoConvergence("trajectory from the start is not finite")
        residuals = [float(np.abs(res).max())]
        steps = []
        while residuals[-1] > SHOOTING_TOL:
            iterations = len(steps)
            if iterations >= SHOOTING_MAX_ITER:
                raise NoConvergence(f"residual {residuals[-1]:.3e} > {SHOOTING_TOL:g} "
                                    f"after {SHOOTING_MAX_ITER} iterations")
            if (iterations >= SHOOTING_PROGRESS_WINDOW and residuals[-1]
                    > SHOOTING_PROGRESS_RATIO * residuals[-1 - SHOOTING_PROGRESS_WINDOW]):
                raise NoConvergence(
                    f"no progress: residual {residuals[-1]:.3e} at iteration {iterations} "
                    f"> {SHOOTING_PROGRESS_RATIO:g} x "
                    f"{residuals[-1 - SHOOTING_PROGRESS_WINDOW]:.3e} at iteration "
                    f"{iterations - SHOOTING_PROGRESS_WINDOW}")
            if contact[m:].any():
                raise ObstacleContact(
                    f"a perturbed path at iterate {iterations} touches an obstacle")
            jac = jacobian(*swept)
            if not np.isfinite(jac).all():
                raise NoConvergence(
                    f"residual map not differentiable at iterate {iterations + 1} "
                    "(perturbed trajectory diverged)")
            try:
                direction = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                direction = np.linalg.lstsq(jac, -res, rcond=None)[0]
            del jac
            norm0 = np.linalg.norm(res)
            lam = 1.0
            while True:
                if lam < 2.0 ** -24:
                    raise NoConvergence(f"damped step stalled at residual {norm0:.3e} "
                                        f"(iteration {iterations + 1})")
                trial = sweep(x + lam * direction)
                sweeps += 1
                res_trial, _, contact_trial, _ = trial
                if (not contact_trial[:m].any() and np.isfinite(res_trial).all()
                        and np.linalg.norm(res_trial) < (1.0 - 1e-4 * lam) * norm0):
                    break
                lam *= 0.5
            x = x + lam * direction
            res, swept, contact, base = trial
            residuals.append(float(np.abs(res).max()))
            steps.append(lam)
    path = np.concatenate([*(b[:k] for b, k in zip(base, lengths)),
                           base[-1, lengths[-1]:]])
    q, v, u, w = _unpack(scenario, path)
    return BVPSolution(times=times, q=q, v=v, u=u, udot=w, residual_norm=residuals[-1],
                       iterations=len(steps), cost=trajectory_cost(scenario, times, q, v, u),
                       trace={"residuals": residuals, "steps": steps, "sweeps": sweeps,
                              "segments": m})


def _batched_rollout(scenario: AvoidanceScenario, controls: np.ndarray,
                     ht: float):
    """Symplectic-Euler states for a (B, N, n) batch of control grids.

    v' = v + ht u then q' = q + ht v' is affine in the controls, so the
    whole batch collapses to two cumulative sums.
    """
    batch, n_pts, n = controls.shape
    v = np.empty((batch, n_pts, n))
    v[:, 0] = scenario.v0
    v[:, 1:] = scenario.v0 + ht * controls[:, :-1].cumsum(axis=1)
    q = np.empty((batch, n_pts, n))
    q[:, 0] = scenario.q0
    q[:, 1:] = scenario.q0 + ht * v[:, 1:].cumsum(axis=1)
    return q, v


def _evaluate(scenario: AvoidanceScenario, u: np.ndarray, ht: float,
              weights: np.ndarray):
    """One oracle trial: the cost of one (N, n) control grid u under the
    quadrature weights, +inf where its path touches an obstacle or
    overflows, its symplectic-Euler states q and v, and grad(U + V) at q,
    from one rollout and one _lagrangian pass: the one evaluator of that
    discrete cost, for the oracle and control_cost. The caller holds the
    np.errstate."""
    q, v = _batched_rollout(scenario, u[None], ht)
    lvals, pull = _lagrangian(scenario, q[0], v[0], u)
    cost = float(lvals @ weights)
    return cost if math.isfinite(cost) else math.inf, q[0], v[0], pull


def _cost_gradient(u: np.ndarray, pull: np.ndarray, v: np.ndarray, ht: float,
                   w: np.ndarray, alpha_w: np.ndarray) -> np.ndarray:
    """Exact gradient of _evaluate's discrete cost at one (N, n) control
    grid u, from its velocities v and the potential gradient pull =
    grad(U + V) at its positions, both as _evaluate returns them, with w
    the quadrature weights as a column and alpha_w = alpha w.

    The states are affine in the controls: q_k sums ht v_j over 1 <= j <= k
    and v_j sums ht u_i over i < j. So the running cost's partials
    w_k grad(U + V)(q_k), w_k v_k and alpha w_k u_k pull back to the
    controls through two reverse cumulative sums.
    """
    dq = w * pull
    dv = w * v + ht * dq[::-1].cumsum(axis=0)[::-1]
    grad = alpha_w * u
    grad[:-1] += ht * dv[:0:-1].cumsum(axis=0)[::-1]
    return grad


def transcription_oracle(scenario: AvoidanceScenario, n_grid: int,
                         max_iter: int = 5000) -> BVPSolution:
    """Independent direct minimization of the avoidance cost on flat space.

    The control is discretized on n_grid uniform points, the cost evaluated
    by the trapezoid rule on symplectic-Euler states, and minimized by
    gradient descent along that discrete cost's exact gradient (the
    oracle differentiates its own discretization, never the PMP equations)
    with a backtracking line search seeded with a Barzilai-Borwein step
    guess. Each trial control grid is evaluated once (_evaluate): one
    rollout and one pass over the obstacles give its cost, its states and
    grad(U + V), and the start's or the accepted trial's serve the next
    gradient and the returned path. The whole descent runs under one
    np.errstate. Descent stops at ORACLE_GRAD_TOL, at max_iter, or once
    ORACLE_PLATEAU_WINDOW iterations improve the cost by less than
    ORACLE_PLATEAU_RTOL relatively; trace names the "stop_reason"
    ("grad_tol", "max_iter" or "plateau") and the final "grad_norm". The
    cost sequence is non-increasing by construction.

    Raises:
        ValidationError: the scenario is not flat avoidance ("scenario"),
            or n_grid is not an integer of at least ORACLE_MIN_GRID
            ("n_grid").
        NoDescent: the gradient is not finite, or the line search failed
            ORACLE_MAX_STALLS consecutive iterations.
    """
    if scenario.manifold != "flat" or scenario.mode != "avoidance":
        raise ValidationError("scenario", "transcription oracle covers flat avoidance scenarios")
    if not _is_int(n_grid) or n_grid < ORACLE_MIN_GRID:
        raise ValidationError("n_grid", f"need an integer of at least {ORACLE_MIN_GRID} "
                              f"grid points, got {n_grid!r}")
    n = scenario.dimension
    ht = scenario.horizon / (n_grid - 1)
    times = np.linspace(0.0, scenario.horizon, n_grid)
    weights = _trapezoid_weights(times)
    w = weights[:, None]
    alpha_w = scenario.alpha * w

    u = np.zeros((n_grid, n))
    step_size = 1.0
    stalls = iterations = 0
    grad_inf = np.inf
    stop_reason = "max_iter"
    prev_grad = prev_u = None
    # A trial that touches an obstacle or overflows costs +inf, silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cost, q, v, pull = _evaluate(scenario, u, ht, weights)
        history = [cost]
        while iterations < max_iter:
            iterations += 1
            grad = _cost_gradient(u, pull, v, ht, w, alpha_w)
            grad_inf = float(np.abs(grad).max())
            if not math.isfinite(grad_inf):
                raise NoDescent(f"gradient not finite at iteration {iterations}")
            if grad_inf <= ORACLE_GRAD_TOL:
                stop_reason = "grad_tol"
                break
            if prev_grad is not None:
                du = (u - prev_u).ravel()
                dg = (grad - prev_grad).ravel()
                dgg = float(dg @ dg)
                if dgg > 0.0:
                    bb = abs(float(du @ dg)) / dgg
                    if np.isfinite(bb) and bb > 0.0:
                        step_size = bb
            prev_grad, prev_u = grad, u
            gnorm2 = float((grad * grad).sum())
            s = step_size * 2.0
            for _ in range(ORACLE_HALVINGS):
                trial = u - s * grad
                evaluated = _evaluate(scenario, trial, ht, weights)
                if evaluated[0] <= cost - ORACLE_ARMIJO * s * gnorm2:
                    (cost, q, v, pull), u, step_size = evaluated, trial, s
                    stalls = 0
                    break
                s *= 0.5
            else:
                stalls += 1
                if stalls >= ORACLE_MAX_STALLS:
                    raise NoDescent(f"line search stalled {stalls} times at cost {cost:.6g}")
            history.append(cost)
            if (len(history) > ORACLE_PLATEAU_WINDOW
                    and history[-ORACLE_PLATEAU_WINDOW] - cost
                    <= ORACLE_PLATEAU_RTOL * abs(cost)):
                stop_reason = "plateau"
                break

    return BVPSolution(times=times, q=q, v=v, u=u, udot=None,
                       residual_norm=grad_inf, iterations=iterations,
                       cost=cost,
                       trace={"stop_reason": stop_reason, "grad_norm": grad_inf})


@dataclass
class CostateTrajectory:
    """Backward-integrated adjoints with the Hamiltonian diagnostic channel."""

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    hamiltonian: np.ndarray


def _midpoints(space, q) -> np.ndarray:
    """Interval midpoints retract(q_k, log(q_k, q_k+1) / 2) of grid samples q."""
    return space.retract(q[:-1], 0.5 * space.log(q[:-1], q[1:]))


def _variational_matrices(space, v, hess=0.0) -> np.ndarray:
    """System matrices [[-C, I], [J - hess, -C]] of the variational equation
    in (Y, DY/Dt), one per row of the broadcast of v's and hess's rows:
    space.connect adds J, the matrix of Y -> R(v, Y) v, and -C, the
    connection term Y -> -(v x Y)/2. The costate system is the adjoint, -A.T."""
    n = v.shape[-1]
    a = np.zeros(np.broadcast_shapes(v.shape[:-1], np.shape(hess)[:-2]) + (2 * n, 2 * n))
    a[..., :n, n:] = np.eye(n)
    a[..., n:, :n] = -hess
    return space.connect(a, v)


def costate_integrate(scenario: AvoidanceScenario, solution: BVPSolution) -> CostateTrajectory:
    """Integrate the adjoint equations backward along a solution's grid.

        Dp1/Dt = -R(v, p2) v - grad_q L
        Dp2/Dt = -p1 - grad_v L

    and record H = <p1, v> + <p2, u> + L at each grid point, with L the
    scenario's running_cost. The avoidance mode's L has grad_q = grad(U + V)
    and grad_v = v, and p(T) = 0; the terminal mode's L = (alpha/2)|u|^2 has
    neither, and p(T) = (grad U(q(T)), v(T)) from the terminal cost.

    The system is linear, p' = A p + f with f = -(grad_q L, grad_v L) and A
    the adjoint -A.T of _variational_matrices' A. One dynamics.affine_rk4
    sweeps it from the grid samples and interval midpoints (_midpoints),
    second order overall.

    Raises:
        ObstacleContact: a grid sample or midpoint touches an obstacle.
    """
    times, q, v, u = solution.times, solution.q, solution.v, solution.u
    # The sweep runs over the reversed grid, so interval k joins samples k
    # and k + 1 of the reversed arrays.
    qr, vr = q[::-1], v[::-1]
    vm = 0.5 * (vr[:-1] + vr[1:])
    a = tuple(-_variational_matrices(scenario.space, vs).swapaxes(-1, -2) for vs in (vr, vm))
    if scenario.mode == "terminal":
        terminal, f = np.concatenate([goal_errors(scenario, q[-1]), v[-1]]), (0.0, 0.0)
    else:
        terminal, f = np.zeros(2 * v.shape[1]), []
        for qs, vs in ((qr, vr), (_midpoints(scenario.space, qr), vm)):
            with np.errstate(over="ignore"):  # a far obstacle's O^2 is inf: no pull
                grad, contact, _ = _grad_potential(scenario, qs)
            if np.any(contact):
                raise ObstacleContact("obstacle contacted")
            f.append(-np.concatenate([grad, vs], axis=-1))
    ps = affine_rk4(a, f, terminal, times[::-1])[::-1]
    p1, p2 = np.split(ps, 2, axis=1)
    ham = row_dots(p1, v) + row_dots(p2, u) + running_cost(scenario, q, v, u)
    return CostateTrajectory(times, p1, p2, ham)


@dataclass
class VariationTrajectory:
    """Linearized perturbation field and its covariant rate along a base
    trajectory."""

    times: np.ndarray
    y: np.ndarray
    ydot: np.ndarray


def variational_propagate(times, q, v, y0, ydot0, manifold: str = "flat",
                          hess_w=None) -> VariationTrajectory:
    """Propagate the linearized perturbation equation along a base trajectory.

        D^2 Y / Dt^2 = -Hess W(q) Y + R(v, Y) v

    with identity actuation, so the control term contributes nothing, from
    the field y0 and covariant rate ydot0 along base configurations q and
    velocities v on the uniform grid times, by one dynamics.affine_rk4. ydot
    is covariant. On flat space hess_w, an optional callable(q) -> (n, n),
    is Hess W and the only reader of q. manifold names a MANIFOLDS entry;
    any other raises ValidationError("manifold").
    """
    space = _space(manifold)
    times = np.asarray(times, dtype=float)
    hess = (0.0, 0.0)
    if manifold == "flat" and hess_w is not None:
        hess = tuple(np.array([hess_w(x) for x in qs]) for qs in (q, 0.5 * (q[:-1] + q[1:])))
    a = tuple(_variational_matrices(space, vs, hs)
              for vs, hs in zip((v, 0.5 * (v[:-1] + v[1:])), hess))
    y, ydot = np.split(affine_rk4(a, (0.0, 0.0), np.concatenate([y0, ydot0]), times), 2, axis=1)
    return VariationTrajectory(times, y, ydot)
