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
relation and the constancy of H on converged solutions.

The extremal, costate and variational sweeps are all dynamics.rk4 (the
extremal one over a batch of initial unknowns), and every cost evaluator
(trajectory_cost, the oracle's batched costs, control_cost,
AvoidanceLagrangian.value) reads the one array running cost running_cost
under one trapezoid rule.

On the rotation group all tangent quantities live in body coordinates and
rates written with a dot are covariant: for a field xi along the trajectory,
D xi / Dt = xi' + (w x xi) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import rk4
from .errors import NoConvergence, NoDescent, ObstacleContact
from .so3 import log_so3

MANIFOLDS = ("flat", "so3-biinvariant")

# Stopping rule of transcription_oracle: the sup-norm gradient reaches
# ORACLE_GRAD_TOL, or the last ORACLE_PLATEAU_WINDOW iterations improved the
# cost by less than ORACLE_PLATEAU_RTOL relatively.
ORACLE_GRAD_TOL = 1e-8
ORACLE_PLATEAU_WINDOW = 60
ORACLE_PLATEAU_RTOL = 1e-8


def curvature(manifold: str, x, y, z) -> np.ndarray:
    """Curvature tensor R(X, Y)Z evaluated in closed form.

    Flat space is zero; the bi-invariant rotation group gives
    -[[X, Y], Z]/4, i.e. -(x cross y) cross z / 4 in vector coordinates
    (sectional curvature +1/4 for orthonormal pairs).
    """
    x = np.asarray(x, dtype=float)
    if manifold == "flat":
        return np.zeros_like(x)
    if manifold == "so3-biinvariant":
        return -0.25 * np.cross(np.cross(x, y), z)
    raise ValueError(f"unknown manifold {manifold!r}; expected one of {MANIFOLDS}")


class StartInsideObstacle(ValueError):
    """The initial configuration lies inside obstacle `index`."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"initial configuration inside obstacle {index}")


@dataclass(frozen=True)
class SphereObstacle:
    """Smooth obstacle indicator O(q) = |q - center|^2 - radius^2."""

    center: np.ndarray
    radius: float

    def value(self, q) -> float:
        d = np.asarray(q, dtype=float) - self.center
        return float(d @ d) - self.radius ** 2


@dataclass
class AvoidanceScenario:
    """Problem data for the boundary-value solvers.

    For the flat manifold q0 and target are n-vectors; for
    "so3-biinvariant" they are rotation matrices and v0 is a body velocity.
    Obstacles are only meaningful on flat space.
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
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.manifold not in MANIFOLDS:
            raise ValueError(f"unknown manifold {self.manifold!r}")
        if self.mode not in ("avoidance", "terminal"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        self.target = np.asarray(self.target, dtype=float)
        self.q0 = np.asarray(self.q0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        for i, obs in enumerate(self.obstacles):
            if obs.value(self.q0) <= 0.0:
                raise StartInsideObstacle(i)
        # (center, radius^2) of each obstacle, prepared once for the array
        # clearances and the barrier gradient that every RK4 stage calls.
        self._spheres = tuple((np.asarray(o.center, dtype=float), o.radius ** 2)
                              for o in self.obstacles)

    @property
    def tangent_dim(self) -> int:
        return 3 if self.manifold == "so3-biinvariant" else self.dimension


def _grad_goal_potential(scenario: AvoidanceScenario, q) -> np.ndarray:
    """Gradient of U(q*, .) at every point of q: q - q* on flat space, and
    log(q*.T q) on the group, where q holds (..., 3, 3) rotations."""
    q = np.asarray(q, dtype=float)
    if scenario.manifold == "flat":
        return q - scenario.target
    g = np.array([log_so3(scenario.target.T @ r) for r in q.reshape(-1, 3, 3)])
    return g.reshape(q.shape[:-2] + (3,))


def _dots(a, b) -> np.ndarray:
    """Row-wise dot products along the last axis, rounded as the dot product
    a @ b of one row: a batched matmul gives the per-row bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sqnorm(x) -> np.ndarray:
    """Squared Euclidean norm along the last axis, rounded as the dot
    product x @ x of one row (as in SphereObstacle.value)."""
    x = np.asarray(x, dtype=float)
    return _dots(x, x)


def _clearances(scenario: AvoidanceScenario, q) -> np.ndarray:
    """O_i at every row of a (..., n) array, one obstacle per leading index."""
    return np.array([_sqnorm(q - c) - r2 for c, r2 in scenario._spheres])


def running_cost(scenario: AvoidanceScenario, q, v, u) -> np.ndarray:
    """Running cost L(q, v, u) at every point of (..., N, n) arrays.

    Avoidance mode: U(q*, q) + |v|^2/2 + (alpha/2)|u|^2 + sum_i 1/O_i(q),
    and +inf where the path touches an obstacle (O_i <= 0). Terminal mode:
    (alpha/2)|u|^2. On the rotation group q holds rotation matrices,
    (..., N, 3, 3), and U takes log_so3 point by point.
    """
    u2 = _sqnorm(u)
    if scenario.mode == "terminal":
        return 0.5 * scenario.alpha * u2
    g2 = _sqnorm(_grad_goal_potential(scenario, q))
    cost = 0.5 * (g2 + _sqnorm(v) + scenario.alpha * u2)
    if scenario.obstacles:
        o = _clearances(scenario, q)
        with np.errstate(divide="ignore"):
            cost = cost + np.where(o <= 0.0, np.inf, 1.0 / o).sum(axis=0)
    return cost


def _trapezoid_weights(times) -> np.ndarray:
    """Weights w such that w @ f is the trapezoid rule for samples f."""
    half = 0.5 * np.diff(np.asarray(times, dtype=float))
    w = np.zeros(half.size + 1)
    w[:-1] += half
    w[1:] += half
    return w


def _barrier_grad(scenario: AvoidanceScenario, q):
    """Gradient -sum_i grad O_i / O_i^2 of the barrier V at every point of a
    (..., n) array (0.0 without obstacles), and the points that touch an
    obstacle (some O_i <= 0): avoidance_rhs and AvoidanceLagrangian.grad_q
    raise there, a batched rollout flags the row."""
    grad, contact = 0.0, False
    for c, r2 in scenario._spheres:
        d = q - c
        o = _sqnorm(d) - r2
        grad = grad - 2.0 * d / (o * o)[..., None]
        contact = contact | (o <= 0.0)
    return grad, contact


def _avoidance_accel(scenario: AvoidanceScenario, q, v, u):
    """R(v, u) v + u/alpha - grad(U + V)(q)/alpha at every point, and the
    points that touch an obstacle."""
    barrier, contact = _barrier_grad(scenario, q)
    accel = (u - (_grad_goal_potential(scenario, q) + barrier)) / scenario.alpha
    if scenario.manifold == "flat":
        return accel, contact
    return curvature(scenario.manifold, v, u, v) + accel, contact


def avoidance_rhs(u, udot, q, v, scenario: AvoidanceScenario) -> np.ndarray:
    """Covariant second derivative of the control along an extremal.

    R(v, u) v + u/alpha - grad(U + V)(q)/alpha. The gradient sign follows
    from differentiating the costate relation u = -p2/alpha twice; the
    transcription oracle confirms it numerically.

    Raises:
        ObstacleContact: q touches an obstacle.
    """
    accel, contact = _avoidance_accel(scenario, q, v, np.asarray(u, dtype=float))
    if np.any(contact):
        raise ObstacleContact("obstacle contacted")
    return accel


def _unpack(scenario: AvoidanceScenario, z):
    """Views (q, v, u, w) of packed states along the last axis of z; q takes
    the shape of q0, so it holds rotation matrices on the group."""
    d, n = scenario.q0.size, scenario.tangent_dim
    q = z[..., :d].reshape(z.shape[:-1] + scenario.q0.shape)
    return q, z[..., d:d + n], z[..., d + n:d + 2 * n], z[..., d + 2 * n:]


def _coupled_rhs(scenario: AvoidanceScenario, z: np.ndarray):
    """Time derivative of a (B, .) batch of packed states (q, v, u, w), and
    the rows whose q touches an obstacle.

    On the group the rows of R hat(w) are the rows of R crossed with w.
    """
    q, v, u, w = _unpack(scenario, z)
    if scenario.mode == "avoidance":
        dw, contact = _avoidance_accel(scenario, q, v, u)
    else:
        dw, contact = curvature(scenario.manifold, v, u, v), False
    if scenario.manifold == "flat":
        return np.concatenate([v, u, w, dw], axis=1), contact
    half_om = 0.5 * v
    return np.concatenate([np.cross(q, v[:, None, :]).reshape(len(z), 9),
                           u,
                           w - np.cross(half_om, u),
                           dw - np.cross(half_om, w)], axis=1), contact


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
    ranked fairly.
    """
    if scenario.manifold != "flat" or scenario.mode != "avoidance":
        raise ValueError("control_cost covers flat avoidance scenarios")
    steps = max(1, int(round(scenario.horizon / h_eval)))
    tt = np.linspace(0.0, scenario.horizon, steps + 1)
    uu = np.stack([np.interp(tt, times_u, u[:, a])
                   for a in range(scenario.dimension)], axis=1)
    return float(_batched_costs(scenario, uu[None], tt[1] - tt[0],
                                _trapezoid_weights(tt))[0])


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
        gT = _grad_goal_potential(scenario, q[-1])
        vT = v[-1]
        cost += 0.5 * float(gT @ gT) + 0.5 * float(vT @ vT)
    return cost


def _integrate_extremal(scenario: AvoidanceScenario, x0, h: float):
    """One RK4 sweep of the coupled (q, v, u, w) system on a uniform grid for
    a (B, 2n) batch of initial unknowns (u(0), Du/Dt(0)).

    Returns the times, q, v, u and w with the batch on the leading axis, and
    the rows whose path touched an obstacle at an RK4 stage or a grid point.
    A row that overflows turns non-finite, silently.
    """
    steps = max(1, int(round(scenario.horizon / h)))
    times = np.linspace(0.0, scenario.horizon, steps + 1)
    z0 = np.hstack([np.tile(np.append(scenario.q0, scenario.v0), (len(x0), 1)), x0])
    contact = np.zeros(len(x0), dtype=bool)

    def rate(k, theta, z):
        dz, touched = _coupled_rhs(scenario, z)
        np.logical_or(contact, touched, out=contact)
        return dz

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zs = rk4(rate, z0, times).swapaxes(0, 1)
        q, v, u, w = _unpack(scenario, zs)
        if scenario.manifold == "flat" and scenario.obstacles:
            # Terminal mode's rhs has no barrier, and no stage evaluates the
            # final sample.
            contact |= (_clearances(scenario, q) <= 0.0).any(axis=(0, 2))
    return times, q, v, u, w, contact


def _terminal_residual(scenario: AvoidanceScenario, q, v, u, w) -> np.ndarray:
    """Terminal conditions of every row of a batched rollout, (B, 2n)."""
    a = scenario.alpha
    if scenario.mode == "avoidance":
        return np.hstack([u[:, -1], w[:, -1] - v[:, -1] / a])
    gT = _grad_goal_potential(scenario, q[:, -1])
    return np.hstack([u[:, -1] + v[:, -1] / a, w[:, -1] - gT / a])


def shooting_solve(scenario: AvoidanceScenario, h: float = 1e-3,
                   tol: float = 1e-6, max_iter: int = 100) -> BVPSolution:
    """Damped-Newton shooting on the unknown initial (u(0), Du/Dt(0)).

    The residual map is the terminal condition of the scenario mode. Each
    trial point is swept together with its 2n forward-difference
    perturbations, so an accepted trial brings the Jacobian at the new
    iterate along. A trial whose own row touches an obstacle or overflows
    halves the step. trace holds "residuals" (sup norm, zero guess first),
    "steps" (the accepted step lengths) and "sweeps".

    Raises:
        NoConvergence: residual above tol after max_iter iterations, a
            non-finite zero-guess trajectory or Jacobian, or a stalled step.
        ObstacleContact: the zero guess's trajectory, or a perturbed one
            whose Jacobian column is needed, touched an obstacle.
    """
    def sweep(x):
        deltas = 1e-6 * np.maximum(1.0, np.abs(x))
        times, q, v, u, w, contact = _integrate_extremal(
            scenario, np.vstack([x, x + np.diag(deltas)]), h)
        res = _terminal_residual(scenario, q, v, u, w)
        return res, deltas, contact, (times, q[0], v[0], u[0], w[0])

    x = np.zeros(2 * scenario.tangent_dim)
    res, deltas, contact, traj = sweep(x)
    sweeps = 1
    if contact[0]:
        raise ObstacleContact("the path from the zero initial guess touches an obstacle")
    if not np.isfinite(res[0]).all():
        raise NoConvergence("trajectory from the zero initial guess is not finite")
    residuals = [float(np.abs(res[0]).max())]
    steps = []
    while residuals[-1] > tol:
        iterations = len(steps)
        if iterations >= max_iter:
            raise NoConvergence(
                f"residual {residuals[-1]:.3e} > {tol:g} after {max_iter} iterations")
        if contact[1:].any():
            raise ObstacleContact(
                f"a perturbed path at iterate {iterations} touches an obstacle")
        jac = (res[1:] - res[0]).T / deltas
        if not np.isfinite(jac).all():
            raise NoConvergence(
                f"residual map not differentiable at iterate {iterations + 1} "
                "(perturbed trajectory diverged)")
        try:
            direction = np.linalg.solve(jac, -res[0])
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(jac, -res[0], rcond=None)[0]
        norm0 = np.linalg.norm(res[0])
        lam = 1.0
        while True:
            if lam < 2.0 ** -24:
                raise NoConvergence(
                    f"damped step stalled at residual {norm0:.3e} (iteration {iterations + 1})")
            trial = sweep(x + lam * direction)
            sweeps += 1
            res_trial, _, contact_trial, _ = trial
            if (not contact_trial[0] and np.isfinite(res_trial[0]).all()
                    and np.linalg.norm(res_trial[0]) < (1.0 - 1e-4 * lam) * norm0):
                break
            lam *= 0.5
        x = x + lam * direction
        res, deltas, contact, traj = trial
        residuals.append(float(np.abs(res[0]).max()))
        steps.append(lam)
    times, q, v, u, w = traj
    return BVPSolution(times=times, q=q, v=v, u=u, udot=w, residual_norm=residuals[-1],
                       iterations=len(steps), cost=trajectory_cost(scenario, times, q, v, u),
                       trace={"residuals": residuals, "steps": steps, "sweeps": sweeps})


def _batched_rollout(scenario: AvoidanceScenario, controls: np.ndarray,
                     ht: float):
    """Symplectic-Euler states for a (B, N, n) batch of control grids.

    v' = v + ht u then q' = q + ht v' is affine in the controls, so the
    whole batch collapses to two cumulative sums.
    """
    batch, n_pts, n = controls.shape
    v = np.empty((batch, n_pts, n))
    v[:, 0] = scenario.v0
    v[:, 1:] = scenario.v0 + ht * np.cumsum(controls[:, :-1], axis=1)
    q = np.empty((batch, n_pts, n))
    q[:, 0] = scenario.q0
    q[:, 1:] = scenario.q0 + ht * np.cumsum(v[:, 1:], axis=1)
    return q, v


def _batched_costs(scenario: AvoidanceScenario, controls: np.ndarray,
                   ht: float, weights: np.ndarray) -> np.ndarray:
    """Costs of a (B, N, n) batch of control grids under the quadrature
    weights of _trapezoid_weights.

    Rows whose trajectory contacts an obstacle or overflows get +inf so the
    line search rejects them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q, v = _batched_rollout(scenario, controls, ht)
        cost = running_cost(scenario, q, v, controls) @ weights
    cost[~np.isfinite(cost)] = np.inf
    return cost


def _cost_gradient(scenario: AvoidanceScenario, u: np.ndarray, ht: float,
                   weights: np.ndarray) -> np.ndarray:
    """Exact gradient of _batched_costs' discrete cost at one (N, n) control
    grid.

    The symplectic-Euler states are affine in the controls: q_k sums ht v_j
    over 1 <= j <= k and v_j sums ht u_i over i < j. So the running cost's
    partials w_k (q_k - q* + grad V(q_k)), w_k v_k and alpha w_k u_k pull
    back to the controls through two reverse cumulative sums.
    """
    q, v = _batched_rollout(scenario, u[None], ht)
    q, v, w = q[0], v[0], weights[:, None]
    dq = w * (_grad_goal_potential(scenario, q) + _barrier_grad(scenario, q)[0])
    dv = w * v + ht * np.cumsum(dq[::-1], axis=0)[::-1]
    grad = scenario.alpha * w * u
    grad[:-1] += ht * np.cumsum(dv[:0:-1], axis=0)[::-1]
    return grad


def transcription_oracle(scenario: AvoidanceScenario, n_grid: int,
                         max_iter: int = 5000) -> BVPSolution:
    """Independent direct minimization of the avoidance cost on flat space.

    The control is discretized on n_grid uniform points, the cost evaluated
    by the trapezoid rule on symplectic-Euler states, and minimized by
    gradient descent along that discrete cost's exact gradient (the
    oracle differentiates its own discretization, never the PMP equations)
    with a backtracking line search seeded with a Barzilai-Borwein step
    guess. Descent stops at ORACLE_GRAD_TOL, at max_iter, or once
    ORACLE_PLATEAU_WINDOW iterations improve the cost by less than
    ORACLE_PLATEAU_RTOL relatively; trace names the "stop_reason"
    ("grad_tol", "max_iter" or "plateau") and the final "grad_norm". The
    cost sequence is non-increasing by construction.

    Raises:
        NoDescent: the line search failed 50 consecutive iterations.
    """
    if scenario.manifold != "flat" or scenario.mode != "avoidance":
        raise ValueError("transcription oracle covers flat avoidance scenarios")
    if n_grid < 50:
        raise ValueError(f"need at least 50 grid points, got {n_grid}")
    n = scenario.dimension
    ht = scenario.horizon / (n_grid - 1)
    times = np.linspace(0.0, scenario.horizon, n_grid)
    weights = _trapezoid_weights(times)

    u = np.zeros((n_grid, n))
    cost = float(_batched_costs(scenario, u[None, :, :], ht, weights)[0])
    step_size = 1.0
    stalls = iterations = 0
    grad_inf = np.inf
    stop_reason = "max_iter"
    prev_grad = prev_u = None
    history = [cost]
    while iterations < max_iter:
        iterations += 1
        grad = _cost_gradient(scenario, u, ht, weights)
        grad_inf = float(np.abs(grad).max())
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
        gnorm2 = float(np.sum(grad * grad))
        s = step_size * 2.0
        for _ in range(60):
            trial = u - s * grad
            trial_cost = float(_batched_costs(scenario, trial[None], ht, weights)[0])
            if trial_cost <= cost - 1e-4 * s * gnorm2:
                u, cost, step_size = trial, trial_cost, s
                stalls = 0
                break
            s *= 0.5
        else:
            stalls += 1
            if stalls >= 50:
                raise NoDescent(f"line search stalled 50 times at cost {cost:.6g}")
        history.append(cost)
        if (len(history) > ORACLE_PLATEAU_WINDOW
                and history[-ORACLE_PLATEAU_WINDOW] - cost
                <= ORACLE_PLATEAU_RTOL * abs(cost)):
            stop_reason = "plateau"
            break

    q, v = _batched_rollout(scenario, u[None], ht)
    return BVPSolution(times=times, q=q[0], v=v[0], u=u, udot=None,
                       residual_norm=grad_inf, iterations=iterations,
                       cost=cost,
                       trace={"stop_reason": stop_reason, "grad_norm": grad_inf})


class AvoidanceLagrangian:
    """Running cost U + |v|^2/2 + (alpha/2)|u|^2 + V and its gradients, at
    one point or at every row of (N, n) arrays (q as rotations on the
    group)."""

    def __init__(self, scenario: AvoidanceScenario):
        self.scenario = scenario

    def value(self, q, v, u) -> np.ndarray:
        return running_cost(self.scenario, q, v, u)

    def grad_q(self, q, v, u) -> np.ndarray:
        barrier, contact = _barrier_grad(self.scenario, q)
        if np.any(contact):
            raise ObstacleContact("obstacle contacted")
        return _grad_goal_potential(self.scenario, q) + barrier

    def grad_v(self, q, v, u) -> np.ndarray:
        return np.asarray(v, dtype=float)


class ControlEffortLagrangian:
    """Running cost (alpha/2)|u|^2 of the terminal-cost regulation mode, at
    one point or at every row of (N, n) arrays."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def value(self, q, v, u) -> np.ndarray:
        return 0.5 * self.alpha * _sqnorm(u)

    def grad_q(self, q, v, u) -> np.ndarray:
        return np.zeros_like(np.asarray(v, dtype=float))

    def grad_v(self, q, v, u) -> np.ndarray:
        return np.zeros_like(np.asarray(v, dtype=float))


def _at(x, k: int, theta: float):
    """Stored grid samples at theta in {0, 1/2, 1} of grid interval k."""
    if theta == 0.0:
        return x[k]
    if theta == 1.0:
        return x[k + 1]
    return 0.5 * (x[k] + x[k + 1])


@dataclass
class CostateTrajectory:
    """Backward-integrated adjoints with the Hamiltonian diagnostic channel."""

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    hamiltonian: np.ndarray


def costate_integrate(times, q, v, u, lagrangian, terminal,
                      manifold: str = "flat") -> CostateTrajectory:
    """Integrate the adjoint equations backward along a stored trajectory.

        Dp1/Dt = -R(v, p2) v - grad_q L
        Dp2/Dt = -p1 - grad_v L

    from p(T) = terminal, recording H = <p1, v> + <p2, u> + L at each grid
    point. Half-step values of (q, v, u) come from linear interpolation, so
    the sweep is globally second order on the stored grid.

    The lagrangian's value, grad_q and grad_v take (N, n) arrays (q as
    (N, 3, 3) rotations on the group); results broadcast against the rows.
    Both gradients are evaluated before the sweep, once at the grid samples
    and once at the interval midpoints, so an RK4 stage reads one row and
    only the curvature terms, which need the stage's costate, stay per
    stage.
    """
    times = np.asarray(times, dtype=float)
    # The sweep runs over the reversed grid, so interval k joins samples k
    # and k + 1 of the reversed arrays.
    qr, vr, ur = q[::-1], v[::-1], u[::-1]

    def forcing(qs, vs, us):
        shape = vs.shape
        return (vs, np.broadcast_to(lagrangian.grad_q(qs, vs, us), shape),
                np.broadcast_to(lagrangian.grad_v(qs, vs, us), shape))

    at_samples = forcing(qr, vr, ur)
    at_mids = forcing(*(0.5 * (x[:-1] + x[1:]) for x in (qr, vr, ur)))

    def rate(k, theta, p):
        if theta == 0.5:
            vk, gq, gv = (x[k] for x in at_mids)
        else:
            i = k + int(theta)
            vk, gq, gv = (x[i] for x in at_samples)
        d1 = -curvature(manifold, vk, p[1], vk) - gq
        d2 = -p[0] - gv
        if manifold == "so3-biinvariant":
            d1 = d1 - 0.5 * np.cross(vk, p[0])
            d2 = d2 - 0.5 * np.cross(vk, p[1])
        return np.array([d1, d2])

    ps = rk4(rate, np.array(terminal, dtype=float), times[::-1])[::-1]
    p1, p2 = ps[:, 0], ps[:, 1]
    ham = _dots(p1, v) + _dots(p2, u) + lagrangian.value(q, v, u)
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

    with identity actuation, so the control term contributes nothing. The
    propagation is linear in (y0, ydot0); ydot is the covariant rate, which
    on the rotation group differs from the coordinate rate by (w x Y)/2.

    Args:
        times: uniform grid of the base trajectory.
        q, v: base configurations and velocities on the grid (q is unused
            unless hess_w needs it).
        y0, ydot0: initial field and covariant rate.
        manifold: "flat" or "so3-biinvariant".
        hess_w: optional callable(q) -> (n, n) Hessian of the flat potential.
    """
    times = np.asarray(times, dtype=float)
    if manifold == "flat":
        def rate(k, theta, yz):
            y, z = yz
            dz = -hess_w(_at(q, k, theta)) @ y if hess_w is not None else np.zeros_like(y)
            return np.array([z, dz])
    else:
        def rate(k, theta, yz):
            y, z = yz
            vk = _at(v, k, theta)
            return np.array([z - 0.5 * np.cross(vk, y),
                             curvature("so3-biinvariant", vk, y, vk) - 0.5 * np.cross(vk, z)])

    yz = rk4(rate, np.array([y0, ydot0], dtype=float), times)
    return VariationTrajectory(times, yz[:, 0], yz[:, 1])
