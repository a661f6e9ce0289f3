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

The extremal, costate and variational sweeps are all dynamics.rk4, and
every cost evaluator (trajectory_cost, the oracle's batched costs,
control_cost, AvoidanceLagrangian.value) reads the one array running cost
running_cost under one trapezoid rule.

On the rotation group all tangent quantities live in body coordinates and
rates written with a dot are covariant: for a field xi along the trajectory,
D xi / Dt = xi' + (w x xi) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import rk4
from .errors import NoConvergence, NoDescent, ObstacleContact
from .so3 import hat, log_so3

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


@dataclass(frozen=True)
class SphereObstacle:
    """Smooth obstacle indicator O(q) = |q - center|^2 - radius^2."""

    center: np.ndarray
    radius: float

    def value(self, q) -> float:
        d = np.asarray(q, dtype=float) - self.center
        return float(d @ d) - self.radius ** 2

    def grad(self, q) -> np.ndarray:
        return 2.0 * (np.asarray(q, dtype=float) - self.center)


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
                raise ValueError(f"initial configuration inside obstacle {i}")

    @property
    def tangent_dim(self) -> int:
        return 3 if self.manifold == "so3-biinvariant" else self.dimension


def _grad_goal_potential(scenario: AvoidanceScenario, q) -> np.ndarray:
    """Gradient of U(q*, .) at q: q - q* on flat space, log(q*.T q) on the group."""
    if scenario.manifold == "flat":
        return np.asarray(q, dtype=float) - scenario.target
    return log_so3(scenario.target.T @ q)


def _sqnorm(x) -> np.ndarray:
    """Squared Euclidean norm along the last axis."""
    return np.einsum("...n,...n->...", x, x)


def _clearances(scenario: AvoidanceScenario, q) -> np.ndarray:
    """O_i at every row of a (..., n) array, one obstacle per leading index."""
    return np.array([_sqnorm(q - obs.center) - obs.radius ** 2
                     for obs in scenario.obstacles])


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
    if scenario.manifold == "flat":
        g2 = _sqnorm(q - scenario.target)
    else:
        rs = np.asarray(q, dtype=float)
        g = np.array([log_so3(scenario.target.T @ r) for r in rs.reshape(-1, 3, 3)])
        g2 = _sqnorm(g).reshape(rs.shape[:-2])
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


def _barrier_grad(scenario: AvoidanceScenario, q) -> np.ndarray:
    """Gradient -sum grad O_i / O_i^2 of the avoidance barrier at one point.

    A plain loop over the obstacles: this runs at every stage of every
    rollout, where array calls cost more than they save.

    Raises:
        ObstacleContact: any O_i(q) <= 0.
    """
    grad = np.zeros(scenario.dimension)
    for i, obs in enumerate(scenario.obstacles):
        o = obs.value(q)
        if o <= 0.0:
            raise ObstacleContact(f"obstacle {i} contacted (O = {o:.6g})")
        grad -= obs.grad(q) / (o * o)
    return grad


def avoidance_rhs(u, udot, q, v, scenario: AvoidanceScenario) -> np.ndarray:
    """Covariant second derivative of the control along an extremal.

    R(v, u) v + u/alpha - grad(U + V)(q)/alpha. The gradient sign follows
    from differentiating the costate relation u = -p2/alpha twice; the
    transcription oracle confirms it numerically.
    """
    u = np.asarray(u, dtype=float)
    grad = _grad_goal_potential(scenario, q)
    if scenario.obstacles:
        grad = grad + _barrier_grad(scenario, q)
    return curvature(scenario.manifold, v, u, v) + (u - grad) / scenario.alpha


def _coupled_rhs(scenario: AvoidanceScenario, z: np.ndarray) -> np.ndarray:
    """Time derivative of the packed state (q, v, u, w)."""
    n = scenario.tangent_dim
    if scenario.manifold == "flat":
        q, v, u, w = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
        if scenario.mode == "avoidance":
            dw = avoidance_rhs(u, w, q, v, scenario)
        else:
            dw = np.zeros(n)
        return np.concatenate([v, u, w, dw])
    r = z[:9].reshape(3, 3)
    omega, u, w = z[9:12], z[12:15], z[15:18]
    half_om = 0.5 * omega
    if scenario.mode == "avoidance":
        rhs_cov = avoidance_rhs(u, w, r, omega, scenario)
    else:
        rhs_cov = curvature("so3-biinvariant", omega, u, omega)
    return np.concatenate([
        (r @ hat(omega)).reshape(9),
        u,
        w - np.cross(half_om, u),
        rhs_cov - np.cross(half_om, w),
    ])


def _pack_initial(scenario: AvoidanceScenario, u0: np.ndarray, w0: np.ndarray) -> np.ndarray:
    if scenario.manifold == "flat":
        return np.concatenate([scenario.q0, scenario.v0, u0, w0])
    return np.concatenate([scenario.q0.reshape(9), scenario.v0, u0, w0])


@dataclass
class BVPSolution:
    """Uniform-grid trajectory returned by the boundary-value solvers.

    udot holds the covariant control rate for shooting solutions and None
    for the transcription oracle, whose residual_norm is its final gradient
    infinity norm rather than a terminal residual.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    u: np.ndarray
    udot: np.ndarray | None
    residual_norm: float
    iterations: int
    cost: float


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


def _integrate_extremal(scenario: AvoidanceScenario, u0, w0, h: float):
    """RK4 rollout of the coupled (q, v, u, w) system on a uniform grid."""
    n = scenario.tangent_dim
    steps = max(1, int(round(scenario.horizon / h)))
    times = np.linspace(0.0, scenario.horizon, steps + 1)
    z0 = _pack_initial(scenario, np.asarray(u0, dtype=float),
                       np.asarray(w0, dtype=float))
    # Overflow in a rejected trial is expected; non-finite states are
    # detected by the caller instead of warning here.
    with np.errstate(over="ignore", invalid="ignore"):
        zs = rk4(lambda k, theta, z: _coupled_rhs(scenario, z), z0, times)
        if scenario.manifold == "flat" and scenario.obstacles:
            o = _clearances(scenario, zs[:, :n])
            touched = o[o <= 0.0]
            if touched.size:
                raise ObstacleContact(f"path contacts an obstacle (O = {touched.min():.6g})")
    if scenario.manifold == "flat":
        q = zs[:, :n]
        v = zs[:, n:2 * n]
        u = zs[:, 2 * n:3 * n]
        w = zs[:, 3 * n:]
    else:
        q = zs[:, :9].reshape(-1, 3, 3)
        v = zs[:, 9:12]
        u = zs[:, 12:15]
        w = zs[:, 15:18]
    return times, q, v, u, w


def _terminal_residual(scenario: AvoidanceScenario, q, v, u, w) -> np.ndarray:
    a = scenario.alpha
    if scenario.mode == "avoidance":
        return np.concatenate([u[-1], w[-1] - v[-1] / a])
    gT = _grad_goal_potential(scenario, q[-1])
    return np.concatenate([u[-1] + v[-1] / a, w[-1] - gT / a])


def shooting_solve(scenario: AvoidanceScenario, h: float = 1e-3,
                   tol: float = 1e-6, max_iter: int = 100) -> BVPSolution:
    """Damped-Newton shooting on the unknown initial (u(0), Du/Dt(0)).

    The residual map is the terminal condition of the scenario mode; its
    Jacobian comes from forward finite differences. The coupled system is
    integrated by a classical 4th-order one-step method.

    Raises:
        NoConvergence: residual above tol after max_iter iterations.
        ObstacleContact: the current iterate's trajectory touched an obstacle.
    """
    n = scenario.tangent_dim

    def residual(x):
        times, q, v, u, w = _integrate_extremal(scenario, x[:n], x[n:], h)
        return _terminal_residual(scenario, q, v, u, w), (times, q, v, u, w)

    x = np.zeros(2 * n)
    res, traj = residual(x)
    if not np.isfinite(res).all():
        raise NoConvergence("trajectory from the zero initial guess is not finite")
    iterations = 0
    while np.abs(res).max() > tol:
        if iterations >= max_iter:
            raise NoConvergence(
                f"residual {np.abs(res).max():.3e} > {tol:g} after {max_iter} iterations")
        iterations += 1
        jac = np.empty((2 * n, 2 * n))
        for jcol in range(2 * n):
            step = 1e-6 * max(1.0, abs(x[jcol]))
            xp = x.copy()
            xp[jcol] += step
            rp, _ = residual(xp)
            jac[:, jcol] = (rp - res) / step
        if not np.isfinite(jac).all():
            raise NoConvergence(
                f"residual map not differentiable at iterate {iterations} "
                "(perturbed trajectory diverged)")
        try:
            direction = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(jac, -res, rcond=None)[0]
        norm0 = np.linalg.norm(res)
        lam = 1.0
        accepted = False
        while lam >= 2.0 ** -24:
            try:
                res_new, traj_new = residual(x + lam * direction)
            except ObstacleContact:
                lam *= 0.5
                continue
            if not np.isfinite(res_new).all():
                lam *= 0.5
                continue
            if np.linalg.norm(res_new) < (1.0 - 1e-4 * lam) * norm0:
                x = x + lam * direction
                res, traj = res_new, traj_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(
                f"damped step stalled at residual {norm0:.3e} (iteration {iterations})")
    times, q, v, u, w = traj
    return BVPSolution(
        times=times, q=q, v=v, u=u, udot=w,
        residual_norm=float(np.abs(res).max()),
        iterations=iterations,
        cost=trajectory_cost(scenario, times, q, v, u),
    )


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


def transcription_oracle(scenario: AvoidanceScenario, n_grid: int,
                         max_iter: int = 5000) -> BVPSolution:
    """Independent direct minimization of the avoidance cost on flat space.

    The control is discretized on n_grid uniform points, the cost evaluated
    by the trapezoid rule on symplectic-Euler states, and minimized by
    gradient descent with central finite-difference gradients (computed as
    one batched rollout) and a backtracking line search seeded with a
    Barzilai-Borwein step guess. Descent stops at ORACLE_GRAD_TOL, at
    max_iter, or once ORACLE_PLATEAU_WINDOW iterations improve the cost by
    less than ORACLE_PLATEAU_RTOL relatively. The cost sequence is
    non-increasing by construction.

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
    fd_step = 1e-6
    step_size = 1.0
    stalls = 0
    iterations = 0
    grad_inf = np.inf
    n_vars = n_grid * n
    eye = np.eye(n_vars).reshape(n_vars, n_grid, n)
    prev_grad = None
    prev_u = None
    history = [cost]
    while iterations < max_iter:
        iterations += 1
        batch = np.concatenate([u[None] + fd_step * eye, u[None] - fd_step * eye])
        costs = _batched_costs(scenario, batch, ht, weights)
        grad = ((costs[:n_vars] - costs[n_vars:]) / (2.0 * fd_step)).reshape(n_grid, n)
        grad_inf = float(np.abs(grad).max())
        if grad_inf <= ORACLE_GRAD_TOL:
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
        accepted = False
        s = step_size * 2.0
        for _ in range(60):
            trial = u - s * grad
            trial_cost = float(_batched_costs(scenario, trial[None], ht, weights)[0])
            if trial_cost <= cost - 1e-4 * s * gnorm2:
                u, cost, step_size = trial, trial_cost, s
                accepted = True
                break
            s *= 0.5
        if accepted:
            stalls = 0
        else:
            stalls += 1
            if stalls >= 50:
                raise NoDescent(f"line search stalled 50 times at cost {cost:.6g}")
        history.append(cost)
        if (len(history) > ORACLE_PLATEAU_WINDOW
                and history[-ORACLE_PLATEAU_WINDOW] - cost
                <= ORACLE_PLATEAU_RTOL * abs(cost)):
            break

    q, v = _batched_rollout(scenario, u[None], ht)
    return BVPSolution(times=times, q=q[0], v=v[0], u=u, udot=None,
                       residual_norm=grad_inf, iterations=iterations,
                       cost=cost)


class AvoidanceLagrangian:
    """Running cost U + |v|^2/2 + (alpha/2)|u|^2 + V and its gradients."""

    def __init__(self, scenario: AvoidanceScenario):
        self.scenario = scenario

    def value(self, q, v, u) -> float:
        return float(running_cost(self.scenario, q, v, u))

    def grad_q(self, q, v, u) -> np.ndarray:
        g = _grad_goal_potential(self.scenario, q)
        if self.scenario.obstacles:
            g = g + _barrier_grad(self.scenario, q)
        return g

    def grad_v(self, q, v, u) -> np.ndarray:
        return np.asarray(v, dtype=float)


class ControlEffortLagrangian:
    """Running cost (alpha/2)|u|^2 of the terminal-cost regulation mode."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def value(self, q, v, u) -> float:
        u = np.asarray(u, dtype=float)
        return 0.5 * self.alpha * float(u @ u)

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
    """
    times = np.asarray(times, dtype=float)
    # The sweep runs over the reversed grid, so interval k joins samples k
    # and k + 1 of the reversed arrays.
    qr, vr, ur = q[::-1], v[::-1], u[::-1]

    def rate(k, theta, p):
        qk, vk, uk = _at(qr, k, theta), _at(vr, k, theta), _at(ur, k, theta)
        d1 = -curvature(manifold, vk, p[1], vk) - lagrangian.grad_q(qk, vk, uk)
        d2 = -p[0] - lagrangian.grad_v(qk, vk, uk)
        if manifold == "so3-biinvariant":
            d1 = d1 - 0.5 * np.cross(vk, p[0])
            d2 = d2 - 0.5 * np.cross(vk, p[1])
        return np.array([d1, d2])

    ps = rk4(rate, np.array(terminal, dtype=float), times[::-1])[::-1]
    p1, p2 = ps[:, 0], ps[:, 1]
    ham = np.empty(times.shape[0])
    for k in range(times.shape[0]):
        ham[k] = (float(p1[k] @ v[k]) + float(p2[k] @ u[k])
                  + lagrangian.value(q[k], v[k], u[k]))
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
