"""Curvature, variational propagation, costates, and the boundary-value
solvers, cross-validated against independent oracles."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from geolqr import pmp
from geolqr.dynamics import (
    MAX_STEPS,
    InertiaTensor,
    RigidBodyState,
    SimParams,
    rk4,
    simulate,
    uniform_grid,
)
from geolqr.errors import NoConvergence, NoDescent, ObstacleContact, ValidationError
from geolqr.pmp import (
    AvoidanceScenario,
    BVPSolution,
    SphereObstacle,
    control_cost,
    costate_integrate,
    shooting_solve,
    trajectory_cost,
    transcription_oracle,
    variational_propagate,
)
from geolqr.riccati import dre_integrate, drift_matrix
from geolqr.so3 import (
    attitude_errors,
    exp_so3,
    hat,
    log_so3,
    orthogonality_defect,
    row_dots,
    vee,
)


curvature = pmp.MANIFOLDS["so3-biinvariant"].curvature


class TestCurvature:
    def test_antisymmetry_in_first_slots(self):
        x = np.array([0.3, -0.8, 0.5])
        assert np.allclose(curvature(x, x, [1.0, 2.0, 3.0]),
                           np.zeros(3), atol=1e-15)

    def test_bracket_arithmetic_oracle(self):
        # -[[hat X, hat Y], hat Z]/4 evaluated with explicit matrix brackets.
        rng = np.random.default_rng(62)
        for _ in range(20):
            x, y, z = rng.standard_normal((3, 3))
            hx, hy, hz = hat(x), hat(y), hat(z)
            bracket = (hx @ hy - hy @ hx)
            expected = vee(-0.25 * (bracket @ hz - hz @ bracket))
            assert np.allclose(curvature(x, y, z), expected,
                               atol=1e-12)

    def test_positive_sectional_curvature(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        r = curvature(x, y, y)
        assert np.allclose(r, [0.25, 0.0, 0.0], atol=1e-15)
        assert float(r @ x) > 0.0

    def test_unknown_manifold(self):
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValidationError) as err:
            variational_propagate(times, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3),
                                  np.zeros(3), "hyperbolic")
        assert err.value.path == "manifold"

    @given(st.data())
    def test_cross_equals_numpy_cross_byte_for_byte(self, data):
        shapes = data.draw(mutually_broadcastable_shapes(signature="(3),(3)->(3)"))
        a, b = (data.draw(arrays(np.float64, shape,
                                 elements=st.floats(-1e150, 1e150, allow_subnormal=True)))
                for shape in shapes.input_shapes)
        assert pmp._cross(a, b).tobytes() == np.cross(a, b).tobytes()


@st.composite
def point_and_tangent(draw, manifold):
    """A point of the named manifold and one (1, 3) tangent row at it: on the
    group a rotation and a row of norm at most pi - 0.1."""
    a = draw(arrays(np.float64, 3, elements=st.floats(-3.0, 3.0)))
    xi = draw(arrays(np.float64, (1, 3), elements=st.floats(-1.0, 1.0)))
    if manifold == "flat":
        return a, xi
    return exp_so3(a), xi * ((math.pi - 0.1) / math.sqrt(3.0))


class TestManifolds:
    """The contract of each MANIFOLDS object: log inverts the retraction and
    midpoints halve the log."""

    @pytest.mark.parametrize("manifold", list(pmp.MANIFOLDS))
    @given(data=st.data())
    def test_log_of_a_point_to_itself_is_zero(self, manifold, data):
        a, _ = data.draw(point_and_tangent(manifold))
        assert np.abs(pmp.MANIFOLDS[manifold].log(a, a)).max() <= 1e-15

    @pytest.mark.parametrize("manifold", list(pmp.MANIFOLDS))
    @given(data=st.data())
    def test_log_inverts_the_retraction(self, manifold, data):
        a, xi = data.draw(point_and_tangent(manifold))
        space = pmp.MANIFOLDS[manifold]
        assert np.abs(space.log(a, space.retract(a, xi)) - xi).max() <= 1e-12

    @pytest.mark.parametrize("manifold", list(pmp.MANIFOLDS))
    @given(data=st.data())
    def test_midpoint_halves_the_log(self, manifold, data):
        q0, xi = data.draw(point_and_tangent(manifold))
        space = pmp.MANIFOLDS[manifold]
        q1 = space.retract(q0, xi)[0]
        m = pmp._midpoints(space, np.stack([q0, q1]))[0]
        assert np.abs(space.log(q0, m) - 0.5 * space.log(q0, q1)).max() <= 1e-12


class TestVariationalPropagate:
    def test_flat_free_jacobi_field_is_linear_in_time(self):
        times = np.linspace(0.0, 1.0, 101)
        q = np.zeros((101, 1))
        v = np.ones((101, 1))
        out = variational_propagate(times, q, v, [0.0], [1.0], "flat")
        assert np.allclose(out.y[:, 0], times, atol=1e-12)

    def test_linearity_superposition(self):
        times = np.linspace(0.0, 1.0, 201)
        omegas = np.tile([0.4, -0.7, 0.9], (201, 1))
        y0a, z0a = np.array([0.5, -0.3, 0.2]), np.array([-0.1, 0.4, 0.25])
        y0b, z0b = np.array([-0.2, 0.1, 0.6]), np.array([0.3, 0.0, -0.5])
        a = variational_propagate(times, None, omegas, y0a, z0a, "so3-biinvariant")
        b = variational_propagate(times, None, omegas, y0b, z0b, "so3-biinvariant")
        ab = variational_propagate(times, None, omegas, y0a + y0b, z0a + z0b,
                                   "so3-biinvariant")
        assert np.abs(ab.y - (a.y + b.y)).max() <= 1e-9
        assert np.abs(ab.ydot - (a.ydot + b.ydot)).max() <= 1e-9

    def test_flat_finite_difference_agreement(self):
        # Quartic potential; re-integrate a perturbed initial condition and
        # compare the scaled difference with the propagated field.
        def grad_w(q):
            return float(q @ q) * q

        def hess_w(q):
            return float(q @ q) * np.eye(2) + 2.0 * np.outer(q, q)

        h, steps = 1e-3, 1000
        times = np.linspace(0.0, 1.0, steps + 1)

        def integrate(q0, v0):
            qs = np.empty((steps + 1, 2))
            vs = np.empty((steps + 1, 2))
            z = np.concatenate([q0, v0])
            qs[0], vs[0] = q0, v0
            for i in range(steps):
                def f(zz):
                    return np.concatenate([zz[2:], -grad_w(zz[:2])])
                k1 = f(z)
                k2 = f(z + 0.5 * h * k1)
                k3 = f(z + 0.5 * h * k2)
                k4 = f(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                qs[i + 1], vs[i + 1] = z[:2], z[2:]
            return qs, vs

        q0 = np.array([0.8, -0.4])
        v0 = np.array([0.2, 0.5])
        qs, vs = integrate(q0, v0)
        y0 = np.array([1.0, -0.5])
        z0 = np.array([0.3, 0.7])
        out = variational_propagate(times, qs, vs, y0, z0, "flat", hess_w=hess_w)
        eps = 1e-5
        q_eps, _ = integrate(q0 + eps * y0, v0 + eps * z0)
        fd = (q_eps - qs) / eps
        assert np.abs(fd - out.y).max() <= 1e-3

    def test_so3_finite_difference_agreement(self):
        # Constant-velocity base: both base and perturbed trajectories have
        # closed forms, so the oracle is exact up to the step eps.
        om0 = np.array([0.4, -0.7, 0.9])
        r0 = exp_so3([0.3, 0.1, -0.2])
        y0 = np.array([0.5, -0.3, 0.2])
        z0 = np.array([-0.1, 0.4, 0.25])
        steps = 1000
        times = np.linspace(0.0, 1.0, steps + 1)
        omegas = np.tile(om0, (steps + 1, 1))
        out = variational_propagate(times, None, omegas, y0, z0, "so3-biinvariant")
        eps = 1e-5
        r0_eps = r0 @ exp_so3(eps * y0)
        om_eps = om0 + eps * (z0 + 0.5 * np.cross(om0, y0))
        worst = 0.0
        for i in range(0, steps + 1, 25):
            t = times[i]
            base = r0 @ exp_so3(om0 * t)
            pert = r0_eps @ exp_so3(om_eps * t)
            fd = log_so3(base.T @ pert) / eps
            worst = max(worst, float(np.abs(fd - out.y[i]).max()))
        assert worst <= 1e-3


def avoidance_accel(sc, q, v, u):
    """The covariant control acceleration dw at (q, v, u, 0) and its contact
    flag, read from the w slot of the space's rates."""
    z = np.concatenate([q, v, u, np.zeros_like(v)])[None]
    dz = np.empty_like(z)
    contact = sc.space.rates(sc, z, dz)
    return pmp._unpack(sc, dz)[3][0], contact


class TestAvoidanceAccel:
    def scenario_1d(self, obstacles=()):
        return AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                                 q0=[1.0], v0=[0.0], obstacles=obstacles)

    def test_equilibrium_at_target(self):
        sc = AvoidanceScenario(dimension=2, alpha=0.7, target=[0.3, -0.2],
                               horizon=1.0, q0=[1.0, 0.0], v0=[0.0, 0.0])
        out, _ = avoidance_accel(sc, np.array([0.3, -0.2]), np.zeros(2), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_linear_form_without_obstacles(self):
        # (u - (q - q*)) / alpha: the gradient sign the costate system
        # demands.
        sc = self.scenario_1d()
        rng = np.random.default_rng(63)
        for _ in range(20):
            u = rng.standard_normal(1)
            q = rng.standard_normal(1)
            out, _ = avoidance_accel(sc, q, np.zeros(1), u)
            assert np.allclose(out, (u - q) / sc.alpha, atol=1e-15)

    def test_obstacle_gradient_matches_finite_differences(self):
        obs = SphereObstacle(np.array([0.0, 0.0]), 0.5)
        sc = AvoidanceScenario(dimension=2, alpha=1.0, target=[2.0, 0.0],
                               horizon=1.0, q0=[-2.0, 0.0], v0=[0.0, 0.0],
                               obstacles=(obs,))
        q = np.array([-1.0, 0.4])
        step = 1e-6
        grad_fd = np.zeros(2)
        for a in range(2):
            e = np.zeros(2)
            e[a] = step
            grad_fd[a] = (1.0 / obs.value(q + e) - 1.0 / obs.value(q - e)) / (2.0 * step)
        base, _ = avoidance_accel(sc, q, np.zeros(2), np.zeros(2))
        no_obs = AvoidanceScenario(dimension=2, alpha=1.0, target=[2.0, 0.0],
                                   horizon=1.0, q0=[-2.0, 0.0], v0=[0.0, 0.0])
        plain, _ = avoidance_accel(no_obs, q, np.zeros(2), np.zeros(2))
        barrier_term = base - plain
        assert np.abs(barrier_term - (-grad_fd)).max() <= 1e-6

    def test_sphere_grad_matches_central_differences_of_value(self):
        obs = SphereObstacle(np.array([0.3, -0.2, 0.5]), 0.4)
        q = np.random.default_rng(5).standard_normal((4, 3))
        step = 1e-6
        grad_fd = np.stack([(obs.value(q + e) - obs.value(q - e)) / (2.0 * step)
                            for e in step * np.eye(3)], axis=-1)
        value, half = obs.value_and_half_grad(q)
        assert np.array_equal(value, obs.value(q))
        want = ((q - obs.center) ** 2).sum(axis=1) - obs.radius ** 2
        assert np.abs(value - want).max() <= 1e-14
        assert half.shape == q.shape
        assert np.abs(2.0 * half - grad_fd).max() <= 1e-8
        assert np.array_equal(half, q - obs.center)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_flat_rhs_matches_a_per_row_formula(self, order):
        # (v, u, w) are copied and dw = (u - (q - q*) + sum_i 2 (q - c_i) /
        # O_i^2) / alpha, row by row, whatever the batch's memory order, with
        # the bits of (u - _grad_potential) / alpha.
        obstacles = (SphereObstacle(np.array([0.3, -0.2, 0.1]), 0.4),
                     SphereObstacle(np.array([-0.5, 0.4, 0.0]), 0.3))
        sc = AvoidanceScenario(dimension=3, alpha=0.3, target=[1.0, 0.5, -0.2], horizon=1.0,
                               q0=[2.0, 2.0, 2.0], v0=np.zeros(3), obstacles=obstacles)
        rng = np.random.default_rng(85)
        z = np.asarray(rng.uniform(-1.0, 1.0, (200, 12)), order=order)
        out = np.empty_like(z)
        contact = sc.space.rates(sc, z, out)
        assert np.array_equal(out[:, :9], z[:, 3:])
        grad = pmp._grad_potential(sc, z[:, :3])[0]
        assert np.array_equal(out[:, 9:], (z[:, 6:9] - grad) / sc.alpha)
        for row, flagged, dw in zip(z, contact, out[:, 9:]):
            q, u = row[:3], row[6:9]
            terms = [u, -(q - sc.target)]
            values = []
            for obs in obstacles:
                d = q - obs.center
                values.append(sum(d[a] * d[a] for a in range(3)) - obs.radius ** 2)
                terms.append(2.0 * d / values[-1] ** 2)
            want = sum(terms) / sc.alpha
            scale = sum(np.abs(t) for t in terms) / sc.alpha
            assert np.all(np.abs(dw - want) <= 1e-15 * scale)
            assert flagged == (min(values) <= 0.0)
        assert 0 < contact.sum() < len(z)

    @pytest.mark.parametrize("mode", pmp.MODES)
    def test_group_rhs_keeps_its_operation_order(self, mode):
        # Bit for bit (q hat(v), u, w - (v/2) x u, R(v, u)v + dw - (v/2) x w)
        # with dw = (u - log(q*, q)) / alpha, or 0 in terminal mode.
        sc = AvoidanceScenario(dimension=3, alpha=0.3, target=exp_so3([0.2, -0.1, 0.4]),
                               horizon=1.0, q0=np.eye(3), v0=np.zeros(3),
                               manifold="so3-biinvariant", mode=mode)
        rng = np.random.default_rng(86)
        q = np.array([exp_so3(x) for x in rng.uniform(-1.0, 1.0, (50, 3))])
        v, u, w = rng.standard_normal((3, 50, 3))
        z = np.asfortranarray(np.hstack([q.reshape(50, 9), v, u, w]))
        out = np.empty_like(z)
        assert sc.space.rates(sc, z, out) is False
        space, cross, half = sc.space, pmp._cross, 0.5 * v
        dw = (u - pmp.goal_errors(sc, q)) / sc.alpha if mode == "avoidance" else 0.0 * v
        want = np.hstack([cross(q, v[:, None, :]).reshape(50, 9), u, w - cross(half, u),
                          space.curvature(v, u, v) + dw - cross(half, w)])
        assert np.array_equal(out, want)

    def test_contact_flagged(self):
        obs = SphereObstacle(np.array([0.0]), 0.5)
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[2.0], horizon=1.0,
                               q0=[-2.0], v0=[0.0], obstacles=(obs,))
        _, contact = avoidance_accel(sc, np.array([0.1]), np.zeros(1), np.zeros(1))
        assert np.all(contact)


class TestShooting:
    # The sweeps' grid refuses a step that is not positive and finite, or
    # that gives more than MAX_STEPS steps, before it allocates.
    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, 1.0 / (MAX_STEPS + 1),
                                   5e-324])
    @pytest.mark.parametrize("solve", [
        shooting_solve,
        lambda sc, h: control_cost(sc, np.array([0.0, 1.0]), np.zeros((2, 1)), h),
    ], ids=["shooting_solve", "control_cost"])
    def test_bad_step_names_h(self, solve, h):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValidationError) as err:
                solve(sc, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert err.value.path == "h"
        assert peak < 1e6

    def test_trivial_scenario_stays_zero(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[0.0], v0=[0.0])
        sol = shooting_solve(sc)
        assert sol.iterations == 0
        assert np.abs(sol.u).max() == 0.0
        assert sol.residual_norm == 0.0

    def test_flat_1d_matches_matrix_exponential_oracle(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        sol = shooting_solve(sc)
        assert sol.residual_norm <= 1e-6
        # Companion system x = (q, v, u, w), x' = M x; terminal rows are
        # u(T) = 0 and w(T) - v(T)/alpha = 0; solve the 2x2 system for the
        # free initial (u0, w0), then compare u on the grid.
        m = np.array([[0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [-1.0, 0.0, 1.0, 0.0]])
        full = scipy.linalg.expm(m * sc.horizon)
        r1 = full[2]
        r2 = full[3] - full[1]
        lhs = np.array([[r1[2], r1[3]], [r2[2], r2[3]]])
        rhs = -np.array([r1[0], r2[0]])
        u0, w0 = np.linalg.solve(lhs, rhs)
        assert abs(u0 - sol.u[0, 0]) <= 1e-8
        worst = 0.0
        for i in range(0, len(sol.times), 20):
            x_t = scipy.linalg.expm(m * sol.times[i]) @ np.array([1.0, 0.0, u0, w0])
            worst = max(worst, abs(x_t[2] - sol.u[i, 0]))
        assert worst <= 1e-5

    def test_costate_relation_and_hamiltonian_flat(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        sol = shooting_solve(sc)
        ct = costate_integrate(sc, sol)
        assert np.abs(-ct.p2 / sc.alpha - sol.u).max() <= 1e-3
        spread = float(ct.hamiltonian.max() - ct.hamiltonian.min())
        assert spread <= 1e-3

    def test_terminal_mode_on_rotation_group(self):
        # Finite-time regulation: the necessary conditions close exactly, so
        # the costate relation and Hamiltonian constancy hold on the group
        # trajectory as well.
        sc = AvoidanceScenario(
            dimension=3, alpha=1.0, target=exp_so3([0.0, 0.0, 0.0]), horizon=1.0,
            q0=exp_so3([0.6, -0.3, 0.2]), v0=np.array([0.1, -0.2, 0.15]),
            manifold="so3-biinvariant", mode="terminal")
        sol = shooting_solve(sc, h=5e-3)
        assert sol.residual_norm <= 1e-6
        a = sc.alpha
        assert np.abs(sol.u[-1] + sol.v[-1] / a).max() <= 1e-6
        grad_t = log_so3(sc.target.T @ sol.q[-1])
        assert np.abs(sol.udot[-1] - grad_t / a).max() <= 1e-6
        ct = costate_integrate(sc, sol)
        assert np.abs(-ct.p2 / a - sol.u).max() <= 1e-3
        assert float(ct.hamiltonian.max() - ct.hamiltonian.min()) <= 1e-3

    def test_avoidance_mode_on_rotation_group(self):
        # Running-cost regulation on the group (no obstacles): the converged
        # extremal still satisfies the costate relation and keeps H constant.
        sc = AvoidanceScenario(
            dimension=3, alpha=1.0, target=exp_so3([0.0, 0.0, 0.0]), horizon=1.0,
            q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
            manifold="so3-biinvariant", mode="avoidance")
        sol = shooting_solve(sc, h=5e-3)
        assert sol.residual_norm <= 1e-6
        ct = costate_integrate(sc, sol)
        assert np.abs(-ct.p2 / sc.alpha - sol.u).max() <= 1e-3
        assert float(ct.hamiltonian.max() - ct.hamiltonian.min()) <= 1e-3

    def test_small_angle_group_solution_matches_flat(self):
        # For a radial small-angle start at rest the curvature terms vanish
        # along the extremal, so the group solution must coincide with the
        # flat one in exponential coordinates.
        v_small = np.array([0.01, -0.006, 0.004])
        sc_group = AvoidanceScenario(
            dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
            q0=exp_so3(v_small), v0=np.zeros(3),
            manifold="so3-biinvariant", mode="terminal")
        sc_flat = AvoidanceScenario(
            dimension=3, alpha=1.0, target=np.zeros(3), horizon=1.0,
            q0=v_small, v0=np.zeros(3), mode="terminal")
        sol_group = shooting_solve(sc_group, h=5e-3)
        sol_flat = shooting_solve(sc_flat, h=5e-3)
        assert np.abs(sol_group.u - sol_flat.u).max() <= 1e-9

    def test_terminal_mode_flat_control_is_linear_in_time(self):
        # Zero curvature kills the Jacobi term, so u'' = 0 along extremals.
        sc = AvoidanceScenario(dimension=2, alpha=0.5, target=[1.0, -0.5],
                               horizon=2.0, q0=[0.0, 0.0], v0=[0.2, 0.0],
                               mode="terminal")
        sol = shooting_solve(sc, h=1e-3)
        fitted = sol.u[0][None, :] + sol.times[:, None] * sol.udot[0][None, :]
        assert np.abs(fitted - sol.u).max() <= 1e-8
        # Stationarity: control-effort problems keep p2 = -alpha u along the
        # converged trajectory.
        ct = costate_integrate(sc, sol)
        assert np.abs(-ct.p2 / sc.alpha - sol.u).max() <= 1e-3
        assert float(ct.hamiltonian.max() - ct.hamiltonian.min()) <= 1e-3

    def test_no_convergence_budget(self, monkeypatch):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        monkeypatch.setattr(pmp, "SHOOTING_MAX_ITER", 0)
        monkeypatch.setattr(pmp, "SHOOTING_TOL", 1e-12)
        with pytest.raises(NoConvergence):
            shooting_solve(sc)

    def test_straddle_from_the_zero_guess_stops_without_progress(self):
        # The obstacle of configs/avoid_straddle.json sits across the
        # straight path; from the zero guess the residual stalls near
        # 6.7e-3, and the no-progress rule ends the solve at iteration 12.
        sc = AvoidanceScenario(dimension=2, alpha=0.2, target=[1.2, 0.15], horizon=2.0,
                               q0=[-1.2, 0.0], v0=[0.0, 0.0],
                               obstacles=(SphereObstacle(np.array([0.0, 0.07]), 0.3),))
        start = time.perf_counter()
        with pytest.raises(NoConvergence, match=r"no progress: residual .* > 0\.5 x "):
            shooting_solve(sc, h=1e-3)
        assert time.perf_counter() - start < 1.5

    def test_stiff_blowup_reported_not_silently_converged(self):
        # alpha = 1e-6 makes the coupled system grow like exp(1000 t), by
        # about e^50 over each 50-step segment; Newton stalls, and that must
        # surface as an error, never as a converged NaN residual.
        sc = AvoidanceScenario(dimension=1, alpha=1e-6, target=[0.0], horizon=2.0,
                               q0=[1.0], v0=[0.0])
        with pytest.raises(NoConvergence):
            shooting_solve(sc, h=1e-3)

    def test_stiff_avoidance_matches_matrix_exponential_oracle(self):
        # alpha = 1e-4 grows like exp(100 t): single shooting overflows over
        # T = 2, each 50-step segment grows by about e^2.5. The whole-horizon
        # matrix exponential is ill-conditioned here too, so the oracle is
        # multiple shooting in exact arithmetic: expm over each of S
        # segments, one linear solve for the segment starts, then the grid
        # step's expm within each segment.
        alpha = 1e-4
        sc = AvoidanceScenario(dimension=1, alpha=alpha, target=[0.0], horizon=2.0,
                               q0=[1.0], v0=[0.0])
        sol = shooting_solve(sc, h=5e-4)
        assert sol.residual_norm <= 1e-6 and sol.trace["segments"] == 80
        m = np.array([[0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [-1.0 / alpha, 0.0, 1.0 / alpha, 0.0]])
        segments, steps = 40, len(sol.times) - 1
        e_seg = scipy.linalg.expm(m * sc.horizon / segments)
        # Unknowns: (u0, w0), then the start of each later segment. Rows:
        # x_j - e_seg x_{j-1} = 0, then u(T) = 0 and w(T) - v(T)/alpha = 0.
        size = 4 * segments - 2
        lhs, rhs = np.zeros((size, size)), np.zeros(size)
        lhs[:4, :2] = -e_seg[:, 2:]
        rhs[:4] = e_seg[:, :2] @ [1.0, 0.0]
        for j in range(1, segments):
            lhs[4 * j - 4:4 * j, 4 * j - 2:4 * j + 2] = np.eye(4)
            if j > 1:
                lhs[4 * j - 4:4 * j, 4 * j - 6:4 * j - 2] = -e_seg
        lhs[-2:, -4:] = [e_seg[2], e_seg[3] - e_seg[1] / alpha]
        xs = np.linalg.solve(lhs, rhs)
        starts = np.concatenate([[1.0, 0.0], xs]).reshape(segments, 4)
        e_step = scipy.linalg.expm(m * sc.horizon / steps)
        u_ref = []
        for x in starts:
            for _ in range(steps // segments):
                u_ref.append(x[2])
                x = e_step @ x
        u_ref.append(x[2])
        assert np.abs(np.array(u_ref) - sol.u[:, 0]).max() <= 1e-5

    def test_non_finite_jacobian_is_no_convergence(self, monkeypatch):
        sc = AvoidanceScenario(dimension=1, alpha=1e-7, target=[0.0], horizon=2.0,
                               q0=[1.0], v0=[0.0])
        with pytest.raises(NoConvergence):
            shooting_solve(sc, h=1e-3)
        # A perturbed row that overflows while the base rows stay finite.
        original = pmp._integrate_extremal

        def overflow_last_row(*args):
            zs, contact = original(*args)
            zs[-1, -1] = np.inf
            return zs, contact

        monkeypatch.setattr(pmp, "_integrate_extremal", overflow_last_row)
        with pytest.raises(NoConvergence, match="not differentiable"):
            shooting_solve(criterion_09_scenario())


# Criterion 09's 2D scenario and its converged (u(0), Du/Dt(0)) as computed
# by the serial shooting solver, which rolled each finite-difference column
# out on its own before the batched sweep replaced it.
CRITERION_09_U0 = (2.6873640915012302, -3.189653281774773)
CRITERION_09_W0 = (-6.870488311601248, 8.713171530445594)


def criterion_09_scenario():
    return AvoidanceScenario(
        dimension=2, alpha=0.2, target=[1.2, 0.15], horizon=2.0,
        q0=[-1.2, 0.0], v0=[0.0, 0.0],
        obstacles=(SphereObstacle(np.array([-0.1, 0.28]), 0.4),))


def spy_sweeps(monkeypatch, edit=None):
    """Record the contact flags of every _integrate_extremal sweep; edit(i,
    contact) may change sweep i's flags before shooting_solve sees them."""
    original = pmp._integrate_extremal
    flags = []

    def spy(*args):
        *out, contact = original(*args)
        if edit is not None:
            edit(len(flags), contact)
        flags.append(contact.copy())
        return (*out, contact)

    monkeypatch.setattr(pmp, "_integrate_extremal", spy)
    return flags


class TestBatchedShooting:
    @pytest.mark.parametrize("case", ["flat", "group"])
    def test_each_row_equals_its_own_rollout(self, case, monkeypatch):
        monkeypatch.setattr(pmp, "SEGMENT_STEPS", 10**9)
        if case == "flat":
            sc, h = criterion_09_scenario(), 1e-3
        else:
            sc, h = AvoidanceScenario(
                dimension=3, alpha=0.5, target=exp_so3([0.1, 0.2, -0.1]), horizon=1.0,
                q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
                manifold="so3-biinvariant"), 5e-3
        m = 2 * sc.dimension
        rng = np.random.default_rng(65)
        x = 0.5 * rng.standard_normal(m)
        batch = np.vstack([x, x + np.diag(np.full(m, 1e-3))])
        batch = np.hstack([np.tile(np.append(sc.q0, sc.v0), (m + 1, 1)), batch])
        times = np.linspace(0.0, sc.horizon, int(round(sc.horizon / h)) + 1)
        rows, contact = pmp._integrate_extremal(sc, batch, times)
        assert not contact.any()
        for b in range(m + 1):
            alone, contact_b = pmp._integrate_extremal(sc, batch[b:b + 1], times)
            assert not contact_b.any()
            for together, single in zip(pmp._unpack(sc, rows), pmp._unpack(sc, alone)):
                assert np.abs(together[b] - single[0]).max() <= 1e-15

    @pytest.mark.parametrize("case", ["flat-avoidance", "flat-terminal", "group-avoidance",
                                      "group-terminal"])
    def test_rows_are_exact_whatever_the_memory_order(self, case):
        # The sweep holds its batch component-major; each row still takes
        # the arithmetic of its own sweep, bit for bit, and neither the rows
        # nor the contact flags depend on the memory order of z0.
        manifold, mode = case.split("-")
        if manifold == "group":
            sc = group_scenario(mode)
        elif mode == "avoidance":
            sc = criterion_09_scenario()
        else:
            sc = AvoidanceScenario(dimension=2, alpha=0.2, target=[1.2, 0.15], horizon=2.0,
                                   q0=[-1.2, 0.0], v0=[0.0, 0.0], mode="terminal",
                                   obstacles=criterion_09_scenario().obstacles)
        n = sc.dimension
        y = 0.5 * np.random.default_rng(66).standard_normal((7, 4 * n))
        for obs in sc.obstacles:
            y[0, :n] = obs.center - sc.q0  # starts at the obstacle's center
        z0 = pmp._segment_starts(sc, y)
        times = np.linspace(0.0, 0.5, 51)
        rows, contact = pmp._integrate_extremal(sc, z0, times)
        assert np.isfinite(rows).all()
        assert list(contact) == [bool(sc.obstacles)] + [False] * 6
        again, contact_f = pmp._integrate_extremal(sc, np.asfortranarray(z0), times)
        assert np.array_equal(again, rows) and np.array_equal(contact_f, contact)
        for b in range(len(z0)):
            alone, contact_b = pmp._integrate_extremal(sc, z0[b:b + 1], times)
            assert np.array_equal(alone[0], rows[b]) and contact_b[0] == contact[b]

    def test_criterion_09_iterate_unchanged(self, monkeypatch):
        monkeypatch.setattr(pmp, "SEGMENT_STEPS", 10**9)
        sol = shooting_solve(criterion_09_scenario())
        assert sol.iterations == 6
        assert np.abs(sol.u[0] - CRITERION_09_U0).max() <= 1e-12
        assert np.abs(sol.udot[0] - CRITERION_09_W0).max() <= 1e-12
        trace = sol.trace
        assert len(trace["residuals"]) == 7 and trace["residuals"][-1] == sol.residual_norm
        # One rejected and one accepted trial in the first iteration, one
        # trial in each of the other five, after the zero guess.
        assert trace["steps"] == [0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert trace["sweeps"] == 8

    def test_contact_on_trial_row_halves_step(self, monkeypatch):
        # The full step of the second iteration runs through the obstacle.
        sc = AvoidanceScenario(dimension=2, alpha=0.05, target=[1.2, 0.0], horizon=2.0,
                               q0=[-1.2, 0.0], v0=[0.0, 0.0],
                               obstacles=(SphereObstacle(np.array([0.246, 0.366]), 0.463),))
        monkeypatch.setattr(pmp, "SEGMENT_STEPS", 10**9)
        flags = spy_sweeps(monkeypatch)
        sol = shooting_solve(sc, h=1e-2)
        assert sol.residual_norm <= 1e-6
        assert sol.trace["steps"][:2] == [1.0, 0.5]
        assert flags[2][0] and not flags[3][0]
        assert len(flags) == sol.trace["sweeps"]

    def test_contact_on_perturbation_row_raises_when_jacobian_is_needed(self, monkeypatch):
        def flag_row_1(i, contact):
            if i == 2:  # the accepted trial of the first iteration
                contact[1] = True

        monkeypatch.setattr(pmp, "SEGMENT_STEPS", 10**9)
        spy_sweeps(monkeypatch, flag_row_1)
        with pytest.raises(ObstacleContact):
            shooting_solve(criterion_09_scenario(), h=5e-3)

    def test_perturbation_contact_at_converged_iterate_is_unused(self, monkeypatch):
        # 1D linear problem: the first Newton step converges, so the
        # perturbations of the accepted trial never enter a Jacobian.
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])

        def flag_perturbations(i, contact):
            if i == 1:
                contact[1:] = True

        monkeypatch.setattr(pmp, "SEGMENT_STEPS", 10**9)
        spy_sweeps(monkeypatch, flag_perturbations)
        sol = shooting_solve(sc, h=1e-2)
        assert sol.iterations == 1 and sol.residual_norm <= 1e-6


def group_scenario(case):
    """The rotation-group scenarios of TestShooting and TestBatchedShooting."""
    if case == "targeted":
        return AvoidanceScenario(
            dimension=3, alpha=0.5, target=exp_so3([0.1, 0.2, -0.1]), horizon=1.0,
            q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
            manifold="so3-biinvariant")
    return AvoidanceScenario(
        dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
        q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
        manifold="so3-biinvariant", mode=case)


class TestMultipleShooting:
    def test_criterion_09_start_matches_single_shooting(self):
        sol = shooting_solve(criterion_09_scenario())
        assert sol.trace["segments"] == 40 and sol.residual_norm <= 1e-6
        assert np.abs(sol.u[0] - CRITERION_09_U0).max() <= 5e-9
        assert np.abs(sol.udot[0] - CRITERION_09_W0).max() <= 5e-9
        # One sweep over the whole grid from that start meets the terminal
        # condition.
        sc = criterion_09_scenario()
        z0 = np.concatenate([sc.q0, sc.v0, sol.u[0], sol.udot[0]])[None]
        zs, contact = pmp._integrate_extremal(sc, z0, sol.times)
        assert not contact.any()
        assert np.abs(pmp._terminal_residual(sc, zs[:, -1])).max() <= 1e-6

    def test_contact_on_base_row_of_trial_halves_step(self, monkeypatch):
        # Linear 1D problem on 20 segments: the full first step converges
        # unless a base row of its trial is flagged.
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])

        def flag_segment_3(i, contact):
            if i == 1:
                contact[3] = True

        flags = spy_sweeps(monkeypatch, flag_segment_3)
        sol = shooting_solve(sc)
        assert sol.trace["segments"] == 20 and sol.residual_norm <= 1e-6
        assert sol.trace["steps"][0] == 0.5
        assert len(flags) == sol.trace["sweeps"]

    @pytest.mark.parametrize("steps", [4001, 3998])
    def test_unequal_segments_solve_the_stiff_case(self, steps):
        # A step count that 50-step segments do not divide: 80 or 79
        # segments whose lengths differ by one step. The start agrees with
        # the 4000-step solve (80 segments of 50) to the grids' difference.
        sc = AvoidanceScenario(dimension=1, alpha=1e-4, target=[0.0], horizon=2.0,
                               q0=[1.0], v0=[0.0])
        ref = shooting_solve(sc, h=sc.horizon / 4000)
        sol = shooting_solve(sc, h=sc.horizon / steps)
        assert sol.trace["segments"] == steps // pmp.SEGMENT_STEPS
        assert sol.residual_norm <= 1e-6
        assert len(sol.times) == steps + 1 and len(sol.u) == steps + 1
        assert abs(sol.u[0, 0] - ref.u[0, 0]) <= 1e-8
        assert abs(sol.udot[0, 0] - ref.udot[0, 0]) <= 1e-8
        # The joined path lies on the reference path, within linear
        # interpolation's h^2 max|q''| / 8 = 3e-6.
        assert np.abs(np.interp(ref.times, sol.times, sol.q[:, 0]) - ref.q[:, 0]).max() <= 1e-5

    @pytest.mark.parametrize("case", ["terminal", "avoidance", "targeted"])
    def test_group_starts_stay_on_the_group_and_match_single_shooting(self, case,
                                                                      monkeypatch):
        sc = group_scenario(case)
        sol = shooting_solve(sc, h=5e-3)
        assert sol.trace["segments"] == 4 and sol.residual_norm <= 1e-6
        defect = np.swapaxes(sol.q, 1, 2) @ sol.q - np.eye(3)
        assert np.abs(defect).max() <= 1e-10
        monkeypatch.setattr(pmp, "SEGMENT_STEPS", 10**9)
        single = shooting_solve(sc, h=5e-3)
        assert single.trace["segments"] == 1
        for a, b in [(sol.q, single.q), (sol.v, single.v), (sol.u, single.u),
                     (sol.udot, single.udot)]:
            assert np.abs(a - b).max() <= 5e-6


def first_newton_system(monkeypatch, sc, h, start=None):
    """The rows y (xi, v, u, w) of shooting_solve's first sweep, base rows
    first, and the first (jac, -res) it hands to np.linalg.solve, where it
    stops."""
    seen = {}

    class Formed(Exception):
        pass

    def spy_starts(scenario, y):
        seen.setdefault("y", y.copy())
        return segment_starts(scenario, y)

    def spy_solve(a, b):
        seen.update(jac=a, rhs=b)
        raise Formed

    segment_starts = pmp._segment_starts
    monkeypatch.setattr(pmp, "_segment_starts", spy_starts)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    with pytest.raises(Formed):
        shooting_solve(sc, h, start=start)
    return seen["y"], seen["jac"], seen["rhs"]


def shooting_residual(sc, h):
    """The multiple-shooting residual as a function of the unknowns x (the
    segments' (xi, v, u, w) rows after segment 0's fixed (0, v0)), from one
    sweep per segment: continuity at each later segment's start, then the
    terminal condition. A segment's end is swept once per distinct start."""
    n, times = sc.dimension, uniform_grid(sc.horizon, h)
    steps = len(times) - 1
    m = max(1, steps // pmp.SEGMENT_STEPS)
    lengths = [steps // m + (j >= m - steps % m) for j in range(m)]
    swept = {}

    def end(j, start):
        key = (j, start.tobytes())
        if key not in swept:
            swept[key] = pmp._integrate_extremal(sc, start[None], times[:lengths[j] + 1])[0][:, -1]
        return swept[key]

    def residual(x):
        y = np.concatenate([np.zeros(n), sc.v0, x]).reshape(m, 4 * n)
        starts = pmp._segment_starts(sc, y)
        ends = [end(j, starts[j]) for j in range(m)]
        blocks = [pmp._continuity(sc, starts[j + 1:j + 2], ends[j]) for j in range(m - 1)]
        return np.concatenate([b.ravel() for b in blocks]
                              + [pmp._terminal_residual(sc, ends[-1]).ravel()])

    return m, residual


class TestNewtonJacobian:
    @pytest.mark.parametrize("case, h, segments", [
        ("zero", 1e-3, 40), ("seeded", 1e-3, 40), ("zero", 2e-2, 2), ("zero", 4e-2, 1),
        ("group-avoidance", 1e-2, 4), ("group-terminal", 1e-2, 4)])
    def test_jacobian_is_the_residuals_forward_differences(self, monkeypatch, case, h,
                                                            segments):
        # configs/avoid.json's scenario, from the zero guess or the seed that
        # run_avoid builds, and a rotation-group problem in both modes.
        if case.startswith("group"):
            sc = AvoidanceScenario(dimension=3, alpha=0.5, target=np.eye(3), horizon=2.0,
                                   q0=exp_so3([0.9, -0.4, 0.3]), v0=np.array([0.2, 0.1, -0.3]),
                                   manifold="so3-biinvariant", mode=case.split("-")[1])
        else:
            sc = criterion_09_scenario()
        start = transcription_oracle(sc, 201, max_iter=200) if case == "seeded" else None
        y, jac, rhs = first_newton_system(monkeypatch, sc, h, start)
        monkeypatch.undo()
        m, residual = shooting_residual(sc, h)
        x = y[:m].ravel()[2 * sc.dimension:]
        assert m == segments and jac.shape == (x.size, x.size)
        res = residual(x)
        assert np.array_equal(-res, rhs)
        deltas = 1e-6 * np.maximum(1.0, np.abs(x))
        for i, delta in enumerate(deltas):
            step = x.copy()
            step[i] += delta
            assert np.array_equal(jac[:, i], (residual(step) - res) / delta), f"column {i}"


class TestTranscriptionOracle:
    def test_trivial_minimum_has_zero_gradient(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[0.0], v0=[0.0])
        out = transcription_oracle(sc, 101)
        assert out.residual_norm <= 1e-6
        assert out.cost == 0.0

    def test_cost_decreases_matches_shooting_1d(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        shoot = shooting_solve(sc)
        oracle = transcription_oracle(sc, 1001)
        assert abs(shoot.cost - oracle.cost) / oracle.cost <= 1e-3

    def test_dominance_under_common_evaluator(self):
        # The extremal can only beat or tie a descent method once both
        # controls are scored by one discretization.
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        shoot = shooting_solve(sc)
        oracle = transcription_oracle(sc, 501)
        j_shoot = control_cost(sc, shoot.times, shoot.u, 1e-3)
        j_oracle = control_cost(sc, oracle.times, oracle.u, 1e-3)
        assert j_shoot <= j_oracle * (1.0 + 1e-3)

    def test_grid_floor(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        with pytest.raises(ValueError):
            transcription_oracle(sc, 49)

    def test_rejects_group_scenarios(self):
        sc = AvoidanceScenario(
            dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
            q0=exp_so3([0.1, 0.0, 0.0]), v0=np.zeros(3),
            manifold="so3-biinvariant", mode="terminal")
        with pytest.raises(ValueError):
            transcription_oracle(sc, 101)

    def test_each_control_grid_is_rolled_out_once(self, monkeypatch):
        # The gradient reads the states and the potential gradient the
        # trial's evaluation formed, so the rollouts are the cost
        # evaluations plus at most a final one, and recomputing the states
        # and grad(U + V) with _grad_potential changes no bit of the control.
        sc = criterion_09_scenario()
        rollout, evaluate, gradient = pmp._batched_rollout, pmp._evaluate, pmp._cost_gradient
        counts = {"rollouts": 0, "costs": 0}

        def count(key, fn, rows):
            def counted(scenario, controls, *args):
                counts[key] += rows(controls)
                return fn(scenario, controls, *args)
            return counted

        monkeypatch.setattr(pmp, "_batched_rollout", count("rollouts", rollout, len))
        monkeypatch.setattr(pmp, "_evaluate", count("costs", evaluate, lambda u: 1))
        reused = transcription_oracle(sc, 201, max_iter=200)
        assert counts["costs"] <= counts["rollouts"] <= counts["costs"] + 1
        assert counts["rollouts"] < 2 * reused.iterations

        def recomputed(u, pull, v, ht, w, alpha_w):
            q, v = rollout(sc, u[None], ht)
            return gradient(u, pmp._grad_potential(sc, q[0])[0], v[0], ht, w, alpha_w)

        monkeypatch.setattr(pmp, "_cost_gradient", recomputed)
        fresh = transcription_oracle(sc, 201, max_iter=200)
        assert np.array_equal(reused.u, fresh.u)
        assert np.array_equal(reused.q, fresh.q)
        assert reused.cost == fresh.cost

    def test_batched_gradient_is_order_independent(self):
        # The finite-difference partials come from one batched rollout; they
        # must equal per-coordinate evaluation of one grid at a time.
        from geolqr.pmp import _batched_rollout, _evaluate, running_cost

        sc = AvoidanceScenario(dimension=2, alpha=0.5, target=[1.0, 0.2],
                               horizon=1.0, q0=[-1.0, 0.0], v0=[0.0, 0.0],
                               obstacles=(SphereObstacle(np.array([0.0, 0.1]), 0.3),))
        n_grid, n = 60, 2
        ht = sc.horizon / (n_grid - 1)
        weights = np.full(n_grid, ht)
        weights[0] = weights[-1] = 0.5 * ht
        rng = np.random.default_rng(64)
        u = 0.1 * rng.standard_normal((n_grid, n))
        eps = 1e-6
        n_vars = n_grid * n
        eye = np.eye(n_vars).reshape(n_vars, n_grid, n)
        batch = np.concatenate([u[None] + eps * eye, u[None] - eps * eye])
        q, v = _batched_rollout(sc, batch, ht)
        costs = running_cost(sc, q, v, batch) @ weights
        # Order independence proper: shuffling the batch rows permutes the
        # states bit-for-bit.
        perm = rng.permutation(batch.shape[0])
        shuffled = _batched_rollout(sc, batch[perm], ht)
        assert np.array_equal(shuffled[0], q[perm]) and np.array_equal(shuffled[1], v[perm])
        # And the batched partials match sequential per-coordinate
        # evaluation within the oracle's own finite-difference accuracy.
        grad_batched = (costs[:n_vars] - costs[n_vars:]) / (2.0 * eps)
        for flat_index in (0, 17, 59, 118):
            k, a = divmod(flat_index, n)
            up = u.copy()
            up[k, a] += eps
            dn = u.copy()
            dn[k, a] -= eps
            cp = _evaluate(sc, up, ht, weights)[0]
            cm = _evaluate(sc, dn, ht, weights)[0]
            assert abs(grad_batched[flat_index] - (cp - cm) / (2.0 * eps)) <= 1e-6


    @pytest.mark.parametrize("with_obstacle", [False, True])
    def test_adjoint_gradient_matches_central_differences(self, with_obstacle):
        from geolqr.pmp import _cost_gradient, _evaluate, _trapezoid_weights

        obstacles = (SphereObstacle(np.array([0.0, 0.1]), 0.3),) if with_obstacle else ()
        sc = AvoidanceScenario(dimension=2, alpha=0.5, target=[1.0, 0.2],
                               horizon=1.0, q0=[-1.0, 0.0], v0=[0.3, -0.1],
                               obstacles=obstacles)
        n_grid, n = 60, 2
        ht = sc.horizon / (n_grid - 1)
        weights = _trapezoid_weights(np.linspace(0.0, sc.horizon, n_grid))
        w = weights[:, None]
        rng = np.random.default_rng(66)
        eps = 1e-6
        n_vars = n_grid * n
        eye = np.eye(n_vars).reshape(n_vars, n_grid, n)
        for _ in range(3):
            u = 0.3 * rng.standard_normal((n_grid, n))
            costs = np.array([_evaluate(sc, x, ht, weights)[0]
                              for x in np.concatenate([u + eps * eye, u - eps * eye])])
            assert np.isfinite(costs).all()
            central = ((costs[:n_vars] - costs[n_vars:]) / (2.0 * eps)).reshape(n_grid, n)
            _, _, v, pull = _evaluate(sc, u, ht, weights)
            adjoint = _cost_gradient(u, pull, v, ht, w, sc.alpha * w)
            assert np.abs(adjoint - central).max() <= 1e-7

    def test_trace_names_the_stop_reason(self, monkeypatch):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        out = transcription_oracle(sc, 101, max_iter=3)
        assert out.trace == {"stop_reason": "max_iter", "grad_norm": out.residual_norm}
        trivial = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                                    q0=[0.0], v0=[0.0])
        assert transcription_oracle(trivial, 101).trace["stop_reason"] == "grad_tol"
        out = transcription_oracle(sc, 101)
        assert out.trace["stop_reason"] in ("grad_tol", "plateau")
        assert out.iterations < 5000
        # No gradient is small enough, and any window that does not halve
        # the cost is a plateau: the first full window stops the descent.
        monkeypatch.setattr(pmp, "ORACLE_GRAD_TOL", 0.0)
        monkeypatch.setattr(pmp, "ORACLE_PLATEAU_RTOL", 1.0)
        out = transcription_oracle(sc, 101)
        assert out.trace["stop_reason"] == "plateau"
        assert out.iterations == pmp.ORACLE_PLATEAU_WINDOW

    def test_stalled_line_search_raises_no_descent(self, monkeypatch):
        # Every trial costs 1.0 more than the start, so each line search
        # fails after its 60 halvings, and the 50th failure in a row raises.
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        real, costs = pmp._evaluate, []

        def costlier(*args):
            cost, q, v, pull = real(*args)
            costs.append(costs[0] + 1.0 if costs else cost)
            return costs[-1], q, v, pull

        monkeypatch.setattr(pmp, "_evaluate", costlier)
        with pytest.raises(NoDescent, match=f"stalled {pmp.ORACLE_MAX_STALLS} times"):
            transcription_oracle(sc, 101)
        assert len(costs) == 1 + pmp.ORACLE_MAX_STALLS * pmp.ORACLE_HALVINGS == 1 + 50 * 60

    def test_non_finite_gradient_raises_no_descent_at_once(self, monkeypatch):
        # The zero control's path runs through the obstacle, and two of its
        # samples land on its surface, O = 0, where the pull 2 d / O^2 and
        # so the gradient are not finite: no trial from there is finite.
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[1.0], horizon=1.0,
                               q0=[-1.0], v0=[2.0],
                               obstacles=(SphereObstacle(np.array([0.0]), 0.5),))
        real, calls = pmp._evaluate, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pmp, "_evaluate", counted)
        with pytest.raises(NoDescent, match="gradient not finite at iteration 1"):
            transcription_oracle(sc, 101)
        assert len(calls) <= 2

    @pytest.mark.parametrize("case", ["criterion_09", "two_obstacles"])
    def test_control_cost_is_the_oracle_cost(self, case):
        # control_cost at the oracle's own grid reads the oracle's one
        # evaluator: the same cost, bit for bit.
        sc = TestOracleEvaluation.scenario(case)
        oracle = transcription_oracle(sc, 201, max_iter=200)
        assert control_cost(sc, oracle.times, oracle.u, oracle.times[1]) == oracle.cost


class TestOracleEvaluation:
    """Each oracle trial's cost and potential gradient are running_cost's
    and _grad_potential's at its rollout, bit for bit."""

    @staticmethod
    def scenario(case):
        if case == "criterion_09":
            return criterion_09_scenario()
        if case == "touching":
            # In 1D every path to the target crosses the obstacle, and over
            # T = 4 the goal's pull drives some long trials into it.
            return AvoidanceScenario(dimension=1, alpha=1.0, target=[3.0], horizon=4.0,
                                     q0=[-2.0], v0=[0.0],
                                     obstacles=(SphereObstacle(np.array([0.0]), 0.5),))
        centers = [([-0.1, 0.28], 0.4), ([0.6, -0.2], 0.2), ([0.3, 0.5], 0.15)]
        k = {"two_obstacles": 2, "three_obstacles": 3}[case]
        return AvoidanceScenario(
            dimension=2, alpha=0.2, target=[1.2, 0.15], horizon=2.0, q0=[-1.2, 0.0],
            v0=[0.0, 0.0],
            obstacles=tuple(SphereObstacle(np.array(c), r) for c, r in centers[:k]))

    @staticmethod
    def assert_matches_reference(sc, u, ht, weights, trial):
        cost, q, v, pull = trial
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            qb, vb = pmp._batched_rollout(sc, u[None], ht)
            lvals = pmp.running_cost(sc, qb, vb, u[None])
            expected = lvals @ weights
            grad = pmp._grad_potential(sc, qb[0])[0]
            fused, fused_grad = pmp._lagrangian(sc, qb[0], vb[0], u)
            # The formula written out: the barriers are summed first, then
            # added to the rest of the cost.
            g, o = qb[0] - sc.target, np.array([obs.value(qb[0]) for obs in sc.obstacles])
            written = (0.5 * (row_dots(g, g) + row_dots(vb[0], vb[0]) + sc.alpha * row_dots(u, u))
                       + np.where(o <= 0.0, np.inf, 1.0 / o).sum(axis=0))
        assert fused.tobytes() == lvals[0].tobytes() == written.tobytes()
        expected[~np.isfinite(expected)] = np.inf
        assert np.float64(cost).tobytes() == expected.tobytes()
        assert q.tobytes() == qb[0].tobytes() and v.tobytes() == vb[0].tobytes()
        assert pull.tobytes() == grad.tobytes() == fused_grad.tobytes()
        return lvals[0]

    @pytest.mark.parametrize("case", ["criterion_09", "two_obstacles", "three_obstacles",
                                      "touching"])
    def test_every_trial_matches_running_cost_and_grad_potential(self, case, monkeypatch):
        sc = self.scenario(case)
        real, trials = pmp._evaluate, []

        def spy(scenario, u, ht, weights):
            trials.append((u, ht, weights, real(scenario, u, ht, weights)))
            return trials[-1][-1]

        monkeypatch.setattr(pmp, "_evaluate", spy)
        # The pyproject filter makes a geolqr RuntimeWarning an error; a
        # touching trial must raise none.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            transcription_oracle(sc, 101, max_iter=60)
        touched = [t for t in trials if t[-1][0] == np.inf]
        assert len(touched) > 0 if case == "touching" else touched == []
        for u, ht, weights, trial in trials:
            self.assert_matches_reference(sc, u, ht, weights, trial)

    def test_nan_row_stays_nan_until_the_cost(self):
        # A NaN control at row 10 makes every later state NaN: the running
        # cost from row 10 on is NaN, not +inf (trajectory_cost reads +inf
        # as a contact), and only the trial's cost maps to +inf.
        sc = self.scenario("two_obstacles")
        n_grid = 101
        times = np.linspace(0.0, sc.horizon, n_grid)
        ht, weights = times[1], pmp._trapezoid_weights(times)
        u = 0.1 * np.random.default_rng(30).standard_normal((n_grid, 2))
        u[10, 1] = np.nan
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            trial = pmp._evaluate(sc, u, ht, weights)
        assert trial[0] == np.inf
        lvals = self.assert_matches_reference(sc, u, ht, weights, trial)
        assert np.isnan(lvals[10:]).all() and np.isfinite(lvals[:10]).all()


class TestCostates:
    def test_zero_cost_gives_zero_costates(self):
        # Terminal mode at the target with v = u = 0: the running cost, the
        # terminal costate and the forcing all vanish.
        sc = AvoidanceScenario(dimension=2, alpha=1.0, target=[0.3, -0.4], horizon=1.0,
                               q0=[0.3, -0.4], v0=[0.0, 0.0], mode="terminal")
        times = np.linspace(0.0, 1.0, 101)
        q = np.tile(sc.target, (101, 1))
        zeros = np.zeros((101, 2))
        sol = BVPSolution(times=times, q=q, v=zeros, u=zeros, udot=zeros,
                          residual_norm=0.0, iterations=0, cost=0.0)
        ct = costate_integrate(sc, sol)
        assert np.abs(ct.p1).max() == 0.0
        assert np.abs(ct.p2).max() == 0.0
        assert np.abs(ct.hamiltonian).max() == 0.0

    @pytest.mark.parametrize("through", ["sample", "midpoint"])
    def test_path_through_obstacle_raises(self, through):
        # A straight path from -1 to 1 across an obstacle at the origin: a
        # grid sample lies inside it, or on the two-point grid only the
        # interval midpoint does.
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[1.0], horizon=1.0,
                               q0=[-1.0], v0=[2.0],
                               obstacles=(SphereObstacle(np.array([0.0]), 0.5),))
        n_pts = 11 if through == "sample" else 2
        times = np.linspace(0.0, 1.0, n_pts)
        q = np.linspace(-1.0, 1.0, n_pts)[:, None]
        v = np.full((n_pts, 1), 2.0)
        sol = BVPSolution(times=times, q=q, v=v, u=np.zeros((n_pts, 1)), udot=None,
                          residual_norm=0.0, iterations=0, cost=0.0)
        with pytest.raises(ObstacleContact):
            costate_integrate(sc, sol)

    @staticmethod
    def per_point_sweep(sc, sol):
        """The sweep as dynamics.rk4 over a per-stage rate: the potential
        gradient at each RK4 stage's point (the geodesic midpoint of a group
        interval), the terminal costate from log_so3, and H row by row."""
        times, q, v, u = sol.times, sol.q, sol.v, sol.u
        manifold = sc.manifold
        qr, vr = q[::-1], v[::-1]
        if sc.mode == "avoidance":
            terminal = (np.zeros(sc.dimension), np.zeros(sc.dimension))
        elif manifold == "flat":
            terminal = (q[-1] - sc.target, v[-1].copy())
        else:
            terminal = (log_so3(sc.target.T @ q[-1]), v[-1].copy())

        def at(x, k, theta):
            if theta == 0.0:
                return x[k]
            if theta == 1.0:
                return x[k + 1]
            if x.ndim == 3:
                return x[k] @ exp_so3(0.5 * log_so3(x[k].T @ x[k + 1]))
            return 0.5 * (x[k] + x[k + 1])

        def rate(k, theta, p):
            qk, vk = at(qr, k, theta), at(vr, k, theta)
            if sc.mode == "avoidance":
                gq, gv = pmp._grad_potential(sc, qk)[0], vk
            else:
                gq, gv = np.zeros_like(vk), np.zeros_like(vk)
            curv = curvature(vk, p[1], vk) if manifold == "so3-biinvariant" else 0.0
            d1 = -curv - gq
            d2 = -p[0] - gv
            if manifold == "so3-biinvariant":
                d1 = d1 - 0.5 * np.cross(vk, p[0])
                d2 = d2 - 0.5 * np.cross(vk, p[1])
            return np.array([d1, d2])

        ps = rk4(rate, np.array(terminal, dtype=float), np.asarray(times)[::-1])[::-1]
        p1, p2 = ps[:, 0], ps[:, 1]
        ham = np.array([float(p1[k] @ v[k]) + float(p2[k] @ u[k])
                        + float(pmp.running_cost(sc, q[k], v[k], u[k]))
                        for k in range(len(times))])
        return p1, p2, ham

    @pytest.mark.parametrize("case", ["criterion_09", "group_avoidance", "group_terminal"])
    def test_affine_sweep_matches_per_point_rk4(self, case):
        if case == "criterion_09":
            sc = criterion_09_scenario()
            sol = shooting_solve(sc)
        else:
            mode = case.split("_")[1]
            sc = AvoidanceScenario(
                dimension=3, alpha=1.0, target=exp_so3([0.0, 0.0, 0.0]), horizon=1.0,
                q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
                manifold="so3-biinvariant", mode=mode)
            sol = shooting_solve(sc, h=5e-3)
        ct = costate_integrate(sc, sol)
        p1, p2, ham = self.per_point_sweep(sc, sol)
        # The affine recurrence rounds differently from the stage-by-stage
        # sweep, by design; both are the same RK4 step.
        assert np.abs(ct.p1 - p1).max() <= 1e-13
        assert np.abs(ct.p2 - p2).max() <= 1e-13
        assert np.abs(ct.hamiltonian - ham).max() <= 1e-13

    def test_group_midpoints_are_rotations(self, monkeypatch):
        # The forcing reads the potential at every grid sample and interval
        # midpoint. On a path of exact rotations q0 exp(t w) the midpoints
        # are geodesic, so each is a rotation; a linear average of two
        # samples 0.12 rad apart is not (defect about 5e-3).
        sc = AvoidanceScenario(dimension=3, alpha=1.0, target=np.eye(3), horizon=1.0,
                               q0=exp_so3([0.7, -0.2, 0.4]), v0=np.zeros(3),
                               manifold="so3-biinvariant")
        times = np.linspace(0.0, 1.0, 21)
        w = np.array([1.0, -2.0, 0.5])
        q = np.array([sc.q0 @ exp_so3(t * w) for t in times])
        v = np.tile(w, (21, 1))
        sol = BVPSolution(times=times, q=q, v=v, u=np.zeros((21, 3)), udot=None,
                          residual_norm=0.0, iterations=0, cost=0.0)
        seen = []
        original = pmp._grad_potential

        def spy(scenario, points, *goal_error):
            seen.append(points)
            return original(scenario, points, *goal_error)

        monkeypatch.setattr(pmp, "_grad_potential", spy)
        costate_integrate(sc, sol)
        # The forcing's samples and midpoints, then H's running cost.
        assert [len(points) for points in seen] == [21, 20, 21]
        assert max(orthogonality_defect(r) for r in seen[1]) <= 1e-12
        linear = 0.5 * (q[:-1] + q[1:])
        assert min(orthogonality_defect(r) for r in linear) > 1e-3


class TestCostateIsValueGradient:
    """Dynamic programming certifies the PMP: where the value function V
    is smooth, the costate at t = 0 is its gradient, p(0) = grad V(q0, v0)
    (Liberzon 2012, ch. 5). grad V is read as central differences of the
    re-solved BVPSolution.cost."""

    EPS = 1e-4

    def central_differences(self, solve, n):
        """dJ/dx_i for x = (dq, dv) in R^2n, from solve(dq, dv).cost."""
        out = np.empty(2 * n)
        for i, e in enumerate(self.EPS * np.eye(2 * n)):
            up, down = solve(e[:n], e[n:]).cost, solve(-e[:n], -e[n:]).cost
            out[i] = (up - down) / (2.0 * self.EPS)
        return out

    def test_flat_gap_is_second_order(self):
        base_sc = criterion_09_scenario()
        gaps = []
        for h in (1e-3, 5e-4):
            base = shooting_solve(base_sc, h=h)
            ct = costate_integrate(base_sc, base)

            def solve(dq, dv):
                sc = replace(base_sc, q0=base_sc.q0 + dq, v0=base_sc.v0 + dv)
                return shooting_solve(sc, h=h, start=base)

            fd = self.central_differences(solve, 2)
            gaps.append(np.abs(np.concatenate([ct.p1[0], ct.p2[0]]) - fd).max())
        assert gaps[0] <= 2e-6 and gaps[1] <= 5e-7
        assert gaps[0] / gaps[1] >= 3.0

    @pytest.mark.parametrize("mode", ["avoidance", "terminal"])
    def test_group_gap_needs_the_connection(self, mode):
        # q0 moves as q0 exp(eps e_i) with v0 held in body coordinates, which
        # is not parallel along that curve: dJ/deps = p1 + (v0 x p2) / 2.
        base_sc = AvoidanceScenario(dimension=3, alpha=0.5, target=np.eye(3), horizon=2.0,
                                    q0=exp_so3([0.9, -0.4, 0.3]),
                                    v0=np.array([0.2, 0.1, -0.3]),
                                    manifold="so3-biinvariant", mode=mode)
        h = 4e-3
        ct = costate_integrate(base_sc, shooting_solve(base_sc, h=h))

        def solve(dq, dv):
            sc = replace(base_sc, q0=base_sc.q0 @ exp_so3(dq), v0=base_sc.v0 + dv)
            return shooting_solve(sc, h=h)

        p1, p2 = ct.p1[0], ct.p2[0]
        fd = self.central_differences(solve, 3)
        want = np.concatenate([p1 + 0.5 * np.cross(base_sc.v0, p2), p2])
        assert np.abs(want - fd).max() <= 2e-5
        assert np.abs(np.concatenate([p1, p2]) - fd).max() > 1e-2


class TestRiccatiCertifiesExtremal:
    """On the group with J = I and no obstacles, the avoidance cost
    U + |v|^2/2 + (alpha/2)|u|^2 is the LQR cost with Q = I, R = alpha of
    the reconciled drift at gamma = 0, per axis in exponential coordinates.
    The PMP extremal and the DRE feedback then agree up to curvature, which
    enters at second order in the size s of the start."""

    ALPHA, HORIZON, H = 0.5, 3.0, 2e-3
    AXIS = np.array([1.0, 2.0, 2.0]) / 3.0
    SPIN = np.array([2.0, 1.0, -2.0]) / 3.0  # orthogonal to AXIS

    def gaps(self, s, spin):
        """Relative gaps of u to -(k3 e + k2 v)/alpha, of (p1, p2) to
        grad V = (k1 e + k3 v, k3 e + k2 v) along the extremal, and of its
        cost to V(0)."""
        sc = AvoidanceScenario(
            dimension=3, alpha=self.ALPHA, target=np.eye(3), horizon=self.HORIZON,
            q0=exp_so3(s * self.AXIS), v0=spin * s * self.SPIN, manifold="so3-biinvariant")
        sol = shooting_solve(sc, h=self.H)
        ct = costate_integrate(sc, sol)
        k = dre_integrate(drift_matrix("reconciled", 0.0), np.eye(2), self.ALPHA,
                          self.HORIZON, h=self.H)
        assert np.array_equal(k.times, sol.times)
        k1, k2, k3 = k.k1[:, None], k.k2[:, None], k.k3[:, None]
        e, v = attitude_errors(np.broadcast_to(np.eye(3), sol.q.shape), sol.q), sol.v
        g1, g2 = k1 * e + k3 * v, k3 * e + k2 * v
        value0 = 0.5 * (e[0] @ g1[0] + v[0] @ g2[0])
        rel = lambda x, y: float(np.abs(x - y).max() / np.abs(y).max())
        return np.array([rel(sol.u, -g2 / self.ALPHA), rel(ct.p1, g1), rel(ct.p2, g2),
                         rel(sol.cost, value0)])

    def test_gap_is_second_order_in_the_start(self):
        ratio = self.gaps(0.2, 1.0) / self.gaps(0.1, 1.0)
        assert ratio.min() >= 3.5 and ratio.max() <= 4.5

    def test_one_axis_motion_has_no_gap(self):
        # With v0 = 0 the extremal stays on one rotation axis, a flat
        # subgroup: what is left is discretisation error.
        assert self.gaps(0.2, 0.0).max() <= 1e-6


class TestGroupExtremalReplay:
    """With J = I the simulator's Lie-Euler update is w + h tau, and the
    extremal's v' is u, so the group extremal's u, fed to dynamics.simulate
    as a torque table, retraces the extremal to first order in the step."""

    @pytest.mark.parametrize("mode", pmp.MODES)
    def test_attitude_gap_halves_with_the_step(self, mode):
        gaps = []
        for h in (4e-3, 2e-3):
            sc = AvoidanceScenario(
                dimension=3, alpha=0.5, target=np.eye(3), horizon=2.0,
                q0=exp_so3([0.9, -0.4, 0.3]), v0=np.array([0.2, 0.1, -0.3]),
                manifold="so3-biinvariant", mode=mode)
            sol = shooting_solve(sc, h=h)
            log = simulate(lambda r, w, a, b, c: (a, b, c), RigidBodyState(sol.q[0], sol.v[0]),
                           SimParams(h, sc.horizon, InertiaTensor(np.eye(3))),
                           tables=tuple(sol.u.T))
            assert len(log) == len(sol.times)
            gaps.append(np.linalg.norm(attitude_errors(sol.q, log.rotations), axis=1).max())
        assert 1.9 <= gaps[0] / gaps[1] <= 2.1


class TestScenarioValidation:
    def test_rejects_start_inside_obstacle(self):
        with pytest.raises(ValueError):
            AvoidanceScenario(dimension=1, alpha=1.0, target=[2.0], horizon=1.0,
                              q0=[0.1], v0=[0.0],
                              obstacles=(SphereObstacle(np.array([0.0]), 0.5),))

    def test_start_inside_obstacle_names_the_index(self):
        obstacles = (SphereObstacle(np.array([3.0]), 0.5), SphereObstacle(np.array([0.0]), 0.5))
        with pytest.raises(ValidationError) as err:
            AvoidanceScenario(dimension=1, alpha=1.0, target=[2.0], horizon=1.0,
                              q0=[0.1], v0=[0.0], obstacles=obstacles)
        assert err.value.path == "obstacles[1]"

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AvoidanceScenario(dimension=1, alpha=0.0, target=[0.0], horizon=1.0,
                              q0=[1.0], v0=[0.0])


def test_trajectory_cost_matches_manual_trapezoid():
    sc = AvoidanceScenario(dimension=1, alpha=2.0, target=[0.0], horizon=1.0,
                           q0=[1.0], v0=[0.0])
    times = np.linspace(0.0, 1.0, 11)
    q = np.linspace(1.0, 0.5, 11)[:, None]
    v = np.full((11, 1), -0.5)
    u = np.zeros((11, 1))
    lvals = 0.5 * q[:, 0] ** 2 + 0.5 * 0.25 + 0.0
    expected = float(np.sum(0.5 * (lvals[1:] + lvals[:-1]) * np.diff(times)))
    assert abs(trajectory_cost(sc, times, q, v, u) - expected) <= 1e-12


class TestOneCostFunctional:
    """Every cost evaluator reads the one running cost."""

    def test_evaluators_agree_on_batched_rollouts(self):
        from geolqr.pmp import _batched_rollout, _evaluate, _trapezoid_weights

        sc = AvoidanceScenario(dimension=2, alpha=0.5, target=[1.0, 0.2],
                               horizon=1.0, q0=[-1.0, 0.0], v0=[0.0, 0.0],
                               obstacles=(SphereObstacle(np.array([0.0, 0.1]), 0.3),))
        n_grid = 80
        times = np.linspace(0.0, sc.horizon, n_grid)
        ht = sc.horizon / (n_grid - 1)
        weights = _trapezoid_weights(times)
        rng = np.random.default_rng(11)
        controls = 0.2 * rng.standard_normal((5, n_grid, 2))
        q, v = _batched_rollout(sc, controls, ht)
        costs = [_evaluate(sc, u, ht, weights)[0] for u in controls]
        assert np.isfinite(costs).all()
        for b in range(controls.shape[0]):
            j = trajectory_cost(sc, times, q[b], v[b], controls[b])
            assert abs(j - costs[b]) <= 1e-12 * abs(costs[b])

        # Constant thrust along x drives the path straight through the obstacle.
        through = np.zeros((1, n_grid, 2))
        through[..., 0] = 4.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert _evaluate(sc, through[0], ht, weights)[0] == np.inf
        qt, vt = _batched_rollout(sc, through, ht)
        with pytest.raises(ObstacleContact):
            trajectory_cost(sc, times, qt[0], vt[0], through[0])

    def test_group_running_cost_matches_lagrangian(self):
        from geolqr.pmp import running_cost

        sc = AvoidanceScenario(dimension=3, alpha=2.0, target=exp_so3([0.2, -0.1, 0.3]),
                               horizon=1.0, q0=np.eye(3), v0=np.zeros(3),
                               manifold="so3-biinvariant")
        rng = np.random.default_rng(12)
        q = np.array([exp_so3(0.5 * rng.standard_normal(3)) for _ in range(20)])
        v = rng.standard_normal((20, 3))
        u = rng.standard_normal((20, 3))
        lvals = running_cost(sc, q, v, u)
        for k in range(20):
            g = log_so3(sc.target.T @ q[k])
            expected = 0.5 * (g @ g + v[k] @ v[k] + 2.0 * u[k] @ u[k])
            assert lvals[k] == pytest.approx(expected, rel=1e-13)
