"""Curvature, variational propagation, costates, and the boundary-value
solvers, cross-validated against independent oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from geolqr import pmp
from geolqr.dynamics import FlatState, flat_step, rk4
from geolqr.errors import NoConvergence, ObstacleContact
from geolqr.pmp import (
    AvoidanceLagrangian,
    AvoidanceScenario,
    ControlEffortLagrangian,
    SphereObstacle,
    avoidance_rhs,
    control_cost,
    costate_integrate,
    curvature,
    shooting_solve,
    trajectory_cost,
    transcription_oracle,
    variational_propagate,
)
from geolqr.so3 import exp_so3, hat, log_so3, vee


class TestCurvature:
    def test_flat_is_zero(self):
        rng = np.random.default_rng(61)
        out = curvature("flat", rng.standard_normal(4), rng.standard_normal(4),
                        rng.standard_normal(4))
        assert np.array_equal(out, np.zeros(4))

    def test_antisymmetry_in_first_slots(self):
        x = np.array([0.3, -0.8, 0.5])
        assert np.allclose(curvature("so3-biinvariant", x, x, [1.0, 2.0, 3.0]),
                           np.zeros(3), atol=1e-15)

    def test_bracket_arithmetic_oracle(self):
        # -[[hat X, hat Y], hat Z]/4 evaluated with explicit matrix brackets.
        rng = np.random.default_rng(62)
        for _ in range(20):
            x, y, z = rng.standard_normal((3, 3))
            hx, hy, hz = hat(x), hat(y), hat(z)
            bracket = (hx @ hy - hy @ hx)
            expected = vee(-0.25 * (bracket @ hz - hz @ bracket))
            assert np.allclose(curvature("so3-biinvariant", x, y, z), expected,
                               atol=1e-12)

    def test_positive_sectional_curvature(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        r = curvature("so3-biinvariant", x, y, y)
        assert np.allclose(r, [0.25, 0.0, 0.0], atol=1e-15)
        assert float(r @ x) > 0.0

    def test_unknown_manifold(self):
        with pytest.raises(ValueError):
            curvature("hyperbolic", np.zeros(3), np.zeros(3), np.zeros(3))


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


class TestAvoidanceRhs:
    def scenario_1d(self, obstacles=()):
        return AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                                 q0=[1.0], v0=[0.0], obstacles=obstacles)

    def test_equilibrium_at_target(self):
        sc = AvoidanceScenario(dimension=2, alpha=0.7, target=[0.3, -0.2],
                               horizon=1.0, q0=[1.0, 0.0], v0=[0.0, 0.0])
        out = avoidance_rhs(np.zeros(2), np.zeros(2), np.array([0.3, -0.2]),
                            np.zeros(2), sc)
        assert np.array_equal(out, np.zeros(2))

    def test_linear_form_without_obstacles(self):
        # (u - (q - q*)) / alpha: the gradient sign the costate system
        # demands.
        sc = self.scenario_1d()
        rng = np.random.default_rng(63)
        for _ in range(20):
            u = rng.standard_normal(1)
            q = rng.standard_normal(1)
            out = avoidance_rhs(u, np.zeros(1), q, np.zeros(1), sc)
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
        base = avoidance_rhs(np.zeros(2), np.zeros(2), q, np.zeros(2), sc)
        no_obs = AvoidanceScenario(dimension=2, alpha=1.0, target=[2.0, 0.0],
                                   horizon=1.0, q0=[-2.0, 0.0], v0=[0.0, 0.0])
        plain = avoidance_rhs(np.zeros(2), np.zeros(2), q, np.zeros(2), no_obs)
        barrier_term = base - plain
        assert np.abs(barrier_term - (-grad_fd)).max() <= 1e-6

    def test_contact_raises(self):
        obs = SphereObstacle(np.array([0.0]), 0.5)
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[2.0], horizon=1.0,
                               q0=[-2.0], v0=[0.0], obstacles=(obs,))
        with pytest.raises(ObstacleContact):
            avoidance_rhs(np.zeros(1), np.zeros(1), np.array([0.1]), np.zeros(1), sc)


class TestShooting:
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
        lag = AvoidanceLagrangian(sc)
        ct = costate_integrate(sol.times, sol.q, sol.v, sol.u, lag,
                               (np.zeros(1), np.zeros(1)))
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
        lag = ControlEffortLagrangian(a)
        ct = costate_integrate(sol.times, sol.q, sol.v, sol.u, lag,
                               (grad_t, sol.v[-1].copy()),
                               manifold="so3-biinvariant")
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
        lag = AvoidanceLagrangian(sc)
        ct = costate_integrate(sol.times, sol.q, sol.v, sol.u, lag,
                               (np.zeros(3), np.zeros(3)),
                               manifold="so3-biinvariant")
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
        grad_t = sol.q[-1] - sc.target
        lag = ControlEffortLagrangian(sc.alpha)
        ct = costate_integrate(sol.times, sol.q, sol.v, sol.u, lag,
                               (grad_t, sol.v[-1].copy()))
        assert np.abs(-ct.p2 / sc.alpha - sol.u).max() <= 1e-3
        assert float(ct.hamiltonian.max() - ct.hamiltonian.min()) <= 1e-3

    def test_no_convergence_budget(self):
        sc = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                               q0=[1.0], v0=[0.0])
        with pytest.raises(NoConvergence):
            shooting_solve(sc, max_iter=0, tol=1e-12)

    def test_stiff_blowup_reported_not_silently_converged(self):
        # alpha = 1e-4 makes the coupled system grow like exp(100 t); the
        # zero-guess trajectory overflows and that must surface as an error,
        # never as a converged NaN residual.
        sc = AvoidanceScenario(dimension=1, alpha=1e-4, target=[0.0], horizon=2.0,
                               q0=[1.0], v0=[0.0])
        with pytest.raises(NoConvergence):
            shooting_solve(sc, h=1e-3)


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

    def spy(scenario, x0, h):
        *out, contact = original(scenario, x0, h)
        if edit is not None:
            edit(len(flags), contact)
        flags.append(contact.copy())
        return (*out, contact)

    monkeypatch.setattr(pmp, "_integrate_extremal", spy)
    return flags


class TestBatchedShooting:
    @pytest.mark.parametrize("case", ["flat", "group"])
    def test_each_row_equals_its_own_rollout(self, case):
        if case == "flat":
            sc, h = criterion_09_scenario(), 1e-3
        else:
            sc, h = AvoidanceScenario(
                dimension=3, alpha=0.5, target=exp_so3([0.1, 0.2, -0.1]), horizon=1.0,
                q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
                manifold="so3-biinvariant"), 5e-3
        m = 2 * sc.tangent_dim
        rng = np.random.default_rng(65)
        x = 0.5 * rng.standard_normal(m)
        batch = np.vstack([x, x + np.diag(np.full(m, 1e-3))])
        times, *rows, contact = pmp._integrate_extremal(sc, batch, h)
        assert not contact.any()
        for b in range(m + 1):
            _, *alone, contact_b = pmp._integrate_extremal(sc, batch[b:b + 1], h)
            assert not contact_b.any()
            for together, single in zip(rows, alone):
                assert np.abs(together[b] - single[0]).max() <= 1e-15

    def test_criterion_09_iterate_unchanged(self):
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

        spy_sweeps(monkeypatch, flag_perturbations)
        sol = shooting_solve(sc, h=1e-2)
        assert sol.iterations == 1 and sol.residual_norm <= 1e-6


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

    def test_batched_gradient_is_order_independent(self):
        # The finite-difference partials come from one batched rollout; they
        # must equal per-coordinate sequential evaluation exactly (pure cost).
        from geolqr.pmp import _batched_costs

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
        costs = _batched_costs(sc, batch, ht, weights)
        # Order independence proper: shuffling the batch rows permutes the
        # costs bit-for-bit.
        perm = rng.permutation(batch.shape[0])
        shuffled = _batched_costs(sc, batch[perm], ht, weights)
        assert np.array_equal(shuffled, costs[perm])
        # And the batched partials match sequential per-coordinate
        # evaluation within the oracle's own finite-difference accuracy.
        grad_batched = (costs[:n_vars] - costs[n_vars:]) / (2.0 * eps)
        for flat_index in (0, 17, 59, 118):
            k, a = divmod(flat_index, n)
            up = u.copy()
            up[k, a] += eps
            dn = u.copy()
            dn[k, a] -= eps
            cp = float(_batched_costs(sc, up[None], ht, weights)[0])
            cm = float(_batched_costs(sc, dn[None], ht, weights)[0])
            assert abs(grad_batched[flat_index] - (cp - cm) / (2.0 * eps)) <= 1e-6


    @pytest.mark.parametrize("with_obstacle", [False, True])
    def test_adjoint_gradient_matches_central_differences(self, with_obstacle):
        from geolqr.pmp import _batched_costs, _cost_gradient, _trapezoid_weights

        obstacles = (SphereObstacle(np.array([0.0, 0.1]), 0.3),) if with_obstacle else ()
        sc = AvoidanceScenario(dimension=2, alpha=0.5, target=[1.0, 0.2],
                               horizon=1.0, q0=[-1.0, 0.0], v0=[0.3, -0.1],
                               obstacles=obstacles)
        n_grid, n = 60, 2
        ht = sc.horizon / (n_grid - 1)
        weights = _trapezoid_weights(np.linspace(0.0, sc.horizon, n_grid))
        rng = np.random.default_rng(66)
        eps = 1e-6
        n_vars = n_grid * n
        eye = np.eye(n_vars).reshape(n_vars, n_grid, n)
        for _ in range(3):
            u = 0.3 * rng.standard_normal((n_grid, n))
            costs = _batched_costs(sc, np.concatenate([u[None] + eps * eye,
                                                       u[None] - eps * eye]), ht, weights)
            assert np.isfinite(costs).all()
            central = ((costs[:n_vars] - costs[n_vars:]) / (2.0 * eps)).reshape(n_grid, n)
            adjoint = _cost_gradient(sc, u, ht, weights)
            assert np.abs(adjoint - central).max() <= 1e-7

    def test_trace_names_the_stop_reason(self):
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


class TestCostates:
    def test_zero_cost_gives_zero_costates(self):
        times = np.linspace(0.0, 1.0, 101)
        q = np.zeros((101, 2))
        v = np.tile([0.5, -0.2], (101, 1))
        u = np.zeros((101, 2))

        class ZeroLagrangian:
            def value(self, q, v, u):
                return 0.0

            def grad_q(self, q, v, u):
                return np.zeros(2)

            def grad_v(self, q, v, u):
                return np.zeros(2)

        ct = costate_integrate(times, q, v, u, ZeroLagrangian(),
                               (np.zeros(2), np.zeros(2)))
        assert np.abs(ct.p1).max() == 0.0
        assert np.abs(ct.p2).max() == 0.0
        assert np.abs(ct.hamiltonian).max() == 0.0

    @staticmethod
    def per_point_sweep(times, q, v, u, lagrangian, terminal, manifold):
        """The sweep as it was written before the forcing became array passes:
        the lagrangian evaluated at each RK4 stage's point, and H row by row."""
        qr, vr, ur = q[::-1], v[::-1], u[::-1]

        def at(x, k, theta):
            if theta == 0.0:
                return x[k]
            if theta == 1.0:
                return x[k + 1]
            return 0.5 * (x[k] + x[k + 1])

        def rate(k, theta, p):
            qk, vk, uk = at(qr, k, theta), at(vr, k, theta), at(ur, k, theta)
            d1 = -curvature(manifold, vk, p[1], vk) - lagrangian.grad_q(qk, vk, uk)
            d2 = -p[0] - lagrangian.grad_v(qk, vk, uk)
            if manifold == "so3-biinvariant":
                d1 = d1 - 0.5 * np.cross(vk, p[0])
                d2 = d2 - 0.5 * np.cross(vk, p[1])
            return np.array([d1, d2])

        ps = rk4(rate, np.array(terminal, dtype=float), np.asarray(times)[::-1])[::-1]
        p1, p2 = ps[:, 0], ps[:, 1]
        ham = np.array([float(p1[k] @ v[k]) + float(p2[k] @ u[k])
                        + float(lagrangian.value(q[k], v[k], u[k]))
                        for k in range(len(times))])
        return p1, p2, ham

    @pytest.mark.parametrize("case", ["criterion_09", "group_avoidance", "group_terminal"])
    def test_array_forcing_is_bit_identical_to_per_point_sweep(self, case):
        if case == "criterion_09":
            sc = criterion_09_scenario()
            sol = shooting_solve(sc)
            lag, terminal, manifold = AvoidanceLagrangian(sc), (np.zeros(2), np.zeros(2)), "flat"
        else:
            mode = case.split("_")[1]
            sc = AvoidanceScenario(
                dimension=3, alpha=1.0, target=exp_so3([0.0, 0.0, 0.0]), horizon=1.0,
                q0=exp_so3([0.7, -0.2, 0.4]), v0=np.array([0.05, -0.1, 0.02]),
                manifold="so3-biinvariant", mode=mode)
            sol = shooting_solve(sc, h=5e-3)
            manifold = sc.manifold
            if mode == "avoidance":
                lag, terminal = AvoidanceLagrangian(sc), (np.zeros(3), np.zeros(3))
            else:
                lag = ControlEffortLagrangian(sc.alpha)
                terminal = (log_so3(sc.target.T @ sol.q[-1]), sol.v[-1].copy())
        ct = costate_integrate(sol.times, sol.q, sol.v, sol.u, lag, terminal,
                               manifold=manifold)
        p1, p2, ham = self.per_point_sweep(sol.times, sol.q, sol.v, sol.u, lag,
                                           terminal, manifold)
        assert ct.p1.tobytes() == p1.tobytes()
        assert ct.p2.tobytes() == p2.tobytes()
        assert ct.hamiltonian.tobytes() == ham.tobytes()


class TestScenarioValidation:
    def test_rejects_start_inside_obstacle(self):
        with pytest.raises(ValueError):
            AvoidanceScenario(dimension=1, alpha=1.0, target=[2.0], horizon=1.0,
                              q0=[0.1], v0=[0.0],
                              obstacles=(SphereObstacle(np.array([0.0]), 0.5),))

    def test_start_inside_obstacle_names_the_index(self):
        obstacles = (SphereObstacle(np.array([3.0]), 0.5), SphereObstacle(np.array([0.0]), 0.5))
        with pytest.raises(pmp.StartInsideObstacle) as err:
            AvoidanceScenario(dimension=1, alpha=1.0, target=[2.0], horizon=1.0,
                              q0=[0.1], v0=[0.0], obstacles=obstacles)
        assert err.value.index == 1

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
        from geolqr.pmp import (_batched_costs, _batched_rollout, _trapezoid_weights,
                                running_cost)

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
        costs = _batched_costs(sc, controls, ht, weights)
        assert np.isfinite(costs).all()
        lagrangian = AvoidanceLagrangian(sc)
        for b in range(controls.shape[0]):
            j = trajectory_cost(sc, times, q[b], v[b], controls[b])
            assert abs(j - costs[b]) <= 1e-12 * abs(costs[b])
            lvals = running_cost(sc, q[b], v[b], controls[b])
            for k in range(n_grid):
                assert lagrangian.value(q[b, k], v[b, k], controls[b, k]) == \
                    pytest.approx(lvals[k], rel=1e-14)

        # Constant thrust along x drives the path straight through the obstacle.
        through = np.zeros((1, n_grid, 2))
        through[..., 0] = 4.0
        assert _batched_costs(sc, through, ht, weights)[0] == np.inf
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
        lagrangian = AvoidanceLagrangian(sc)
        for k in range(20):
            g = log_so3(sc.target.T @ q[k])
            expected = 0.5 * (g @ g + v[k] @ v[k] + 2.0 * u[k] @ u[k])
            assert lvals[k] == pytest.approx(expected, rel=1e-13)
            assert lagrangian.value(q[k], v[k], u[k]) == pytest.approx(lvals[k], rel=1e-14)
