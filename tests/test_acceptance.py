"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured figure. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 10 runs with the undiscounted scalar-consistent Riccati solution
and its induced feedback on the criterion-4 scenario; the published
regulation gains do not satisfy the scalar system, so the exact value
identity holds only for the consistent solution. Criterion 5 enables the
feedforward acceleration term: without it the loop provably settles at the
structural lag |wdot_ref| / kP = 0.08 > 0.05 (pinned in test_regulators).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from geolqr.dynamics import InertiaTensor, RigidBodyState, SimParams, simulate, time_grid
from geolqr.pmp import (
    AvoidanceScenario,
    SphereObstacle,
    control_cost,
    costate_integrate,
    shooting_solve,
    transcription_oracle,
    variational_propagate,
)
from geolqr.regulators import TrackingReference, regulation_controller, tracking_controller
from geolqr.riccati import (
    CostParams,
    are_residual,
    are_solve,
    dre_integrate,
    drift_matrix,
    scalar_residual,
)
from geolqr.so3 import exp_so3, geodesic_distance, log_so3, orthogonality_defect

Q2 = np.eye(2)
J123 = InertiaTensor.diagonal([1.0, 2.0, 3.0])


def test_criterion_01_regulation_gain_table():
    a = drift_matrix("published-regulation")
    are_solve(a, Q2, 0.5)  # warm-up outside the timed call
    start = time.perf_counter()
    sol = are_solve(a, Q2, 0.5)
    elapsed = time.perf_counter() - start
    g = sol.gains(0.5)
    assert abs(g.kP - 1.4142) <= 1e-3
    assert abs(g.kD - 2.7671) <= 1e-3
    assert elapsed < 1e-3
    print(f"criterion 01 PASS: regulation gains ({g.kP:.5f}, {g.kD:.5f}) "
          f"in {elapsed * 1e6:.0f} us")


def test_criterion_02_tracking_gain_table():
    a = drift_matrix("published-tracking", gamma=-2.0)
    assert np.array_equal(a, [[2.0, 2.0], [0.0, 2.0]])
    are_solve(a, Q2, 1.0)
    start = time.perf_counter()
    sol = are_solve(a, Q2, 1.0)
    elapsed = time.perf_counter() - start
    g = sol.gains(1.0)
    assert abs(g.kP - 8.7852) <= 1e-3
    assert abs(g.kD - 8.3357) <= 1e-3
    assert elapsed < 1e-3
    print(f"criterion 02 PASS: tracking gains ({g.kP:.5f}, {g.kD:.5f}) "
          f"in {elapsed * 1e6:.0f} us")


def test_criterion_03_scalar_matrix_consistency():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        gamma = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.1, 10.0)
        sol = are_solve(drift_matrix("reconciled", gamma), Q2, alpha)
        res = scalar_residual(sol, CostParams(alpha=alpha, gamma=gamma))
        worst = max(worst, float(np.abs(res).max()))
    assert worst <= 1e-9
    print(f"criterion 03 PASS: worst scalar residual {worst:.2e} over 50 draws")


def _criterion4_run(h, t_end, gains, sol):
    """The criterion-4 closed loop: its log and the channels computed from it."""
    goal = np.eye(3)

    def channels(s, tau):
        e = log_so3(s.r)  # goal is the identity
        d2 = float(e @ e)
        w2 = float(s.w @ s.w)
        return {
            "dist": math.sqrt(d2),
            "lyap": gains.kP * 0.5 * d2 + 0.5 * w2,
            "value": sol.k1 * 0.5 * d2 + 0.5 * sol.k2 * w2 + sol.k3 * float(e @ s.w),
            "tau2": float(tau @ tau),
            "cost_rate": 0.5 * d2 + 0.5 * w2 + 0.25 * float(tau @ tau),
        }

    init = RigidBodyState(exp_so3([0.9, -0.4, 0.2]), np.zeros(3))
    law, tables = regulation_controller(goal, gains)
    log = simulate(law, init, SimParams(h, t_end, J123), tables=tables)
    rows = [channels(RigidBodyState(r, w), tau)
            for r, w, tau in zip(log.rotations, log.omegas, log.torques)]
    return log, {name: np.array([row[name] for row in rows]) for name in rows[0]}


def test_criterion_04_regulation_convergence():
    sol = are_solve(drift_matrix("published-regulation"), Q2, 0.5)
    gains = sol.gains(0.5)
    start = time.perf_counter()
    log, channels = _criterion4_run(1e-3, 20.0, gains, sol)
    elapsed = time.perf_counter() - start
    dist = channels["dist"]
    final_w = float(np.linalg.norm(log.omegas[-1]))
    assert dist[-1] <= 1e-2
    assert final_w <= 1e-2
    # Non-increasing after the first step, up to the h^2 |tau|^2 kinetic
    # energy the explicit velocity update injects while omega ramps up.
    ly = channels["lyap"]
    slack = (1e-3) ** 2 * channels["tau2"][1:-1]
    assert np.all(np.diff(ly[1:]) <= slack + 1e-15)
    assert elapsed < 2.0
    print(f"criterion 04 PASS: dist(T)={dist[-1]:.2e} |w(T)|={final_w:.2e} "
          f"in {elapsed:.2f} s")


def test_criterion_05_tracking_convergence():
    sol = are_solve(drift_matrix("published-tracking", -2.0), Q2, 1.0)
    gains = sol.gains(1.0)
    # w_ref(t) = c t tabulated on the simulation grid.
    c = np.array([0.5, 0.3, 0.4])
    start = time.perf_counter()
    times = time_grid(1e-3, 50.0)
    ref = TrackingReference(np.outer(times, c), np.tile(c, (len(times), 1)), h=1e-3)
    axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    init = RigidBodyState(ref.rotations[0] @ exp_so3(0.5 * axis), np.zeros(3))

    law, tables = tracking_controller(ref, gains, J123, accel_term=True)
    log = simulate(law, init, SimParams(1e-3, 50.0, J123), tables=tables)
    err = np.array([geodesic_distance(ref.sample(t).r, r)
                    for t, r in zip(log.times, log.rotations)])
    elapsed = time.perf_counter() - start
    assert err[0] == pytest.approx(0.5, abs=1e-12)
    assert err[-1] <= 0.05
    assert elapsed < 5.0
    print(f"criterion 05 PASS: tracking error(T)={err[-1]:.2e} in {elapsed:.2f} s")


def test_criterion_06_integrator_fidelity():
    rng = np.random.default_rng(99)
    state = RigidBodyState(np.eye(3), rng.standard_normal(3))
    from geolqr.dynamics import lie_euler_step

    worst = 0.0
    for i in range(10000):
        state = lie_euler_step(state, np.zeros(3), 1e-3, J123)
        if i % 100 == 0:
            worst = max(worst, orthogonality_defect(state.r))
    worst = max(worst, orthogonality_defect(state.r))
    assert worst <= 1e-10

    def worst_drift(h):
        log = simulate(lambda r, w: (0.0, 0.0, 0.0),
                       RigidBodyState(np.eye(3), np.array([0.3, 1.1, -0.2])),
                       SimParams(h, 10.0, J123))
        ke = np.array([0.5 * float(w @ (J123.j @ w)) for w in log.omegas])
        return float(np.abs(ke - ke[0]).max() / ke[0])

    d1 = worst_drift(1e-3)
    d2 = worst_drift(5e-4)
    ratio = d2 / d1
    assert 0.25 <= ratio <= 0.75
    print(f"criterion 06 PASS: orthogonality {worst:.2e}, drift ratio {ratio:.3f}")


def test_criterion_07_exp_log_roundtrip():
    rng = np.random.default_rng(7)
    vs = rng.standard_normal((100000, 3))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    vs *= rng.uniform(0.0, math.pi - 1e-3, 100000)[:, None]
    start = time.perf_counter()
    worst = 0.0
    for v in vs:
        d = log_so3(exp_so3(v)) - v
        err = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if err > worst:
            worst = err
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"criterion 07 PASS: worst roundtrip {worst:.2e} in {elapsed:.2f} s")


def test_criterion_08_dre_to_are_convergence():
    a = drift_matrix("published-tracking", -2.0)
    sched = dre_integrate(a, Q2, 1.0, t_end=50.0, h=1e-3)
    sol = are_solve(a, Q2, 1.0)
    k0 = sched.solution_at(0.0)
    worst = max(abs(k0.k1 - sol.k1), abs(k0.k2 - sol.k2), abs(k0.k3 - sol.k3))
    assert worst <= 1e-4
    assert sched.k1[-1] == 0.0 and sched.k2[-1] == 0.0 and sched.k3[-1] == 0.0
    assert are_residual(a, Q2, 1.0, sol) <= 1e-9
    print(f"criterion 08 PASS: K(0) within {worst:.2e} of the fixed point")


def test_criterion_09_pmp_avoidance_cross_validation():
    start = time.perf_counter()

    # Flat 1D against the matrix-exponential solution of the linear BVP.
    sc1 = AvoidanceScenario(dimension=1, alpha=1.0, target=[0.0], horizon=1.0,
                            q0=[1.0], v0=[0.0])
    sol1 = shooting_solve(sc1)
    m = np.array([[0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.0, 1.0, 0.0]])
    full = scipy.linalg.expm(m * sc1.horizon)
    rows = np.array([full[2], full[3] - full[1]])
    u0, w0 = np.linalg.solve(rows[:, 2:], -rows[:, 0])
    x0 = np.array([1.0, 0.0, u0, w0])
    sup_err = 0.0
    for i in range(0, len(sol1.times), 10):
        x_t = scipy.linalg.expm(m * sol1.times[i]) @ x0
        sup_err = max(sup_err, abs(x_t[2] - sol1.u[i, 0]))
    assert sup_err <= 1e-5

    # Flat 2D with one obstacle between the start and the target.
    sc2 = AvoidanceScenario(
        dimension=2, alpha=0.2, target=[1.2, 0.15], horizon=2.0,
        q0=[-1.2, 0.0], v0=[0.0, 0.0],
        obstacles=(SphereObstacle(np.array([-0.1, 0.28]), 0.4),))
    sol2 = shooting_solve(sc2)
    clearance = min(min(obs.value(q) for q in sol2.q) for obs in sc2.obstacles)
    assert clearance > 0.0

    oracle = transcription_oracle(sc2, 201, max_iter=200)
    rel_gap = abs(sol2.cost - oracle.cost) / oracle.cost
    assert rel_gap <= 1e-2

    costates = costate_integrate(sc2, sol2)
    spread = float(costates.hamiltonian.max() - costates.hamiltonian.min())
    assert spread <= 1e-3
    assert np.abs(-costates.p2 / sc2.alpha - sol2.u).max() <= 1e-3

    # The extremal beats the descent method under one common evaluation.
    j_shoot = control_cost(sc2, sol2.times, sol2.u, 1e-3)
    j_oracle = control_cost(sc2, oracle.times, oracle.u, 1e-3)
    assert j_shoot <= j_oracle * (1.0 + 1e-3)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 09 PASS: 1D sup {sup_err:.2e}, 2D gap {rel_gap:.2e}, "
          f"clearance {clearance:.3f}, H spread {spread:.2e}, {elapsed:.1f} s")


def test_criterion_10_hjb_identity():
    # Undiscounted scalar-consistent solution and its optimal feedback on
    # the criterion-4 scenario, recomputed at h = 1e-4.
    alpha = 0.5
    sol = are_solve(drift_matrix("reconciled", 0.0), Q2, alpha)
    res = scalar_residual(sol, CostParams(alpha=alpha, gamma=0.0))
    assert np.abs(res).max() <= 1e-9
    gains = sol.gains(alpha)
    h = 1e-4
    _, channels = _criterion4_run(h, 20.0, gains, sol)
    value = channels["value"]
    rate = channels["cost_rate"]
    dv = (value[2:] - value[:-2]) / (2.0 * h)
    residual = dv + rate[1:-1]
    relative = float(np.abs(residual).max() / np.abs(rate).max())
    assert relative <= 2e-2
    assert np.all(np.diff(value) <= 1e-10)
    print(f"criterion 10 PASS: relative residual {relative:.2e}, "
          f"V monotone non-increasing")


def test_criterion_11_variational_equation_check():
    # Flat tag with a quartic potential.
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
    y0 = np.array([1.0, -0.5])
    z0 = np.array([0.3, 0.7])
    qs, vs = integrate(q0, v0)
    out = variational_propagate(times, qs, vs, y0, z0, "flat", hess_w=hess_w)
    eps = 1e-5
    q_eps, _ = integrate(q0 + eps * y0, v0 + eps * z0)
    flat_err = float(np.abs((q_eps - qs) / eps - out.y).max())
    assert flat_err <= 1e-3

    # Group tag along a constant-velocity base with closed-form flows.
    om0 = np.array([0.4, -0.7, 0.9])
    r0 = exp_so3([0.3, 0.1, -0.2])
    y0g = np.array([0.5, -0.3, 0.2])
    z0g = np.array([-0.1, 0.4, 0.25])
    omegas = np.tile(om0, (steps + 1, 1))
    out_g = variational_propagate(times, None, omegas, y0g, z0g, "so3-biinvariant")
    r0_eps = r0 @ exp_so3(eps * y0g)
    om_eps = om0 + eps * (z0g + 0.5 * np.cross(om0, y0g))
    group_err = 0.0
    for i in range(0, steps + 1, 25):
        t = times[i]
        fd = log_so3((r0 @ exp_so3(om0 * t)).T @ (r0_eps @ exp_so3(om_eps * t))) / eps
        group_err = max(group_err, float(np.abs(fd - out_g.y[i]).max()))
    assert group_err <= 1e-3
    print(f"criterion 11 PASS: flat fd error {flat_err:.2e}, "
          f"group fd error {group_err:.2e}")
