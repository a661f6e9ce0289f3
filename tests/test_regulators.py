"""Feedback laws: frozen torque examples, closed-loop certificates, and the
sign calibrations that fix the distance-gradient conventions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geolqr.dynamics import InertiaTensor, RigidBodyState, SimParams, simulate, time_grid
from geolqr.errors import AngleNearPi, NumericalDivergence
from geolqr.regulators import (
    ReferenceSample,
    TrackingReference,
    feedforward_torque,
    lyapunov_value,
    regulation_controller,
    regulation_torque,
    tracking_controller,
    tracking_pd_torque,
    value_candidate,
)
from geolqr.riccati import (
    GainPair,
    RiccatiSolution,
    are_solve,
    drift_matrix,
)
from geolqr.so3 import (
    _CHUNK,
    attitude_errors,
    exp_rows,
    exp_so3,
    geodesic_distance,
    log_so3,
    transport_velocity,
)

J123 = InertiaTensor.diagonal([1.0, 2.0, 3.0])
JSPH = InertiaTensor.diagonal([1.0, 1.0, 1.0])
Q2 = np.eye(2)


def tabulated_reference(omega, omega_dot, t_end, h):
    """TrackingReference of callables tabulated on the simulation grid."""
    times = time_grid(h, t_end)
    return TrackingReference(np.array([omega(t) for t in times]),
                             np.array([omega_dot(t) for t in times]), h)


def published_regulation_gains():
    sol = are_solve(drift_matrix("published-regulation"), Q2, 0.5)
    return sol.gains(0.5), sol


def published_tracking_gains():
    sol = are_solve(drift_matrix("published-tracking", -2.0), Q2, 1.0)
    return sol.gains(1.0), sol


class TestRegulationTorque:
    def test_zero_at_goal(self):
        goal = exp_so3([0.3, -0.1, 0.8])
        s = RigidBodyState(goal.copy(), np.zeros(3))
        tau = regulation_torque(s, goal, GainPair(1.5, 2.0))
        assert np.array_equal(tau, np.zeros(3))

    def test_pure_derivative_action(self):
        goal = np.eye(3)
        s = RigidBodyState(np.eye(3), np.array([1.0, 0.0, 0.0]))
        tau = regulation_torque(s, goal, GainPair(1.4142, 2.7671))
        assert np.allclose(tau, [-2.7671, 0.0, 0.0], atol=1e-15)

    def test_single_axis_proportional(self):
        goal = np.eye(3)
        s = RigidBodyState(exp_so3([0.3, 0.0, 0.0]), np.zeros(3))
        tau = regulation_torque(s, goal, GainPair(1.4142, 2.7671))
        assert np.allclose(tau, [-1.4142 * 0.3, 0.0, 0.0], atol=1e-12)

    def test_cut_locus_propagates(self):
        goal = np.eye(3)
        s = RigidBodyState(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
        with pytest.raises(AngleNearPi):
            regulation_torque(s, goal, GainPair(1.0, 1.0))

    def test_conjugation_leaves_norm_invariant(self):
        rng = np.random.default_rng(51)
        g = GainPair(1.7, 0.9)
        for _ in range(20):
            r_d = exp_so3(rng.standard_normal(3) * 0.5)
            r = exp_so3(rng.standard_normal(3) * 0.5)
            w = rng.standard_normal(3)
            conj = exp_so3(rng.standard_normal(3))
            tau = regulation_torque(RigidBodyState(r, w), r_d, g)
            tau_c = regulation_torque(
                RigidBodyState(conj @ r @ conj.T, conj @ w),
                conj @ r_d @ conj.T, g)
            assert abs(np.linalg.norm(tau) - np.linalg.norm(tau_c)) <= 1e-12


class TestTrackingPdTorque:
    def test_zero_on_reference(self):
        r_ref = exp_so3([0.2, 0.4, -0.3])
        w_ref = np.array([0.3, -0.2, 0.5])
        sample = ReferenceSample(r_ref, w_ref, np.zeros(3))
        s = RigidBodyState(r_ref.copy(), w_ref.copy())
        tau = tracking_pd_torque(s, sample, GainPair(8.7852, 8.3357))
        assert np.abs(tau).max() <= 1e-15

    def test_reduces_to_regulation_for_static_reference(self):
        rng = np.random.default_rng(52)
        g = GainPair(2.0, 3.0)
        for _ in range(10):
            r_ref = exp_so3(rng.standard_normal(3) * 0.4)
            s = RigidBodyState(exp_so3(rng.standard_normal(3) * 0.4),
                               rng.standard_normal(3))
            sample = ReferenceSample(r_ref, np.zeros(3), np.zeros(3))
            assert np.allclose(tracking_pd_torque(s, sample, g),
                               regulation_torque(s, r_ref, g),
                               atol=1e-15)

    def test_pure_velocity_error(self):
        r_ref = exp_so3([0.1, -0.6, 0.2])
        sample = ReferenceSample(r_ref, np.zeros(3), np.zeros(3))
        w = r_ref.T @ r_ref @ np.array([0.0, 1.0, 0.0])  # identity transport
        s = RigidBodyState(r_ref.copy(), np.array([0.0, 1.0, 0.0]))
        tau = tracking_pd_torque(s, sample, GainPair(8.7852, 8.3357))
        assert np.allclose(tau, [0.0, -8.3357, 0.0], atol=1e-12)

    def test_cut_locus_propagates(self):
        sample = ReferenceSample(np.eye(3), np.zeros(3), np.zeros(3))
        s = RigidBodyState(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))
        with pytest.raises(AngleNearPi):
            tracking_pd_torque(s, sample, GainPair(1.0, 1.0))


class TestFeedforwardTorque:
    def test_zero_for_static_reference(self):
        sample = ReferenceSample(exp_so3([0.3, 0.0, 0.1]), np.zeros(3), np.zeros(3))
        s = RigidBodyState(exp_so3([-0.2, 0.4, 0.0]), np.array([0.5, -0.1, 0.9]))
        tau = feedforward_torque(s, sample, J123, accel_term=False)
        assert np.abs(tau).max() == 0.0

    def test_spherical_cross_product_value(self):
        # With J = I and coincident frames the law collapses to
        # (w x w_ref)/2; cross-checked against the numpy cross product.
        r = exp_so3([0.1, 0.2, 0.3])
        w = np.array([1.0, 0.0, 0.0])
        w_ref = np.array([0.0, 1.0, 0.0])
        sample = ReferenceSample(r.copy(), w_ref, np.zeros(3))
        tau = feedforward_torque(RigidBodyState(r, w), sample, JSPH)
        assert np.allclose(tau, [0.0, 0.0, 0.5], atol=1e-15)
        assert np.allclose(tau, 0.5 * np.cross(w, w_ref), atol=1e-15)

    def test_accel_term_transports_reference_acceleration(self):
        wdot = np.array([0.5, 0.3, 0.4])
        r_ref = exp_so3([0.0, 0.0, math.pi / 2])
        sample = ReferenceSample(r_ref, np.zeros(3), wdot)
        s = RigidBodyState(np.eye(3), np.zeros(3))
        tau = feedforward_torque(s, sample, J123, accel_term=True)
        assert np.allclose(tau, r_ref @ wdot, atol=1e-15)

    def test_exact_initialization_tracks_reference(self):
        # With the acceleration term on and exact initialization the closed
        # loop follows the ramp reference within discretization error.
        g, _ = published_tracking_gains()
        om = lambda t: np.array([0.5 * t, 0.3 * t, 0.4 * t])
        omdot = lambda t: np.array([0.5, 0.3, 0.4])
        ref = tabulated_reference(om, omdot, t_end=5.0, h=1e-3)
        law, tables = tracking_controller(ref, g, J123, accel_term=True)
        log = simulate(law, RigidBodyState(ref.rotations[0].copy(), om(0.0)),
                       SimParams(1e-3, 5.0, J123), tables=tables)
        err = [geodesic_distance(ref.sample(t).r, r) for t, r in zip(log.times, log.rotations)]
        assert max(err) <= 1e-3

    def test_bare_law_lags_by_reference_acceleration_over_kp(self):
        # Without the acceleration term the loop settles at the structural
        # lag |wdot_ref| / kP, which is what rules the term in for the
        # tracking acceptance run.
        g, _ = published_tracking_gains()
        om = lambda t: np.array([0.5 * t, 0.3 * t, 0.4 * t])
        omdot = lambda t: np.array([0.5, 0.3, 0.4])
        ref = tabulated_reference(om, omdot, t_end=12.0, h=1e-3)
        law, tables = tracking_controller(ref, g, J123, accel_term=False)
        log = simulate(law, RigidBodyState(ref.rotations[0].copy(), om(0.0)),
                       SimParams(1e-3, 12.0, J123), tables=tables)
        lag = np.linalg.norm(omdot(0.0)) / g.kP
        final = geodesic_distance(ref.sample(log.times[-1]).r, log.rotations[-1])
        assert abs(final - lag) <= 0.15 * lag


def certificate_rows(goal, *states):
    """Attitude errors log(r_d.T r) and velocities of the states, as the
    (N, 3) rows the certificates take."""
    return (np.array([log_so3(goal.T @ s.r) for s in states]),
            np.array([s.w for s in states]))


class TestLyapunovValue:
    def test_zero_at_goal(self):
        goal = exp_so3([0.1, 0.9, -0.2])
        s = RigidBodyState(goal.copy(), np.zeros(3))
        assert lyapunov_value(*certificate_rows(goal, s), 2.0)[0] == 0.0

    def test_plug_in_value(self):
        goal = np.eye(3)
        s = RigidBodyState(exp_so3([0.3, 0.0, 0.0]), np.zeros(3))
        assert abs(lyapunov_value(*certificate_rows(goal, s), 2.0)[0] - 0.09) <= 1e-12

    def test_decreases_along_closed_loop(self):
        g, _ = published_regulation_gains()
        goal = np.eye(3)
        law, tables = regulation_controller(goal, g)
        log = simulate(law, RigidBodyState(exp_so3([0.9, -0.4, 0.2]), np.zeros(3)),
                       SimParams(1e-3, 5.0, J123), tables=tables)
        e = attitude_errors(np.broadcast_to(goal, log.rotations.shape), log.rotations)
        ly = lyapunov_value(e, log.omegas, g.kP)
        tau2 = np.array([float(tau @ tau) for tau in log.torques])
        # The explicit scheme injects at most h^2 |tau|^2 of kinetic energy
        # per step while omega ramps up from zero; beyond that the channel
        # must decrease.
        slack = 1e-3 ** 2 * tau2[1:-1]
        assert np.all(np.diff(ly[1:]) <= slack + 1e-15)
        # Slowest closed-loop mode decays like exp(-1.35 t): two decades
        # over five seconds.
        assert ly[-1] <= 1e-2 * ly[0]


class TestValueCandidate:
    def test_zero_at_goal(self):
        goal = np.eye(3)
        s = RigidBodyState(np.eye(3), np.zeros(3))
        sol = RiccatiSolution(1.5537739740300367, 1.0986841134678094,
                              0.707106781186547)
        assert value_candidate(*certificate_rows(goal, s), sol)[0] == 0.0

    def test_zero_velocity_reduces_to_distance_term(self):
        goal = np.eye(3)
        sol = RiccatiSolution(2.0, 3.0, 0.5)
        s = RigidBodyState(exp_so3([0.0, 0.4, 0.0]), np.zeros(3))
        expected = 2.0 * 0.5 * 0.4 ** 2
        assert abs(value_candidate(*certificate_rows(goal, s), sol)[0] - expected) <= 1e-12

    def test_positive_near_goal_for_positive_definite_k(self):
        goal = np.eye(3)
        sol = RiccatiSolution(1.5537739740300367, 1.0986841134678094,
                              0.707106781186547)
        rng = np.random.default_rng(53)
        for _ in range(50):
            s = RigidBodyState(exp_so3(rng.standard_normal(3) * 0.2),
                               rng.standard_normal(3) * 0.2)
            if geodesic_distance(goal, s.r) < 1e-12 and np.abs(s.w).max() < 1e-12:
                continue
            assert value_candidate(*certificate_rows(goal, s), sol)[0] > 0.0


def float_dot(a, b):
    """a0 b0 + a1 b1 + a2 b2 over Python floats, left to right: the float
    kernels' rounding, which so3.row_dots shares."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return a0 * b0 + a1 * b1 + a2 * b2


def lyapunov_value_at(s, goal, kp):
    """The Lyapunov certificate at one state, one log_so3 and float dot
    products: the oracle of the array lyapunov_value."""
    e = log_so3(goal.T @ s.r)
    w = s.w
    return kp * 0.5 * float_dot(e, e) + 0.5 * float_dot(w, w)


def value_candidate_at(s, goal, sol):
    """The candidate value at one state: the oracle of the array
    value_candidate."""
    e = log_so3(goal.T @ s.r)
    w = s.w
    u = 0.5 * float_dot(e, e)
    return sol.k1 * u + 0.5 * sol.k2 * float_dot(w, w) + sol.k3 * float_dot(e, w)


# Rotation vectors of at most 0.9 sqrt(3) = 1.56 rad keep relative rotations
# away from the logarithm's cut locus.
rotation_vectors = arrays(np.float64, 3, elements=st.floats(-0.9, 0.9))
entries = st.floats(-10.0, 10.0)


class TestArrayCertificates:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), scheduled=st.booleans())
    def test_equal_to_one_state_at_a_time(self, data, n, scheduled):
        # Scalar K is an ARE solution; (N,) entries are a DRE schedule's
        # lookup over the logged times.
        goal = exp_so3(data.draw(rotation_vectors))
        rots = np.array([exp_so3(data.draw(rotation_vectors)) for _ in range(n)])
        omegas = data.draw(arrays(np.float64, (n, 3), elements=entries))
        shape = (n,) if scheduled else ()
        kp, k1, k2, k3 = (data.draw(arrays(np.float64, shape, elements=entries))
                          for _ in range(4))
        if not scheduled:
            kp, k1, k2, k3 = (float(x) for x in (kp, k1, k2, k3))
        states = [RigidBodyState(r, w) for r, w in zip(rots, omegas)]
        e = attitude_errors(np.broadcast_to(goal, rots.shape), rots)

        def row(x, i):
            return x[i] if scheduled else x

        ly = lyapunov_value(e, omegas, kp)
        want = np.array([lyapunov_value_at(s, goal, row(kp, i))
                         for i, s in enumerate(states)])
        assert ly.tobytes() == want.tobytes()
        val = value_candidate(e, omegas, RiccatiSolution(k1, k2, k3))
        want = np.array([value_candidate_at(
            s, goal, RiccatiSolution(row(k1, i), row(k2, i), row(k3, i)))
            for i, s in enumerate(states)])
        assert val.tobytes() == want.tobytes()


class TestCompatibilityIdentity:
    def test_reference_flow_derivative(self):
        # For fixed r and a reference moving along its own flow, the time
        # derivative of half the squared distance equals
        # -<log(r_ref.T r), transported reference velocity>; sign fixed by
        # this central-difference calibration.
        rng = np.random.default_rng(54)
        for _ in range(10):
            r = exp_so3(rng.standard_normal(3) * 0.6)
            r_ref = exp_so3(rng.standard_normal(3) * 0.6)
            w_ref = rng.standard_normal(3)
            step = 1e-6
            up = 0.5 * geodesic_distance(r_ref @ exp_so3(step * w_ref), r) ** 2
            dn = 0.5 * geodesic_distance(r_ref @ exp_so3(-step * w_ref), r) ** 2
            fd = (up - dn) / (2.0 * step)
            inner = -float(log_so3(r_ref.T @ r)
                           @ transport_velocity(r, r_ref, w_ref))
            assert abs(fd - inner) <= 1e-5


class TestTrackingReference:
    def test_rotations_stay_on_group(self):
        om = lambda t: np.array([0.5 * t, 0.3 * t, 0.4 * t])
        omdot = lambda t: np.array([0.5, 0.3, 0.4])
        ref = tabulated_reference(om, omdot, t_end=2.0, h=1e-3)
        from geolqr.so3 import orthogonality_defect
        for i in range(0, len(ref.rotations), 250):
            assert orthogonality_defect(ref.rotations[i]) <= 1e-11

    def test_sample_returns_grid_rotation(self):
        om = lambda t: np.array([1.0, 0.0, 0.0])
        omdot = lambda t: np.zeros(3)
        ref = tabulated_reference(om, omdot, t_end=1.0, h=1e-3)
        sample = ref.sample(0.5)
        assert np.array_equal(sample.r, ref.rotations[500])
        assert np.array_equal(sample.w, [1.0, 0.0, 0.0])

    def test_sample_reads_the_tables_at_the_nearest_grid_time(self):
        c = np.array([0.5, -0.3, 0.4])
        om = lambda t: c * t
        omdot = lambda t: c
        h = 1e-3
        ref = tabulated_reference(om, omdot, t_end=1.0, h=h)
        for k in (0, 1, 137, 500, 1000):
            sample = ref.sample(k * h)
            assert np.array_equal(sample.r, ref.rotations[k])
            assert np.array_equal(sample.w, om(k * h))
            assert np.array_equal(sample.wdot, omdot(k * h))
            if k < 1000:
                near = ref.sample(k * h + 0.4 * h)
                assert np.array_equal(near.r, ref.rotations[k])
                assert np.array_equal(near.w, om(k * h))
                assert np.array_equal(near.wdot, omdot(k * h))

    @pytest.mark.parametrize("rows", [1, 2, _CHUNK, _CHUNK + 1, _CHUNK + 2, 10_001])
    def test_rows_match_a_sequential_chain(self, rows):
        rng = np.random.default_rng(rows)
        h = 1e-3
        omegas = rng.uniform(-3.0, 3.0, (rows, 3))
        r0 = exp_so3([0.3, -1.1, 0.7])
        ref = TrackingReference(omegas, np.zeros((rows, 3)), h, r0)
        assert np.array_equal(ref.rotations[0], r0)
        r = r0
        for k in range(1, rows):
            r = r @ exp_so3(h * omegas[k - 1])
            assert np.abs(ref.rotations[k] - r).max() <= 1e-12

    def test_long_table_stays_on_group_and_on_the_closed_form(self):
        # w_ref = c t has a constant axis, so the increments commute and the
        # chain is R0 exp(hat(c) h^2 n (n - 1) / 2) exactly in real numbers.
        c = np.array([0.5, -0.3, 0.4])
        h, steps = 1e-3, 50_000
        times = np.arange(steps + 1) * h
        r0 = exp_so3([0.2, 0.1, -0.4])
        ref = TrackingReference(np.outer(times, c), np.tile(c, (steps + 1, 1)), h, r0)
        n = np.arange(steps + 1)
        closed = r0 @ exp_rows(np.outer(h * h * n * (n - 1) / 2.0, c))
        assert np.abs(ref.rotations - closed).max() <= 1e-12
        defects = np.swapaxes(ref.rotations, 1, 2) @ ref.rotations - np.eye(3)
        assert np.sqrt((defects ** 2).sum(axis=(1, 2))).max() <= 1e-12

    @pytest.mark.parametrize("bad", [_CHUNK, _CHUNK + 7, 3 * _CHUNK + 4])
    def test_first_too_fast_row_names_its_time(self, bad):
        # The guard reads so3._CHUNK rows at a time (the last bad row is the
        # table's last row); a later bad row, here a NaN, is not the one
        # named.
        h, rows = 1e-3, 3 * _CHUNK + 5
        omegas = np.random.default_rng(bad).uniform(-3.0, 3.0, (rows, 3))
        omegas[bad] = [0.0, 2e6, 0.0]
        omegas[bad + 1:, 1] = np.nan
        with pytest.raises(NumericalDivergence, match=re.escape(f"at t = {bad * h:.6g}") + "$"):
            TrackingReference(omegas, np.zeros((rows, 3)), h)

    def test_sample_off_grid_raises(self):
        ref = tabulated_reference(lambda t: np.array([1.0, 0.0, 0.0]),
                                  lambda t: np.zeros(3), t_end=1.0, h=1e-3)
        assert np.array_equal(ref.sample(1.0).r, ref.rotations[-1])
        with pytest.raises(ValueError):
            ref.sample(5.0)
        with pytest.raises(ValueError):
            ref.sample(-0.01)
