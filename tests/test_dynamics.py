"""Rigid-body dynamics, the group-preserving integrator, and the RK4 sweep."""

import math

import numpy as np
import pytest
import scipy.linalg

from geolqr.dynamics import (
    InertiaTensor,
    RigidBodyState,
    SimParams,
    affine_rk4,
    euler_rhs,
    kept_rows,
    lie_euler_step,
    rk4,
    simulate,
)
from geolqr.errors import NumericalDivergence
from geolqr.regulators import TrackingReference, regulation_controller, tracking_controller
from geolqr.riccati import GainPair
from geolqr.so3 import exp_so3, orthogonality_defect

J123 = InertiaTensor.diagonal([1.0, 2.0, 3.0])
ZERO_CONTROLLER = lambda r, w: (0.0, 0.0, 0.0)


class TestInertia:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            InertiaTensor(np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            InertiaTensor.diagonal([1.0, -2.0, 3.0])

    def test_inverse_cached(self):
        assert np.allclose(J123.j @ J123.j_inv, np.eye(3), atol=1e-15)


class TestEulerRhs:
    def test_principal_axis_spin(self):
        assert np.allclose(euler_rhs([0.0, 2.0, 0.0], np.zeros(3), J123),
                           np.zeros(3), atol=0.0)

    def test_spherical_body(self):
        j = InertiaTensor.diagonal([2.0, 2.0, 2.0])
        rng = np.random.default_rng(41)
        for _ in range(10):
            w = rng.standard_normal(3)
            assert np.allclose(euler_rhs(w, np.zeros(3), j), np.zeros(3), atol=1e-15)

    def test_gyroscopic_example(self):
        # J w = [1, 2, 0], (J w) x w = [0, 0, -1], J^-1 gives [0, 0, -1/3].
        out = euler_rhs([1.0, 1.0, 0.0], np.zeros(3), J123)
        assert np.allclose(out, [0.0, 0.0, -1.0 / 3.0], atol=1e-15)

    def test_torque_passthrough(self):
        tau = np.array([0.5, -0.25, 2.0])
        assert np.allclose(euler_rhs(np.zeros(3), tau, J123), tau, atol=0.0)


class TestLieEulerStep:
    def test_equilibrium(self):
        s = RigidBodyState(exp_so3([0.4, 0.0, 0.2]), np.zeros(3))
        s2 = lie_euler_step(s, np.zeros(3), 1e-3, J123)
        assert np.array_equal(s2.r, s.r)
        assert np.array_equal(s2.w, s.w)

    def test_spherical_free_spin(self):
        j = InertiaTensor.diagonal([1.0, 1.0, 1.0])
        s = RigidBodyState(np.eye(3), np.array([0.0, 0.0, 1.0]))
        s2 = lie_euler_step(s, np.zeros(3), 0.1, j)
        assert np.allclose(s2.r, exp_so3([0.0, 0.0, 0.1]), atol=1e-15)
        assert np.array_equal(s2.w, s.w)

    def test_group_preservation_long_run(self):
        rng = np.random.default_rng(42)
        s = RigidBodyState(np.eye(3), rng.standard_normal(3))
        worst = 0.0
        for i in range(10000):
            s = lie_euler_step(s, np.zeros(3), 1e-3, J123)
            if i % 200 == 0:
                worst = max(worst, orthogonality_defect(s.r))
        worst = max(worst, orthogonality_defect(s.r))
        assert worst <= 1e-10


class TestSimulate:
    def test_zero_controller_constant(self):
        init = RigidBodyState(exp_so3([0.1, 0.2, 0.3]), np.zeros(3))
        log = simulate(ZERO_CONTROLLER, init, SimParams(1e-3, 0.05, J123))
        assert len(log) == 51
        assert np.array_equal(log.rotations[0], log.rotations[-1])
        assert np.array_equal(log.omegas[0], log.omegas[-1])

    def test_sample_count_and_uniform_times(self):
        log = simulate(ZERO_CONTROLLER, RigidBodyState(np.eye(3), np.zeros(3)),
                       SimParams(1e-3, 0.123, J123))
        assert len(log) == 124
        steps = np.diff(log.times)
        assert np.allclose(steps, 1e-3, atol=1e-15)

    def test_deterministic_bit_identical(self):
        init = RigidBodyState(exp_so3([0.5, -0.2, 0.1]), np.array([0.1, 0.0, -0.3]))
        ctrl = lambda r, w: (-0.5 * w[0], -0.5 * w[1], -0.5 * w[2])
        log1 = simulate(ctrl, init, SimParams(1e-3, 1.0, J123))
        log2 = simulate(ctrl, init, SimParams(1e-3, 1.0, J123))
        assert np.array_equal(log1.rotations, log2.rotations)
        assert np.array_equal(log1.omegas, log2.omegas)
        assert np.array_equal(log1.torques, log2.torques)

    def test_free_body_conservation_drift_first_order(self):
        # Kinetic energy and body momentum norm drift at O(h): halving h
        # halves both within a factor 1.5.
        def worst_drift(h):
            log = simulate(ZERO_CONTROLLER,
                           RigidBodyState(np.eye(3), np.array([0.1, 1.0, 0.1])),
                           SimParams(h, 10.0, J123))
            jws = [J123.j @ w for w in log.omegas]
            ke = np.array([0.5 * float(w @ jw) for w, jw in zip(log.omegas, jws)])
            mom = np.array([float(np.linalg.norm(jw)) for jw in jws])
            return (float(np.abs(ke - ke[0]).max() / ke[0]),
                    float(np.abs(mom - mom[0]).max() / mom[0]))

        ke1, mom1 = worst_drift(1e-3)
        ke2, mom2 = worst_drift(5e-4)
        assert ke1 <= 5.0 * 1e-3
        assert 0.5 / 1.5 <= ke2 / ke1 <= 0.5 * 1.5
        assert 0.5 / 1.5 <= mom2 / mom1 <= 0.5 * 1.5

    def test_divergence_guard(self):
        runaway = lambda r, w: (1e4 * w[0], 1e4 * w[1], 1e4 * w[2])
        with pytest.raises(NumericalDivergence):
            simulate(runaway, RigidBodyState(np.eye(3), np.array([1.0, 0.0, 0.0])),
                     SimParams(1e-3, 10.0, J123))

    def test_initial_velocity_is_guarded(self):
        # The guard reads every state before it is used, the first one too.
        with pytest.raises(NumericalDivergence):
            simulate(ZERO_CONTROLLER,
                     RigidBodyState(np.eye(3), np.array([1e300, 0.0, 0.0])),
                     SimParams(1e-3, 1.0, J123))

    def test_nan_torque_raises(self):
        with pytest.raises(NumericalDivergence):
            simulate(lambda r, w: (math.nan, math.nan, math.nan),
                     RigidBodyState(np.eye(3), np.zeros(3)), SimParams(1e-3, 1.0, J123))

    def test_nan_torque_at_final_sample_raises(self):
        # No step follows the last sample, so only the torque check sees it.
        taus = np.zeros((11, 3))
        taus[10] = math.nan
        with pytest.raises(NumericalDivergence):
            simulate(lambda r, w, tau: tau, RigidBodyState(np.eye(3), np.zeros(3)),
                     SimParams(1e-3, 0.01, J123), tables=(taus,))

    def test_law_sees_row_i_of_each_table_rotation_array_and_float_velocity(self):
        seen = []

        def law(r, w, i, row, k):
            seen.append((i, row, k, r.copy(), w))
            return (0.1, -0.2, 0.3)

        init = RigidBodyState(exp_so3([0.2, 0.1, -0.4]), np.array([0.3, 0.0, 1.0]))
        index = np.arange(11)
        rows = np.arange(33.0).reshape(11, 3)
        log = simulate(law, init, SimParams(1e-3, 0.01, J123),
                       tables=(index, rows, np.float64(2.5)))
        assert [i for i, *_ in seen] == list(range(len(log)))
        for i, row, k, r, w in seen:
            assert type(i) is int and row == rows[i].tolist() and k == 2.5
            assert r.shape == (3, 3) and np.array_equal(r, log.rotations[i])
            assert len(w) == 3 and all(type(x) is float for x in w)
            assert np.array_equal(w, log.omegas[i])

    @pytest.mark.parametrize("rows", [10, 12])
    def test_table_of_wrong_length_raises_before_first_step(self, rows):
        calls = []

        def law(r, w, kp, tau):
            calls.append(kp)
            return tau

        with pytest.raises(ValueError, match="table 1 has"):
            simulate(law, RigidBodyState(np.eye(3), np.zeros(3)),
                     SimParams(1e-3, 0.01, J123), tables=(1.0, np.zeros((rows, 3))))
        assert calls == []

    def test_torque_channel_records_controller_output(self):
        times = np.arange(11) * 1e-3
        log = simulate(lambda r, w, t: (math.sin(t), 0.0, 0.0),
                       RigidBodyState(np.eye(3), np.zeros(3)),
                       SimParams(1e-3, 0.01, J123), tables=(times,))
        assert np.allclose(log.torques[:, 0], np.sin(log.times), atol=1e-15)


class TestKeptRows:
    def test_every_stride_th_row_and_the_last(self):
        for n in range(1, 61):
            for every in range(1, 14):
                want = [i for i in range(n) if i % every == 0 or i == n - 1]
                assert kept_rows(np.arange(n), every).tolist() == want

    def test_stride_one_is_a_view_and_a_constant_stays(self):
        table = np.zeros((11, 3))
        assert np.shares_memory(kept_rows(table, 1), table)
        assert np.shares_memory(kept_rows(table, 5), table)
        k = np.float64(2.5)
        assert kept_rows(k, 7) is k


class TestSimulateEvery:
    """simulate(every=k) logs kept_rows of the every=1 log, bit for bit."""

    # 602 samples over three chunks; 601 % 3, 7, 10 != 0, and at 600 the
    # middle chunk holds no sample on the stride.
    P = SimParams(1e-3, 0.601, J123)
    INIT = RigidBodyState(exp_so3([0.6, -0.3, 0.4]), np.array([0.3, -0.2, 0.5]))

    @staticmethod
    def controllers():
        times = np.arange(602) * 1e-3
        ref = TrackingReference(np.column_stack([np.sin(times), 0.5 * times, np.cos(times)]),
                                np.column_stack([np.cos(times), 0.5 + 0 * times,
                                                 -np.sin(times)]), 1e-3)
        # Per-sample gains like a DRE schedule's rows, and the 9-column reference table.
        scheduled = GainPair(2.0 + np.exp(-times), 3.0 + np.sin(times))
        yield tracking_controller(ref, scheduled, J123, True)
        # 0-d tables: ARE's constant gains.
        yield regulation_controller(exp_so3([0.1, 0.2, -0.3]), GainPair(np.float64(2.0), 3.0))

    @pytest.mark.parametrize("every", [1, 3, 7, 10, 600])
    def test_log_is_the_full_logs_kept_rows(self, every):
        for law, tables in self.controllers():
            full = simulate(law, self.INIT, self.P, tables=tables)
            log = simulate(law, self.INIT, self.P, tables=tables, every=every)
            assert len(log) == len(kept_rows(full.times, every))
            for name in ("times", "rotations", "omegas", "torques"):
                want = kept_rows(getattr(full, name), every)
                assert getattr(log, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("every", [0, -1, 2.5, True])
    def test_bad_stride_raises_before_the_law_is_called(self, every):
        calls = []

        def law(r, w):
            calls.append(w)
            return (0.0, 0.0, 0.0)

        with pytest.raises(ValueError, match="every"):
            simulate(law, self.INIT, self.P, every=every)
        assert calls == []


class TestRk4:
    def test_fourth_order_and_backward_sweep(self):
        # y' = y: forward from 1 reaches e; the reversed grid brings e back to 1.
        times = np.linspace(0.0, 1.0, 11)
        rate = lambda k, theta, y: y
        fwd = rk4(rate, np.array([1.0]), times)
        assert fwd.shape == (11, 1)
        assert abs(fwd[-1, 0] - math.e) <= 1e-5
        back = rk4(rate, fwd[-1], times[::-1])
        assert abs(back[-1, 0] - 1.0) <= 1e-5
        err_coarse = abs(rk4(rate, np.array([1.0]), np.linspace(0.0, 1.0, 6))[-1, 0] - math.e)
        assert 12.0 <= err_coarse / abs(fwd[-1, 0] - math.e) <= 20.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_batch_rows_equal_their_own_sweeps(self, order):
        # A row-wise rate of products and sums only, which round the same in
        # any memory order: every row of a (B, m) batch takes the arithmetic
        # of its own sweep, bit for bit.
        def rate(k, theta, y):
            return y[:, ::-1] * y - 0.5 * y * y * y

        y0 = np.asarray(np.random.default_rng(83).standard_normal((5, 3)), order=order)
        kept = y0.copy()
        times = np.linspace(0.0, 1.0, 21)
        batch = rk4(rate, y0, times)
        assert np.array_equal(y0, kept)
        for b in range(len(y0)):
            assert np.array_equal(rk4(rate, y0[b:b + 1], times)[:, 0], batch[:, b])

    def test_rate_returning_its_argument_leaves_y0_alone(self):
        # The stage buffers are reused: a rate that hands its argument back
        # must neither corrupt a stage nor write into y0.
        y0 = np.asfortranarray(np.array([[1.0, 2.0], [-0.5, 3.0]]))
        kept = y0.copy()
        ys = rk4(lambda k, theta, y: y, y0, np.linspace(0.0, 1.0, 11))
        assert np.array_equal(y0, kept)
        assert np.abs(ys[-1] - math.e * y0).max() <= 1e-5 * np.abs(y0).max()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rate_reusing_one_buffer_matches_fresh_arrays(self, order):
        # Each stage's rate enters the sum before the next call, so a rate
        # that overwrites and returns one buffer gives the same bits.
        def fresh(k, theta, y):
            return y[:, ::-1] * y - 0.5 * y * y * y

        y0 = np.asarray(np.random.default_rng(84).standard_normal((4, 3)), order=order)
        buffer = np.empty_like(y0)

        def reused(k, theta, y):
            np.copyto(buffer, fresh(k, theta, y))
            return buffer

        times = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(rk4(reused, y0, times), rk4(fresh, y0, times))

    def test_rate_sees_grid_interval_and_stage(self):
        calls = []

        def rate(k, theta, y):
            calls.append((k, theta))
            return np.zeros_like(y)

        rk4(rate, np.zeros(2), [0.0, 0.5, 1.0])
        assert calls == [(0, 0.0), (0, 0.5), (0, 0.5), (0, 1.0),
                         (1, 0.0), (1, 0.5), (1, 0.5), (1, 1.0)]


class TestAffineRk4:
    @pytest.mark.parametrize("direction", [1, -1], ids=["forward", "reversed"])
    def test_equals_rk4_on_a_time_varying_system(self, direction):
        # y' = A(t) y + f(t) with A and f known in closed form; rk4 evaluates
        # them at each stage, affine_rk4 reads them at samples and midpoints.
        rng = np.random.default_rng(81)
        a0, a1 = 0.5 * rng.standard_normal((2, 4, 4))
        f0, f1 = rng.standard_normal((2, 4))
        y0 = rng.standard_normal(4)
        a = lambda t: a0 + np.sin(3.0 * t)[..., None, None] * a1
        f = lambda t: f0 + np.cos(2.0 * t)[..., None] * f1
        times = np.linspace(0.0, 1.0, 51)[::direction]
        mids = 0.5 * (times[:-1] + times[1:])

        def rate(k, theta, y):
            t = np.asarray(times[k] + theta * (times[k + 1] - times[k]))
            return a(t) @ y + f(t)

        expected = rk4(rate, y0, times)
        got = affine_rk4((a(times), a(mids)), (f(times), f(mids)), y0, times)
        assert got.shape == (51, 4)
        assert np.abs(got - expected).max() <= 1e-13

    def test_fourth_order_against_expm(self):
        rng = np.random.default_rng(82)
        a = rng.standard_normal((4, 4))
        y0 = rng.standard_normal(4)
        exact = scipy.linalg.expm(a) @ y0
        errors = [np.abs(affine_rk4((a, a), (0.0, 0.0), y0,
                                    np.linspace(0.0, 1.0, steps + 1))[-1] - exact).max()
                  for steps in (10, 20)]
        assert 14.0 <= errors[0] / errors[1] <= 18.0


class TestSimParams:
    def test_step_bounds(self):
        with pytest.raises(ValueError):
            SimParams(0.02, 1.0, J123)
        with pytest.raises(ValueError):
            SimParams(0.0, 1.0, J123)
        with pytest.raises(ValueError):
            SimParams(1e-3, -1.0, J123)
