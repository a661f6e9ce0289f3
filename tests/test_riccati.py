"""Riccati solvers: scalar system, stabilizing ARE, backward sweep."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geolqr.dynamics import nearest_sample, time_grid
from geolqr.errors import NoStabilizingSolution, NotControllable, StepTooLarge, ValidationError
from geolqr.riccati import (
    B_CANONICAL,
    DRIFT_MODES,
    CostParams,
    GainPair,
    RiccatiSolution,
    are_residual,
    are_solve,
    dre_integrate,
    drift_matrix,
    scalar_residual,
)

B = np.array([[0.0], [1.0]])
Q2 = np.eye(2)


class TestScalarResidual:
    def test_zero_solution(self):
        res = scalar_residual(RiccatiSolution(0.0, 0.0, 0.0), CostParams(alpha=1.0))
        assert np.allclose(res, [1.0, 1.0, 0.0], atol=0.0)

    def test_undiscounted_closed_form(self):
        # gamma = 0, alpha = 1: k3 = 1, k2 = sqrt(3), k1 = sqrt(3) solves the
        # system; verify by substitution.
        sol = RiccatiSolution(math.sqrt(3.0), math.sqrt(3.0), 1.0)
        res = scalar_residual(sol, CostParams(alpha=1.0, gamma=0.0))
        assert np.abs(res).max() <= 1e-15

    def test_root_finder_oracle_agrees(self):
        # Independent route: hand the three equations to a generic root
        # finder and compare its positive root with the ARE solution.
        import scipy.optimize

        for gamma, alpha in ((0.0, 1.0), (-1.0, 0.5), (1.3, 2.0)):
            params = CostParams(alpha=alpha, gamma=gamma)

            def equations(k):
                return scalar_residual(RiccatiSolution(k[0], k[1], k[2]), params)

            root = scipy.optimize.fsolve(equations, [1.0, 1.0, 1.0], full_output=False,
                                         xtol=1e-13)
            assert np.abs(equations(root)).max() <= 1e-9
            sol = are_solve(drift_matrix("reconciled", gamma), Q2, alpha)
            assert np.abs(np.array([sol.k1, sol.k2, sol.k3]) - root).max() <= 1e-8

    def test_are_solution_zeroes_scalar_system(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gamma = rng.uniform(-2.0, 2.0)
            alpha = rng.uniform(0.1, 10.0)
            sol = are_solve(drift_matrix("reconciled", gamma), Q2, alpha)
            res = scalar_residual(sol, CostParams(alpha=alpha, gamma=gamma))
            assert np.abs(res).max() <= 1e-9


class TestAreSolve:
    def test_published_regulation_table(self):
        sol = are_solve(drift_matrix("published-regulation"), Q2, 0.5)
        g = sol.gains(0.5)
        assert abs(g.kP - 1.41421) <= 1e-3
        assert abs(g.kD - 2.76714) <= 1e-3
        assert are_residual(drift_matrix("published-regulation"), Q2, 0.5, sol) <= 1e-9

    def test_published_tracking_table(self):
        a = drift_matrix("published-tracking", gamma=-2.0)
        assert np.array_equal(a, [[2.0, 2.0], [0.0, 2.0]])
        sol = are_solve(a, Q2, 1.0)
        g = sol.gains(1.0)
        assert abs(g.kP - 8.7852) <= 1e-3
        assert abs(g.kD - 8.3357) <= 1e-3

    def test_double_integrator_closed_form(self):
        # kP = sqrt(q1/r), kD = sqrt(q2/r + 2 kP); verified by residual
        # substitution.
        sol = are_solve([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0)
        g = sol.gains(1.0)
        assert abs(g.kP - 1.0) <= 1e-12
        assert abs(g.kD - math.sqrt(3.0)) <= 1e-12
        assert are_residual([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0, sol) <= 1e-12

    def test_positive_definite_and_hurwitz(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            a = rng.standard_normal((2, 2))
            if np.linalg.matrix_rank(np.hstack([B, a @ B])) < 2:
                continue
            rw = rng.uniform(0.1, 5.0)
            sol = are_solve(a, Q2, rw)
            assert sol.is_positive_definite()
            s = (B @ B.T) / rw
            closed = np.linalg.eigvals(a - s @ sol.as_matrix())
            assert closed.real.max() < 0.0
            assert are_residual(a, Q2, rw, sol) <= 1e-9

    def test_matches_scipy(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            if np.linalg.matrix_rank(np.hstack([B, a @ B])) < 2:
                continue
            rw = rng.uniform(0.2, 3.0)
            sol = are_solve(a, Q2, rw)
            k_ref = scipy.linalg.solve_continuous_are(a, B, Q2, np.array([[rw]]))
            assert np.abs(sol.as_matrix() - k_ref).max() <= 1e-8

    def test_not_controllable(self):
        with pytest.raises(NotControllable):
            are_solve(np.zeros((2, 2)), Q2, 1.0)

    def test_no_stabilizing_solution(self):
        # Q = 0 leaves the whole Hamiltonian spectrum on the imaginary axis.
        with pytest.raises(NoStabilizingSolution):
            are_solve([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)), 1.0)


class TestGains:
    def test_zero_matrix(self):
        g = RiccatiSolution(0.0, 0.0, 0.0).gains(1.0)
        assert g == GainPair(0.0, 0.0)

    def test_back_solved_regulation_entries(self):
        g = RiccatiSolution(0.97832, 1.38357, 0.70711).gains(0.5)
        assert abs(g.kP - 1.41421) <= 1e-4
        assert abs(g.kD - 2.76714) <= 1e-4

    def test_tracking_entries_alpha_one(self):
        g = RiccatiSolution(19.0447, 8.3357, 8.7852).gains(1.0)
        assert g == GainPair(8.7852, 8.3357)


class TestDre:
    def test_terminal_condition_exact(self):
        sched = dre_integrate(drift_matrix("published-tracking", -2.0), Q2, 1.0,
                              t_end=1.0, h=1e-3)
        assert sched.k1[-1] == 0.0 and sched.k2[-1] == 0.0 and sched.k3[-1] == 0.0
        g = sched.gains_at(1.0)
        assert g == GainPair(0.0, 0.0)

    def test_long_horizon_matches_are(self):
        a = drift_matrix("published-tracking", -2.0)
        sched = dre_integrate(a, Q2, 1.0, t_end=20.0, h=1e-3)
        sol = are_solve(a, Q2, 1.0)
        k0 = sched.solution_at(0.0)
        assert abs(k0.k1 - sol.k1) <= 1e-4
        assert abs(k0.k2 - sol.k2) <= 1e-4
        assert abs(k0.k3 - sol.k3) <= 1e-4

    def test_symmetry_by_construction(self):
        # Only (k1, k2, k3) are stored, so K - K.T is identically zero.
        sched = dre_integrate([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0, t_end=2.0, h=1e-3)
        k = sched.solution_at(0.7).as_matrix()
        assert np.array_equal(k, k.T)

    def test_positive_semidefinite_along_grid(self):
        sched = dre_integrate(drift_matrix("published-tracking", -2.0), Q2, 1.0,
                              t_end=5.0, h=1e-3)
        for i in range(0, len(sched.times), 200):
            k = np.array([[sched.k1[i], sched.k3[i]], [sched.k3[i], sched.k2[i]]])
            assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_central_difference_residual(self):
        # Mild regulation-scale parameters keep |K'''| small enough for the
        # 10 h^2 bound; the stiff tracking table exceeds it in its transient.
        a = drift_matrix("reconciled", 0.0)
        h = 1e-3
        sched = dre_integrate(a, Q2, 1.0, t_end=5.0, h=h)
        s = (B @ B.T) / 1.0
        worst = 0.0
        for i in range(1, len(sched.times) - 1, 37):
            k_prev = np.array([[sched.k1[i - 1], sched.k3[i - 1]],
                               [sched.k3[i - 1], sched.k2[i - 1]]])
            k_next = np.array([[sched.k1[i + 1], sched.k3[i + 1]],
                               [sched.k3[i + 1], sched.k2[i + 1]]])
            k = np.array([[sched.k1[i], sched.k3[i]], [sched.k3[i], sched.k2[i]]])
            kdot = (k_next - k_prev) / (2.0 * h)
            res = kdot + a.T @ k + k @ a - k @ s @ k + Q2
            worst = max(worst, float(np.linalg.norm(res)))
        assert worst <= 10.0 * h * h

    def test_finite_escape_raises(self):
        with pytest.raises(StepTooLarge):
            dre_integrate([[5.0, 0.0], [0.0, 5.0]], Q2, 1e6, t_end=10.0, h=1e-3)

    # Q = -I has a true finite escape (the RK4 sweep once raised
    # StepTooLarge at s = 1.356 on it); the linear flow would step through
    # the pole, so the PSD rule on Q refuses it before any sweep.
    @pytest.mark.parametrize("q", [-Q2, np.array([[1.0, 0.5], [0.0, 1.0]]),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])],
                             ids=["negative", "asymmetric", "indefinite"])
    def test_q_outside_the_psd_rule_is_refused(self, q):
        a = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValidationError) as err:
            dre_integrate(a, q, 1.0, t_end=10.0, h=1e-3)
        assert err.value.path == "q_weights"
        with pytest.raises(ValidationError) as err:
            are_solve(a, q, 1.0)
        assert err.value.path == "q_weights"

    def test_step_validation(self):
        with pytest.raises(ValueError):
            dre_integrate([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0, t_end=1.0, h=2.0)
        with pytest.raises(ValueError):
            dre_integrate([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0, t_end=-1.0, h=1e-3)
        with pytest.raises(ValueError):
            dre_integrate([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0, t_end=math.inf, h=1e-3)

    # A step so small that the step count overflows a float is refused by
    # the grid's own check, not by an OverflowError from rounding it.
    def test_overflowing_step_count_names_h(self):
        with pytest.raises(ValidationError) as err:
            dre_integrate([[0.0, 1.0], [0.0, 0.0]], Q2, 1.0, t_end=1.0, h=5e-324)
        assert err.value.path == "h"

    # A non-finite drift matrix is refused by name before the rank test's
    # SVD or the eigensolver sees it.
    @pytest.mark.parametrize("solve", [
        lambda a: are_solve(a, Q2, 1.0),
        lambda a: dre_integrate(a, Q2, 1.0, t_end=1.0, h=1e-2),
    ], ids=["are_solve", "dre_integrate"])
    @pytest.mark.parametrize("a", [drift_matrix("reconciled", math.nan),
                                   [[0.0, math.inf], [0.0, 0.0]]], ids=["nan-gamma", "inf"])
    def test_non_finite_drift_names_a(self, solve, a):
        with pytest.raises(ValidationError) as err:
            solve(a)
        assert err.value.path == "a"

    def test_gain_interpolation(self):
        a = drift_matrix("published-tracking", -2.0)
        sched = dre_integrate(a, Q2, 1.0, t_end=10.0, h=1e-3)
        g = sched.gains_at(0.0)
        assert abs(g.kP - 8.7852) <= 1e-3
        assert abs(g.kD - 8.3357) <= 1e-3


def test_drift_matrix_modes():
    assert np.array_equal(drift_matrix("published-regulation", 123.0),
                          [[0.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(drift_matrix("reconciled", 1.0),
                          [[-0.5, 1.0], [0.0, -0.5]])
    with pytest.raises(ValueError):
        drift_matrix("bogus")


def test_unknown_drift_mode_names_the_config_key():
    # drift_matrix is the one check of the mode; config prefixes "controller".
    with pytest.raises(ValidationError) as err:
        drift_matrix("bogus")
    assert err.value.path == "a_matrix_mode"
    assert err.value.message == f"expected one of {DRIFT_MODES}"


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(alpha=0.0)
    with pytest.raises(ValueError):
        CostParams(alpha=1.0, q_weights=np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestIndexedSchedule:
    """solution_at reads the sample at the nearest grid index; on the
    simulation grid that is what np.interp returned."""

    @staticmethod
    def schedule(t_end, h):
        return dre_integrate(drift_matrix("published-tracking", -2.0), Q2, 1.0,
                             t_end=t_end, h=h)

    @pytest.mark.parametrize("t_end, h, same_grid", [
        (20.0, 1e-3, True), (0.7, 1e-3, False), (2.3, 1e-3, False)])
    def test_same_bits_as_interpolation_at_simulation_times(self, t_end, h, same_grid):
        sched = self.schedule(t_end, h)
        times = time_grid(h, t_end)
        # False: linspace and arange * h differ in the last bit at t_end.
        assert np.array_equal(times, sched.times) == same_grid
        k = sched.solution_at(times)
        for got, samples in ((k.k1, sched.k1), (k.k2, sched.k2), (k.k3, sched.k3)):
            assert np.array_equal(got, np.interp(times, sched.times, samples))
        for i in (0, 1, len(times) // 2, len(times) - 1):
            sol = sched.solution_at(times.item(i))
            assert type(sol.k2) is float
            assert (sol.k1, sol.k2, sol.k3) == (k.k1[i], k.k2[i], k.k3[i])

    def test_reads_samples_where_interpolation_drifts(self):
        # With h = 3e-3, arange * h and linspace differ in the last bit at
        # most interior times, so np.interp leaned on a neighbour there.
        sched = self.schedule(3.3, 3e-3)
        times = time_grid(3e-3, 3.3)
        assert (times != sched.times).sum() > 900
        assert np.array_equal(sched.solution_at(times).k2, sched.k2)
        interp = np.interp(times, sched.times, sched.k2)
        assert not np.array_equal(interp, sched.k2)
        assert np.abs(interp - sched.k2).max() <= 1e-14 * np.abs(sched.k2).max()

    # Whole-step horizons t_end = N h, as config requires of a DRE closed
    # loop, which reads row i of the schedule as its sample i. The examples
    # are horizons where linspace and arange * h differ in the last bit.
    @settings(deadline=None)
    @given(horizon=st.builds(lambda n, h: (n * h, h), st.integers(1, 2000),
                             st.sampled_from([1e-3, 3e-3, 1e-2])))
    @example(horizon=(0.7, 1e-3))
    @example(horizon=(2.3, 1e-3))
    @example(horizon=(3.3, 3e-3))
    def test_rows_are_the_simulation_samples(self, horizon):
        t_end, h = horizon
        sched = self.schedule(t_end, h)
        times = time_grid(h, t_end)
        n = len(times) - 1
        assert len(sched.times) == n + 1
        for step in (h, sched.times.item(-1) / n):
            assert np.array_equal(nearest_sample(times, step, n), np.arange(n + 1))
        k = sched.solution_at(times)
        for got, rows in ((k.k1, sched.k1), (k.k2, sched.k2), (k.k3, sched.k3)):
            assert np.array_equal(got, rows)

    def test_gains_at_is_solution_at_gains(self):
        sched = self.schedule(5.0, 1e-3)
        for t in time_grid(1e-3, 5.0).tolist():
            assert sched.gains_at(t) == sched.solution_at(t).gains(1.0)

    def test_rejects_times_off_the_grid(self):
        sched = self.schedule(1.0, 1e-3)
        assert sched.solution_at(1.0).k1 == 0.0
        assert sched.solution_at(1.0004).k1 == 0.0
        for t in (-0.01, 1.01, 5.0):
            with pytest.raises(ValueError):
                sched.solution_at(t)
        with pytest.raises(ValueError):
            sched.solution_at(np.array([0.0, 0.5, 1.01]))
        with pytest.raises(ValueError):
            sched.gains_at(1.01)


# Problem data over every drift mode: gamma in [-2, 2], alpha in [0.1, 10]
# and a positive definite Q = M M.T + 0.1 I.
@st.composite
def riccati_problems(draw):
    m = draw(arrays(float, (2, 2), elements=st.floats(-2.0, 2.0)))
    a = drift_matrix(draw(st.sampled_from(DRIFT_MODES)), draw(st.floats(-2.0, 2.0)))
    return a, m @ m.T + 0.1 * np.eye(2), draw(st.floats(0.1, 10.0))


def relative_error(k, k_ref) -> float:
    return float(np.linalg.norm(k - k_ref) / np.linalg.norm(k_ref))


class TestRiccatiProperties:
    @settings(max_examples=100, deadline=None)
    @given(problem=riccati_problems())
    def test_are_matches_scipy(self, problem):
        a, q, alpha = problem
        k_ref = scipy.linalg.solve_continuous_are(a, B_CANONICAL, q, np.array([[alpha]]))
        assert relative_error(are_solve(a, q, alpha).as_matrix(), k_ref) <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(problem=riccati_problems())
    def test_dre_converges_to_are(self, problem):
        # Criterion 08 as a property. K(0) of the backward sweep approaches
        # the ARE solution as the horizon grows: the error never increases
        # before it reaches 1e-12. At T = 20 it is at most 1e-8, unless the
        # slowest closed-loop mode, decaying like exp(-sigma t), is too slow
        # for that (alpha = 10 and Q = 0.1 I leave 1.6e-5 on the
        # published-regulation drift); then it still shrinks from T = 10 by
        # at least exp(-10 sigma), half the rate exp(-20 sigma) of the
        # linearized sweep.
        a, q, alpha = problem
        sol = are_solve(a, q, alpha)
        k = sol.as_matrix()
        sigma = -np.linalg.eigvals(a - B_CANONICAL @ B_CANONICAL.T @ k / alpha).real.max()
        errors = [relative_error(dre_integrate(a, q, alpha, t_end=t_end, h=1e-2)
                                 .solution_at(0.0).as_matrix(), k)
                  for t_end in (2.0, 5.0, 10.0, 20.0)]
        for before, after in zip(errors, errors[1:]):
            assert before <= 1e-12 or after <= before
        assert errors[3] <= 1e-8 or errors[3] <= errors[2] * math.exp(-10.0 * sigma)
