"""Property tests of the closed loop's Python-float kernels against the numpy
formulas they replace, written out here as the oracles: the integrator step,
the torque laws, the backward Riccati sweep and the reference polynomial
tables; and of the array attitude-error pass against log_so3 row by row."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geolqr.config import ReferenceConfig, parse_config
from geolqr.dynamics import (
    InertiaTensor,
    RigidBodyState,
    SimParams,
    lie_euler_step,
    rk4,
    simulate,
    time_grid,
)
from geolqr.errors import AngleNearPi
from geolqr.regulators import (
    ReferenceSample,
    RegulationGoal,
    feedforward_torque,
    regulation_torque,
    tracking_pd_torque,
    tracking_torque,
)
from geolqr.riccati import (
    B_CANONICAL,
    DRIFT_MODES,
    GainPair,
    _problem,
    _riccati_operator,
    dre_integrate,
    drift_matrix,
)
from geolqr.so3 import (
    _CHUNK,
    SMALL_ANGLE,
    attitude_errors,
    exp_so3,
    log_so3,
    orthogonality_defect,
)

EPS = np.finfo(float).eps
REL = 1e-14

vectors = arrays(np.float64, 3, elements=st.floats(-2.0, 2.0))
# Rotation vectors of at most 1.2 sqrt(3) = 2.08 rad per draw keep relative
# rotations away from the logarithm's cut locus, where it amplifies rounding.
rotations = arrays(np.float64, 3, elements=st.floats(-1.2, 1.2)).map(exp_so3)
gains = st.builds(GainPair, st.floats(0.0, 20.0), st.floats(0.0, 20.0))


@st.composite
def inertias(draw):
    """Symmetric positive definite inertia: principal moments in [0.5, 5]
    about randomly rotated axes."""
    moments = draw(arrays(np.float64, 3, elements=st.floats(0.5, 5.0)))
    axes = exp_so3(draw(vectors))
    j = axes @ np.diag(moments) @ axes.T
    return InertiaTensor(0.5 * (j + j.T))


def assert_close(got, want, scale):
    """Every entry within REL of the magnitude of the terms that formed it."""
    assert np.asarray(got).shape == np.shape(want)
    assert np.abs(np.asarray(got) - want).max() <= REL * max(1.0, scale)


class TestStepAndLaws:
    @given(r=rotations, w=vectors, tau=vectors, h=st.floats(1e-4, 1e-2), j=inertias())
    def test_step(self, r, w, tau, h, j):
        out = lie_euler_step(RigidBodyState(r, w), tau, h, j)
        wdot = j.j_inv @ np.cross(j.j @ w, w) + tau
        # The rotation update is still the numpy product, so it is exact.
        assert np.array_equal(out.r, r @ exp_so3(w * h))
        assert_close(out.w, w + h * wdot, np.abs(w).max() + h * np.abs(wdot).max())

    @given(r_d=rotations, rel=rotations, w=vectors, g=gains)
    def test_regulation_torque(self, r_d, rel, w, g):
        s = RigidBodyState(r_d @ rel, w)
        e = log_so3(r_d.T @ s.r)
        want = -g.kP * e - g.kD * w
        got = regulation_torque(s, RegulationGoal(r_d), g)
        assert_close(got, want, g.kP * math.pi + g.kD * np.abs(w).max())

    @given(r_ref=rotations, rel=rotations, w=vectors, w_ref=vectors, g=gains)
    def test_tracking_pd_torque(self, r_ref, rel, w, w_ref, g):
        s = RigidBodyState(r_ref @ rel, w)
        ref = ReferenceSample(r_ref, w_ref, np.zeros(3))
        e = log_so3(r_ref.T @ s.r)
        w_t = s.r.T @ (r_ref @ w_ref)
        want = -g.kP * e - g.kD * (w - w_t)
        got = tracking_pd_torque(s, ref, g)
        assert_close(got, want, g.kP * math.pi + g.kD * 2.0 * np.abs(w_t).max()
                     + g.kD * np.abs(w).max())

    @given(r_ref=rotations, rel=rotations, w=vectors, w_ref=vectors, wdot=vectors,
           j=inertias(), accel_term=st.booleans())
    def test_feedforward_torque(self, r_ref, rel, w, w_ref, wdot, j, accel_term):
        s = RigidBodyState(r_ref @ rel, w)
        ref = ReferenceSample(r_ref, w_ref, wdot)
        m = s.r.T @ r_ref
        w_t = m @ w_ref
        want = 0.5 * (np.cross(w, w_t)
                      - j.j_inv @ (np.cross(j.j @ w_t, w) + np.cross(j.j @ w, w_t)))
        if accel_term:
            want = want + m @ wdot
        got = feedforward_torque(s, ref, j, accel_term)
        # |J^-1| |J| <= 10 for moments in [0.5, 5]; |w|, |w_t| <= 2 sqrt(3).
        assert_close(got, want, 10.0 * 12.0 + 2.0 * np.abs(wdot).max())

    @given(r_ref=rotations, rel=rotations, w=vectors, w_ref=vectors, wdot=vectors,
           g=gains, j=inertias(), accel_term=st.booleans())
    def test_tracking_torque_is_the_sum_of_both_terms(self, r_ref, rel, w, w_ref, wdot,
                                                      g, j, accel_term):
        s = RigidBodyState(r_ref @ rel, w)
        ref = ReferenceSample(r_ref, w_ref, wdot)
        want = tracking_pd_torque(s, ref, g) + feedforward_torque(s, ref, j, accel_term)
        assert tracking_torque(s, ref, g, j, accel_term).tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(r0=rotations, w0=vectors, torques=arrays(np.float64, (41, 3),
                                                elements=st.floats(-1.0, 1.0)),
       j=inertias())
def test_simulate_keeps_rotations_orthogonal(r0, w0, torques, j):
    # A piecewise-constant torque drawn afresh every 25 steps for 1,000 steps.
    h = 1e-3
    log = simulate(lambda t, s: torques[int(round(t / h)) // 25],
                   RigidBodyState(r0, w0), SimParams(h, 1.0, j))
    assert max(orthogonality_defect(r) for r in log.rotations) <= 1e-12


def dre_oracle(a, q, rw, t_end, h):
    """The numpy sweep: rk4 over _riccati_operator on the 2x2 matrix K."""
    a, _, q, s = _problem(a, B_CANONICAL, q, rw)

    def rate(k, theta, y):
        m = _riccati_operator(a, s, q, np.array([[y[0], y[2]], [y[2], y[1]]]))
        return np.array([m[0, 0], m[1, 1], 0.5 * (m[0, 1] + m[1, 0])])

    times = np.linspace(0.0, t_end, max(1, int(round(t_end / h))) + 1)
    return rk4(rate, np.zeros(3), times)[::-1]


psd_weights = arrays(np.float64, (2, 2), elements=st.floats(-2.0, 2.0)).map(
    lambda m: m @ m.T)


class TestDreSweep:
    # Powers of two make every product of a drift entry exact, so a fused
    # multiply-add in numpy's BLAS cannot round differently from the float
    # rate; the shipped drift matrices (entries 0 and +-2) are of this kind.
    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(DRIFT_MODES),
           gamma=st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0]),
           alpha=st.floats(0.1, 10.0), q=psd_weights)
    def test_bit_identical_with_exact_drift_products(self, mode, gamma, alpha, q):
        a = drift_matrix(mode, gamma)
        sched = dre_integrate(a, B_CANONICAL, q, alpha, t_end=0.5, h=1e-3)
        ys = dre_oracle(a, q, alpha, 0.5, 1e-3)
        for i, k in enumerate((sched.k1, sched.k2, sched.k3)):
            assert np.array_equal(k, ys[:, i])

    # Any other gamma leaves the two sweeps a few ulps apart per step.
    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(DRIFT_MODES), gamma=st.floats(-2.0, 2.0),
           alpha=st.floats(0.1, 10.0), q=psd_weights)
    def test_close_for_any_drift(self, mode, gamma, alpha, q):
        a = drift_matrix(mode, gamma)
        sched = dre_integrate(a, B_CANONICAL, q, alpha, t_end=0.5, h=1e-3)
        ys = dre_oracle(a, q, alpha, 0.5, 1e-3)
        scale = np.abs(ys).max()
        for i, k in enumerate((sched.k1, sched.k2, sched.k3)):
            assert np.abs(k - ys[:, i]).max() <= 1e-12 * max(1.0, scale)


def generator_sums(coeffs, t):
    """w_ref and its derivative at one time, as the sums over powers of t
    that the reference used before the tables were evaluated by Horner."""
    w = [sum(c * t ** k for k, c in enumerate(axis)) for axis in coeffs]
    wdot = [sum(k * c * t ** (k - 1) for k, c in enumerate(axis) if k >= 1)
            for axis in coeffs]
    return np.array(w, dtype=float), np.array(wdot, dtype=float)


coefficient_lists = st.lists(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
                             min_size=3, max_size=3)


class TestReferenceTables:
    @settings(max_examples=50, deadline=None)
    @given(coeffs=coefficient_lists, t_end=st.floats(0.01, 50.0))
    def test_horner_matches_generator_sums(self, coeffs, t_end):
        ref = ReferenceConfig(coeffs, np.eye(3))
        times = np.linspace(0.0, t_end, 41)
        w, wdot = ref.omega(times), ref.omega_dot(times)
        assert w.shape == wdot.shape == (41, 3)
        for i, t in enumerate(times.tolist()):
            w_gen, wdot_gen = generator_sums(coeffs, t)
            for axis, cs in enumerate(coeffs):
                # Horner and the power sums each round about once per term.
                bound_w = 4 * len(cs) * EPS * sum(abs(c) * t ** k for k, c in enumerate(cs))
                bound_d = 4 * len(cs) * EPS * sum(abs(k * c) * t ** (k - 1)
                                                  for k, c in enumerate(cs) if k >= 1)
                assert abs(w[i, axis] - w_gen[axis]) <= bound_w
                assert abs(wdot[i, axis] - wdot_gen[axis]) <= bound_d
                if len(cs) <= 2:
                    assert w[i, axis] == w_gen[axis]
                    assert wdot[i, axis] == wdot_gen[axis]

    @pytest.mark.parametrize("config", ["configs/track.json", None])
    def test_shipped_tables_are_bit_identical(self, config):
        # The shipped track config and the default reference.
        root = Path(__file__).resolve().parents[1]
        text = ((root / config).read_text(encoding="utf-8") if config
                else json.dumps({"command": "track"}))
        cfg = parse_config(text)
        times = time_grid(cfg.sim.h, cfg.sim.t_end)
        w, wdot = cfg.reference.omega(times), cfg.reference.omega_dot(times)
        for i, t in enumerate(times.tolist()):
            w_gen, wdot_gen = generator_sums(cfg.reference.omega_coeffs, t)
            assert np.array_equal(w[i], w_gen) and np.array_equal(wdot[i], wdot_gen)


unit_axes = vectors.filter(lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: v / np.linalg.norm(v))
# tr + 1 = 2 (1 - cos d) is about d^2 at the angle pi - d, so TRACE_GUARD =
# 1e-6 puts the cut-locus guard at d = 1e-3.
relative_angles = st.one_of(st.just(0.0), st.floats(0.0, SMALL_ANGLE),
                            st.floats(0.0, math.pi - 2e-3),
                            st.floats(math.pi - 1.2e-3, math.pi - 1.01e-3))
near_pi_angles = st.one_of(st.floats(math.pi - 1.2e-3, math.pi),
                           st.floats(math.pi - 1.02e-3, math.pi - 0.98e-3))
pairs = st.tuples(rotations, unit_axes, relative_angles)


def rotation_pairs(drawn, broadcast):
    """(r_from, rotations) with rotations[i] = r_from[i] exp(angle_i axis_i);
    broadcast makes r_from one rotation seen through np.broadcast_to."""
    r_from = np.array([r for r, _, _ in drawn])
    if broadcast:
        r_from = np.broadcast_to(r_from[0], r_from.shape)
    rots = np.array([r @ exp_so3(angle * axis)
                     for r, (_, axis, angle) in zip(r_from, drawn)])
    return r_from, rots


def row_by_row(r_from, rots):
    return np.array([log_so3(r0.T @ r) for r0, r in zip(r_from, rots)]).reshape(-1, 3)


class TestAttitudeErrors:
    @settings(max_examples=150, deadline=None)
    @given(drawn=st.lists(pairs, min_size=1, max_size=40), broadcast=st.booleans())
    def test_bit_identical_with_log_so3(self, drawn, broadcast):
        r_from, rots = rotation_pairs(drawn, broadcast)
        assert attitude_errors(r_from, rots).tobytes() == row_by_row(r_from, rots).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(drawn=st.lists(pairs, max_size=10), near=st.tuples(rotations, unit_axes,
                                                              near_pi_angles),
           at=st.integers(0, 10))
    def test_raises_where_log_so3_does(self, drawn, near, at):
        drawn.insert(min(at, len(drawn)), near)
        r_from, rots = rotation_pairs(drawn, False)
        try:
            want = row_by_row(r_from, rots)
        except AngleNearPi:
            with pytest.raises(AngleNearPi):
                attitude_errors(r_from, rots)
        else:
            assert attitude_errors(r_from, rots).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5])
    def test_lengths_across_chunks(self, n):
        rng = np.random.default_rng(n)
        r_from = np.array([exp_so3(v) for v in rng.uniform(-1.2, 1.2, (n, 3))])
        rel = rng.standard_normal((n, 3))
        rel *= (rng.uniform(0.0, 3.0, n) / np.linalg.norm(rel, axis=1))[:, None]
        rel[: n // 4] *= 1e-5 / 3.0
        rots = np.array([r @ exp_so3(v) for r, v in zip(r_from, rel)])
        rots[n // 2] = r_from[n // 2]
        assert attitude_errors(r_from, rots).tobytes() == row_by_row(r_from, rots).tobytes()
        # A cut-locus pair in the last chunk still raises.
        rots[-1] = r_from[-1] @ exp_so3([0.0, 0.0, math.pi])
        with pytest.raises(AngleNearPi):
            attitude_errors(r_from, rots)
