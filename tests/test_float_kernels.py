"""Property tests of the closed loop's Python-float kernels against the numpy
formulas they replace, written out here as the oracles: the integrator step,
the torque laws and the reference polynomial tables; of simulate's float
loop and the scenarios' controllers against a per-step loop of state objects
and the public array laws, bit for bit; of the backward Riccati
sweep against the exact Hamiltonian flow by scipy; and of the array
exponential and attitude-error passes against exp_so3 and log_so3 row by
row."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geolqr import scenarios
from geolqr.config import ReferenceConfig, parse_config
from geolqr.dynamics import (
    AFFINE_CHUNK,
    InertiaTensor,
    RigidBodyState,
    SimParams,
    lie_euler_step,
    nearest_sample,
    simulate,
    time_grid,
)
from geolqr.errors import AngleNearPi, NumericalDivergence
from geolqr.regulators import (
    ReferenceSample,
    TrackingReference,
    feedforward_torque,
    regulation_controller,
    regulation_torque,
    tracking_controller,
    tracking_pd_torque,
)
from geolqr.riccati import (
    DRIFT_MODES,
    GainPair,
    _problem,
    are_solve,
    dre_integrate,
    drift_matrix,
)
from geolqr.so3 import (
    _CHUNK,
    SMALL_ANGLE,
    attitude_errors,
    exp_rows,
    exp_so3,
    geodesic_distance,
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


def tracking_law(ref, g, j, accel_term):
    """The law of tracking_controller(ref, g, j, accel_term) as
    law(s, sample, gains) -> (3,) array: state s and a row made of a
    ReferenceSample and a GainPair, passed as simulate passes them."""
    law, _ = tracking_controller(ref, g, j, accel_term)
    return lambda s, sample, gains: np.array(law(
        s.r, tuple(s.w.tolist()), sample.r.ravel().tolist(), sample.w.tolist(),
        sample.wdot.tolist(), gains.kP, gains.kD))


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
        got = regulation_torque(s, r_d, g)
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
        # The law of tracking_controller on the one row of a one-sample reference.
        s = RigidBodyState(r_ref @ rel, w)
        ref = TrackingReference(w_ref[None], wdot[None], 1e-3, r0=r_ref)
        sample = ref.sample(0.0)
        want = tracking_pd_torque(s, sample, g) + feedforward_torque(s, sample, j, accel_term)
        got = tracking_law(ref, g, j, accel_term)(s, sample, g)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(r0=rotations, w0=vectors, torques=arrays(np.float64, (41, 3),
                                                elements=st.floats(-1.0, 1.0)),
       j=inertias())
def test_simulate_keeps_rotations_orthogonal(r0, w0, torques, j):
    # A piecewise-constant torque drawn afresh every 25 steps for 1,000 steps.
    h = 1e-3
    log = simulate(lambda r, w, tau: tau, RigidBodyState(r0, w0), SimParams(h, 1.0, j),
                   tables=(np.repeat(torques, 25, axis=0)[:1001],))
    assert max(orthogonality_defect(r) for r in log.rotations) <= 1e-12


def simulate_per_step(law, init, p):
    """The closed loop with a RigidBodyState per step, lie_euler_step and
    law(t, s) -> (3,) array, as it ran before simulate's float contract:
    the oracle of simulate's loop. Returns the logged rotations,
    velocities and torques."""
    times = time_grid(p.h, p.t_end)
    s = RigidBodyState(init.r.copy(), init.w.copy())
    rows = []
    for k, t in enumerate(times.tolist()):
        tau = law(t, s)
        rows.append((s.r, s.w, tau))
        if k < len(times) - 1:
            s = lie_euler_step(s, tau, p.h, p.inertia)
    return tuple(np.array(x) for x in zip(*rows))


J_OFF = InertiaTensor([[1.0, 0.1, -0.2], [0.1, 2.0, 0.3], [-0.2, 0.3, 3.0]])
SIM = SimParams(1e-3, 1.0, J_OFF)
START = RigidBodyState(exp_so3([0.9, -0.4, 0.7]), np.array([0.3, -1.1, 0.5]))
GOAL = exp_so3([-0.2, 0.1, 0.3])


def schedules(p=SIM):
    """ARE and DRE gains of the published tracking problem on p's grid:
    (gains_at(t) for the per-step loop, the pair over the grid for the
    controllers)."""
    a = drift_matrix("published-tracking", -2.0)
    sol = are_solve(a, np.eye(2), 1.0)
    sched = dre_integrate(a, np.eye(2), 1.0, t_end=p.t_end, h=p.h)
    times = time_grid(p.h, p.t_end)
    return {"are": (lambda t: sol.gains(1.0), sol.gains(1.0)),
            "dre": (sched.gains_at, sched.solution_at(times).gains(1.0))}


def quadratic_reference(p):
    """w_ref = b + c t + d t^2 on p's grid: every row of all three tables
    differs from its neighbours."""
    t = time_grid(p.h, p.t_end)[:, None]
    b, c, d = np.array([[0.2, 0.1, -0.3], [0.5, -0.3, 0.4], [0.3, 0.2, -0.1]])
    return TrackingReference(b + c * t + d * t * t, c + 2.0 * d * t, p.h,
                             r0=exp_so3([0.1, 0.2, 0.3]))


class TestClosedLoopAgainstPerStepObjects:
    """simulate with the public controllers against simulate_per_step with
    the public array laws, bit for bit over 1,000 steps."""

    @staticmethod
    def run(controller, p=SIM):
        law, tables = controller
        return simulate(law, START, p, tables=tables)

    @staticmethod
    def assert_same_log(log, oracle):
        rotations, omegas, torques = oracle
        assert np.array_equal(log.rotations, rotations)
        assert np.array_equal(log.omegas, omegas)
        assert np.array_equal(log.torques, torques)

    @pytest.mark.parametrize("source", ["are", "dre"])
    def test_regulation(self, source):
        gains_at, g = schedules()[source]
        log = self.run(regulation_controller(GOAL, g))
        self.assert_same_log(log, simulate_per_step(
            lambda t, s: regulation_torque(s, GOAL, gains_at(t)), START, SIM))

    @pytest.mark.parametrize("source", ["are", "dre"])
    @pytest.mark.parametrize("accel_term", [True, False])
    def test_tracking(self, source, accel_term):
        gains_at, g = schedules()[source]
        ref = quadratic_reference(SIM)
        log = self.run(tracking_controller(ref, g, J_OFF, accel_term))
        law = tracking_law(ref, g, J_OFF, accel_term)
        self.assert_same_log(log, simulate_per_step(
            lambda t, s: law(s, ref.sample(t), gains_at(t)), START, SIM))

    # simulate logs and reads the controllers' tables AFFINE_CHUNK samples
    # at a time. A grid of n steps has n + 1 samples: one short of a
    # chunk, one chunk, one more (the last sample alone in its chunk), and
    # two chunks and two more.
    @pytest.mark.parametrize("steps", [AFFINE_CHUNK - 1, AFFINE_CHUNK, AFFINE_CHUNK + 1,
                                       2 * AFFINE_CHUNK + 1])
    @pytest.mark.parametrize("source", ["are", "dre"])
    def test_chunk_boundaries(self, steps, source):
        p = SimParams(SIM.h, steps * SIM.h, J_OFF)
        assert len(time_grid(p.h, p.t_end)) == steps + 1
        gains_at, g = schedules(p)[source]
        log = self.run(regulation_controller(GOAL, g), p)
        self.assert_same_log(log, simulate_per_step(
            lambda t, s: regulation_torque(s, GOAL, gains_at(t)), START, p))
        ref = quadratic_reference(p)
        log = self.run(tracking_controller(ref, g, J_OFF, True), p)
        law = tracking_law(ref, g, J_OFF, True)
        self.assert_same_log(log, simulate_per_step(
            lambda t, s: law(s, ref.sample(t), gains_at(t)), START, p))

    # The last sample of a chunk, the first of the next, and one mid-chunk.
    @pytest.mark.parametrize("at", [AFFINE_CHUNK - 1, AFFINE_CHUNK, AFFINE_CHUNK + 44])
    def test_divergence_names_its_time(self, at):
        # One huge torque at sample at - 1 throws |w| past the limit at sample at.
        times = time_grid(SIM.h, SIM.t_end)
        kick = np.zeros((len(times), 3))
        kick[at - 1, 0] = 1e12
        t = times.item(at)
        with pytest.raises(NumericalDivergence, match=re.escape(f"at t = {t:.6g}") + "$"):
            simulate(lambda r, w, tau: tau, START, SIM, tables=(kick,))

    # With AFFINE_CHUNK steps the last sample is alone in its chunk.
    @pytest.mark.parametrize("steps", [AFFINE_CHUNK - 1, AFFINE_CHUNK])
    def test_non_finite_final_torque(self, steps):
        taus = np.zeros((steps + 1, 3))
        taus[steps, 1] = math.nan
        with pytest.raises(NumericalDivergence, match="non-finite torque"):
            simulate(lambda r, w, tau: tau, START, SimParams(SIM.h, steps * SIM.h, J_OFF),
                     tables=(taus,))


class TestScenarioLaws:
    """The laws scenarios.run hands to simulate, evaluated at every 25th
    logged state with that state's sample row of their tables, equal the
    public array laws by tobytes()."""

    @staticmethod
    def run_capturing(monkeypatch, tmp_path, config):
        """(cfg, controller, log): controller(i, r, w) is the captured law at
        the sample of log row i, found from log.times by nearest_sample, in
        its tables."""
        captured = []

        def capture(law, init, p, *, tables, every):
            log = simulate(law, init, p, tables=tables, every=every)
            captured.append((law, [np.asarray(t) for t in tables], log))
            return log

        monkeypatch.setattr(scenarios, "simulate", capture)
        cfg = parse_config(json.dumps(config))
        scenarios.run(cfg, str(tmp_path))
        (law, tables, log), = captured
        n = len(time_grid(cfg.sim.h, cfg.sim.t_end)) - 1

        def controller(i, r, w):
            k = nearest_sample(log.times.item(i), cfg.sim.h, n)
            return law(r, w, *[t[k].tolist() if t.ndim else t.item() for t in tables])

        return cfg, controller, log

    @staticmethod
    def gains_at(cfg):
        a = drift_matrix(cfg.controller.a_matrix_mode, cfg.cost.gamma)
        if cfg.controller.gain_source == "are":
            g = are_solve(a, cfg.cost.q_weights, cfg.cost.alpha).gains(cfg.cost.alpha)
            return lambda t: g
        return dre_integrate(a, cfg.cost.q_weights, cfg.cost.alpha,
                             t_end=cfg.sim.t_end, h=cfg.sim.h).gains_at

    @staticmethod
    def states(log):
        for i in range(0, len(log), 25):
            yield i, log.times.item(i), log.rotations[i], log.omegas[i]

    @pytest.mark.parametrize("source", ["are", "dre"])
    def test_regulate(self, monkeypatch, tmp_path, source):
        cfg, controller, log = self.run_capturing(monkeypatch, tmp_path, {
            "command": "regulate", "sim": {"t_end": 2.0}, "output": {"decimation": 1},
            "initial": {"omega": [0.3, -0.2, 0.5]}, "controller": {"gain_source": source}})
        gains_at = self.gains_at(cfg)
        for i, t, r, w in self.states(log):
            want = regulation_torque(RigidBodyState(r, w), cfg.goal, gains_at(t))
            assert np.array(controller(i, r, tuple(w.tolist()))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", ["are", "dre"])
    @pytest.mark.parametrize("accel_term", [True, False])
    def test_track(self, monkeypatch, tmp_path, source, accel_term):
        cfg, controller, log = self.run_capturing(monkeypatch, tmp_path, {
            "command": "track", "sim": {"t_end": 2.0}, "output": {"decimation": 1},
            "reference": {"omega_coeffs": [[0.2, 0.5, 0.3], [0.1, -0.3, 0.2],
                                           [-0.3, 0.4, -0.1]]},
            "controller": {"gain_source": source, "feedforward_accel_term": accel_term}})
        gains_at = self.gains_at(cfg)
        times = time_grid(cfg.sim.h, cfg.sim.t_end)
        ref = TrackingReference(cfg.reference.omega(times), cfg.reference.omega_dot(times),
                                cfg.sim.h, r0=cfg.reference.r0)
        law = tracking_law(ref, gains_at(0.0), cfg.sim.inertia, accel_term)
        for i, t, r, w in self.states(log):
            want = law(RigidBodyState(r, w), ref.sample(t), gains_at(t))
            assert np.array(controller(i, r, tuple(w.tolist()))).tobytes() == want.tobytes()


    def test_track_dist_is_the_geodesic_distance(self, monkeypatch, tmp_path):
        # so3.geodesic_distance rounds as the dist channel, row for row.
        cfg, _, log = self.run_capturing(monkeypatch, tmp_path, {
            "command": "track", "sim": {"t_end": 2.0}, "output": {"decimation": 1}})
        times = time_grid(cfg.sim.h, cfg.sim.t_end)
        ref = TrackingReference(cfg.reference.omega(times), cfg.reference.omega_dot(times),
                                cfg.sim.h, r0=cfg.reference.r0)
        with open(tmp_path / "trajectory.csv", encoding="utf-8") as f:
            dist = [float(row["dist"]) for row in csv.DictReader(f)]
        assert len(dist) == len(log) == len(ref.rotations)
        assert dist == [geodesic_distance(r_ref, r)
                        for r_ref, r in zip(ref.rotations, log.rotations)]


def dre_exact(a, q, rw, times):
    """The exact schedule on the grid times, by Radon's lemma and scipy:
    K(s) = Y X^-1 with (X, Y) = expm(H s) (I, 0), H = [[-A, S], [Q, A.T]],
    at s = T - t, as (N, 2, 2) matrices with times running 0..T."""
    a, q, s = _problem(a, q, rw)
    flows = scipy.linalg.expm(np.block([[-a, s], [q, a.T]]) * (times[-1] - times)[:, None, None])
    return np.linalg.solve(flows[:, :2, :2].transpose(0, 2, 1),
                           flows[:, 2:, :2].transpose(0, 2, 1)).transpose(0, 2, 1)


def dre_stepwise(a, q, rw, times):
    """The exact schedule one step at a time, for stiff flows where X's
    columns part over a long span: K <- (E21 + E22 K)(E11 + E12 K)^-1 with
    E = expm(H h) by scipy, as (N, 2, 2) matrices with times running 0..T."""
    a, q, s = _problem(a, q, rw)
    e = scipy.linalg.expm(np.block([[-a, s], [q, a.T]]) * (times[-1] / (len(times) - 1)))
    ks = [np.zeros((2, 2))]
    for _ in times[1:]:
        x, y = e[:2, :2] + e[:2, 2:] @ ks[-1], e[2:, :2] + e[2:, 2:] @ ks[-1]
        ks.append(np.linalg.solve(x.T, y.T).T)
    return np.array(ks[::-1])


psd_weights = arrays(np.float64, (2, 2), elements=st.floats(-2.0, 2.0)).map(
    lambda m: m @ m.T)


class TestDreSweep:
    # Scaling A, Q and S by a power of two c and the step and horizon by 1/c
    # leaves H h unchanged, each drift product (c A)(h / c) exact, so the
    # schedule on the times scaled by 1/c is the same bit for bit.
    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(DRIFT_MODES),
           gamma=st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0]),
           alpha=st.floats(0.1, 10.0), q=psd_weights, c=st.sampled_from([2.0, 4.0, 8.0]))
    def test_bit_identical_with_exact_drift_products(self, mode, gamma, alpha, q, c):
        a = drift_matrix(mode, gamma)
        sched = dre_integrate(a, q, alpha, t_end=0.5, h=1e-3)
        fast = dre_integrate(c * a, c * q, alpha / c, t_end=0.5 / c, h=1e-3 / c)
        assert np.array_equal(fast.times * c, sched.times)
        for k, k_fast in ((sched.k1, fast.k1), (sched.k2, fast.k2), (sched.k3, fast.k3)):
            assert np.array_equal(k, k_fast)

    # The shipped drift matrices (entries 0 and +-2 at the sampled gammas)
    # and any other gamma, against the exact flow at every grid time.
    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(DRIFT_MODES),
           gamma=st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0]),
                           st.floats(-2.0, 2.0)),
           alpha=st.floats(0.1, 10.0), q=psd_weights)
    def test_close_for_any_drift(self, mode, gamma, alpha, q):
        self.check(drift_matrix(mode, gamma), q, alpha, 0.5)

    # One step, a chunk's steps less one, one chunk, one more, two chunks
    # and one more.
    @pytest.mark.parametrize("steps", [1, AFFINE_CHUNK - 1, AFFINE_CHUNK, AFFINE_CHUNK + 1,
                                       2 * AFFINE_CHUNK + 1])
    def test_chunk_boundaries(self, steps):
        self.check(drift_matrix("published-tracking", -2.0), np.eye(2), 1.0, steps * 1e-3)

    # Eigenvalue spreads of 63 and 51 at h = 1e-2: 256 steps would span 162
    # and 130 e-folds, and X would be singular to working precision.
    @pytest.mark.parametrize("a, q, alpha, t_end", [
        (drift_matrix("reconciled", 0.0), np.eye(2), 1e-3, 20.0),
        (drift_matrix("reconciled", 2.0), 64.0 * np.eye(2), 0.1, 5.0)],
        ids=["light-control", "heavy-state"])
    def test_stiff_flows_take_shorter_chunks(self, a, q, alpha, t_end):
        self.check(a, q, alpha, t_end, h=1e-2, exact=dre_stepwise)

    @staticmethod
    def check(a, q, alpha, t_end, h=1e-3, exact=dre_exact):
        sched = dre_integrate(a, q, alpha, t_end=t_end, h=h)
        assert len(sched.times) == round(t_end / h) + 1
        k = exact(a, q, alpha, sched.times)
        scale = np.maximum(1.0, np.abs(k).max(axis=(1, 2)))
        for got, want in ((sched.k1, k[:, 0, 0]), (sched.k2, k[:, 1, 1]),
                          (sched.k3, 0.5 * (k[:, 0, 1] + k[:, 1, 0]))):
            assert (np.abs(got - want) <= 1e-12 * scale).all()
        assert sched.k1[-1] == sched.k2[-1] == sched.k3[-1] == 0.0


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


# Axis-angle rows from the zero row through the small-angle series to past pi.
rotation_vectors = st.tuples(unit_axes, st.one_of(
    st.just(0.0), st.floats(0.0, 2.0 * SMALL_ANGLE), st.floats(0.0, 7.0))).map(
    lambda d: d[1] * d[0])


class TestExpRows:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.one_of(rotation_vectors, vectors), max_size=40))
    def test_bit_identical_with_exp_so3(self, rows):
        v = np.array(rows).reshape(-1, 3)
        assert exp_rows(v).tobytes() == np.array([exp_so3(x) for x in v]).tobytes()

    def test_edge_rows(self):
        axis = np.array([2.0, -1.0, 2.0]) / 3.0
        angles = [0.0, SMALL_ANGLE, math.nextafter(SMALL_ANGLE, 0.0),
                  math.nextafter(SMALL_ANGLE, 1.0), 1e-300, math.pi, 4.0, 2.0 * math.pi, 9.5]
        v = np.vstack([np.outer(angles, axis), np.outer(angles, [1.0, 0.0, 0.0])])
        assert exp_rows(v).tobytes() == np.array([exp_so3(x) for x in v]).tobytes()

    def test_empty_input(self):
        assert exp_rows(np.zeros((0, 3))).shape == (0, 3, 3)


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
