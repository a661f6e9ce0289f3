"""Rotation-group math: frozen examples plus randomized invariants."""

import math

import numpy as np
import pytest

from geolqr.errors import AngleNearPi
from geolqr.so3 import (
    exp_so3,
    geodesic_distance,
    hat,
    is_rotation,
    log_so3,
    orthogonality_defect,
    row_dots,
    transport_velocity,
    vee,
)


def random_axis_angle(rng, max_angle=math.pi - 1e-3, n=1):
    vs = rng.standard_normal((n, 3))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    vs *= rng.uniform(0.0, max_angle, n)[:, None]
    return vs


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_hat_basis_generator(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(hat([0.0, 0.0, 1.0]), expected)

    def test_hat_acts_as_cross_product(self):
        # Oracle: brute-force cross product.
        assert np.allclose(hat([1.0, 2.0, 3.0]) @ [1.0, 0.0, 0.0], [0.0, 3.0, -2.0])
        rng = np.random.default_rng(11)
        for _ in range(50):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-14)

    def test_vee_hat_roundtrip_exact(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(vee(hat(v)), v)
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = rng.standard_normal(3)
            assert np.array_equal(vee(hat(v)), v)

    def test_vee_projects_symmetric_to_zero(self):
        assert np.array_equal(vee(np.eye(3)), np.zeros(3))

    def test_vee_half_averaging(self):
        # Apply the (m - m.T)/2 projection by hand.
        m = np.array([[0.0, -2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(vee(m), np.array([0.0, 0.0, 1.0]))

    def test_hat_vee_is_projection_on_general_input(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((3, 3))
        skew = 0.5 * (m - m.T)
        assert np.allclose(hat(vee(m)), skew, atol=1e-15)


class TestExp:
    def test_identity(self):
        assert np.array_equal(exp_so3([0.0, 0.0, 0.0]), np.eye(3))

    def test_half_turn_about_x(self):
        assert np.allclose(exp_so3([math.pi, 0.0, 0.0]), np.diag([1.0, -1.0, -1.0]),
                           atol=1e-15)

    def test_matches_truncated_power_series(self):
        # Oracle: 20-term series of the matrix exponential.
        v = np.array([0.3, -0.2, 0.1])
        k = hat(v)
        series = np.eye(3)
        term = np.eye(3)
        for n in range(1, 21):
            term = term @ k / n
            series = series + term
        assert np.abs(exp_so3(v) - series).max() <= 1e-12

    def test_orthogonality_large_angles(self):
        rng = np.random.default_rng(14)
        for v in rng.uniform(-10.0, 10.0, (200, 3)):
            assert orthogonality_defect(exp_so3(v)) <= 1e-12

    def test_angle_identity(self):
        rng = np.random.default_rng(15)
        for v in random_axis_angle(rng, n=200):
            r = exp_so3(v)
            phi = math.acos(max(-1.0, min(1.0, 0.5 * (np.trace(r) - 1.0))))
            assert abs(phi - np.linalg.norm(v)) <= 1e-9

    def test_small_angle_branch_continuity(self):
        # The series and closed-form branches agree around the switch point.
        for scale in (0.9999e-4, 1.0001e-4):
            v = np.array([scale, 0.0, 0.0])
            k = hat(v)
            series = np.eye(3) + k + k @ k / 2.0 + k @ k @ k / 6.0
            assert np.abs(exp_so3(v) - series).max() <= 1e-15


class TestLog:
    def test_identity(self):
        assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))

    def test_roundtrip_example(self):
        v = np.array([0.5, 0.1, -0.3])
        assert np.linalg.norm(log_so3(exp_so3(v)) - v) <= 1e-10

    def test_near_pi_raises(self):
        with pytest.raises(AngleNearPi):
            log_so3(np.diag([1.0, -1.0, -1.0]))

    def test_roundtrip_inside_guard(self):
        v = np.array([math.pi - 1.01e-3, 0.0, 0.0])
        assert np.linalg.norm(log_so3(exp_so3(v)) - v) <= 1e-9

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(16)
        for v in random_axis_angle(rng, n=2000):
            assert np.linalg.norm(log_so3(exp_so3(v)) - v) <= 1e-9

    def test_norm_equals_angle(self):
        rng = np.random.default_rng(17)
        for v in random_axis_angle(rng, n=200):
            assert abs(np.linalg.norm(log_so3(exp_so3(v))) - np.linalg.norm(v)) <= 1e-9


class TestGeodesicDistance:
    def test_zero_at_coincidence(self):
        r = exp_so3([0.4, -0.1, 0.7])
        assert geodesic_distance(r, r) == 0.0

    def test_single_axis_angle(self):
        assert abs(geodesic_distance(np.eye(3), exp_so3([0.3, 0.0, 0.0])) - 0.3) <= 1e-12

    def test_same_axis_composition(self):
        d = geodesic_distance(exp_so3([0.2, 0.0, 0.0]), exp_so3([0.5, 0.0, 0.0]))
        assert abs(d - 0.3) <= 1e-12

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            r1 = exp_so3(random_axis_angle(rng)[0])
            r2 = exp_so3(random_axis_angle(rng)[0])
            try:
                d12 = geodesic_distance(r1, r2)
            except AngleNearPi:
                continue
            assert abs(d12 - geodesic_distance(r2, r1)) <= 1e-12
            assert 0.0 <= d12 < math.pi

    def test_gradient_matches_finite_differences(self):
        # Directional derivative of half the squared distance along
        # r exp(t hat(w)) equals <log(r_d.T r), w>; central step 1e-5.
        rng = np.random.default_rng(19)
        for _ in range(10):
            r_d = exp_so3(random_axis_angle(rng, max_angle=1.5)[0])
            r = exp_so3(random_axis_angle(rng, max_angle=1.5)[0])
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            step = 1e-5
            up = 0.5 * geodesic_distance(r_d, r @ exp_so3(step * w)) ** 2
            dn = 0.5 * geodesic_distance(r_d, r @ exp_so3(-step * w)) ** 2
            fd = (up - dn) / (2.0 * step)
            assert abs(fd - float(log_so3(r_d.T @ r) @ w)) <= 1e-6


def float_row_dot(x, y):
    """x0 y0 + x1 y1 + ... over the Python floats of two rows, summed left to
    right: the float kernels' rounding."""
    total = x[0] * y[0]
    for xi, yi in zip(x[1:], y[1:]):
        total += xi * yi
    return total


class TestRowDots:
    # Bit for bit: a batched matmul rounds differently on about a third of
    # random 3-vector rows.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_sum_left_to_right(self, n, order):
        rng = np.random.default_rng(70 + n)
        a, b = (np.asarray(x, order=order) for x in rng.standard_normal((2, 500, n)))
        want = np.array([float_row_dot(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert row_dots(a, b).tobytes() == want.tobytes()

    def test_broadcast_operand(self):
        rng = np.random.default_rng(74)
        a, b = rng.standard_normal((500, 3)), rng.standard_normal(3)
        want = np.array([float_row_dot(x, b.tolist()) for x in a.tolist()])
        for got in (row_dots(a, b), row_dots(b, a), row_dots(np.broadcast_to(b, a.shape), a)):
            assert got.tobytes() == want.tobytes()

    def test_one_row(self):
        rng = np.random.default_rng(75)
        for a, b in rng.standard_normal((50, 2, 3)):
            got = row_dots(a, b)
            assert np.ndim(got) == 0
            assert float(got) == float_row_dot(a.tolist(), b.tolist())

    def test_batch_of_row_tables(self):
        a, b = np.random.default_rng(76).standard_normal((2, 4, 100, 3))
        want = np.array([[float_row_dot(x, y) for x, y in zip(ra, rb)]
                         for ra, rb in zip(a.tolist(), b.tolist())])
        assert row_dots(a, b).tobytes() == want.tobytes()


class TestTransport:
    def test_coincident_frames(self):
        r = exp_so3([0.2, 0.5, -0.1])
        w = np.array([0.3, -0.7, 0.2])
        assert np.allclose(transport_velocity(r, r, w), w, atol=1e-15)

    def test_explicit_quarter_turn(self):
        result = transport_velocity(np.eye(3), exp_so3([0.0, 0.0, math.pi / 2]),
                                    [1.0, 0.0, 0.0])
        assert np.allclose(result, [0.0, 1.0, 0.0], atol=1e-15)

    def test_isometry(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            r = exp_so3(rng.standard_normal(3))
            r_ref = exp_so3(rng.standard_normal(3))
            w = rng.standard_normal(3)
            assert abs(np.linalg.norm(transport_velocity(r, r_ref, w))
                       - np.linalg.norm(w)) <= 1e-12


def test_is_rotation():
    assert is_rotation(np.eye(3))
    assert is_rotation(exp_so3([0.4, 0.2, -0.9]))
    assert not is_rotation(np.diag([1.0, 1.0, 0.9]))
    assert not is_rotation(np.diag([1.0, -1.0, 1.0]))  # det = -1
