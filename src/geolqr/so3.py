"""Rotation-group primitives: hat/vee isomorphisms, Rodrigues exponential
and logarithm, geodesic distance, and right-translation velocity transport.

Conventions:
    - Rotations are 3x3 orthogonal matrices with determinant +1.
    - Body vectors are length-3 arrays; angles in radians.
    - All norms and distances use the unweighted bi-invariant metric, so the
      geodesic distance between r1 and r2 is the rotation angle of r1.T r2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AngleNearPi, ValidationError

# Below this angle the closed-form Rodrigues and log coefficients are 0/0;
# series expansions take over.
SMALL_ANGLE = 1e-4

# Guard on tr(r) + 1: the logarithm is singular at rotation angle pi.
# Failing loudly beats picking an arbitrary axis.
TRACE_GUARD = 1e-6


def hat(v) -> np.ndarray:
    """Map a 3-vector to the antisymmetric matrix acting as the cross product.

    Args:
        v: (3,) vector.

    Returns:
        (3, 3) matrix m with m @ w == cross(v, w) for every w.
    """
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def vee(m) -> np.ndarray:
    """Extract the 3-vector of the antisymmetric part of a 3x3 matrix.

    General input is projected through (m - m.T) / 2 first, so vee(hat(v))
    recovers v exactly while symmetric input maps to zero.

    Args:
        m: (3, 3) matrix.

    Returns:
        (3,) vector.
    """
    m = np.asarray(m, dtype=float)
    return np.array([
        0.5 * (m[2, 1] - m[1, 2]),
        0.5 * (m[0, 2] - m[2, 0]),
        0.5 * (m[1, 0] - m[0, 1]),
    ])


def exp_so3(v) -> np.ndarray:
    """Rodrigues formula: matrix exponential of hat(v).

    Uses series coefficients below SMALL_ANGLE to avoid 0 / 0.

    Args:
        v: (3,) axis-angle vector (axis * angle in radians).

    Returns:
        (3, 3) rotation matrix with angle |v| mod 2 pi.
    """
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    phi2 = x * x + y * y + z * z
    phi = math.sqrt(phi2)
    if phi < SMALL_ANGLE:
        a = 1.0 - phi2 / 6.0 + phi2 * phi2 / 120.0
        b = 0.5 - phi2 / 24.0 + phi2 * phi2 / 720.0
    else:
        a = math.sin(phi) / phi
        b = (1.0 - math.cos(phi)) / phi2
    # R = I + a hat(v) + b hat(v)^2 with hat(v)^2 = v v^T - |v|^2 I. A flat
    # tuple reshaped builds the matrix in half the time of nested lists.
    return np.array((
        1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y,
        b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x,
        b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y),
    )).reshape(3, 3)


def exp_rows(v) -> np.ndarray:
    """exp_so3 of every row of the (N, 3) array v as one (N, 3, 3) array pass,
    bit for bit: math.sin and math.cos are mapped over the angles, because
    numpy's differ from libm's in the last bit on some rows."""
    x, y, z = np.asarray(v, dtype=float).T
    xx, yy, zz = x * x, y * y, z * z
    phi2 = xx + yy + zz
    phi = np.sqrt(phi2)
    # The quotients are 0/0 on zero rows; the series replaces them there.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.array(list(map(math.sin, phi.tolist()))) / phi
        b = (1.0 - np.array(list(map(math.cos, phi.tolist())))) / phi2
    small = phi < SMALL_ANGLE
    p2 = phi2[small]
    a[small], b[small] = 1.0 - p2 / 6.0 + p2 * p2 / 120.0, 0.5 - p2 / 24.0 + p2 * p2 / 720.0
    bxy, bxz, byz, ax, ay, az = b * x * y, b * x * z, b * y * z, a * x, a * y, a * z
    return np.stack((1.0 - b * (yy + zz), bxy - az, bxz + ay,
                     bxy + az, 1.0 - b * (xx + zz), byz - ax,
                     bxz - ay, byz + ax, 1.0 - b * (xx + yy)), axis=-1).reshape(-1, 3, 3)


def log_so3(r) -> np.ndarray:
    """Axis-angle logarithm of a rotation matrix.

    Args:
        r: (3, 3) rotation matrix with tr(r) > -1 + TRACE_GUARD.

    Returns:
        (3,) vector whose norm is the rotation angle, in [0, pi).

    Raises:
        AngleNearPi: when tr(r) + 1 <= TRACE_GUARD, i.e. the rotation is
            at or within about 1e-3 rad of the cut locus.
    """
    return np.array(_log_floats(np.asarray(r, dtype=float).ravel().tolist()))


def _log_floats(m) -> tuple:
    """log_so3 of the rotation whose nine entries, row by row, are the
    floats m, as a float triple: the form the closed loop's float kernels
    take and give."""
    # Python floats: the same IEEE arithmetic as numpy scalars, several
    # times cheaper per operation.
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = m
    tr = r00 + r11 + r22
    if tr + 1.0 <= TRACE_GUARD:
        raise AngleNearPi(
            f"rotation angle within cut-locus guard (tr = {tr:.12g})")
    sx = 0.5 * (r21 - r12)
    sy = 0.5 * (r02 - r20)
    sz = 0.5 * (r10 - r01)
    # atan2 of (|skew part|, (tr - 1)/2) stays well conditioned near the
    # guard, unlike arccos.
    sin_phi = math.sqrt(sx * sx + sy * sy + sz * sz)
    phi = math.atan2(sin_phi, 0.5 * (tr - 1.0))
    if phi < SMALL_ANGLE:
        s = 1.0 + phi * phi / 6.0 + 7.0 * phi ** 4 / 360.0
    else:
        s = phi / sin_phi
    return (s * sx, s * sy, s * sz)


# Rows per chunk of the array passes: each temporary stays near 300 kB.
_CHUNK = 4096


def attitude_errors(r_from, rotations) -> np.ndarray:
    """log_so3(r_from[i].T @ rotations[i]) for every i, bit for bit, as array
    passes over chunks of rows.

    Each chunk takes one batched product, then log_so3's trace, skew part
    and small-angle series in numpy. The angle is math.atan2 mapped over the
    chunk, and the series' fourth power is Python's: numpy's arctan2 and
    power differ from libm's in the last bit on some rows.

    Args:
        r_from, rotations: (N, 3, 3) arrays; r_from may be a broadcast view
            of one rotation.

    Returns:
        (N, 3) array of axis-angle vectors.

    Raises:
        AngleNearPi: where log_so3 would, at the first such row.
    """
    e = np.empty((len(rotations), 3))
    for lo in range(0, len(e), _CHUNK):
        hi = lo + _CHUNK
        m = (np.swapaxes(r_from[lo:hi], 1, 2) @ rotations[lo:hi]).reshape(-1, 9)
        tr = m[:, 0] + m[:, 4] + m[:, 8]
        near_pi = tr + 1.0 <= TRACE_GUARD
        if near_pi.any():
            raise AngleNearPi("rotation angle within cut-locus guard "
                              f"(tr = {tr[near_pi.argmax()].item():.12g})")
        sx = 0.5 * (m[:, 7] - m[:, 5])
        sy = 0.5 * (m[:, 2] - m[:, 6])
        sz = 0.5 * (m[:, 3] - m[:, 1])
        sin_phi = np.sqrt(sx * sx + sy * sy + sz * sz)
        phi = np.array(list(map(math.atan2, sin_phi.tolist(), (0.5 * (tr - 1.0)).tolist())))
        # The quotient is 0/0 on identical pairs; the series replaces it there.
        with np.errstate(divide="ignore", invalid="ignore"):
            s = phi / sin_phi
        small = phi < SMALL_ANGLE
        if small.any():
            p = phi[small]
            p4 = np.array([x ** 4 for x in p.tolist()])
            s[small] = 1.0 + p * p / 6.0 + 7.0 * p4 / 360.0
        e[lo:hi, 0] = s * sx
        e[lo:hi, 1] = s * sy
        e[lo:hi, 2] = s * sz
    return e


def row_dots(a, b) -> np.ndarray:
    """Row-wise dot products along the last axis, broadcast, summed left to
    right: a0 b0 + a1 b1 + ..., which is the rounding of the float kernels'
    x0 * y0 + x1 * y1 + x2 * y2. Each product reads one column, contiguous
    over the rows of a component-major batch."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def geodesic_distance(r1, r2) -> float:
    """Rotation angle of r1.T r2: length of the shortest path between them.

    Raises:
        AngleNearPi: propagated from log_so3 when r1.T r2 is near the cut
            locus.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    x, y, z = _log_floats((r1.T @ r2).ravel().tolist())
    # Summed as row_dots does, so this is the dist channel's rounding.
    return math.sqrt(x * x + y * y + z * z)


def transport_velocity(r, r_ref, w_ref) -> np.ndarray:
    """Carry a reference body velocity into the frame of r by right translation.

    Approximates parallel transport along the minimizing geodesic for the
    bi-invariant metric; exact when the frames coincide. Preserves the norm.

    Args:
        r: (3, 3) rotation whose frame receives the vector.
        r_ref: (3, 3) rotation in whose frame w_ref lives.
        w_ref: (3,) body vector.

    Returns:
        (3,) vector r.T r_ref w_ref.
    """
    r = np.asarray(r, dtype=float)
    r_ref = np.asarray(r_ref, dtype=float)
    return r.T @ (r_ref @ np.asarray(w_ref, dtype=float))


def orthogonality_defect(m) -> float:
    """Frobenius norm of m.T m - I."""
    m = np.asarray(m, dtype=float)
    return float(np.linalg.norm(m.T @ m - np.eye(3)))


# Tolerance of every rotation a configuration or a scenario takes as input.
ROTATION_TOL = 1e-6


def is_rotation(m, tol: float = 1e-9) -> bool:
    """True when m is orthogonal with determinant +1 within tol."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry is no rotation
        return orthogonality_defect(m) <= tol and abs(np.linalg.det(m) - 1.0) <= tol


def as_rotation(m, path: str) -> np.ndarray:
    """m as a float array, the one rule of every rotation argument: raises
    ValidationError(path) unless m is a rotation within ROTATION_TOL."""
    m = np.asarray(m, dtype=float)
    if not is_rotation(m, ROTATION_TOL):
        raise ValidationError(path, f"not a rotation within {ROTATION_TOL:g}")
    return m
