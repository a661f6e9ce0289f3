"""Products of 3-vectors and 3x3 matrices held as Python floats.

A matrix is its nine entries row by row, a vector its three entries; every
function returns a tuple. The per-step kernels of the closed loop (the
integrator step's velocity update and the feedback laws) use these instead
of numpy, whose call overhead is several times the arithmetic at this size.
Each entry is summed in index order without fused multiply-adds, so a
result can differ from numpy's BLAS product in the last bit.
"""

from __future__ import annotations


def mtm(a, b) -> tuple:
    """a.T @ b."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a3 * b3 + a6 * b6, a0 * b1 + a3 * b4 + a6 * b7,
            a0 * b2 + a3 * b5 + a6 * b8,
            a1 * b0 + a4 * b3 + a7 * b6, a1 * b1 + a4 * b4 + a7 * b7,
            a1 * b2 + a4 * b5 + a7 * b8,
            a2 * b0 + a5 * b3 + a8 * b6, a2 * b1 + a5 * b4 + a8 * b7,
            a2 * b2 + a5 * b5 + a8 * b8)


def mv(a, v) -> tuple:
    """a @ v."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    x, y, z = v
    return (a0 * x + a1 * y + a2 * z, a3 * x + a4 * y + a5 * z,
            a6 * x + a7 * y + a8 * z)


def cross(a, b) -> tuple:
    """a x b."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
