"""Riccati machinery behind the optimal attitude gains.

The coupled scalar system

    1 - k3^2 / alpha          = gamma k1
    1 + 2 k3 - k2^2 / alpha   = gamma k2
    k1 - k3 k2 / alpha        = gamma k3

is equivalent to the 2x2 algebraic Riccati equation
A.T K + K A - K B R^-1 B.T K = -Q with K = [[k1, k3], [k3, k2]], Q = I,
R = alpha, A = [[-gamma/2, 1], [0, -gamma/2]] (direct expansion; see
drift_matrix for the other modes) and the fixed B = [0, 1].T (B_CANONICAL;
the solvers take no B). The stabilizing K yields (kP, kD) = (k3, k2)/alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import rk4, uniform_grid
from .errors import NoStabilizingSolution, NotControllable, StepTooLarge, ValidationError

# Published gain tables are reproduced by these drift matrices, which do not
# coincide with the scalar system's reconciled form for nonzero gamma. The
# mode is always explicit in configs, never inferred from gamma.
DRIFT_MODES = ("published-regulation", "published-tracking", "reconciled")

# Input matrix B = [0, 1].T of every 2x2 gain problem (RiccatiSolution.gains).
B_CANONICAL = np.array([[0.0], [1.0]])


@dataclass(frozen=True)
class CostParams:
    """Quadratic cost weights: control weight alpha > 0, discount rate gamma,
    and a 2x2 PSD state-cost matrix (identity by default)."""

    alpha: float
    gamma: float = 0.0
    q_weights: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValidationError("alpha", "must be positive")
        q = np.asarray(self.q_weights, dtype=float)
        if q.shape != (2, 2) or abs(q[0, 1] - q[1, 0]) > 1e-12:
            raise ValidationError("q_weights", "must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(q).min() < -1e-12:
            raise ValidationError("q_weights", "must be positive semidefinite")
        object.__setattr__(self, "q_weights", q)


@dataclass(frozen=True)
class RiccatiSolution:
    """Symmetric 2x2 Riccati solution stored as its three entries."""

    k1: float
    k2: float
    k3: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.k1, self.k3], [self.k3, self.k2]])

    def is_positive_definite(self) -> bool:
        return (self.k1 > 0.0 and self.k2 > 0.0
                and self.k1 * self.k2 - self.k3 * self.k3 > 0.0)

    def gains(self, alpha: float) -> "GainPair":
        """Feedback gains Rw^-1 B.T K = (k3/alpha, k2/alpha)."""
        return GainPair(self.k3 / alpha, self.k2 / alpha)


@dataclass(frozen=True)
class GainPair:
    """Proportional/derivative feedback gains."""

    kP: float
    kD: float


@dataclass(frozen=True)
class GainSchedule:
    """Riccati solution sampled on a uniform time grid, zero at the horizon.

    The grid is the simulation's (config requires a whole number of steps
    for DRE runs), so solution_at reads the sample at the nearest grid index
    instead of interpolating; a scalar lookup returns Python floats, which
    keeps the per-step feedback laws in float arithmetic.
    """

    times: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    alpha: float

    def solution_at(self, t) -> RiccatiSolution:
        """K at the grid time nearest t; an array of times gives arrays of
        entries. Raises ValueError when t lies off the grid."""
        n = len(self.times) - 1
        per_step = n / self.times.item(-1)
        if isinstance(t, np.ndarray):
            i = np.rint(t * per_step).astype(np.intp)
            if i.size and not (0 <= i.min() and i.max() <= n):
                raise ValueError("a time lies outside the gain schedule's grid")
            return RiccatiSolution(self.k1[i], self.k2[i], self.k3[i])
        i = round(t * per_step)
        if not 0 <= i <= n:
            raise ValueError(f"t = {t:.6g} lies outside the gain schedule's grid")
        return RiccatiSolution(self.k1.item(i), self.k2.item(i), self.k3.item(i))

    def gains_at(self, t: float) -> GainPair:
        return self.solution_at(t).gains(self.alpha)


def drift_matrix(mode: str, gamma: float = 0.0) -> np.ndarray:
    """Drift matrix A for the 2x2 Riccati problem under a named bookkeeping.

    "published-regulation" and "published-tracking" pin the matrices that
    reproduce the published gain tables (1.4142, 2.7671) and
    (8.7852, 8.3357); "reconciled" is the form consistent with the scalar
    system for every gamma.
    """
    if mode == "published-regulation":
        return np.array([[0.0, 2.0], [0.0, 0.0]])
    if mode == "published-tracking":
        return np.array([[-gamma, 2.0], [0.0, -gamma]])
    if mode == "reconciled":
        return np.array([[-gamma / 2.0, 1.0], [0.0, -gamma / 2.0]])
    raise ValueError(f"unknown drift mode {mode!r}; expected one of {DRIFT_MODES}")


def scalar_residual(sol: RiccatiSolution, p: CostParams) -> np.ndarray:
    """Residuals of the three coupled scalar equations at (k1, k2, k3)."""
    a, g = p.alpha, p.gamma
    return np.array([
        1.0 - sol.k3 ** 2 / a - g * sol.k1,
        1.0 + 2.0 * sol.k3 - sol.k2 ** 2 / a - g * sol.k2,
        sol.k1 - sol.k3 * sol.k2 / a - g * sol.k3,
    ])


def _problem(a, q, rw):
    """Problem data as float arrays (A, Q) plus S = B Rw^-1 B.T with B =
    B_CANONICAL. The control weight rw is CostParams' alpha and obeys its rule."""
    CostParams(rw)
    a = np.asarray(a, dtype=float).reshape(2, 2)
    q = np.asarray(q, dtype=float).reshape(2, 2)
    return a, q, (B_CANONICAL @ B_CANONICAL.T) / float(rw)


def _riccati_operator(a, s, q, k) -> np.ndarray:
    """A.T K + K A - K S K + Q: zero at an ARE solution, dK/ds of the sweep."""
    return a.T @ k + k @ a - k @ s @ k + q


def are_residual(a, q, rw, sol: RiccatiSolution) -> float:
    """Frobenius norm of A.T K + K A - K B Rw^-1 B.T K + Q, B = B_CANONICAL."""
    a, q, s = _problem(a, q, rw)
    return float(np.linalg.norm(_riccati_operator(a, s, q, sol.as_matrix())))


def are_solve(a, q, rw: float) -> RiccatiSolution:
    """Stabilizing solution of A.T K + K A - K B Rw^-1 B.T K = -Q.

    Eigenvector method on the 4x4 Hamiltonian matrix followed by a Newton
    refinement pass, so the returned residual sits at machine precision.

    Args:
        a: (2, 2) drift matrix; the input matrix is always B_CANONICAL.
        q: (2, 2) PSD state weight.
        rw: positive control weight.

    Returns:
        RiccatiSolution with K symmetric positive definite and
        A - B Rw^-1 B.T K Hurwitz.

    Raises:
        ValidationError: rw is not positive (path "alpha").
        NotControllable: rank [B, AB] < 2.
        NoStabilizingSolution: Hamiltonian eigenvalues on the imaginary axis
            or the stable subspace does not produce a positive definite K.
    """
    a, q, s = _problem(a, q, rw)

    ctrb = np.hstack([B_CANONICAL, a @ B_CANONICAL])
    if np.linalg.matrix_rank(ctrb) < 2:
        raise NotControllable(f"rank [B, AB] = {np.linalg.matrix_rank(ctrb)} < 2")

    ham = np.block([[a, -s], [-q, -a.T]])
    eigvals, eigvecs = np.linalg.eig(ham)
    tol = 1e-9 * max(1.0, float(np.abs(eigvals).max()))
    stable = np.where(eigvals.real < -tol)[0]
    if stable.size != 2:
        raise NoStabilizingSolution(
            f"Hamiltonian spectrum {np.round(eigvals, 6)} has no 2-dim stable subspace")
    basis = eigvecs[:, stable]
    x, y = basis[:2, :], basis[2:, :]
    try:
        k = y @ np.linalg.inv(x)
    except np.linalg.LinAlgError as exc:
        raise NoStabilizingSolution("stable subspace not a graph over the state") from exc
    k = np.real(k)
    k = 0.5 * (k + k.T)

    # Newton polish: solve the Lyapunov equation for the correction.
    eye2 = np.eye(2)
    for _ in range(30):
        res = _riccati_operator(a, s, q, k)
        if np.linalg.norm(res) <= 1e-13 * max(1.0, np.linalg.norm(k)):
            break
        acl = a - s @ k
        m = np.kron(acl.T, eye2) + np.kron(eye2, acl.T)
        delta = np.linalg.solve(m, -res.reshape(4)).reshape(2, 2)
        k = k + 0.5 * (delta + delta.T)

    sol = RiccatiSolution(float(k[0, 0]), float(k[1, 1]),
                          float(0.5 * (k[0, 1] + k[1, 0])))
    if not sol.is_positive_definite():
        raise NoStabilizingSolution(f"stable-subspace K not positive definite: {k}")
    closed = np.linalg.eigvals(a - s @ sol.as_matrix())
    if closed.real.max() >= 0.0:
        raise NoStabilizingSolution(f"closed loop not Hurwitz: {closed}")
    return sol


def dre_integrate(a, q, rw: float, t_end: float, h: float = 1e-3) -> GainSchedule:
    """Backward differential Riccati sweep with terminal condition K(T) = 0.

    Classical 4th-order one-step method on (k1, k2, k3), which keeps every
    stored K exactly symmetric.

    Args:
        a, q, rw: same problem data as are_solve.
        t_end: horizon T > 0.
        h: step size, 0 < h <= T. Adjusted to the nearest uniform divisor.

    Raises:
        StepTooLarge: an entry of K exceeded 1e9 or stopped being finite
            (finite escape).
    """
    if not 0.0 < h <= t_end:
        raise ValueError(f"step must satisfy 0 < h <= {t_end}, got {h}")
    a, q, s = _problem(a, q, rw)
    (a00, a01), (a10, a11) = a.tolist()
    (q00, q01), (q10, q11) = q.tolist()
    s11 = s.item(1, 1)

    def rate(k, theta, y):
        """dK/ds in reversed time s = T - t, propagating only (k1, k2, k3).

        _riccati_operator in Python floats, in numpy's summation order with
        K S K taken as (K S) K over S's one nonzero entry s11, at a third of
        the time of 2x2 array products. Where numpy's BLAS fuses a
        multiply-add the two can differ in the last bit; with drift entries
        0 and +-2 (the shipped configs) the schedule is bit-identical.
        """
        k1, k2, k3 = y.tolist()
        lin = (a00 * k3 + a10 * k2) + (k1 * a01 + k3 * a11)
        return np.array((
            (a00 * k1 + a10 * k3) + (k1 * a00 + k3 * a10) - k3 * s11 * k3 + q00,
            (a01 * k3 + a11 * k2) + (k3 * a01 + k2 * a11) - k2 * s11 * k2 + q11,
            0.5 * ((lin - k3 * s11 * k2 + q01) + (lin - k2 * s11 * k3 + q10))))

    times = uniform_grid(t_end, h)
    # Past a finite escape the sweep overflows; the first step beyond 1e9
    # is reported below instead.
    with np.errstate(over="ignore", invalid="ignore"):
        ys = rk4(rate, np.zeros(3), times)
    escaped = np.flatnonzero(~(np.abs(ys).max(axis=1) <= 1e9))
    if escaped.size:
        raise StepTooLarge(f"K entry exceeded 1e9 at s = {times[escaped[0]]:.6g}")

    # Swept in reversed time s = T - t on the same grid; flip so times run
    # 0..T with K(T) = 0 exact.
    ys = ys[::-1]
    return GainSchedule(times, ys[:, 0].copy(), ys[:, 1].copy(), ys[:, 2].copy(),
                        alpha=float(rw))
