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

The finite-horizon gains solve the differential Riccati equation backward
from K(T) = 0 as the projection K = Y X^-1 of a linear Hamiltonian flow
(Radon's lemma), so one constant 4x4 step map serves the whole grid; the
sweep restarts at X = I every AFFINE_CHUNK steps, or fewer where the flow is
stiff, which keeps X well conditioned over long horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AFFINE_CHUNK, _prefix_products, nearest_sample, uniform_grid
from .errors import NoStabilizingSolution, NotControllable, StepTooLarge, ValidationError

# Published gain tables are reproduced by these drift matrices, which do not
# coincide with the scalar system's reconciled form for nonzero gamma. The
# mode is always explicit in configs, never inferred from gamma.
DRIFT_MODES = ("published-regulation", "published-tracking", "reconciled")

# Input matrix B = [0, 1].T of every 2x2 gain problem (RiccatiSolution.gains).
B_CANONICAL = np.array([[0.0], [1.0]])

# Most e-folds of the Hamiltonian's eigenvalue spread that one chunk of the
# DRE sweep spans. X's columns part at at most that rate (the Davison-Maki
# instability), so X keeps a condition number below about e^8 = 3e3 and K
# about 12 digits.
CHUNK_EFOLDS = 8.0


@dataclass(frozen=True)
class CostParams:
    """Quadratic cost weights: control weight alpha > 0 with a finite 1 /
    alpha, finite discount rate gamma, and a finite 2x2 PSD state-cost
    matrix (identity by default)."""

    alpha: float
    gamma: float = 0.0
    q_weights: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        # A tiny alpha overflows the solvers' S = B B.T / alpha to inf.
        if not (self.alpha > 0.0 and math.isfinite(1.0 / self.alpha)):
            raise ValidationError("alpha", "must be positive with a finite reciprocal")
        if not math.isfinite(self.gamma):
            raise ValidationError("gamma", "must be finite")
        q = np.asarray(self.q_weights, dtype=float)
        if q.shape != (2, 2) or not np.isfinite(q).all() or abs(q[0, 1] - q[1, 0]) > 1e-12:
            raise ValidationError("q_weights", "must be a finite symmetric 2x2 matrix")
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

    For a DRE closed loop the grid is the simulation's (config requires a
    whole number of steps), so row i of k1, k2 and k3 is the loop's sample
    i and the loop reads the rows as they are. A lookup answers one time
    with the sample at the nearest grid index (dynamics.nearest_sample),
    as Python floats, instead of interpolating.
    """

    times: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    alpha: float

    def solution_at(self, t: float) -> RiccatiSolution:
        """K at the grid time nearest the time t, as Python floats. Raises
        ValidationError("t") when t is not one time or lies off the grid."""
        n = len(self.times) - 1
        i = nearest_sample(t, self.times.item(-1) / n, n)
        return RiccatiSolution(self.k1.item(i), self.k2.item(i), self.k3.item(i))

    def gains_at(self, t: float) -> GainPair:
        """Gains at the grid time nearest t, bit for bit the closed loop's."""
        return self.solution_at(t).gains(self.alpha)


def drift_matrix(mode: str, gamma: float = 0.0) -> np.ndarray:
    """Drift matrix A for the 2x2 Riccati problem under a named bookkeeping.

    "published-regulation" and "published-tracking" pin the matrices that
    reproduce the published gain tables (1.4142, 2.7671) and
    (8.7852, 8.3357); "reconciled" is the form consistent with the scalar
    system for every gamma. Any other mode raises a ValidationError naming
    a_matrix_mode, the config key of the choice; this is its one check.
    """
    if mode == "published-regulation":
        return np.array([[0.0, 2.0], [0.0, 0.0]])
    if mode == "published-tracking":
        return np.array([[-gamma, 2.0], [0.0, -gamma]])
    if mode == "reconciled":
        return np.array([[-gamma / 2.0, 1.0], [0.0, -gamma / 2.0]])
    raise ValidationError("a_matrix_mode", f"expected one of {DRIFT_MODES}")


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
    B_CANONICAL. The weights rw and q are CostParams' alpha and q_weights
    and obey their rules; A must be finite (path "a")."""
    q = CostParams(rw, q_weights=q).q_weights
    a = np.asarray(a, dtype=float).reshape(2, 2)
    if not np.isfinite(a).all():
        raise ValidationError("a", "must be a finite 2x2 matrix")
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
        ValidationError: rw is not positive (path "alpha"), q is not a
            finite symmetric PSD 2x2 matrix (path "q_weights"), or a is not
            finite (path "a").
        NotControllable: rank [B, AB] < 2.
        NoStabilizingSolution: Hamiltonian eigenvalues on the imaginary axis,
            the stable subspace does not produce a positive definite K, or
            q is so large that the residual's norm overflows.
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

    # Newton polish: solve the Lyapunov equation for the correction. Weights
    # so large that a norm overflows leave nothing to certify the solution by.
    eye2 = np.eye(2)
    for _ in range(30):
        res = _riccati_operator(a, s, q, k)
        with np.errstate(over="ignore"):
            res_norm, k_norm = np.linalg.norm(res), np.linalg.norm(k)
        if not (math.isfinite(res_norm) and math.isfinite(k_norm)):
            raise NoStabilizingSolution("Riccati residual norm overflows: "
                                        "state weights too large")
        if res_norm <= 1e-13 * max(1.0, k_norm):
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


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of a small square matrix: 16 Taylor terms by Horner's rule,
    below machine precision once m is scaled by 2^-j to a row-sum norm of at
    most 1/2, then j squarings."""
    j = max(0, math.frexp(float(np.abs(m).sum(axis=1).max()))[1] + 1)
    m = np.ldexp(m, -j)
    eye = np.eye(len(m))
    e = eye
    for k in range(16, 0, -1):
        e = eye + (m @ e) / k
    for _ in range(j):
        e = e @ e
    return e


def dre_integrate(a, q, rw: float, t_end: float, h: float = 1e-3) -> GainSchedule:
    """Backward differential Riccati sweep with terminal condition K(T) = 0.

    Radon's lemma: in reversed time s = T - t, K(s) = Y X^-1 with
    (X, Y)' = H (X, Y), H = [[-A, S], [Q, A.T]], S = B Rw^-1 B.T, from
    (X, Y)(0) = (I, 0). The step map E = exp(H h) is built once, and its
    powers E^1 .. E^m by doubling prefix products, with m = AFFINE_CHUNK or
    fewer, so that m steps span at most CHUNK_EFOLDS e-folds of a bound on
    the spread of H's eigenvalues. Each chunk of m steps restarts at (I, K)
    from the chunk's first K, takes (X, Y) = E^j (I, K) for every step j at
    once and solves for K in one batched solve; every stored K is
    symmetrised, and K(T) = 0 is exact.

    Args:
        a, q, rw: same problem data as are_solve.
        t_end: horizon T > 0.
        h: step size, 0 < h <= T. Adjusted to the nearest uniform divisor.

    Raises:
        ValidationError: h outside 0 < h <= T < inf, naming "h" when h is
            not positive and finite and "t_end" otherwise; more than
            MAX_STEPS steps ("h", uniform_grid's check); as are_solve, for
            rw, q and a.
        StepTooLarge: an entry of K exceeded 1e9, or X became singular or
            not finite (finite escape).
    """
    if not 0.0 < h <= t_end < math.inf:
        raise ValidationError("h" if not 0.0 < h < math.inf else "t_end",
                              f"step must satisfy 0 < h <= t_end < inf, got h={h}, t_end={t_end}")
    a, q, s = _problem(a, q, rw)
    times = uniform_grid(t_end, h)
    n = len(times) - 1
    dt = t_end / n
    ham = np.block([[-a, s], [q, a.T]])
    ks = np.zeros((n + 1, 2, 2))
    # Past a finite escape the step map's powers or X overflow or X turns
    # singular; the first step beyond 1e9 is reported instead.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # 2 |H^2|^(1/2) bounds the spread of H's eigenvalues' real parts.
            spread = 2.0 * float(np.abs(ham @ ham).sum(axis=1).max()) ** 0.5 * dt
            m = min(n, AFFINE_CHUNK)
            if spread * m > CHUNK_EFOLDS:
                m = max(1, int(CHUNK_EFOLDS / spread))
            powers = _prefix_products(np.repeat(_expm(ham * dt)[None], m, axis=0))
            for lo in range(0, n, m):
                p = powers[:n - lo]
                xy = p[:, :, :2] + p[:, :, 2:] @ ks[lo]
                # X.T K.T = Y.T, so the solve returns K.T.
                kt = np.linalg.solve(xy[:, :2].transpose(0, 2, 1), xy[:, 2:].transpose(0, 2, 1))
                k = 0.5 * (kt + kt.transpose(0, 2, 1))
                escaped = np.flatnonzero(~(np.abs(k).max(axis=(1, 2)) <= 1e9))
                if escaped.size:
                    raise StepTooLarge(
                        f"K entry exceeded 1e9 at s = {times[lo + 1 + escaped[0]]:.6g}")
                ks[lo + 1:lo + 1 + len(p)] = k
        except np.linalg.LinAlgError:
            raise StepTooLarge("step map not finite, or X singular or not finite") from None

    # Swept in reversed time s = T - t on the same grid; flip so times run
    # 0..T with K(T) = 0 exact.
    ks = ks[::-1]
    return GainSchedule(times, ks[:, 0, 0].copy(), ks[:, 1, 1].copy(), ks[:, 0, 1].copy(),
                        alpha=float(rw))
