"""Dense linear-algebra kernels used throughout the package.

numpy supplies storage, slicing, and matrix products; the decomposition-grade
kernels (thin Householder QR with positive-diagonal normalization, triangular
back-substitution, Gram-side power iteration for spectral norms) are
implemented here so their tolerances and failure modes are pinned down by this
module rather than by a LAPACK build.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, RankDeficient, SingularTriangular
from .rng import uniform_open

RANK_TOL = 1e-13
PIVOT_TOL = 1e-14
POWER_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(a) -> float:
    return float(np.sqrt(np.sum(np.asarray(a, dtype=float) ** 2)))


def max_abs(a) -> float:
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def inf_norm_vector(v) -> float:
    return max_abs(v)


def vec(c) -> np.ndarray:
    """Column-major flattening of a matrix."""
    return as_matrix(c, "vec argument").reshape(-1, order="F")


def unvec(v, m: int, n: int) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != m * n:
        raise ValueError(f"cannot reshape length-{arr.size} vector to {m}x{n}")
    return arr.reshape((m, n), order="F")


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a, "kron factor"), as_matrix(b, "kron factor"))


def vec_perm_indices(m: int, n: int) -> np.ndarray:
    """Index array ``p`` with ``P[p[b], b] = 1`` for the commutation matrix P.

    P maps vec(E) to vec(E^T) for E of shape m x n; entry vec-index
    ``b = i + m*j`` lands at row ``a = j + n*i``.
    """
    b = np.arange(m * n)
    i = b % m
    j = b // m
    return j + n * i


def vec_perm(m: int, n: int) -> np.ndarray:
    """Dense commutation matrix: ``vec_perm(m, n) @ vec(E) == vec(E.T)``."""
    mn = m * n
    p = np.zeros((mn, mn))
    p[vec_perm_indices(m, n), np.arange(mn)] = 1.0
    return p


def entrywise_div(x, y) -> np.ndarray:
    """Entry ratios ``x/y`` with the convention ``x_i`` where ``y_i == 0``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("entrywise_div arguments must share a shape")
    safe = np.where(ya != 0.0, ya, 1.0)
    return np.where(ya != 0.0, xa / safe, xa)


def comp_distance(x, y) -> float:
    """Largest entrywise relative deviation of x from y (0/0 counts the raw gap)."""
    return inf_norm_vector(entrywise_div(np.asarray(x, float) - np.asarray(y, float), y))


def householder_qr(mat) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with R forced to a positive diagonal.

    Parameters
    ----------
    mat : array_like, shape (p, l), p >= l
        Matrix with full column rank.

    Returns
    -------
    q : ndarray, shape (p, l)
        Orthonormal columns.
    r : ndarray, shape (l, l)
        Upper triangular with strictly positive diagonal; the strict lower
        triangle is exactly zero.

    Raises
    ------
    RankDeficient
        If a pivot column norm falls below ``RANK_TOL`` times the Frobenius
        norm of the input.
    """
    a = as_matrix(mat, "qr input")
    p, l = a.shape
    if p < l:
        raise ValueError(f"qr input must have at least as many rows as columns, got {p}x{l}")
    r = a.copy()
    scale = frobenius_norm(a)
    reflectors: list[np.ndarray] = []
    for j in range(l):
        x = r[j:, j].copy()
        alpha = float(np.sqrt(np.sum(x * x)))
        if alpha <= RANK_TOL * scale:
            raise RankDeficient(
                f"pivot column {j}: norm {alpha:.3e} <= {RANK_TOL:.1e} * {scale:.3e}"
            )
        v = x
        if v[0] >= 0.0:  # push away from the cancelling sign
            v[0] += alpha
        else:
            v[0] -= alpha
        v /= np.sqrt(np.sum(v * v))
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        reflectors.append(v)
    q = np.zeros((p, l))
    q[:l, :l] = np.eye(l)
    for j in range(l - 1, -1, -1):
        v = reflectors[j]
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])
    r = r[:l, :]
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r = r * flip[:, None]
    q = q * flip[None, :]
    r[np.tril_indices(l, -1)] = 0.0
    return q, r


def triangular_solve(r, b) -> np.ndarray:
    """Solve ``R y = B`` for upper-triangular R by back-substitution.

    Raises ``SingularTriangular`` when a diagonal pivot is below ``PIVOT_TOL``
    times the largest entry of R in magnitude.
    """
    ra = as_matrix(r, "triangular matrix")
    l = ra.shape[0]
    if ra.shape[1] != l:
        raise ValueError(f"triangular matrix must be square, got {ra.shape}")
    b_arr = np.asarray(b, dtype=float)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    if b_arr.shape[0] != l:
        raise ValueError("right-hand side row count does not match")
    pivot_floor = PIVOT_TOL * max_abs(ra)
    diag = np.diag(ra)
    if np.any(np.abs(diag) <= pivot_floor):
        worst = int(np.argmin(np.abs(diag)))
        raise SingularTriangular(
            f"diagonal entry {worst} has magnitude {abs(diag[worst]):.3e} <= {pivot_floor:.3e}"
        )
    y = np.zeros_like(b_arr)
    for i in range(l - 1, -1, -1):
        y[i] = (b_arr[i] - ra[i, i + 1:] @ y[i + 1:]) / diag[i]
    return y[:, 0] if squeeze else y


def power_iteration_cap(dim: int) -> int:
    return 10 * max(dim, 100)


POWER_BLOCK = 4
POWER_BLOCK_MAX = 32
_CLUSTER_GAP = 0.05  # relative Ritz spread that flags a straddled cluster
_WIDEN_WARMUP = 30  # iterations before the first block-widening check


def _jacobi_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix, descending, by cyclic Jacobi.

    The sweeps run on Python floats: on the 2- to 32-wide Ritz blocks of the
    power iteration, slicing numpy rows per rotation costs more than the
    arithmetic. Each rotation updates the two columns and then the two rows
    entry by entry with the same operations, in the same order, as the
    vectorised form ``a[:, p], a[:, q] = c a_p - s a_q, s a_p + c a_q``, so
    the eigenvalues are the same floats.
    """
    sym = 0.5 * (h + h.T)
    b = sym.shape[0]
    if b == 1:
        return sym[0, :1].copy()
    scale = max(float(np.max(np.abs(sym))), 1e-300)
    off_tol = 1e-16 * scale
    skip_tol = 1e-18 * scale
    a = sym.tolist()
    for _ in range(60):
        if all(abs(a[p][q]) <= off_tol for p in range(b) for q in range(b) if p != q):
            break
        for p in range(b - 1):
            for q in range(p + 1, b):
                apq = a[p][q]
                if abs(apq) <= skip_tol:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if tau != 0:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                row_p, row_q = a[p], a[q]
                for k in range(b):
                    x, y = row_p[k], row_q[k]
                    row_p[k] = c * x - s * y
                    row_q[k] = s * x + c * y
    return np.sort(np.array([a[i][i] for i in range(b)]))[::-1].copy()


def _orthonormalize_block(y: np.ndarray, fill_tag: int) -> np.ndarray:
    """Modified Gram-Schmidt with deterministic replacement of null columns."""
    n, b = y.shape
    q = np.zeros((n, b))
    for j in range(b):
        v = y[:, j].copy()
        for _ in range(2):  # second pass restores orthogonality after cancellation
            for i in range(j):
                v -= (q[:, i] @ v) * q[:, i]
        nv = float(np.sqrt(np.sum(v * v)))
        attempt = 0
        while nv <= 1e-150:
            v = uniform_open((fill_tag + 1) * 0x9E37 + attempt, n, offset=j * n)
            for i in range(j):
                v -= (q[:, i] @ v) * q[:, i]
            nv = float(np.sqrt(np.sum(v * v)))
            attempt += 1
        q[:, j] = v / nv
    return q


def operator_norm(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    ncols: int,
    tol: float = POWER_TOL,
    max_iter: Optional[int] = None,
) -> float:
    """Largest singular value of a linear operator given by matvec callbacks.

    Block power iteration (subspace iteration) on the Gram operator
    ``v -> rmatvec(matvec(v))``. The callbacks must accept an ``(ncols, b)``
    block. The starting block is deterministic: a normalized all-ones column
    plus fixed pseudo-random columns (so starts orthogonal to the dominant
    singular subspace cannot blind the iteration), and the largest Ritz value
    is tracked until its relative increment falls below ``tol``.

    The block starts at width 4 and doubles (up to 32) whenever the smallest
    Ritz value crowds the largest: that signature means a cluster of
    near-equal singular values straddles the block edge, which would pin the
    convergence rate of the top Ritz value near 1. Widening past the cluster
    restores a usable rate. Structured operators routinely carry such
    multiplets, so the single-vector method is not reliable here.
    """
    if ncols == 0:
        return 0.0
    if max_iter is None:
        max_iter = power_iteration_cap(ncols)
    b = min(POWER_BLOCK, ncols)
    b_max = min(POWER_BLOCK_MAX, ncols)
    start = np.empty((ncols, b))
    start[:, 0] = 1.0
    for j in range(1, b):
        start[:, j] = uniform_open(0xC0FFEE ^ ncols, ncols, offset=j * ncols)
    w = _orthonormalize_block(start, 0)
    theta = 0.0
    for it in range(max_iter):
        y = rmatvec(matvec(w))
        h = w.T @ y
        ritz = _jacobi_eigenvalues(h)
        theta_new = float(ritz[0])
        if abs(theta_new - theta) <= tol * max(abs(theta_new), 1e-300):
            return float(np.sqrt(max(theta_new, 0.0)))
        if (
            b < b_max
            and it >= _WIDEN_WARMUP
            and float(ritz[-1]) > (1.0 - _CLUSTER_GAP) * max(theta_new, 0.0)
        ):
            extra = min(b, b_max - b)
            fresh = np.empty((ncols, extra))
            for j in range(extra):
                fresh[:, j] = uniform_open(0xC0FFEE ^ ncols, ncols, offset=(b + j) * ncols)
            y = np.hstack([y, fresh])
            b += extra
        w = _orthonormalize_block(y, it + 1)
        theta = theta_new
    raise NoConvergence(
        f"power iteration did not settle within {max_iter} iterations"
    )


def spectral_norm(mat, tol: float = POWER_TOL, max_iter: Optional[int] = None) -> float:
    """Spectral norm ``|M|_2`` by block power iteration on the smaller Gram side."""
    a = as_matrix(mat, "spectral_norm input")
    if a.size == 0:
        return 0.0
    if a.shape[0] < a.shape[1]:
        a = a.T
    return operator_norm(lambda v: a @ v, lambda u: a.T @ u, a.shape[1], tol, max_iter)
