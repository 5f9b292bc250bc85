"""Dense linear-algebra kernels used throughout the package.

numpy supplies storage, slicing, and matrix products; the decomposition-grade
kernels (thin Householder QR with positive-diagonal normalization, triangular
back-substitution, spectral norms) are implemented here so their tolerances
and failure modes are pinned down by this module rather than by a LAPACK
build.

``householder_qr`` is blocked in the compact WY form of Schreiber & Van Loan
(SIAM J. Sci. Stat. Comput. 10, 1989): a panel of ``QR_BLOCK`` reflectors
H_1 ... H_b is held as I - V T V^T with V the unit reflector vectors and T
b x b upper triangular, so the trailing columns and Q are updated by matrix
products (BLAS-3) rather than by one rank-one update per reflector.

``spectral_norm`` works on the smaller Gram side k of its operand. Up to
``GRAM_CROSSOVER`` it forms the k x k Gram matrix at unit scale (an exact
power-of-two scaling, so the result scales bit for bit), raises it to a high
power by normalised squaring, and ends with one Rayleigh-Ritz step on the
range of that power. Larger Gram sides use Lanczos on the Gram matrix at the
same unit scale, with full reorthogonalization (Golub & Van Loan, Matrix
Computations, 10.1-10.3), and take the top eigenvalue of its tridiagonal
by Sturm-count bisection. ``spectral_norm`` of an array is the package's
one norm entry point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, RankDeficient, SingularTriangular
from .rng import uniform_open

RANK_TOL = 1e-13
PIVOT_TOL = 1e-14
QR_BLOCK = 16  # reflectors per compact-WY panel of householder_qr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def max_abs(a) -> float:
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _binary_exponent(arr: np.ndarray) -> int:
    """Exponent e with ``max|arr| <= 2**e``; scaling by ``2**-e`` is exact."""
    return math.frexp(max_abs(arr))[1]


def frobenius_norm(a) -> float:
    """``|A|_F``, summed at unit scale so it neither overflows nor underflows."""
    arr = np.asarray(a, dtype=float)
    e = _binary_exponent(arr)
    squares = np.ldexp(arr, -e)
    squares *= squares
    return float(np.ldexp(np.sqrt(np.sum(squares)), e))


def vec(c) -> np.ndarray:
    """Column-major flattening of a matrix."""
    return as_matrix(c, "vec argument").reshape(-1, order="F")


def vec_perm_indices(m: int, n: int) -> np.ndarray:
    """Index array ``p`` with ``P[p[b], b] = 1`` for the commutation matrix P.

    P maps vec(E) to vec(E^T) for E of shape m x n; entry vec-index
    ``b = i + m*j`` lands at row ``a = j + n*i``.
    """
    b = np.arange(m * n)
    i = b % m
    j = b // m
    return j + n * i


def entrywise_div(x, y) -> np.ndarray:
    """Entry ratios ``x/y`` with the convention ``x_i`` where ``y_i == 0``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("entrywise_div arguments must share a shape")
    safe = np.where(ya != 0.0, ya, 1.0)
    return np.where(ya != 0.0, xa / safe, xa)


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

    The input is divided by a power of two ``2**e >= max|A|`` (exact) and R
    multiplied back at the end, so no column norm overflows or underflows:
    ``householder_qr(2**k A)`` is ``(Q, 2**k R)`` bit for bit while the entries
    stay in the normal range.

    Blocked compact WY (Schreiber & Van Loan 1989). Panels of ``QR_BLOCK``
    columns are factored one column at a time: column j first receives the
    panel's earlier reflectors through their WY form, then gets its own
    reflector H = I - 2 v v^T (unit v, sign chosen away from cancellation)
    and R's diagonal entry -sign(x_0)|x|. T is built alongside by
    ``T[:k, k] = -2 T[:k, :k] V[:, :k]^T v`` and ``T[k, k] = 2``, so that
    H_1 ... H_b = I - V T V^T. The columns right of the panel are then
    updated as ``C - V T^T V^T C``. Q starts from [I; 0] and takes the panels
    in reverse, each as ``Q - V T V^T Q`` on rows and columns from the panel's
    first index j0 on: the columns left of j0 are still unit vectors that
    vanish on those rows, so they need no work (the order of LAPACK's dorgqr).
    """
    a = as_matrix(mat, "qr input")
    p, l = a.shape
    if p < l:
        raise ValueError(f"qr input must have at least as many rows as columns, got {p}x{l}")
    e = _binary_exponent(a)
    r = np.asfortranarray(np.ldexp(a, -e))  # column-major: panel columns are contiguous
    scale = frobenius_norm(r)
    panels: list[tuple[int, np.ndarray, np.ndarray]] = []
    for j0 in range(0, l, QR_BLOCK):
        j1 = min(j0 + QR_BLOCK, l)
        v_panel = np.zeros((p - j0, j1 - j0), order="F")
        t = np.zeros((j1 - j0, j1 - j0))
        for j in range(j0, j1):
            k = j - j0
            column = r[j0:, j]
            if k:
                earlier = v_panel[:, :k]
                column -= earlier @ (t[:k, :k].T @ (earlier.T @ column))
            v = v_panel[k:, k]
            v[:] = column[k:]
            alpha = float(np.sqrt(np.sum(v * v)))
            if alpha <= RANK_TOL * scale:
                raise RankDeficient(
                    f"pivot column {j}: norm {alpha:.3e} <= {RANK_TOL:.1e} * {scale:.3e}"
                )
            if v[0] >= 0.0:  # push away from the cancelling sign
                v[0] += alpha
                column[k] = -alpha
            else:
                v[0] -= alpha
                column[k] = alpha
            v /= np.sqrt(np.sum(v * v))
            t[:k, k] = -2.0 * (t[:k, :k] @ (v_panel[k:, :k].T @ v))
            t[k, k] = 2.0
        if j1 < l:
            trailing = r[j0:, j1:]
            trailing -= v_panel @ (t.T @ (v_panel.T @ trailing))
        panels.append((j0, v_panel, t))
    q = np.zeros((p, l))
    q[:l, :l] = np.eye(l)
    for j0, v_panel, t in reversed(panels):
        block = q[j0:, j0:]
        block -= v_panel @ (t @ (v_panel.T @ block))
    r = np.ascontiguousarray(r[:l, :])
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r = r * flip[:, None]
    q = q * flip[None, :]
    r[np.tril_indices(l, -1)] = 0.0
    return q, np.ldexp(r, e)


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


POWER_BLOCK = 4
POWER_BLOCK_MAX = 32
_CLUSTER_GAP = 0.05  # relative Ritz spread that flags a straddled cluster


def _jacobi_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix, descending, by cyclic Jacobi.

    The sweeps run on Python floats: on the 2- to 32-wide Ritz blocks of the
    direct kernel, slicing numpy rows per rotation costs more than the
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


@lru_cache(maxsize=32)
def _start_columns(ncols: int, lo: int, hi: int) -> np.ndarray:
    """Columns ``lo..hi-1`` of the deterministic start block: column 0 is all
    ones, the others fixed pseudo-random draws. Built once per shape and
    shared read-only."""
    block = np.empty((ncols, hi - lo))
    for j in range(lo, hi):
        block[:, j - lo] = 1.0 if j == 0 else uniform_open(0xC0FFEE ^ ncols, ncols, offset=j * ncols)
    block.flags.writeable = False
    return block


GRAM_CROSSOVER = 128  # largest Gram side normed by the direct kernel
_SQUARINGS = 14  # at most 2**14 power steps
_SQUARING_TOL = 1e-15  # relative Rayleigh-quotient change that ends the squaring
_DROP_TOL = 1e-8  # residual/column-norm ratio below which a column is in the span


def _range_basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical range of ``y``'s columns.

    Classical Gram-Schmidt with a second pass, dropping every column whose
    residual after both passes is below ``_DROP_TOL`` of its norm: such a
    residual is rounding noise, and normalising it would leave a column
    parallel to the basis (Kahan-Parlett "twice is enough" criterion).
    """
    kept: list[np.ndarray] = []
    for col in y.T:
        v = col
        if kept:
            basis = np.array(kept).T
            for _ in range(2):
                v = v - basis @ (basis.T @ v)
        norm = math.sqrt(float(v @ v))
        if norm > _DROP_TOL * math.sqrt(float(col @ col)):
            kept.append(v / norm)
    return np.array(kept).T


def _gram_norm(s: np.ndarray) -> float:
    """``|S|_2`` for a nonzero S at unit scale with at least as many rows as
    columns.

    G = S^T S. Normalised squaring P <- P^2/|P^2|_F raises G to
    the power 2**j and stops when the Rayleigh quotient of P's largest column
    c settles. The norm is the largest Ritz value of G on span(c, P S), S the
    deterministic start block; c keeps the dominant direction in the
    span when it is orthogonal to S. The block widens from ``POWER_BLOCK`` to
    ``POWER_BLOCK_MAX`` while no column is dropped and its smallest Ritz
    value crowds the largest, the sign of a cluster wider than the block.
    """
    g = s.T @ s
    k = g.shape[0]
    p = g / math.sqrt(float(np.sum(g * g)))
    rayleigh = 0.0
    for _ in range(_SQUARINGS):
        p = p @ p
        p /= math.sqrt(float(np.sum(p * p)))
        c = p[:, int(np.argmax(np.sum(p * p, axis=0)))]
        updated = float(c @ (g @ c)) / float(c @ c)
        if abs(updated - rayleigh) <= _SQUARING_TOL * updated:
            break
        rayleigh = updated
    b, b_max = min(POWER_BLOCK, k), min(POWER_BLOCK_MAX, k)
    while True:
        w = _range_basis(np.hstack([c[:, None], p @ _start_columns(k, 0, b)]))
        ritz = _jacobi_eigenvalues(w.T @ (g @ w))
        if w.shape[1] <= b or b == b_max or ritz[-1] <= (1.0 - _CLUSTER_GAP) * ritz[0]:
            break
        b = min(2 * b, b_max)
    return math.sqrt(max(float(ritz[0]), 0.0))


KRYLOV_STEPS = 500  # Lanczos steps allowed before NoConvergence
_RITZ_EVERY = 4  # Lanczos steps between Ritz-value checks
_KRYLOV_TOL = 1e-15  # relative Ritz-value move, and beta over the largest alpha, that ends Lanczos


def _top_tridiagonal_eigenvalue(alpha: list[float], beta: list[float], lo: float) -> float:
    """Largest eigenvalue of the symmetric tridiagonal T with diagonal
    ``alpha`` and off-diagonal ``beta``, by Sturm-count bisection.

    ``lo`` must not exceed that eigenvalue; the Ritz value of a leading
    block of T is such a bound (Cauchy interlacing). The upper end is the
    Gershgorin bound. The count of pivots of T - x I = L D L^T that are
    negative is the number of eigenvalues below x, so x is above the largest
    one exactly when every pivot is negative. Python floats: T has at most a
    few hundred rows, where numpy's per-call cost exceeds the arithmetic.
    """
    pad = [0.0, *map(abs, beta), 0.0]
    hi = max(a + pad[i] + pad[i + 1] for i, a in enumerate(alpha))
    rest = [(a, b * b) for a, b in zip(alpha[1:], beta)]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        d = alpha[0] - mid
        for a, b2 in rest:
            if d >= 0.0:
                break
            d = a - mid - b2 / d
        if d < 0.0:
            hi = mid
        else:
            lo = mid


def _krylov_norm(s: np.ndarray) -> float:
    """``|S|_2`` for a nonzero S at unit scale, by Lanczos on G = S^T S with
    full reorthogonalization.

    The start vector is column 1 of the deterministic start block, a fixed
    pseudo-random draw: the all-ones column 0 lies in an invariant subspace
    of the structured first-order maps, where Lanczos would never see their
    top singular direction. Each step applies G once, takes the diagonal
    entry alpha_j of the tridiagonal T_j, and removes from the new vector its
    components along the whole basis by two passes of classical Gram-Schmidt
    ("twice is enough", as in ``_range_basis``); the remainder's norm is
    beta_j. Every ``_RITZ_EVERY`` steps the largest Ritz value theta (the top
    eigenvalue of T_j) is recomputed. The iteration stops when theta moves
    by at most ``_KRYLOV_TOL`` relative between checks, when beta_j is below
    ``_KRYLOV_TOL`` times the largest alpha, itself at most theta (the basis
    spans an invariant subspace), or when the basis spans all k dimensions;
    it raises ``NoConvergence`` after ``KRYLOV_STEPS`` steps short of that.
    """
    k = s.shape[1]
    steps = min(k, KRYLOV_STEPS)
    basis = np.empty((steps, k))  # row j is the Lanczos vector v_j
    v = _start_columns(k, 1, 2)[:, 0]
    basis[0] = v / math.sqrt(float(v @ v))
    alpha: list[float] = []
    beta: list[float] = []
    theta = 0.0
    for j in range(steps):
        w = s.T @ (s @ basis[j])
        alpha.append(float(basis[j] @ w))
        span = basis[: j + 1]
        for _ in range(2):
            w -= span.T @ (span @ w)
        b = math.sqrt(float(w @ w))
        invariant = b <= _KRYLOV_TOL * max(alpha)
        if invariant or j + 1 == k or (j + 1) % _RITZ_EVERY == 0:
            updated = _top_tridiagonal_eigenvalue(alpha, beta, theta)
            if invariant or j + 1 == k or updated - theta <= _KRYLOV_TOL * updated:
                return math.sqrt(updated)
            theta = updated
        if j + 1 < steps:
            basis[j + 1] = w / b
            beta.append(b)
    raise NoConvergence(math.sqrt(_top_tridiagonal_eigenvalue(alpha, beta, theta)), steps)


def spectral_norm(mat) -> float:
    """Spectral norm ``|M|_2``, worked on the smaller Gram side k.

    M is divided by ``2**e >= max|M|`` (exact) and the result multiplied
    back, so ``spectral_norm(2**j M) == 2**j spectral_norm(M)`` bit for bit
    while the entries stay normal. ``k <= GRAM_CROSSOVER``: the direct
    kernel; larger k: Lanczos, which raises ``NoConvergence`` (with its last
    estimate at M's scale) if it reaches ``KRYLOV_STEPS`` steps short of k.
    One ``max``/``min`` scan gives both max|M| and the rejection of
    non-finite entries (``ValueError``) before the scaled copy is made.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"spectral_norm input must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        return 0.0
    top = max(float(np.max(a)), -float(np.min(a)))
    if not math.isfinite(top):
        raise ValueError("spectral_norm input contains non-finite entries")
    if top == 0.0:
        return 0.0
    if a.shape[0] < a.shape[1]:
        a = a.T
    e = math.frexp(top)[1]
    s = np.ldexp(a, -e)
    try:
        norm = _krylov_norm(s) if s.shape[1] > GRAM_CROSSOVER else _gram_norm(s)
    except NoConvergence as exc:
        raise NoConvergence(float(np.ldexp(exc.estimate, e)), exc.steps) from None
    return float(np.ldexp(norm, e))
