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
products (BLAS-3) rather than by one rank-one update per reflector. Its
per-column steps are written for few numpy calls (squared norms summed
pairwise by ``np.add.reduce`` into one reused buffer, transposes bound once
per panel) without changing any floating-point operation or its order. A
(B, p, l) stack of same-shape matrices is factored in lockstep: one pass of
the column loop drives all B through batched products, so its Python cost
per column is paid once, and slice i is bit for bit the factorization of
slice i alone. A 2-d matrix is factored as a stack of one.

``triangular_solve`` inverts upper-triangular matrices (one, or a stack
in one pass) by blocked back-substitution: ``_block_inverses`` inverts the
diagonal blocks of width ``TRI_BLOCK`` together, each through its two
halves, and the block rows are then solved upward on the upper triangle
by matrix products, with no per-row Python loop. Both stacked kernels read
their input through ``_read_stack``: a matrix or a stack, as a stack, with
the largest entry of each slice from one max/min scan that also rejects
non-finite entries. ``checked_matrix`` does the same for one matrix.

``spectral_norm`` (of an array) and ``operator_norm`` (of a ``LinearMap``,
a map given by its action and adjoint on stacks of vectors) work on the
smaller Gram side k, at unit scale (exact powers of two, so results scale
bit for bit).
One kernel, Lanczos with full reorthogonalization (Golub & Van Loan, Matrix
Computations, 10.1-10.3) that takes the top eigenvalue of its tridiagonal
by Sturm-count bisection, serves every k through a matvec. Up to
``GRAM_CROSSOVER`` the matvec is the k x k Gram matrix, formed once, and
Lanczos starts from the dominant column of a high power of it, reached by
normalised squaring (one ``einsum`` per squaring gives the column norms
that pick that column, its squared norm and the scale), and runs until its
basis spans an invariant subspace
or all k dimensions, which resolves clusters of top singular values. Above
it the matvec is the map and its adjoint (two products for an array),
Lanczos starts from a fixed pseudo-random vector and also stops once its
Ritz value settles.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NoConvergence, RankDeficient, SingularTriangular
from .rng import uniform_open

RANK_TOL = 1e-13
PIVOT_TOL = 1e-14
QR_BLOCK = 16  # reflectors per compact-WY panel of householder_qr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries (an
    ``isfinite`` scan, cheaper than ``checked_matrix`` where max|A| is not
    needed)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def checked_matrix(a, name: str = "matrix") -> tuple[np.ndarray, float]:
    """Coerce to a 2-d float array and return it with ``max|A|``.

    One ``max``/``min`` scan gives max|A| and rejects non-finite entries
    (``ValueError``): a NaN or an infinity reaches the max or the min.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not arr.size:
        return arr, 0.0
    top = max(float(np.maximum.reduce(arr, axis=None)), -float(np.minimum.reduce(arr, axis=None)))
    if not math.isfinite(top):
        raise ValueError(f"{name} contains non-finite entries")
    return arr, top


def _read_stack(a, name: str, upper: bool = False) -> tuple[np.ndarray, list[float], bool]:
    """``a``, one matrix or a stack of matrices, as a float (S, p, l) stack
    (a matrix is a stack of one), with ``max|S_i|`` of each slice and
    whether ``a`` was a stack. With ``upper`` the stack is a copy of the
    upper triangles, so nothing below the diagonal is read. One max/min scan
    gives the maxima and rejects non-finite entries (``ValueError``)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2- or 3-dimensional, got ndim={arr.ndim}")
    stacked = arr.ndim == 3
    stack = arr if stacked else arr[None]
    if upper:
        stack = np.triu(stack)
    tops = np.maximum(
        np.maximum.reduce(stack, axis=(1, 2), initial=0.0),
        -np.minimum.reduce(stack, axis=(1, 2), initial=0.0),
    ).tolist()
    if not all(map(math.isfinite, tops)):
        raise ValueError(f"{name} contains non-finite entries")
    return stack, tops, stacked


def max_abs(a) -> float:
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def binary_exponent(arr: np.ndarray) -> int:
    """Exponent e with ``max|arr| <= 2**e``; scaling by ``2**-e`` is exact."""
    return math.frexp(max_abs(arr))[1]


def frobenius_norm(a) -> float:
    """``|A|_F``, summed at unit scale so it neither overflows nor underflows."""
    arr = np.asarray(a, dtype=float)
    e = binary_exponent(arr)
    squares = np.ldexp(arr, -e)
    squares *= squares
    return float(np.ldexp(np.sqrt(np.sum(squares)), e))


def vec(c) -> np.ndarray:
    """Column-major flattening of a matrix."""
    return as_matrix(c, "vec argument").reshape(-1, order="F")


def entrywise_div(x, y) -> np.ndarray:
    """Entry ratios ``x/y`` with the convention ``x_i`` where ``y_i == 0``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("entrywise_div arguments must share a shape")
    safe = np.where(ya != 0.0, ya, 1.0)
    return np.where(ya != 0.0, xa / safe, xa)


def householder_qr(mat) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with R forced to a positive diagonal, of one matrix or of a
    stack of same-shape matrices.

    Parameters
    ----------
    mat : array_like, shape (p, l) or (B, p, l), p >= l
        Matrix (or matrices) with full column rank.

    Returns
    -------
    q : ndarray, shape (p, l) or (B, p, l)
        Orthonormal columns.
    r : ndarray, shape (l, l) or (B, l, l)
        Upper triangular with strictly positive diagonal; the strict lower
        triangle is exactly zero.

    Raises
    ------
    RankDeficient
        If a pivot column norm falls below ``RANK_TOL`` times the Frobenius
        norm of the input (of its slice, which the message names).

    Each matrix is divided by its own power of two ``2**e >= max|A|``
    (exact) and its R multiplied back at the end, so no column norm
    overflows or underflows: ``householder_qr(2**k A)`` is ``(Q, 2**k R)``
    bit for bit while the entries stay in the normal range.

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

    Every input runs ``_qr_lockstep``, a 2-d matrix as a stack of one; slice
    i of a stack is bit for bit the factorization of slice i alone.
    """
    stack, tops, stacked = _read_stack(mat, "qr input")
    p, l = stack.shape[1:]
    if p < l:
        raise ValueError(f"qr input must have at least as many rows as columns, got {p}x{l}")
    q, r = _qr_lockstep(stack, tops, stacked)
    return (q, r) if stacked else (q[0], r[0])


def _qr_lockstep(a: np.ndarray, tops: list[float], stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """``householder_qr`` of every slice of the (B, p, l) stack ``a``, with
    ``max|a_i| == tops[i]``, in one pass of the column loop.

    R and the reflector panels are column-major slice by slice, T and Q
    row-major, so every stacked ``np.matmul`` runs the same BLAS call
    (gemm, or gemv on a column) per slice, and ``np.add.reduce`` along
    contiguous rows sums each slice pairwise as the 1-d reduction does:
    every slice is bit for bit its own factorization. Vectors are (B, n)
    rows, lifted to (B, n, 1) columns for products. The sign choice and the
    rank test run per slice on Python floats; a rank-deficient slice i
    raises the 2-d message, prefixed ``slice i: `` when ``stacked``.
    """
    nb, p, l = a.shape
    e = [math.frexp(top)[1] for top in tops]
    r = np.empty((nb, l, p)).transpose(0, 2, 1)  # each slice column-major
    np.ldexp(a, -np.array(e)[:, None, None], out=r)
    scale = [frobenius_norm(s) for s in r]
    squares = np.empty((nb, p))
    panels: list[tuple[int, np.ndarray, np.ndarray]] = []
    for j0 in range(0, l, QR_BLOCK):
        j1 = min(j0 + QR_BLOCK, l)
        v_rows = np.zeros((nb, j1 - j0, p - j0))
        v_panel = v_rows.transpose(0, 2, 1)
        t = np.zeros((nb, j1 - j0, j1 - j0))
        t_t = t.transpose(0, 2, 1)
        for j in range(j0, j1):
            k = j - j0
            column = r[:, j0:, j]
            if k:
                coeffs = t_t[:, :k, :k] @ (v_rows[:, :k] @ column[..., None])
                column -= (v_panel[:, :, :k] @ coeffs)[..., 0]
            v = v_rows[:, k, k:]
            v[:] = column[:, k:]
            sq = squares[:, : p - j]
            alpha = np.sqrt(np.add.reduce(np.multiply(v, v, out=sq), axis=1)).tolist()
            for i, (ai, si) in enumerate(zip(alpha, scale)):
                if ai <= RANK_TOL * si:
                    msg = f"pivot column {j}: norm {ai:.3e} <= {RANK_TOL:.1e} * {si:.3e}"
                    raise RankDeficient(f"slice {i}: {msg}" if stacked else msg)
            for i, (ai, v0) in enumerate(zip(alpha, v[:, 0].tolist())):
                if v0 >= 0.0:  # push away from the cancelling sign
                    v[i, 0] = v0 + ai
                    column[i, k] = -ai
                else:
                    v[i, 0] = v0 - ai
                    column[i, k] = ai
            v /= np.sqrt(np.add.reduce(np.multiply(v, v, out=sq), axis=1))[:, None]
            t[:, :k, k] = -2.0 * (t[:, :k, :k] @ (v_rows[:, :k, k:] @ v[..., None]))[..., 0]
            t[:, k, k] = 2.0
        if j1 < l:
            trailing = r[:, j0:, j1:]
            trailing -= v_panel @ (t_t @ (v_rows @ trailing))
        panels.append((j0, v_panel, t))
    q = np.zeros((nb, p, l))
    q[:, range(l), range(l)] = 1.0
    for j0, v_panel, t in reversed(panels):
        block = q[:, j0:, j0:]
        block -= v_panel @ (t @ (v_panel.transpose(0, 2, 1) @ block))
    flip = np.where(r.diagonal(axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    r = r[:, :l]
    r *= flip[:, :, None]
    q *= flip[:, None, :]
    r = np.triu(r)
    return q, np.ldexp(r, np.array(e)[:, None, None], out=r)


TRI_BLOCK = 16  # diagonal block width of triangular_solve


def _block_inverses(blocks: np.ndarray) -> np.ndarray:
    """Inverses of the upper-triangular (N, w, w) stack ``blocks``, w a power
    of two, through [[A, U], [0, C]]^{-1} = [[A^{-1}, A^{-1} (-U) C^{-1}],
    [0, C^{-1}]]: the halves A and C of every block are inverted together in
    one recursive call, down to the reciprocal diagonal. Only the upper
    triangles are read; the strict lower triangles of the inverses are exact
    (positive) zeros."""
    n, w = blocks.shape[:2]
    if w == 1:
        return 1.0 / blocks
    h = w // 2
    halves = _block_inverses(np.concatenate((blocks[:, :h, :h], blocks[:, h:, h:])))
    inv = np.zeros_like(blocks)
    inv[:, :h, :h], inv[:, h:, h:] = halves[:n], halves[n:]
    inv[:, :h, h:] = halves[:n] @ (-blocks[:, :h, h:] @ halves[n:])
    return inv


def triangular_solve(r) -> np.ndarray:
    """``R^{-1}``, the Y of R Y = I, for upper-triangular R: one l x l matrix
    or an (S, l, l) stack, inverted in one pass; slice i of Y is bit for bit
    the inverse of slice i alone.

    Blocked back-substitution (Du Croz & Higham, IMA J. Numer. Anal. 12,
    1992). The diagonal blocks R_II of width ``TRI_BLOCK`` (or the next
    power of two at or above the order, if smaller; the last block padded
    with the identity) are inverted together by ``_block_inverses``; then
    the block rows are solved upward on the upper triangle, Y_II = R_II^{-1}
    and Y_{I,J>I} = R_II^{-1} (-R_{I,J>I} Y_{J>I,J>I}), by matrix products.
    Only the upper triangle of R is read, and the strict lower triangle of Y
    is exact (positive) zeros.

    Raises ``SingularTriangular`` when a diagonal pivot is at most
    ``PIVOT_TOL`` times the largest upper-triangle entry of its R in
    magnitude (naming the slice of a stack).
    """
    y, tops, stacked = _read_stack(r, "triangular matrix", upper=True)
    l = y.shape[1]
    if y.shape[2] != l:
        raise ValueError(f"triangular matrix must be square, got {y.shape[1:]}")
    magnitudes = np.abs(y.diagonal(axis1=1, axis2=2))
    for i, top in enumerate(tops):
        pivot_floor = PIVOT_TOL * top
        if l and np.minimum.reduce(magnitudes[i]) <= pivot_floor:
            worst = int(np.argmin(magnitudes[i]))
            msg = (
                f"diagonal entry {worst} has magnitude {magnitudes[i, worst]:.3e}"
                f" <= {pivot_floor:.3e}"
            )
            raise SingularTriangular(f"slice {i}: {msg}" if stacked else msg)
    w = min(TRI_BLOCK, 1 << (l - 1).bit_length())
    spans = [(i0, min(i0 + w, l)) for i0 in range(0, l, w)]
    blocks = np.zeros((len(y), len(spans), w, w))
    blocks[..., range(w), range(w)] = 1.0  # pads the last block
    for b, (i0, i1) in enumerate(spans):
        blocks[:, b, : i1 - i0, : i1 - i0] = y[:, i0:i1, i0:i1]
    inverses = _block_inverses(blocks.reshape(-1, w, w)).reshape(blocks.shape)
    # Y overwrites the copy of R block row by block row, upward: block row I
    # of R is read before it is overwritten, and the rows below it hold Y.
    for b, (i0, i1) in reversed(list(enumerate(spans))):
        d = inverses[:, b, : i1 - i0, : i1 - i0]
        if i1 < l:
            np.matmul(d, -y[:, i0:i1, i1:] @ y[:, i1:, i1:], out=y[:, i0:i1, i1:])
        y[:, i0:i1, i0:i1] = d
    return y if stacked else y[0]


@lru_cache(maxsize=32)
def _start_vector(k: int) -> np.ndarray:
    """The Lanczos start vector of Gram side k, a fixed pseudo-random draw.
    Built once per side and shared read-only."""
    v = uniform_open(0xC0FFEE ^ k, k, offset=k)
    v.flags.writeable = False
    return v


GRAM_CROSSOVER = 128  # largest Gram side normed through the explicit Gram matrix
KRYLOV_STEPS = 500  # Lanczos steps allowed before NoConvergence
_RITZ_EVERY = 4  # Lanczos steps between Ritz-value checks
_KRYLOV_TOL = 1e-15  # relative Ritz-value move that ends Lanczos above the crossover
_EPS = 2.0**-52  # machine epsilon: beta <= k * _EPS * max(alpha) is an invariant subspace
_BASIS_ROWS = 16  # Lanczos basis rows reserved first, doubled whenever they fill


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
    if len(alpha) == 1:
        return alpha[0]
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


def _lanczos_top(apply, v: np.ndarray, k: int) -> float:
    """``sqrt(lambda_max(G))`` for a symmetric positive semidefinite k x k G
    given as the matvec ``apply(x) = G x``, by Lanczos with full
    reorthogonalization from the nonzero start vector ``v``.

    Each step applies G once, takes the diagonal entry alpha_j of the
    tridiagonal T_j, and removes from the new vector its components along
    the whole basis by two passes of classical Gram-Schmidt ("twice is
    enough"); the remainder's norm is beta_j. It returns the largest Ritz
    value (the top eigenvalue of T_j) once beta_j is at most k eps times the
    largest alpha (an invariant subspace to the rounding of one product with
    G, eps = 2**-52) or the basis spans all k dimensions. Above
    ``GRAM_CROSSOVER`` it also stops when that Ritz value, taken every
    ``_RITZ_EVERY`` steps, moves by at most ``_KRYLOV_TOL`` relative, and
    raises ``NoConvergence`` after ``KRYLOV_STEPS`` steps. That
    stop can fire inside a tight cluster of top eigenvalues before its
    members are separated; up to the crossover k steps are cheap. The basis
    starts at ``_BASIS_ROWS`` rows and doubles when it fills, since most
    norms stop within a few steps.
    """
    steps = min(k, KRYLOV_STEPS)
    settle = k > GRAM_CROSSOVER
    basis = np.empty((min(steps, _BASIS_ROWS), k))  # row j is the Lanczos vector v_j
    basis[0] = v / math.sqrt(float(v @ v))
    alpha: list[float] = []
    beta: list[float] = []
    theta = 0.0
    for j in range(steps):
        w = apply(basis[j])
        alpha.append(float(basis[j] @ w))
        span = basis[: j + 1]
        for _ in range(2):
            w -= span.T @ (span @ w)
        b = math.sqrt(float(w @ w))
        if b <= k * _EPS * max(alpha) or j + 1 == k:
            return math.sqrt(_top_tridiagonal_eigenvalue(alpha, beta, theta))
        if settle and (j + 1) % _RITZ_EVERY == 0:
            updated = _top_tridiagonal_eigenvalue(alpha, beta, theta)
            if updated - theta <= _KRYLOV_TOL * updated:
                return math.sqrt(updated)
            theta = updated
        if j + 1 < steps:
            if j + 1 == len(basis):
                grown = np.empty((min(2 * len(basis), steps), k))
                grown[: j + 1] = basis
                basis = grown
            basis[j + 1] = w / b
            beta.append(b)
    raise NoConvergence(math.sqrt(_top_tridiagonal_eigenvalue(alpha, beta, theta)), steps)


_SQUARINGS = 14  # at most 2**14 power steps
_SQUARING_TOL = 1e-15  # relative Rayleigh-quotient change that ends the squaring


def _gram_norm(g: np.ndarray) -> float:
    """``sqrt(lambda_max(G))`` for a nonzero Gram matrix G, by Lanczos on G.

    The start vector comes from normalised squaring P <- P^2/|P^2|_F, which
    raises G to the power 2**j and stops when the Rayleigh quotient of P's
    largest column c settles. c lies close to the dominant eigenvector, and
    always in the range of G, so Lanczos from c mostly meets an invariant
    subspace after one product with G (from ``_start_vector`` it runs all k
    steps: 1.5 to 3 times the time on the benchmark pools' operands).

    One ``einsum`` per squaring gives the squared column norms of P^2: their
    sum is |P^2|_F^2, their argmax picks c and the entry there is c^T c.
    P^2 is scaled only after c and its Rayleigh quotient are taken; it stays
    in range unscaled, since |P|_F = 1 and P is symmetric positive
    semidefinite, so 1/k <= |P^2|_F <= 1.
    """
    p = g / math.sqrt(float(np.sum(g * g)))
    rayleigh = 0.0
    for _ in range(_SQUARINGS):
        p = p @ p
        squares = np.einsum("ij,ij->j", p, p)
        j = int(squares.argmax())
        c = p[:, j]
        updated = float(c @ (g @ c)) / float(squares[j])
        if abs(updated - rayleigh) <= _SQUARING_TOL * updated:
            break
        p /= math.sqrt(float(squares.sum()))
        rayleigh = updated
    return _lanczos_top(lambda v: g @ v, c, g.shape[0])


def spectral_norm(mat) -> float:
    """Spectral norm ``|M|_2``, worked on the smaller Gram side k.

    M is divided by ``2**e >= max|M|`` (exact) and the result multiplied
    back, so ``spectral_norm(2**j M) == 2**j spectral_norm(M)`` bit for bit
    while the entries stay normal. ``k <= GRAM_CROSSOVER``: Lanczos on the
    explicit Gram matrix (``_gram_norm``); larger k: ``operator_norm`` of the
    operand's products, which raises ``NoConvergence`` (with its last
    estimate at M's scale) if it reaches ``KRYLOV_STEPS`` steps short of k.
    One ``max``/``min`` scan (``checked_matrix``) gives max|M| and the rejection of
    non-finite entries (``ValueError``) before the scaled copy is made.
    """
    a, top = checked_matrix(mat, "spectral_norm input")
    if top == 0.0:
        return 0.0
    if a.shape[0] < a.shape[1]:
        a = a.T
    e = math.frexp(top)[1]
    s = np.ldexp(a, -e)
    if s.shape[1] > GRAM_CROSSOVER:
        return operator_norm(LinearMap(lambda v: v @ s.T, lambda y: y @ s, *s.shape, e))
    return float(np.ldexp(_gram_norm(s.T @ s), e))


class LinearMap(NamedTuple):
    """The rows x cols map 2**e A, given at unit scale by ``forward(V) = V
    A^T`` and ``adjoint(Y) = Y A`` on stacks of vectors (one per row).
    ``gram``, if given, returns A A^T at unit scale directly, for a map
    with rows <= cols whose Gram matrix is cheaper to form than by applying
    the adjoint to the identity."""

    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    rows: int
    cols: int
    e: int = 0
    gram: Optional[Callable[[], np.ndarray]] = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.ldexp(self.forward(v[None]), self.e)[0]


def operator_norm(op: LinearMap) -> float:
    """``|op|_2 = 2**e |A|_2``; ``NoConvergence`` carries its estimate at the
    scale 2**e. Up to ``GRAM_CROSSOVER`` the Gram matrix is ``op.gram()``
    where the map gives one for its row side, and otherwise comes from one
    stacked application to the identity. Lanczos starts from
    ``_start_vector(k)``, not all-ones: that lies in an invariant subspace
    of the structured first-order maps, which misses their top singular
    direction.
    """
    forward, adjoint, rows, cols, e, gram = op
    k = min(rows, cols)
    inner, outer = (forward, adjoint) if cols <= rows else (adjoint, forward)
    try:
        if k > GRAM_CROSSOVER:
            norm = _lanczos_top(lambda v: outer(inner(v[None]))[0], _start_vector(k), k)
        else:
            if gram is not None and rows <= cols:
                g = gram()
            else:
                f = inner(np.eye(k))
                g = f @ f.T
            norm = _gram_norm(g) if g.any() else 0.0
    except NoConvergence as exc:
        raise NoConvergence(float(np.ldexp(exc.estimate, e)), exc.steps) from None
    return float(np.ldexp(norm, e))
