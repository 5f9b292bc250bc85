"""Structure-preserving thin QX factorization.

A full-column-rank centrosymmetric A (m x n, n even, m >= n) factors as
``A = Q X`` where Q is m x n centrosymmetric with orthonormal columns
satisfying ``Q^T R_m Q = R_n`` (column perplecticity), and X is n x n
invertible and X-type (supported on the double-cone). The algorithm folds A
into two half-size blocks, takes their positive-diagonal thin QR
factorizations, and unfolds the two Q halves into Q and the two triangular
halves into X, by adds and flips, so X's off-support entries are exactly
zero. ``QxFactors`` keeps the triangular halves; X^{-1} is built from them.
``x_side_halves`` gives the fold halves that every X-side norm is taken
from, by ``conditioning`` here and by a bound report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .centro import centro_defect, centro_part, fold, halves_norm, nonnegative_norm, unfold
from .errors import SingularTriangular
from .linalg import as_matrix, frobenius_norm, householder_qr, triangular_solve
from .xops import support_mask


@dataclass
class QxFactors:
    """Q, X and X's triangular fold halves, ``x == unfold(rf, rg)``. X^{-1}
    and its halves are built from ``rf`` and ``rg`` on first use and kept."""

    q: np.ndarray
    x: np.ndarray
    rf: np.ndarray
    rg: np.ndarray

    @cached_property
    def xinv_halves(self) -> tuple[np.ndarray, np.ndarray]:
        return _invert_halves(self.rf, self.rg)

    @cached_property
    def xinv(self) -> np.ndarray:
        return unfold(*self.xinv_halves)


def qx_decompose(a) -> QxFactors | list[QxFactors]:
    """Thin QX factorization of a full-column-rank centrosymmetric matrix,
    or of each matrix of a (B, m, n) stack.

    Returns one ``QxFactors`` for an m x n matrix and a list of B of them
    for a stack. Each matrix is folded, and all 2B fold halves are factored
    by one lockstep ``householder_qr`` call; for odd m each g half takes one
    zero bottom row, so that it has f's shape, and Q_g drops that row
    again. Every factor is bit for bit what the matrix gives on its own.

    Raises ``NotCentrosymmetric``, ``OddColumnDimension``, or
    ``RankDeficient`` (propagated from the half QR factorizations; its
    ``slice i`` counts the f halves of matrices 0..B-1 and then their g
    halves, B..2B-1) when the preconditions fail, and ``ValueError`` for an
    input that is not 2-d or 3-d, has a non-finite entry (both found by the
    fold's one scan of each matrix) or has fewer rows than columns.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 3:
        return _decompose_stack(arr[None])[0]
    return _decompose_stack(arr)


def _decompose_stack(stack: np.ndarray) -> list[QxFactors]:
    halves = [fold(a) for a in stack]
    if not halves:
        return []
    m, n = stack.shape[1:]
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m}x{n}")
    nb, h = len(halves), m // 2
    fg = np.zeros((2 * nb, m - h, n // 2))  # odd m: each g's last row stays zero
    for i, (f, g) in enumerate(halves):
        fg[i], fg[nb + i, :h] = f, g
    q, r = householder_qr(fg)
    return [
        QxFactors(q=unfold(q_f, q_g[:h]), x=unfold(r_f, r_g), rf=r_f, rg=r_g)
        for q_f, q_g, r_f, r_g in zip(q[:nb], q[nb:], r[:nb], r[nb:])
    ]


def _invert_halves(rf: np.ndarray, rg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        yf, yg = triangular_solve(np.stack([rf, rg]))
    except SingularTriangular as exc:
        raise SingularTriangular(f"X factor is numerically singular: {exc}") from exc
    return yf, yg


def x_inverse(x) -> np.ndarray:
    """Invert an X-type matrix through the triangular halves of its fold.

    The result is again X-type with exact zeros off the support. Raises the
    fold's ``NotCentrosymmetric``/``OddColumnDimension`` for an X it cannot
    fold, and ``SingularTriangular`` when a half is numerically singular.
    """
    return unfold(*_invert_halves(*fold(x)))


@dataclass
class VerificationReport:
    """Residuals of the factorization identities for a candidate (Q, X)."""

    reconstruction: float  # |A - Q X|_F / (1 + |A|_F)
    orthogonality: float  # |Q^T Q - I|_F
    perplecticity: float  # |Q^T R_m Q - R_n|_F
    q_centro_defect: float  # max|flip(Q) - Q|
    off_support: float  # Frobenius mass of X outside the double-cone

    def max_residual(self) -> float:
        return max(
            self.reconstruction,
            self.orthogonality,
            self.perplecticity,
            self.q_centro_defect,
            self.off_support,
        )


def verify_qx(a, factors: QxFactors) -> VerificationReport:
    """Measure how well (Q, X) satisfies the factorization contract."""
    arr = as_matrix(a, "factorization input")
    q = as_matrix(factors.q, "Q factor")
    x = as_matrix(factors.x, "X factor")
    n = arr.shape[1]
    recon = frobenius_norm(arr - q @ x) / (1.0 + frobenius_norm(arr))
    orth = frobenius_norm(q.T @ q - np.eye(n))
    perp = frobenius_norm(q.T @ q[::-1] - np.eye(n)[::-1])
    off = frobenius_norm(x * (~support_mask(n).inside))
    return VerificationReport(
        reconstruction=recon,
        orthogonality=orth,
        perplecticity=perp,
        q_centro_defect=centro_defect(q),
        off_support=off,
    )


def x_side_halves(factors: QxFactors, abs_x: np.ndarray) -> tuple:
    """The fold halves that |X|_2, |X^{-1}|_2 and ||X||X^{-1}||_2 are normed
    from: (R_f, R_g), their inverses, and the first fold half f of the
    centrosymmetric part of |X||X^{-1}| (``abs_x`` is |X|), which is
    nonnegative, so f alone carries its norm (``nonnegative_norm``)."""
    cond_f = fold(centro_part(abs_x @ np.abs(factors.xinv))).f
    return (factors.rf, factors.rg), factors.xinv_halves, cond_f


def conditioning(factors: QxFactors) -> dict[str, float]:
    """Spectral condition number of X and its entrywise-absolute variant.

    Returns ``kappa2 = |X|_2 |X^{-1}|_2`` and ``cond_x = | |X| |X^{-1}| |_2``
    (the latter drives the entrywise perturbation gates), normed from the
    same fold halves as ``bounds.FactorNorms`` (``x_side_halves``), so they
    are a bound report's ``kappa2`` and ``cond_x`` bit for bit; none of the
    report's scaled norms is computed.
    """
    x_halves, xinv_halves, cond_f = x_side_halves(factors, np.abs(factors.x))
    return {
        "kappa2": halves_norm(x_halves) * halves_norm(xinv_halves),
        "cond_x": nonnegative_norm(cond_f),
    }
