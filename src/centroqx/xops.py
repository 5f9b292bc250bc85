"""The double-cone support and its linear operators.

For even n, the double-cone support S is the set of positions (alpha, beta),
1-indexed, with ``alpha <= beta and alpha + beta <= n + 1`` or ``alpha >= beta
and alpha + beta >= n + 1`` — two mirrored triangles meeting along the main
and anti-diagonal. Triangular factors of the folded halves assemble into
matrices supported on S ("X-type" matrices), and the perturbation analysis
needs three linear maps on n x n matrices tied to S:

- ``utx``   keep entries inside S, zero the rest;
- ``upx``   like ``utx`` but halve the entries on the two diagonals;
- ``lowx``  the complement, ``C - upx(C)``.

``xvec`` stacks the entries of S in column-major order. All of them read one
:class:`SupportMask` per n, built once by :func:`support_mask`: the mask, the
``upx`` weights and the ``xvec`` positions, which the first-order operator
constructions read too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .centro import CENTRO_TOL, is_centrosymmetric
from .errors import OddDimension, ZeroRow
from .linalg import as_matrix, binary_exponent, frobenius_norm, max_abs, vec

SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class SupportMask:
    """The double-cone support S of one even dimension n (built once per n)."""

    n: int
    inside: np.ndarray  # n x n bool: position lies in S
    weights: np.ndarray  # n x n entries of upx: 1 on S, 1/2 on its two diagonals, 0 off S
    indices: np.ndarray  # positions of S in vec(C), ascending: the xvec scan

    @property
    def tau1(self) -> int:
        """|S| = n(n+2)/2."""
        return len(self.indices)

    def selection_dense(self) -> np.ndarray:
        """The tau1 x n^2 matrix whose rows pick the S positions out of vec(C)."""
        m = np.zeros((self.tau1, self.n * self.n))
        m[np.arange(self.tau1), self.indices] = 1.0
        return m

    def indicator_dense(self) -> np.ndarray:
        """The n^2 x n^2 matrix of ``utx`` on vec(C)."""
        return np.diag(self.inside.reshape(-1, order="F").astype(float))


def _require_even(n: int) -> None:
    if n <= 0 or n % 2 != 0:
        raise OddDimension(f"double-cone support needs positive even n, got {n}")


@lru_cache(maxsize=64)
def support_mask(n: int) -> SupportMask:
    _require_even(n)
    alpha = np.arange(1, n + 1)[:, None]
    beta = np.arange(1, n + 1)[None, :]
    inside = ((alpha <= beta) & (alpha + beta <= n + 1)) | (
        (alpha >= beta) & (alpha + beta >= n + 1)
    )
    weights = np.where(inside, np.where((alpha == beta) | (alpha + beta == n + 1), 0.5, 1.0), 0.0)
    indices = np.flatnonzero(inside.reshape(-1, order="F"))
    for arr in (inside, weights, indices):
        arr.setflags(write=False)
    return SupportMask(n=n, inside=inside, weights=weights, indices=indices)


def upx(c) -> np.ndarray:
    """Project onto S with the two diagonals halved.

    Splits any matrix so that ``upx(C) + lowx(C) == C`` and, for X-type W,
    ``upx(W + W^T) == W`` exactly (halving is exact in binary floating point).
    """
    arr = as_matrix(c, "upx input")
    _require_square(arr)
    return arr * support_mask(arr.shape[0]).weights


def lowx(c) -> np.ndarray:
    """Complementary part ``C - upx(C)``, which is ``upx(C^T)^T``: S and its
    transpose cover every position and overlap on the two diagonals, so the
    complementary weights are the transposed ones."""
    arr = as_matrix(c, "lowx input")
    _require_square(arr)
    return arr * support_mask(arr.shape[0]).weights.T


def utx(c) -> np.ndarray:
    """Indicator projection onto S (no halving)."""
    arr = as_matrix(c, "utx input")
    _require_square(arr)
    return arr * support_mask(arr.shape[0]).inside


def _require_square(arr: np.ndarray) -> None:
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")


def is_x_type(c) -> bool:
    """Centrosymmetric (``is_centrosymmetric``) and supported on S, both up
    to ``CENTRO_TOL*max|C|`` (relative)."""
    arr = as_matrix(c, "x-type check")
    _require_square(arr)
    n = arr.shape[0]
    if n % 2 != 0 or not is_centrosymmetric(arr):
        return False
    return max_abs(arr * (~support_mask(n).inside)) <= CENTRO_TOL * max_abs(arr)


def xvec(c) -> np.ndarray:
    """Entries of C on S, stacked column-major."""
    arr = as_matrix(c, "xvec input")
    _require_square(arr)
    return vec(arr)[support_mask(arr.shape[0]).indices]


@dataclass(frozen=True)
class ScalingD:
    """Positive palindromic diagonal scaling (delta holds the first half)."""

    n: int
    delta: np.ndarray  # length n/2, strictly positive

    def diagonal(self) -> np.ndarray:
        return np.concatenate([self.delta, self.delta[::-1]])


def make_scaling(delta) -> ScalingD:
    d = np.asarray(delta, dtype=float).reshape(-1)
    if d.size == 0 or np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("scaling half-diagonal must be positive and finite")
    return ScalingD(n=2 * d.size, delta=d)


def scaling_candidates(x) -> list[ScalingD]:
    """Candidate scalings for the minimized bounds: identity and row norms.

    The row-norm candidate takes ``delta_i = |row_i(X)|_2`` for the first half
    (palindromy of X makes the mirrored half equal). The norms are summed at
    unit scale (an exact power-of-two division, as in ``frobenius_norm``), so
    they scale with X; ``ZeroRow`` is raised if a row norm at unit scale is
    below ``SCALE_FLOOR``.
    """
    arr = as_matrix(x, "scaling base")
    _require_square(arr)
    n = arr.shape[0]
    _require_even(n)
    l = n // 2
    e = binary_exponent(arr[:l])
    unit_norms = np.sqrt(np.sum(np.ldexp(arr[:l], -e) ** 2, axis=1))
    if np.any(unit_norms < SCALE_FLOOR):
        worst = int(np.argmin(unit_norms))
        raise ZeroRow(
            f"row {worst} of the scaling base has norm {np.ldexp(unit_norms[worst], e):.3e}"
        )
    return [make_scaling(np.ones(l)), make_scaling(np.ldexp(unit_norms, e))]


def varsigma(d: ScalingD) -> float:
    """Largest ratio ``delta_beta / delta_alpha`` over pairs alpha < beta."""
    diag = d.diagonal()
    return float(np.max(diag[1:] / np.minimum.accumulate(diag[:-1])))


@dataclass
class CheckReport:
    """Residuals/slacks from the diagonal-scaling interchange identities."""

    residuals: dict[str, float]
    slacks: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def min_slack(self) -> float:
        return min(self.slacks.values())


def lemma1_check(a, d: ScalingD) -> CheckReport:
    """Exercise the interchange identities and norm bounds for one scaling.

    Residuals (should vanish to roundoff): palindromic diagonals commute with
    the support projections — ``upx(A D) == upx(A) D``, ``upx(D A) == D
    upx(A)``, and the same for ``lowx``.

    Slacks (should be non-negative):
    - ``sqrt(1 + varsigma^2) |A|_F - |upx(A) + D^{-1} upx(A^T) D|_F``
    - ``sqrt2 * varsigma * |A|_F - |D lowx(A) D^{-1} - D^{-1} lowx(A)^T D|_F``
    """
    arr = as_matrix(a, "lemma input")
    _require_square(arr)
    if arr.shape[0] != d.n:
        raise ValueError("scaling dimension does not match the matrix")
    diag = d.diagonal()
    inv = 1.0 / diag
    a_fro = frobenius_norm(arr)
    sig = varsigma(d)

    residuals = {
        "upx_right": frobenius_norm(upx(arr * diag[None, :]) - upx(arr) * diag[None, :]),
        "upx_left": frobenius_norm(upx(diag[:, None] * arr) - diag[:, None] * upx(arr)),
        "lowx_right": frobenius_norm(lowx(arr * diag[None, :]) - lowx(arr) * diag[None, :]),
        "lowx_left": frobenius_norm(lowx(diag[:, None] * arr) - diag[:, None] * lowx(arr)),
    }
    sym = upx(arr) + inv[:, None] * upx(arr.T) * diag[None, :]
    low = lowx(arr)
    sandwich = diag[:, None] * low * inv[None, :] - inv[:, None] * low.T * diag[None, :]
    slacks = {
        "symmetrized": float(np.sqrt(1.0 + sig**2) * a_fro - frobenius_norm(sym)),
        "skew_sandwich": float(np.sqrt(2.0) * sig * a_fro - frobenius_norm(sandwich)),
    }
    return CheckReport(residuals=residuals, slacks=slacks)
