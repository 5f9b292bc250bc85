"""The double-cone support and its linear operators.

For even n, the double-cone support S is the set of positions (alpha, beta),
1-indexed, with ``alpha <= beta and alpha + beta <= n + 1`` or ``alpha >= beta
and alpha + beta >= n + 1`` — two mirrored triangles meeting along the main
and anti-diagonal. Triangular factors of the folded halves assemble into
matrices supported on S ("X-type" matrices), and the perturbation analysis
reads two maps on n x n matrices tied to S: ``upx`` keeps the entries inside
S and halves those on the two diagonals, and ``xvec`` stacks the entries of S
in column-major order. Both read one :class:`SupportMask` per n, built once
by :func:`support_mask`: the mask, the ``upx`` weights and the ``xvec``
positions, which the first-order operator constructions read too. The
palindromic diagonal scalings of the minimized bounds live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OddDimension, ZeroRow
from .linalg import as_matrix, binary_exponent, vec

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

    For X-type W, ``upx(W + W^T) == W`` exactly (halving is exact in binary
    floating point).
    """
    arr = as_matrix(c, "upx input")
    _require_square(arr)
    return arr * support_mask(arr.shape[0]).weights


def _require_square(arr: np.ndarray) -> None:
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")


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
