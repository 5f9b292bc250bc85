"""Reference constructions that only the tests use."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from centroqx.centro import CENTRO_TOL, is_centrosymmetric
from centroqx.linalg import as_matrix, frobenius_norm, max_abs
from centroqx.xops import ScalingD, support_mask, upx, varsigma


def exchange_matrix(k: int) -> np.ndarray:
    """The k x k anti-diagonal permutation (ones on the anti-diagonal)."""
    if k < 0:
        raise ValueError("dimension must be non-negative")
    return np.eye(k)[::-1].copy()


def fold_basis(k: int) -> np.ndarray:
    """Orthogonal basis B_k with ``B_k^T R_k B_k`` block-signature diagonal.

    Columns split the space into the flip-symmetric half followed by the
    flip-antisymmetric half; conjugating a centrosymmetric matrix by these
    bases block-diagonalizes it.
    """
    if k <= 0:
        raise ValueError("dimension must be positive")
    p = k // 2
    inv = 1.0 / np.sqrt(2.0)
    b = np.zeros((k, k))
    eye = np.eye(p)
    rev = eye[::-1]
    if k % 2 == 0:
        b[:p, :p] = inv * eye
        b[:p, p:] = inv * eye
        b[p:, :p] = inv * rev
        b[p:, p:] = -inv * rev
    else:
        b[:p, :p] = inv * eye
        b[:p, p + 1:] = inv * eye
        b[p, p] = 1.0
        b[p + 1:, :p] = inv * rev
        b[p + 1:, p + 1:] = -inv * rev
    return b


def selection_dense(n: int) -> np.ndarray:
    """The tau1 x n^2 matrix whose rows pick the S positions out of vec(C)."""
    support = support_mask(n)
    m = np.zeros((support.tau1, n * n))
    m[np.arange(support.tau1), support.indices] = 1.0
    return m


def indicator_dense(n: int) -> np.ndarray:
    """The n^2 x n^2 matrix of ``utx`` on vec(C)."""
    return np.diag(support_mask(n).inside.reshape(-1, order="F").astype(float))


def _square(c, name: str) -> np.ndarray:
    arr = as_matrix(c, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")
    return arr


def lowx(c) -> np.ndarray:
    """Complementary part ``C - upx(C)``, which is ``upx(C^T)^T``: S and its
    transpose cover every position and overlap on the two diagonals, so the
    complementary weights are the transposed ones."""
    arr = _square(c, "lowx input")
    return arr * support_mask(arr.shape[0]).weights.T


def utx(c) -> np.ndarray:
    """Indicator projection onto S (no halving)."""
    arr = _square(c, "utx input")
    return arr * support_mask(arr.shape[0]).inside


def is_x_type(c) -> bool:
    """Centrosymmetric (``is_centrosymmetric``) and supported on S, both up
    to ``CENTRO_TOL*max|C|`` (relative)."""
    arr = _square(c, "x-type check")
    n = arr.shape[0]
    if n % 2 != 0 or not is_centrosymmetric(arr):
        return False
    return max_abs(arr * (~support_mask(n).inside)) <= CENTRO_TOL * max_abs(arr)


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
    arr = _square(a, "lemma input")
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


def vec_perm_indices(m: int, n: int) -> np.ndarray:
    """Index array ``p`` with ``P[p[b], b] = 1`` for the commutation matrix P.

    P maps vec(E) to vec(E^T) for E of shape m x n; entry vec-index
    ``b = i + m*j`` lands at row ``a = j + n*i``.
    """
    b = np.arange(m * n)
    i = b % m
    j = b // m
    return j + n * i


def kron_operators(f):
    """The dense gx, hx and gq of one ``QxFactors`` by the Kronecker
    construction, kept as an oracle for the factored maps.

    Row j of each transposed map is vec(C_j) for the j-th column of
    kron(X^{-1}, Q) plus its vec(C^T) permutation, weighted by upx; the
    C-order (n, n) view of a row is C_j^T, so X^T C_j^T is batched over j.
    """
    qa, xa, xinv = f.q, f.x, f.xinv
    m, n = qa.shape
    support = support_mask(n)
    half_weights = support.weights.reshape(-1, order="F")
    st = np.kron(xinv, qa)
    st += st[:, vec_perm_indices(n, n)]
    st *= half_weights
    st = st.reshape(m * n, n, n)
    gx = (xa.T @ st).reshape(m * n, n * n)[:, support.indices].T
    e = math.frexp(np.max(np.abs(xinv)))[1]
    xu = np.ldexp(xinv, -e)
    ht = np.kron(xu, xu) * half_weights
    xs = np.ldexp(xa, 2 * e)
    hx = (xs.T @ ht.reshape(n * n, n, n)).reshape(n * n, n * n)[:, support.indices].T
    gqt = np.kron(xinv, np.eye(m))
    gqt -= (st @ qa.T).reshape(m * n, m * n)
    return gx, hx, gqt.T


def materialize(op) -> np.ndarray:
    """The dense matrix of a ``linalg.LinearMap``, one column per unit vector."""
    return np.ldexp(op.forward(np.eye(op.cols)), op.e).T


def fold_half(mat: np.ndarray) -> np.ndarray:
    """The fold half ``M11 + M12 J`` of a centrosymmetric matrix with an even
    number of rows and of columns: its top half of rows, each plus its own
    second half reversed."""
    h, w = mat.shape[0] // 2, mat.shape[1] // 2
    return mat[:h, :w] + mat[:h, w:][:, ::-1]
