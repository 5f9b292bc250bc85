"""Reference constructions that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from centroqx.xops import support_mask


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
