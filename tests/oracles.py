"""Reference constructions that only the tests use."""

from __future__ import annotations

import numpy as np


def vec_perm_indices(m: int, n: int) -> np.ndarray:
    """Index array ``p`` with ``P[p[b], b] = 1`` for the commutation matrix P.

    P maps vec(E) to vec(E^T) for E of shape m x n; entry vec-index
    ``b = i + m*j`` lands at row ``a = j + n*i``.
    """
    b = np.arange(m * n)
    i = b % m
    j = b // m
    return j + n * i
