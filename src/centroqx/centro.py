"""Centrosymmetric matrices: predicates, folding, and generators.

A real m x n matrix A is centrosymmetric when flipping it upside down and
left-right returns it: ``R_m A R_n = A`` with R_k the exchange matrix. The
fold transform block-diagonalizes any such matrix into two dense blocks of
half size, which is what the factorization module builds on. The fold is
orthogonal, so the singular values of A are those of its two halves together:
``halves_norm`` takes ``|A|_2`` from the halves, and ``fold_norm`` from A.
An entrywise nonnegative A needs its first half f alone
(``nonnegative_norm``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotCentrosymmetric, OddColumnDimension
from .linalg import as_matrix, checked_matrix, spectral_norm
from .rng import derive_seed, sign_stream, uniform_open

CENTRO_TOL = 1e-12


def _defect(arr: np.ndarray) -> float:
    """``max|R A R - A|`` from half of A: the top rows against the flipped
    bottom rows, and for odd m the middle row against its reverse. D = RAR - A
    satisfies RDR = -D, so the other half repeats these magnitudes."""
    m = arr.shape[0]
    p = m // 2
    parts = [arr[:p] - arr[m - p:][::-1, ::-1]]
    if m % 2:
        parts.append(arr[p] - arr[p, ::-1])
    return max(float(np.maximum.reduce(np.abs(d, out=d), axis=None, initial=0.0)) for d in parts)


def centro_defect(a) -> float:
    """Max-norm distance from double-flip symmetry (exact arithmetic: flips only)."""
    return _defect(as_matrix(a, "centrosymmetry check"))


def is_centrosymmetric(a) -> bool:
    """Defect at most ``CENTRO_TOL * max|A|``: relative, so scaling A does not change it."""
    arr, top = checked_matrix(a, "centrosymmetry check")
    return _defect(arr) <= CENTRO_TOL * top


class FoldedPair(NamedTuple):
    """Half-size images of a centrosymmetric matrix under the fold bases.

    ``f`` has shape ceil(m/2) x n/2 and ``g`` has shape floor(m/2) x n/2;
    conjugation by the fold bases maps the original matrix to
    blockdiag(f, g). A pair: ``f, g = fold(a)`` unpacks it.
    """

    f: np.ndarray
    g: np.ndarray


def fold(a) -> FoldedPair:
    """Fold a centrosymmetric matrix with an even column count.

    Computed directly from the blocks of A (adds/flips only), which keeps the
    fold exact in floating point. The checks take one pass over A and one
    over half of it: a max/min scan gives max|A| and rejects non-finite
    entries anywhere, and the centrosymmetry defect is read from the top half
    against the flipped bottom half (``_defect``).
    """
    arr, top = checked_matrix(a, "fold input")
    m, n = arr.shape
    if n % 2 != 0:
        raise OddColumnDimension(f"column count must be even, got {n}")
    defect = _defect(arr)
    if defect > CENTRO_TOL * top:
        raise NotCentrosymmetric(f"defect {defect:.3e} exceeds tol*max|A| = {CENTRO_TOL * top:.3e}")
    p, l = m // 2, n // 2
    a11 = arr[:p, :l]
    a12r = arr[:p, l:][:, ::-1]  # A12 @ R_l
    f = np.empty((m - p, l))
    np.add(a11, a12r, out=f[:p])
    if m % 2 == 1:
        np.multiply(np.sqrt(2.0), arr[p, :l], out=f[p])
    return FoldedPair(f=f, g=a11 - a12r)


def unfold(f, g) -> np.ndarray:
    """Inverse of :func:`fold`: the m x n matrix whose fold is ``(f, g)``.

    Adds and flips only, O(mn): the top rows are ``(f + g)/2 | (f - g)/2 R``,
    for odd m the middle row is f's last row over sqrt(2), mirrored, and the
    bottom half is the double flip of the top, so the result is exactly
    centrosymmetric. Raises ``ValueError`` when the halves do not fit.
    """
    fa = as_matrix(f, "folded block f")
    ga = as_matrix(g, "folded block g")
    (hf, l), (p, lg) = fa.shape, ga.shape
    if lg != l or hf - p not in (0, 1):
        raise ValueError(f"folded blocks {fa.shape} and {ga.shape} do not fit together")
    m = hf + p
    out = np.empty((m, 2 * l))
    out[:p, :l] = 0.5 * (fa[:p] + ga)
    out[:p, l:] = (0.5 * (fa[:p] - ga))[:, ::-1]
    if hf > p:
        mid = fa[p] / np.sqrt(2.0)
        out[p, :l] = mid
        out[p, l:] = mid[::-1]
    out[m - p:] = out[:p][::-1, ::-1]
    return out


def halves_norm(halves) -> float:
    """``|A|_2`` of the matrix A whose fold halves are ``halves``: the larger
    of their spectral norms."""
    return max(spectral_norm(h) for h in halves)


def nonnegative_norm(f) -> float:
    """``|M|_2`` of an entrywise nonnegative centrosymmetric M from its fold
    half ``f = M11 + M12 J`` alone. The other half ``G = M11 - M12 J``
    satisfies |G| <= F entrywise (on the rows they share: for odd m, f has
    one row more), and the spectral norm is monotone on nonnegative
    matrices (Horn & Johnson, Matrix Analysis, 8.1), so |G|_2 <= ||G||_2 <=
    |F|_2 and |M|_2 = max(|F|_2, |G|_2) = |F|_2."""
    return spectral_norm(f)


def fold_norm(a) -> float:
    """``|A|_2`` of a centrosymmetric A with an even column count, from its
    fold halves; raises the fold's ``NotCentrosymmetric``/``OddColumnDimension``.
    """
    return halves_norm(fold(a))


def centro_part(a) -> np.ndarray:
    """The centrosymmetric part ``(A + R A R)/2``, exactly centrosymmetric.

    A product of exactly centrosymmetric factors is centrosymmetric only to
    rounding; this projects it back before it is folded.
    """
    arr = as_matrix(a, "centrosymmetric part input")
    return 0.5 * (arr + arr[::-1, ::-1])


def free_entry_count(m: int, n: int) -> int:
    """Number of independent entries of an m x n centrosymmetric matrix.

    Odd-by-odd shapes are rejected (their center entry is self-mirrored and
    the factorization domain requires even n anyway).
    """
    if m % 2 == 1 and n % 2 == 1:
        raise OddColumnDimension("odd-by-odd shapes are not supported (even n required)")
    count = (m // 2) * n
    if m % 2 == 1:
        count += n // 2
    return count


def centro_from_free_entries(m: int, n: int, values) -> np.ndarray:
    """Build a centrosymmetric matrix from its free entries.

    The free entries fill the top ``floor(m/2)`` rows in row-major order; for
    odd m the first half of the middle row follows. The bottom half is the
    double flip of the top half, so the result is exactly centrosymmetric.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    need = free_entry_count(m, n)
    if vals.size != need:
        raise ValueError(f"need {need} free entries for {m}x{n}, got {vals.size}")
    a = np.zeros((m, n))
    p = m // 2
    a[:p, :] = vals[: p * n].reshape(p, n)
    if m % 2 == 1:
        half = vals[p * n:]
        a[p, : n // 2] = half
        a[p, n - n // 2:] = half[::-1]
    a[m - p:, :] = a[:p, :][::-1, ::-1]
    return a


def random_centro(m: int, n: int, seed: int) -> np.ndarray:
    """Centrosymmetric matrix with free entries uniform on (-1, 1)."""
    return centro_from_free_entries(m, n, uniform_open(seed, free_entry_count(m, n)))


def random_sign_centro(m: int, n: int, seed: int) -> np.ndarray:
    """Centrosymmetric +-1 sign pattern."""
    return centro_from_free_entries(m, n, sign_stream(seed, free_entry_count(m, n)))


def toeplitz_centro(first_column) -> np.ndarray:
    """Symmetric Toeplitz matrix ``T[i, j] = b[|i - j|]`` (exactly centrosymmetric)."""
    b = np.asarray(first_column, dtype=float).reshape(-1)
    n = b.size
    if n == 0:
        raise ValueError("first column must be non-empty")
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return b[idx]


def random_centro_perturbation(
    a, eps: float, seed: int, k_mode: str = "identity"
) -> tuple[np.ndarray, np.ndarray, float]:
    """Entrywise-relative centrosymmetric perturbation of A.

    Returns ``(dA, K, eps_eff)`` where ``dA = eps * (E * A)`` for a random
    centrosymmetric mask E with entries in (-1, 1), and the pair ``(K,
    eps_eff)`` witnesses the entrywise model ``|dA| <= eps_eff * K|A|``:

    - ``k_mode="identity"``: K = I_m and eps_eff = eps (|dA| <= eps |A|
      entrywise holds by construction);
    - ``k_mode="ones"``: K = all-ones, eps_eff is the smallest factor making
      the model hold for this dA.
    """
    arr = as_matrix(a, "perturbation base")
    m, n = arr.shape
    mask = centro_from_free_entries(
        m, n, uniform_open(derive_seed(seed, 0xE), free_entry_count(m, n))
    )
    da = eps * (mask * arr)
    if k_mode == "identity":
        k = np.eye(m)
        eps_eff = float(eps)
    elif k_mode == "ones":
        k = np.ones((m, m))
        denom = k @ np.abs(arr)
        # dA is zero wherever A is, so a zero column sum of |A| meets a zero of dA
        ratio = np.where(denom > 0.0, np.abs(da) / np.where(denom > 0.0, denom, 1.0), 0.0)
        eps_eff = float(np.max(ratio)) if ratio.size else 0.0
    else:
        raise ValueError(f"unknown k_mode {k_mode!r}")
    return da, k, eps_eff
