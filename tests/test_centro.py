"""Centrosymmetric structure: fold/unfold, generators, perturbations."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroqx
from centroqx.centro import (
    centro_defect,
    centro_from_free_entries,
    fold,
    fold_norm,
    free_entry_count,
    is_centrosymmetric,
    random_centro,
    random_centro_perturbation,
    random_sign_centro,
    toeplitz_centro,
    unfold,
)
from centroqx.errors import NotCentrosymmetric, OddColumnDimension
from centroqx.rng import uniform_open
from oracles import exchange_matrix, fold_basis

SQRT2 = math.sqrt(2.0)


def _is_centro_ref(a: np.ndarray) -> bool:
    """Independent predicate: a[i, j] == a[m-1-i, n-1-j]."""
    return bool(np.array_equal(a, a[::-1, ::-1]))


def test_exchange_matrix():
    assert np.array_equal(exchange_matrix(3), np.eye(3)[::-1])


@pytest.mark.parametrize("shape", [(4, 2), (7, 4), (6, 6), (12, 6)])
def test_random_centro_structure(shape):
    m, n = shape
    a = random_centro(m, n, seed=9)
    assert a.shape == shape
    assert _is_centro_ref(a)
    assert centro_defect(a) == 0.0
    assert is_centrosymmetric(a)
    assert np.all(np.abs(a) < 1.0)
    assert np.array_equal(a, random_centro(m, n, seed=9))


def test_random_sign_centro():
    a = random_sign_centro(6, 4, seed=2)
    assert _is_centro_ref(a)
    assert set(np.unique(a)) <= {-1.0, 1.0}


def test_centro_defect_detects_violation():
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    assert centro_defect(a) == 1.0
    assert not is_centrosymmetric(a)


# ----------------------------------------------------------------- fold


def test_fold_exchange_fixture():
    # A = R_2 -> F = [1], G = [-1] (direct evaluation of the fold transform)
    pair = fold(exchange_matrix(2))
    assert np.array_equal(pair.f, [[1.0]])
    assert np.array_equal(pair.g, [[-1.0]])


def test_fold_odd_row_fixture():
    # A = [[1,2],[3,3],[2,1]] -> F = [[3],[3*sqrt(2)]], G = [[-1]]
    a = np.array([[1.0, 2.0], [3.0, 3.0], [2.0, 1.0]])
    pair = fold(a)
    assert np.allclose(pair.f, [[3.0], [3.0 * SQRT2]], rtol=0, atol=1e-15)
    assert np.array_equal(pair.g, [[-1.0]])


@pytest.mark.parametrize("shape", [(4, 2), (7, 4), (6, 6), (13, 8)])
def test_fold_unfold_round_trip(shape):
    m, n = shape
    a = random_centro(m, n, seed=31)
    pair = fold(a)
    back = unfold(pair.f, pair.g)
    assert np.max(np.abs(back - a)) <= 1e-12 * (1.0 + np.max(np.abs(a)))


@pytest.mark.parametrize("shape", [(4, 2), (5, 2), (8, 4), (9, 4), (6, 6), (13, 8), (1, 2)])
def test_unfold_matches_the_basis_products(shape):
    # unfold(f, g) = B_m blockdiag(f, g) B_n^T for arbitrary halves.
    m, n = shape
    hf, l = (m + 1) // 2, n // 2
    f = uniform_open(7 * m + n, hf * l).reshape(hf, l)
    g = uniform_open(11 * m + n, (m - hf) * l).reshape(m - hf, l)
    block = np.zeros((m, n))
    block[:hf, :l] = f
    block[hf:, l:] = g
    want = fold_basis(m) @ block @ fold_basis(n).T
    got = unfold(f, g)
    assert got.shape == (m, n)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(got, got[::-1, ::-1])  # exactly centrosymmetric


@pytest.mark.parametrize(
    "f_shape, g_shape", [((3, 2), (1, 2)), ((2, 2), (3, 2)), ((2, 2), (2, 3)), ((3, 2), (2, 1))]
)
def test_unfold_rejects_halves_that_do_not_fit(f_shape, g_shape):
    with pytest.raises(ValueError):
        unfold(np.ones(f_shape), np.ones(g_shape))


def test_only_centro_builds_dense_fold_bases():
    # fold_basis and exchange_matrix are test oracles; the package folds and
    # unfolds by adds and flips, and no line of it names either.
    package = Path(centroqx.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "fold_basis(" in line or "exchange_matrix(" in line
    ]
    assert offenders == []


@pytest.mark.parametrize("m", [4, 5, 9, 12])
def test_fold_basis_orthogonal(m):
    b = fold_basis(m)
    assert b.shape == (m, m)
    assert np.max(np.abs(b.T @ b - np.eye(m))) <= 1e-15 * m


def test_fold_block_diagonalizes():
    # B_m^T A B_n must be exactly block-diagonal [[F, 0], [0, G]].
    m, n = 7, 4
    a = random_centro(m, n, seed=5)
    pair = fold(a)
    blocked = fold_basis(m).T @ a @ fold_basis(n)
    hf, hg = pair.f.shape[0], pair.g.shape[0]
    l = n // 2
    assert np.max(np.abs(blocked[:hf, :l] - pair.f)) <= 1e-13
    assert np.max(np.abs(blocked[hf:, l:] - pair.g)) <= 1e-13
    assert np.max(np.abs(blocked[:hf, l:])) <= 1e-13
    assert np.max(np.abs(blocked[hf:, :l])) <= 1e-13


def test_fold_rejects_odd_columns():
    with pytest.raises(OddColumnDimension):
        fold(random_centro(4, 3, seed=1))


def test_fold_rejects_non_centro():
    a = uniform_open(3, 8).reshape(4, 2)
    with pytest.raises(NotCentrosymmetric):
        fold(a)


@pytest.mark.parametrize("m", [3, 5, 9])
def test_fold_rejects_a_defect_only_in_the_middle_row(m):
    """The half-scan reads the middle row of an odd m against its reverse."""
    a = random_centro(m, 6, seed=m)
    a[m // 2, 1] += 1e-6
    assert centro_defect(a) == pytest.approx(1e-6, rel=1e-9)
    assert not is_centrosymmetric(a)
    with pytest.raises(NotCentrosymmetric):
        fold(a)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [(0, 0), (3, 2), (4, 5), (8, 1), (8, 5)])
def test_fold_rejects_non_finite_entries_anywhere(value, pos):
    """The one max/min scan covers all of A, bottom half and middle row
    included, before the defect is read from the top half."""
    a = random_centro(9, 6, seed=4)
    a[pos] = value
    for check in (fold, is_centrosymmetric, centro_defect):
        with pytest.raises(ValueError, match="non-finite"):
            check(a)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 4), (6, 4), (7, 6), (10, 3), (11, 8)])
def test_half_scan_defect_equals_the_full_scan(shape):
    for seed in range(4):
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
        if seed % 2:
            a = 0.5 * (a + a[::-1, ::-1])
            a[seed % shape[0], (3 * seed) % shape[1]] += 1e-9
        full = float(np.max(np.abs(a[::-1, ::-1] - a)))
        assert centro_defect(a) == full


def test_builders_reject_invalid_arguments():
    with pytest.raises(ValueError, match="non-negative"):
        exchange_matrix(-1)
    with pytest.raises(ValueError, match="positive"):
        fold_basis(0)
    with pytest.raises(ValueError, match="non-empty"):
        toeplitz_centro([])
    with pytest.raises(ValueError, match="unknown k_mode"):
        random_centro_perturbation(random_centro(4, 2, seed=1), 1e-8, seed=2, k_mode="diag")


# Not centrosymmetric at all (defect 1.8x its largest entry), but every entry
# is below the tolerance: an absolute test would fold it.
SMALL_NON_CENTRO = 1e-13 * uniform_open(3, 8).reshape(4, 2)


def test_fold_rejects_small_non_centro():
    assert not is_centrosymmetric(SMALL_NON_CENTRO)
    with pytest.raises(NotCentrosymmetric, match=r"exceeds tol\*max\|A\|"):
        fold(SMALL_NON_CENTRO)
    with pytest.raises(NotCentrosymmetric):
        fold_norm(SMALL_NON_CENTRO)


def _nudged_centro(rel_defect: float) -> np.ndarray:
    """Centrosymmetric 6x4 with entry (0, 0) moved by ``rel_defect * max|A|``."""
    a = random_centro(6, 4, seed=17)
    a[0, 0] += rel_defect * np.max(np.abs(a))
    return a


SCALE_CASES = {
    "exact": (random_centro(6, 4, seed=17), True),
    "tiny-entries": (SMALL_NON_CENTRO, False),
    "defect-2e-13": (_nudged_centro(2.0**-42), True),
    "defect-4e-12": (_nudged_centro(2.0**-38), False),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_centrosymmetry_test_is_scale_invariant(k):
    for a, expected in SCALE_CASES.values():
        assert is_centrosymmetric(a) is expected
        assert is_centrosymmetric(2.0**k * a) is expected


# --------------------------------------------------------- free entries


def _free_count_ref(m: int, n: int) -> int:
    """Count symmetry orbits by brute force."""
    seen = set()
    count = 0
    for i in range(m):
        for j in range(n):
            if (i, j) in seen:
                continue
            seen.add((i, j))
            seen.add((m - 1 - i, n - 1 - j))
            count += 1
    return count


@pytest.mark.parametrize("shape", [(2, 2), (5, 4), (6, 6), (7, 4), (3, 4)])
def test_free_entry_count_matches_orbits(shape):
    assert free_entry_count(*shape) == _free_count_ref(*shape)


def test_free_entry_fixtures():
    assert free_entry_count(5, 4) == 10
    assert free_entry_count(6, 6) == 18


def test_free_entries_reject_odd_by_odd():
    with pytest.raises(OddColumnDimension):
        free_entry_count(5, 5)
    with pytest.raises(OddColumnDimension):
        centro_from_free_entries(3, 3, np.ones(5))


def test_centro_from_free_entries_round_trip():
    m, n = 5, 4
    values = np.arange(1.0, 11.0)
    a = centro_from_free_entries(m, n, values)
    assert a.shape == (m, n)
    assert _is_centro_ref(a)
    # the scan must place each value once (plus its mirror)
    flat = set(np.unique(a))
    assert flat == set(values)


def test_centro_from_free_entries_wrong_length():
    with pytest.raises(ValueError):
        centro_from_free_entries(5, 4, np.ones(9))


# ------------------------------------------------------------- toeplitz


def test_toeplitz_fixture():
    assert np.array_equal(toeplitz_centro([2.0, 1.0]), [[2.0, 1.0], [1.0, 2.0]])


def test_toeplitz_structure():
    t = toeplitz_centro(uniform_open(4, 5))
    assert t.shape == (5, 5)
    assert _is_centro_ref(t)
    assert np.array_equal(t, t.T)
    for k in range(-4, 5):
        diag = np.diagonal(t, k)
        assert np.all(diag == diag[0])


# --------------------------------------------------------- perturbations


@pytest.mark.parametrize("k_mode", ["identity", "ones"])
def test_random_centro_perturbation_contract(k_mode):
    a = random_centro(8, 4, seed=3)
    eps = 1e-8
    da, k, eps_eff = random_centro_perturbation(a, eps, seed=7, k_mode=k_mode)
    assert _is_centro_ref(da)
    if k_mode == "identity":
        assert eps_eff == eps
    else:
        # ones mode reports the smallest factor making the model hold
        assert 0.0 < eps_eff <= eps * (1 + 1e-15)
    # entrywise model: |da| <= eps_eff * K|A| (constructed, so exact up to fp)
    cap = eps_eff * (k @ np.abs(a))
    assert np.all(np.abs(da) <= cap * (1 + 1e-12) + 1e-300)
    if k_mode == "identity":
        assert np.array_equal(k, np.eye(8))
    else:
        assert np.array_equal(k, np.ones((8, 8)))
    # determinism
    da2, _, _ = random_centro_perturbation(a, eps, seed=7, k_mode=k_mode)
    assert np.array_equal(da, da2)


def test_ones_model_holds_where_a_column_of_a_is_zero():
    """dA is zero wherever A is, so a zero column sum of |A| carries no
    perturbation and the all-ones model still holds."""
    a = random_centro(8, 6, seed=5)
    a[:, 0] = a[:, -1] = 0.0
    da, k, eps_eff = random_centro_perturbation(a, 1e-8, seed=6, k_mode="ones")
    assert not np.any(da[:, [0, -1]])
    assert np.all(np.abs(da) <= eps_eff * (k @ np.abs(a)))
    assert 0.0 < eps_eff <= 1e-8


def test_perturbation_nonzero_and_scaled():
    a = random_centro(6, 4, seed=1)
    da, _, _ = random_centro_perturbation(a, 1e-6, seed=2)
    norm = np.linalg.norm(da)
    assert 0.0 < norm < 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_centro_property(seed):
    a = random_centro(6, 4, seed)
    assert _is_centro_ref(a)
