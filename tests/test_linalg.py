"""Dense kernels against numpy.linalg references and hand-derived fixtures."""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroqx
import centroqx.centro as centro_mod
import centroqx.linalg as linalg_mod
from centroqx.bounds import build_first_order_operators
from centroqx.centro import fold, fold_norm, nonnegative_norm, random_centro
from centroqx.errors import NoConvergence, RankDeficient, SingularTriangular
from centroqx.harness import TrialConfig, run_trial
from centroqx.linalg import (
    LinearMap,
    _block_inverses,
    _gram_norm,
    _lanczos_top,
    _start_vector,
    as_matrix,
    entrywise_div,
    frobenius_norm,
    householder_qr,
    max_abs,
    operator_norm,
    spectral_norm,
    triangular_solve,
    vec,
)
from centroqx.qx import qx_decompose, x_inverse
from centroqx.rng import uniform_open
from oracles import kron_operators, vec_perm_indices


def _rand(m, n, seed):
    return uniform_open(seed, m * n).reshape(m, n)


# ---------------------------------------------------------------------- vec


def test_vec_is_column_major():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(vec(a).reshape((2, 2), order="F"), a)


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """Dense oracle P with ``P vec(E) = vec(E^T)`` for m x n E, entry by entry."""
    p = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            p[j + n * i, i + m * j] = 1.0
    return p


def test_vec_perm_sends_vec_to_vec_transpose():
    a = _rand(2, 3, 3)
    perm = vec_perm_indices(2, 3)
    # scatter contract: entry at vec-position b lands at row perm[b]
    assert np.array_equal(vec(a.T)[perm], vec(a))
    p = commutation_matrix(2, 3)
    assert np.array_equal(p @ vec(a), vec(a.T))
    for m, n in [(2, 3), (3, 2), (4, 4), (1, 5)]:
        dense = np.zeros((m * n, m * n))
        dense[vec_perm_indices(m, n), np.arange(m * n)] = 1.0
        assert np.array_equal(dense, commutation_matrix(m, n))
    # frozen index fixture for (2, 3): b = i + 2j -> a = j + 3i
    assert list(perm) == [0, 3, 1, 4, 2, 5]


# ----------------------------------------------------------------- norms


def test_elementary_norms_match_numpy():
    a = _rand(5, 3, 4)
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-15)
    assert max_abs(a) == np.max(np.abs(a))
    v = uniform_open(5, 7)
    assert max_abs(v) == np.max(np.abs(v))


def test_entrywise_div_zero_convention():
    x = np.array([2.0, 3.0, 4.0])
    y = np.array([4.0, 0.0, 2.0])
    assert np.array_equal(entrywise_div(x, y), [0.5, 3.0, 2.0])
    with pytest.raises(ValueError):
        entrywise_div(np.ones(2), np.ones(3))


@pytest.mark.parametrize("k", [-1000, -540, -1, 0, 530, 1000])
def test_frobenius_norm_and_qr_are_scale_safe(k):
    # Power-of-two scaling is exact, so it must commute with both bit for bit.
    # 6x4 is one QR panel; 80x70 spans five, so the panel products are covered.
    for a in (_rand(6, 4, 21), _rand(80, 70, 21)):
        s = 2.0**k
        assert frobenius_norm(s * a) == s * frobenius_norm(a)
        q, r = householder_qr(s * a)
        q0, r0 = householder_qr(a)
        assert np.array_equal(q, q0)
        assert np.array_equal(r, s * r0)


# ------------------------------------------------------------------- QR


@pytest.mark.parametrize("shape", [(3, 3), (5, 3), (8, 8), (12, 5), (1, 1)])
def test_householder_qr_properties(shape):
    p, l = shape
    a = _rand(p, l, 10 * p + l)
    q, r = householder_qr(a)
    assert np.max(np.abs(q @ r - a)) <= 1e-14 * max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(q.T @ q - np.eye(l))) <= 1e-14 * l
    assert np.array_equal(np.tril(r, -1), np.zeros((l, l)))  # exact zeros
    assert np.all(np.diag(r) > 0)
    # dual route: R agrees with numpy's R up to the sign convention
    r_ref = np.linalg.qr(a, mode="r")
    r_ref = np.sign(np.diag(r_ref))[:, None] * r_ref
    assert np.max(np.abs(r - r_ref)) <= 1e-12 * max(1.0, np.max(np.abs(r_ref)))


def test_householder_qr_rank_deficient():
    a = np.outer(np.arange(1.0, 5.0), np.ones(3))
    with pytest.raises(RankDeficient):
        householder_qr(a)


def _householder_qr_by_columns(a):
    """Oracle: unblocked Householder QR, one rank-one update per reflector."""
    p, l = a.shape
    r = a.copy()
    reflectors = []
    for j in range(l):
        v = r[j:, j].copy()
        alpha = float(np.sqrt(np.sum(v * v)))
        v[0] += alpha if v[0] >= 0.0 else -alpha
        v /= np.sqrt(np.sum(v * v))
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        reflectors.append(v)
    q = np.zeros((p, l))
    q[:l, :l] = np.eye(l)
    for j in range(l - 1, -1, -1):
        v = reflectors[j]
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])
    flip = np.where(np.diag(r[:l]) < 0.0, -1.0, 1.0)
    return q * flip[None, :], np.triu(r[:l]) * flip[:, None]


@pytest.mark.parametrize("l", [1, 15, 16, 17, 31, 32, 33, 100])
@pytest.mark.parametrize("rows", ["square", "one-more", "triple"])
def test_blocked_qr_agrees_with_the_per_column_loop(l, rows):
    # Shapes straddle the panel edges (QR_BLOCK = 16); the agreement is
    # relative and scaled by kappa_2(A), as the benchmark's factor check.
    p = {"square": l, "one-more": l + 1, "triple": 3 * l}[rows]
    a = _rand(p, l, 1000 * p + l)
    q, r = householder_qr(a)
    q_ref, r_ref = _householder_qr_by_columns(a)
    tol = 1e-14 * np.linalg.cond(a)
    assert np.linalg.norm(q - q_ref) <= tol * np.linalg.norm(q_ref)
    assert np.linalg.norm(r - r_ref) <= tol * np.linalg.norm(r_ref)
    assert np.array_equal(np.tril(r, -1), np.zeros((l, l)))
    assert np.all(np.diag(r) > 0)


@pytest.mark.parametrize("dependent", [20, 35])
def test_rank_deficiency_found_in_a_later_panel(dependent):
    # The pivot test runs inside every panel and names the global column.
    a = _rand(60, 40, 23)
    a[:, dependent] = a[:, 3] - 2.0 * a[:, dependent - 1]
    with pytest.raises(RankDeficient, match=rf"^pivot column {dependent}: "):
        householder_qr(a)


def _householder_qr_plain(mat):
    """Oracle: the blocked kernel in its plain form, one numpy expression per
    step (``np.sum(v * v)``, ``np.sqrt``, a fresh transpose per product, the
    sign flips and the zero lower triangle on copies). ``householder_qr``
    performs the same floating-point operations in the same order, so it
    must agree bit for bit."""
    a = as_matrix(mat, "qr input")
    p, l = a.shape
    e = linalg_mod.binary_exponent(a)
    r = np.asfortranarray(np.ldexp(a, -e))
    scale = frobenius_norm(r)
    panels = []
    for j0 in range(0, l, linalg_mod.QR_BLOCK):
        j1 = min(j0 + linalg_mod.QR_BLOCK, l)
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
            if alpha <= linalg_mod.RANK_TOL * scale:
                raise RankDeficient(
                    f"pivot column {j}: norm {alpha:.3e} <= {linalg_mod.RANK_TOL:.1e} * {scale:.3e}"
                )
            if v[0] >= 0.0:
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


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


QR_SHAPES = [
    (1, 1), (3, 1), (15, 15), (45, 15), (16, 16), (48, 16), (17, 17), (51, 17),
    (33, 33), (99, 33), (500, 50), (251, 100), (158, 158),
]


@pytest.mark.parametrize("shape", QR_SHAPES)
def test_qr_is_bit_identical_to_its_plain_form(shape):
    """Q and R equal the plain form's bit for bit (signed zeros included), and
    R is C-contiguous as before, so every product downstream rounds the same.
    Shapes straddle the panel edges (QR_BLOCK = 16)."""
    a = np.random.default_rng(sum(shape)).uniform(-1.0, 1.0, shape)
    q, r = householder_qr(a)
    q_ref, r_ref = _householder_qr_plain(a)
    assert _bits(q) == _bits(q_ref) and _bits(r) == _bits(r_ref)
    assert r.flags.c_contiguous and q.flags.c_contiguous


@pytest.mark.parametrize("dependent", [0, 5, 20, 35])
def test_qr_rank_deficiency_message_matches_its_plain_form(dependent):
    a = _rand(60, 40, 23)
    if dependent:
        a[:, dependent] = a[:, 3] - 2.0 * a[:, dependent - 1]
    else:
        a[:, 0] = 0.0
    for mat in (a, np.zeros((5, 3))):
        with pytest.raises(RankDeficient) as got:
            householder_qr(mat)
        with pytest.raises(RankDeficient) as want:
            _householder_qr_plain(mat)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("shape", QR_SHAPES)
def test_stacked_qr_is_bit_identical_per_slice(shape, depth):
    """Slice i of a stacked call is the plain form of slice i alone, bit for
    bit and C-contiguous, with each slice at its own 2**k scale (2**-40 to
    2**50), so each keeps its own exact scaling and rank floor."""
    rng = np.random.default_rng(sum(shape) + depth)
    stack = np.stack([2.0 ** (30 * i - 40) * rng.uniform(-1.0, 1.0, shape) for i in range(depth)])
    q, r = householder_qr(stack)
    assert q.shape == (depth, *shape) and r.shape == (depth, shape[1], shape[1])
    for i in range(depth):
        q_ref, r_ref = _householder_qr_plain(stack[i])
        assert _bits(q[i]) == _bits(q_ref) and _bits(r[i]) == _bits(r_ref)
        assert q[i].flags.c_contiguous and r[i].flags.c_contiguous


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("dependent", [0, 5, 20, 35])
def test_stacked_qr_rank_deficiency_names_its_slice(dependent, depth):
    """A rank-deficient slice i raises the plain form's message for that
    slice, prefixed ``slice i: ``; the healthy slices, scaled by 2**-60,
    stay above their own rank floors."""
    bad = _rand(60, 40, 23)
    if dependent:
        bad[:, dependent] = bad[:, 3] - 2.0 * bad[:, dependent - 1]
    else:
        bad[:, 0] = 0.0
    with pytest.raises(RankDeficient) as want:
        _householder_qr_plain(bad)
    for i in range(depth):
        stack = np.stack([2.0**-60 * _rand(60, 40, 24 + j) for j in range(depth)])
        stack[i] = bad
        with pytest.raises(RankDeficient) as got:
            householder_qr(stack)
        assert str(got.value) == f"slice {i}: {want.value}"


def test_stacked_qr_rejects_malformed_stacks():
    with pytest.raises(ValueError, match="at least as many rows"):
        householder_qr(np.ones((2, 2, 3)))
    stack = np.ones((3, 4, 2))
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        householder_qr(stack)


# ------------------------------------------------------------ triangular


def test_triangular_solve_fixture():
    # R = [[2,1],[0,4]] -> R^{-1} = [[0.5, -0.125], [0, 0.25]] (hand back-substitution)
    r = np.array([[2.0, 1.0], [0.0, 4.0]])
    got = triangular_solve(r)
    assert np.array_equal(got, np.array([[0.5, -0.125], [0.0, 0.25]]))


def test_triangular_solve_matches_numpy():
    r = np.triu(_rand(6, 6, 5)) + 3.0 * np.eye(6)
    got = triangular_solve(r)
    want = np.linalg.inv(r)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_triangular_solve_singular():
    r = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularTriangular):
        triangular_solve(r)


SOLVE_ORDERS = [1, 2, 15, 16, 17, 31, 33, 100, 158, 160]


def _triangular(l: int, seed: int) -> np.ndarray:
    """R of a random (2l, l) matrix, with its columns graded over two decades."""
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * l, l))
    return householder_qr(a * np.logspace(0.0, -2.0, l))[1]


@pytest.mark.parametrize("l", SOLVE_ORDERS)
def test_blocked_solve_residual_zeros_and_scaling(l):
    """Across the block edges (TRI_BLOCK = 16): |R Y - I|_F <= 10 u
    kappa_F(R); the strict lower triangle of Y is exact (positive) zeros;
    and scaling R by 2**k scales Y by 2**-k bit for bit."""
    r = _triangular(l, seed=l)
    y = triangular_solve(r)
    kappa_f = np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r))
    assert np.linalg.norm(r @ y - np.eye(l)) <= 10.0 * 2.0**-53 * kappa_f
    lower = np.tril(y, -1)
    assert np.all(lower == 0.0) and not np.any(np.signbit(lower))
    for k in (-60, -1, 3, 70):
        assert _bits(triangular_solve(2.0**k * r)) == _bits(2.0**-k * y)


def test_blocked_inverse_matches_numpy_in_any_layout():
    r = _triangular(40, seed=4)
    got = triangular_solve(r)
    want = np.linalg.inv(r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # R is read the same from any memory layout
    strided = np.zeros((50, 45))
    strided[:40, :40] = r
    for layout in (np.asfortranarray(r), strided[:40, :40]):
        assert _bits(triangular_solve(layout)) == _bits(got)


def test_blocked_solve_reads_only_the_upper_triangle():
    r = _triangular(37, seed=37)
    noisy = r + np.tril(_rand(37, 37, 9), -1)
    assert _bits(triangular_solve(noisy)) == _bits(triangular_solve(r))


@pytest.mark.parametrize("junk", [1e20, np.nan])
def test_pivot_floor_and_finite_scan_read_only_the_upper_triangle(junk):
    """A strict lower triangle of 1e20 moves neither the pivot floor nor
    the result, and one of NaN raises no non-finite error: the inverse is
    bitwise that of the clean R, for one matrix and for a stack."""
    rs = np.stack([_triangular(20, seed=20), 2.0**-30 * _triangular(20, seed=21)])
    dirty = rs + np.tril(np.full((20, 20), junk), -1)
    assert _bits(triangular_solve(dirty)) == _bits(triangular_solve(rs))
    assert _bits(triangular_solve(dirty[0])) == _bits(triangular_solve(rs[0]))


@pytest.mark.parametrize("pivot", [17, 40, 49])
def test_blocked_solve_rejects_a_zero_pivot_in_a_later_block(pivot):
    r = _triangular(50, seed=50)
    r[pivot, pivot] = 0.0
    with pytest.raises(SingularTriangular, match=rf"^diagonal entry {pivot} "):
        triangular_solve(r)


@pytest.mark.parametrize("l", SOLVE_ORDERS)
def test_stacked_solve_is_bit_identical_per_slice(l):
    """A stack of two R (at scales 1 and 2**-30): slice i of the stacked
    inverse is the inverse of slice i alone, bit for bit."""
    rs = np.stack([_triangular(l, seed=l), 2.0**-30 * _triangular(l, seed=l + 1)])
    stacked = triangular_solve(rs)
    for i in range(2):
        assert _bits(stacked[i]) == _bits(triangular_solve(rs[i]))


def test_stacked_solve_names_its_singular_slice():
    rs = np.stack([_triangular(50, seed=50), _triangular(50, seed=51)])
    rs[1, 17, 17] = 0.0
    with pytest.raises(SingularTriangular, match=r"^slice 1: diagonal entry 17 "):
        triangular_solve(rs)


@pytest.mark.parametrize("w", [1, 2, 4, 8, 16])
def test_block_inverses_match_numpy_and_skip_the_lower_triangle(w):
    """A stack of three w x w upper-triangular blocks inverts to numpy's
    inverses; a NaN strict lower triangle changes no bit of the result."""
    rng = np.random.default_rng(w)
    blocks = np.triu(rng.uniform(-1.0, 1.0, (3, w, w))) + 2.0 * np.eye(w)
    got = _block_inverses(blocks)
    assert got.shape == blocks.shape
    for block, inv in zip(blocks, got):
        want = np.linalg.inv(block)
        assert np.max(np.abs(inv - want)) <= 1e-14 * np.max(np.abs(want))
    dirty = blocks + np.tril(np.full((w, w), np.nan), -1)
    assert _bits(_block_inverses(dirty)) == _bits(got)


# ---------------------------------------------------------- spectral norm


@pytest.mark.parametrize("seed", range(6))
def test_spectral_norm_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 25, size=2)
    a = rng.standard_normal((m, n))
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10, abs=1e-14)


def test_spectral_norm_tied_top_singular_values():
    # Clustered leading singular values must not stall the iteration.
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    sv = np.array([2.0, 2.0, 2.0 * (1 - 1e-12), 1.5] + [1.0] * 8)
    a = (u * sv) @ v.T
    assert spectral_norm(a) == pytest.approx(2.0, rel=1e-10)


def test_spectral_norm_edge_cases():
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert spectral_norm(np.array([[-4.0]])) == 4.0
    r1 = np.outer(np.arange(1.0, 4.0), np.arange(1.0, 3.0))
    assert spectral_norm(r1) == pytest.approx(np.linalg.norm(r1, 2), rel=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [8, 200])
def test_spectral_norm_rejects_non_finite_entries(value, side):
    """One non-finite entry raises ``ValueError`` on both kernel paths (a
    Gram side of 8 and of 200), wherever it sits; zero and empty inputs
    return 0.0."""
    for pos in ((0, 0), (side + 2, side - 1), (3, 5)):
        a = np.random.default_rng(side).standard_normal((side + 3, side))
        a[pos] = value
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(a)
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(a.T)
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_kernels_reject_malformed_operands():
    with pytest.raises(ValueError, match="2-dimensional"):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="at least as many rows"):
        householder_qr(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        triangular_solve(np.ones((3, 2)))
    with pytest.raises(ValueError, match="2-dimensional"):
        spectral_norm(np.ones(3))


NORM_RTOL = 1e-13  # both kernels against numpy's SVD


def _assert_matches_svd(got: float, a: np.ndarray, label: str = "") -> None:
    """``got`` within NORM_RTOL of numpy's 2-norm, above it by no more."""
    want = np.linalg.norm(a, 2) if a.size else 0.0
    assert abs(got - want) <= NORM_RTOL * want, (label, got, want)


def _with_singular_values(sv, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    k = len(sv)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (u * np.asarray(sv)) @ v.T


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 50, 63, 64, 96, 127, 128])
def test_direct_norm_matches_svd_on_random_inputs(k):
    rng = np.random.default_rng(1000 + k)
    for label, shape in (("tall", (2 * k + 3, k)), ("wide", (k, 3 * k + 1)), ("square", (k, k))):
        a = rng.standard_normal(shape)
        _assert_matches_svd(spectral_norm(a), a, label)


def test_direct_norm_exact_and_rank_collapsed_inputs():
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    for value in (0.3, 1e-200, 3e250):
        assert spectral_norm(np.array([[value]])) == abs(value)
    for k in (1, 2, 5, 32, 33, 64):
        _assert_matches_svd(spectral_norm(np.eye(k)), np.eye(k), f"identity {k}")
    # Rank one: the squared Gram power has one numerical direction, so
    # Lanczos from its dominant column meets an invariant subspace at once.
    for m, k in ((3, 3), (5, 2), (8, 8), (20, 3), (3, 64)):
        ones = np.ones((m, k))
        outer = np.outer(np.arange(1.0, m + 1), np.arange(1.0, k + 1))
        _assert_matches_svd(spectral_norm(ones), ones, f"ones {m}x{k}")
        _assert_matches_svd(spectral_norm(outer), outer, f"outer {m}x{k}")
    # Rank one with the right singular vector orthogonal to the ones vector
    # and to the start vector, which this path does not use; the test below
    # puts the same input above the crossover, where Lanczos starts from it.
    basis, _ = np.linalg.qr(np.column_stack([np.ones(8), _start_vector(8), np.arange(8.0) ** 2]))
    hidden = np.outer(np.arange(1.0, 21.0), basis[:, 2])
    _assert_matches_svd(spectral_norm(hidden), hidden, "orthogonal to the start vector")
    graded =_with_singular_values(np.logspace(0, -12, 40), 60, 7)
    _assert_matches_svd(spectral_norm(graded), graded, "graded")


@pytest.mark.parametrize("shape", [(140, 130), (130, 140)])
def test_power_norm_of_rank_one_orthogonal_to_the_start_vector(shape):
    """Rank one at Gram side 130 > GRAM_CROSSOVER, with the right singular
    vector orthogonal to the ones vector and to the Lanczos start vector.
    The first product is rounding noise; its beta is not small against its
    alpha, which is noise too, so Lanczos goes on from the normalised noise,
    and that has a component along the hidden direction."""
    k = min(shape)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(k), _start_vector(k), np.arange(float(k)) ** 2]))
    hidden = np.outer(np.arange(1.0, max(shape) + 1.0), basis[:, 2])
    if shape[0] < shape[1]:
        hidden = hidden.T
    assert abs(_start_vector(k) @ basis[:, 2]) <= 1e-15 * np.linalg.norm(_start_vector(k))
    _assert_matches_svd(spectral_norm(hidden), hidden, "orthogonal to the start vector")


def test_start_vector_is_built_once_per_side_and_shared_read_only():
    """The Lanczos start vector is cached per Gram side in a bounded cache;
    the shared array cannot be written and equals a fresh build."""
    v = _start_vector(8)
    assert _start_vector(8) is v
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 2.0
    assert np.array_equal(v, _start_vector.__wrapped__(8))
    assert _start_vector.cache_info().maxsize <= 64


def test_settled_start_ends_after_one_gram_application(monkeypatch):
    """The invariant-subspace stop is beta <= k eps max(alpha): a squared-Gram
    start that is the top eigenvector to rounding ends after one product
    with G, where a stop at 1e-15 max(alpha) ran all 40 steps."""
    calls = []
    lanczos = linalg_mod._lanczos_top
    monkeypatch.setattr(
        linalg_mod, "_lanczos_top",
        lambda apply, v, k: lanczos(lambda x: calls.append(1) or apply(x), v, k),
    )
    a = np.random.default_rng(0).standard_normal((80, 40))
    _assert_matches_svd(spectral_norm(a), a)
    assert len(calls) == 1


def test_lanczos_basis_grows_with_its_steps():
    """The basis starts at a few rows and doubles when they fill: norming the
    (44, 44) gq map (Gram side 1936, about a dozen steps) allocates under
    1 MB, where reserving all KRYLOV_STEPS rows took 7.7 MB."""
    op = build_first_order_operators(qx_decompose(random_centro(44, 44, 3))).maps["gq"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        operator_norm(op)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("size", [2, 6, 20])
@pytest.mark.parametrize("gap", [1e-9, 1e-7, 1e-6])
def test_direct_norm_resolves_near_clusters(size, gap):
    """Clusters of 2 to 20 top singular values at gaps down to 1e-9."""
    sv = np.concatenate([1.0 - gap * np.arange(size), np.linspace(0.9, 0.1, 40 - size)])
    a = _with_singular_values(sv, 60, size)
    _assert_matches_svd(spectral_norm(a), a)


@pytest.mark.parametrize("side", [5, 8, 13, 22, 30, 50, 60, 100])
def test_gram_norm_matches_svd_across_gram_sides(side):
    """The squaring loop that picks Lanczos' start, at the Gram sides of the
    closed-form operands, on random, graded and clustered spectra."""
    rng = np.random.default_rng(side)
    graded = _with_singular_values(np.logspace(0.0, -8.0, side), side + 7, side)
    clustered = _with_singular_values(
        np.concatenate([1.0 - 1e-8 * np.arange(3), np.linspace(0.9, 0.1, side - 3)]), side + 3, side
    )
    for a in (rng.standard_normal((side + 11, side)), graded, clustered):
        _assert_matches_svd(_gram_norm(a.T @ a), a)


@pytest.mark.parametrize("seed", [1082476658, 2877062824])
def test_fold_norms_of_benchmark_factors(seed):
    """X, X^{-1} and |X||X^{-1}| of two (20, 10) benchmark inputs."""
    f = qx_decompose(TrialConfig(m=20, n=10, seed=seed).materialize())
    xinv = x_inverse(f.x)
    prod = np.abs(f.x) @ np.abs(xinv)
    for operand in (f.x, xinv, 0.5 * (prod + prod[::-1, ::-1])):
        _assert_matches_svd(fold_norm(operand), operand)
    assert fold_norm(f.x) * fold_norm(xinv) == pytest.approx(np.linalg.cond(f.x), rel=1e-13)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (7, 4), (8, 4), (21, 10), (40, 40), (150, 50)])
def test_fold_norm_matches_svd(shape):
    a = random_centro(*shape, seed=shape[0] + shape[1])
    _assert_matches_svd(fold_norm(a), a)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (7, 4), (8, 4), (21, 10), (40, 40), (151, 50)])
@pytest.mark.parametrize("power", [1, 3])
def test_nonnegative_norm_from_the_first_fold_half(shape, power):
    """For an entrywise nonnegative centrosymmetric M (odd and even m), |G| <=
    F entrywise on the rows the fold halves share, and the norm of F alone
    is |M|_2."""
    m = np.abs(random_centro(*shape, seed=7 * shape[0] + shape[1])) ** power
    f, g = fold(m)
    assert np.all(np.abs(g) <= f[: len(g)])
    _assert_matches_svd(nonnegative_norm(f), m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_direct_norm_scales_by_powers_of_two_exactly(k):
    """Unit scaling is exact, so 2**k passes through the Gram-matrix path bit
    for bit."""
    s = 2.0**k
    for a in (_rand(9, 6, 31), _rand(3, 7, 32), np.ones((5, 4))):
        assert spectral_norm(s * a) == s * spectral_norm(a)


# Gram side 140 > GRAM_CROSSOVER: normed by the Lanczos kernel. Every
# entry is at least 2**-22 in magnitude, so 2**-1000 times it is still normal.
POWER_PATH_INPUT = _rand(150, 140, 33)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_power_norm_scales_by_powers_of_two_exactly(k):
    """The Lanczos path runs at unit scale too. Unscaled (under the block
    power iteration it replaced), 2**-600 A normed to 0.0 and 2**-300,
    2**300 and 2**600 A raised NoConvergence."""
    s = 2.0**k
    assert spectral_norm(s * POWER_PATH_INPUT) == s * spectral_norm(POWER_PATH_INPUT)


@pytest.mark.parametrize("shape", [(150, 140), (140, 300), (200, 129)])
def test_power_norm_matches_svd(shape):
    """Gram sides above ``GRAM_CROSSOVER`` go through the Lanczos kernel.
    Block power iteration, stopping on a 1e-12 relative Ritz increment, read
    these 1.1e-12 to 2.2e-12 low."""
    assert min(shape) > linalg_mod.GRAM_CROSSOVER
    a = _rand(*shape, shape[1])
    _assert_matches_svd(spectral_norm(a), a)


@pytest.mark.parametrize("shape", [(200, 150), (200, 129), (150, 140)])
def test_power_norm_of_all_ones(shape):
    """Rank one on the Lanczos path: the second Lanczos vector completes an
    invariant subspace. The modified Gram-Schmidt that refilled collapsed
    block columns with noise gave 2x, sqrt(3)x and 2x."""
    m, n = shape
    assert spectral_norm(np.ones(shape)) == pytest.approx(math.sqrt(m * n), rel=1e-13)


# Gram eigenvalues 1, then 0.949, 0.948, ... down: a relative gap of 5% that
# Lanczos needs a few dozen steps to resolve to rounding level.
SLOW_POWER_INPUT = _with_singular_values(np.sqrt(np.r_[1.0, 0.95 - 1e-3 * np.arange(1, 140)]), 150, 5)


def test_power_norm_no_convergence_raised(monkeypatch):
    """Under a cap of 8 Lanczos steps the kernel raises, carrying its last
    estimate at the input's scale (exactly homogeneous, and below the norm)
    and the steps taken."""
    want = np.linalg.norm(SLOW_POWER_INPUT, 2)
    _assert_matches_svd(spectral_norm(SLOW_POWER_INPUT), SLOW_POWER_INPUT)
    monkeypatch.setattr(linalg_mod, "KRYLOV_STEPS", 8)
    with pytest.raises(NoConvergence, match="within 8 steps") as unit:
        spectral_norm(SLOW_POWER_INPUT)
    with pytest.raises(NoConvergence) as scaled:
        spectral_norm(2.0**-40 * SLOW_POWER_INPUT)
    assert unit.value.steps == scaled.value.steps == 8
    assert 0.9 * want < unit.value.estimate < want
    assert scaled.value.estimate == 2.0**-40 * unit.value.estimate


@pytest.mark.parametrize("size", [2, 5, 20, 40, 60])
def test_krylov_norm_resolves_clusters(size):
    """Top singular values 1, 1 - gap, ..., 1 - (size - 1) gap above a spread
    tail, Gram side 200. Down to gap 1e-7 the norm is resolved to NORM_RTOL;
    below that it may read low by the cluster's relative width, never more,
    and never raises. Block power iteration raised NoConvergence at gap 1e-7,
    size 40 and read 1.15e-7 low at another seed."""
    for gap in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
        for s in range(2):
            sv = np.concatenate([1.0 - gap * np.arange(size), np.linspace(0.9, 0.1, 200 - size)])
            a = _with_singular_values(sv, 260, 10 * size + s)
            got, want = spectral_norm(a), np.linalg.norm(a, 2)
            if gap >= 1e-7:
                _assert_matches_svd(got, a, f"gap {gap} seed {s}")
            else:
                assert -size * gap * want <= got - want <= NORM_RTOL * want, (gap, s, got, want)


def _unit_scale(a: np.ndarray) -> np.ndarray:
    """``a`` divided by the power of two that ``spectral_norm`` divides by."""
    return np.ldexp(a, -math.frexp(np.max(np.abs(a)))[1])


def _krylov_norm(s: np.ndarray) -> float:
    """The Lanczos path of ``operator_norm`` for an array S, at any Gram side."""
    k = s.shape[1]
    return _lanczos_top(lambda v: s.T @ (s @ v), _start_vector(k), k)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 31, 64, 96, 127, 128])
def test_gram_and_krylov_paths_agree(k):
    """Both matvecs of the one Lanczos kernel, on the same operands of every
    Gram side the Gram-matrix path takes: random, all-ones and outer-product
    operands, and a cluster of top singular values 1, 1 - 1e-9, ... above a
    spread tail. Up to ``GRAM_CROSSOVER`` Lanczos runs until its basis spans
    an invariant subspace or all k dimensions, so the two agree within 4e-15
    on all of them."""
    rng = np.random.default_rng(2000 + k)
    size = min(k, 6)
    sv = np.concatenate([1.0 - 1e-9 * np.arange(size), np.linspace(0.9, 0.1, k - size)])
    for label, a in (
        ("random", rng.standard_normal((2 * k + 3, k))),
        ("ones", np.ones((k + 2, k))),
        ("outer", np.outer(np.arange(1.0, k + 3), np.arange(1.0, k + 1))),
        ("cluster", _with_singular_values(sv, k + 5, k)),
    ):
        s = _unit_scale(a)
        gram, krylov = _gram_norm(s.T @ s), _krylov_norm(s)
        assert abs(gram - krylov) <= 4e-15 * krylov, (label, gram, krylov)
        _assert_matches_svd(gram, s, label)


@pytest.mark.parametrize("shape", [(20, 10), (30, 20), (40, 20), (44, 44)])
def test_first_order_map_norms_match_svd(shape):
    """gx, hx and gq of random centrosymmetric inputs, normed through their
    actions, against numpy's SVD of the Kronecker oracle; every map of
    (30, 20) and above, and gq of (20, 10), has a Gram side above
    GRAM_CROSSOVER."""
    f = qx_decompose(random_centro(*shape, seed=sum(shape)))
    maps = build_first_order_operators(f).maps
    for (label, op), dense in zip(maps.items(), kron_operators(f)):
        _assert_matches_svd(operator_norm(op), dense, label)


@pytest.mark.parametrize("k", [1, 7, 60, 128, 129, 200])
def test_operator_norm_of_an_array_matches_svd(k):
    """An array given only by its action and adjoint, on both sides of the
    crossover and both orientations, is normed within NORM_RTOL of numpy;
    the exponent e scales the result exactly, zero maps norm to 0 and
    ``NoConvergence`` carries its estimate at the scale 2**e."""
    a = np.random.default_rng(k).standard_normal((k + 5, k))
    for s in (a, a.T):
        op = LinearMap(lambda v, s=s: v @ s.T, lambda y, s=s: y @ s, *s.shape)
        norm = operator_norm(op)
        _assert_matches_svd(norm, s, str(s.shape))
        assert operator_norm(op._replace(e=-40)) == math.ldexp(norm, -40)
        assert operator_norm(LinearMap(lambda v: 0 * v @ s.T, lambda y: 0 * y @ s, *s.shape)) == 0.0
    if k > 128:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg_mod, "KRYLOV_STEPS", 3)
            with pytest.raises(NoConvergence) as info:
                operator_norm(LinearMap(lambda v: v @ a.T, lambda y: y @ a, *a.shape, e=7))
        assert 0.0 < info.value.estimate <= math.ldexp(np.linalg.norm(a, 2), 7)
        assert info.value.steps == 3


def _sturm_bisection(alpha, beta, lo):
    """The top eigenvalue of the tridiagonal by Sturm-count bisection alone,
    with no 1 x 1 shortcut."""
    pad = [0.0, *map(abs, beta), 0.0]
    hi = max(a + pad[i] + pad[i + 1] for i, a in enumerate(alpha))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        d = alpha[0] - mid
        for a, b in zip(alpha[1:], beta):
            if d >= 0.0:
                break
            d = a - mid - b * b / d
        if d < 0.0:
            hi = mid
        else:
            lo = mid


def test_one_step_lanczos_shortcut_is_bit_identical(monkeypatch):
    """A 1 x 1 tridiagonal returns its entry at once; bisection returned it
    too, after about 53 halvings. Every ``spectral_norm`` operand of a
    sample of the seed-3 closed-form benchmark pool (a tall input with its
    fixed harness seed, the first random and Toeplitz 100 x 100 inputs and
    the first random 110 x 110 input, at least 40 operands) norms to the
    same float both ways."""
    seeds = np.random.SeedSequence([3, 1]).generate_state(3)
    configs = [
        TrialConfig(m=150, n=50, seed=0, scale=1e-8),
        TrialConfig(m=100, n=100, seed=int(seeds[0]), scale=1e-8, k_mode="ones"),
        TrialConfig(m=100, n=100, generator="toeplitz", seed=int(seeds[1]), scale=1e-8),
        TrialConfig(m=110, n=110, seed=int(seeds[2]), scale=1e-8, k_mode="ones"),
    ]
    operands = []
    original = linalg_mod.spectral_norm
    monkeypatch.setattr(centro_mod, "spectral_norm", lambda mat: operands.append(mat) or original(mat))
    steps = []
    top = linalg_mod._top_tridiagonal_eigenvalue
    monkeypatch.setattr(
        linalg_mod, "_top_tridiagonal_eigenvalue",
        lambda alpha, beta, lo: steps.append(len(alpha)) or top(alpha, beta, lo),
    )
    for cfg in configs:
        assert run_trial(cfg).error is None
    shortcut = [spectral_norm(op) for op in operands]
    assert len(operands) >= 40 and steps.count(1) >= len(operands) // 2
    monkeypatch.setattr(linalg_mod, "_top_tridiagonal_eigenvalue", _sturm_bisection)
    assert [spectral_norm(op) for op in operands] == shortcut


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_spectral_le_frobenius_property(seed):
    a = _rand(4, 3, seed)
    assert spectral_norm(a) <= frobenius_norm(a) + 1e-12


def test_submultiplicativity():
    a, b = _rand(4, 4, 21), _rand(4, 4, 22)
    assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12


def test_library_never_calls_numpy_linalg():
    package = Path(centroqx.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "np.linalg" in line or "numpy.linalg" in line
    ]
    assert offenders == []
