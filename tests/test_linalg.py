"""Dense kernels against numpy.linalg references and hand-derived fixtures."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroqx
import centroqx.linalg as linalg_mod
from centroqx.centro import fold_norm, random_centro
from centroqx.errors import NoConvergence, RankDeficient, SingularTriangular
from centroqx.harness import TrialConfig
from centroqx.linalg import (
    _jacobi_eigenvalues,
    _start_columns,
    entrywise_div,
    frobenius_norm,
    householder_qr,
    max_abs,
    spectral_norm,
    triangular_solve,
    vec,
    vec_perm_indices,
)
from centroqx.qx import qx_decompose, x_inverse
from centroqx.rng import uniform_open


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


# ------------------------------------------------------------ triangular


def test_triangular_solve_fixture():
    # R = [[2,1],[0,4]], B = I -> [[0.5, -0.125], [0, 0.25]] (hand back-substitution)
    r = np.array([[2.0, 1.0], [0.0, 4.0]])
    got = triangular_solve(r, np.eye(2))
    assert np.array_equal(got, np.array([[0.5, -0.125], [0.0, 0.25]]))


def test_triangular_solve_matches_numpy():
    r = np.triu(_rand(6, 6, 5)) + 3.0 * np.eye(6)
    b = _rand(6, 4, 6)
    got = triangular_solve(r, b)
    want = np.linalg.solve(r, b)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_triangular_solve_singular():
    r = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularTriangular):
        triangular_solve(r, np.eye(2))


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


NORM_RTOL = 1e-13  # direct kernel against numpy's SVD


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 50, 63, 64])
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
    # Rank one: the squared Gram power has one numerical direction, and
    # the start block's other columns are rounding noise to be dropped.
    for m, k in ((3, 3), (5, 2), (8, 8), (20, 3), (3, 64)):
        ones = np.ones((m, k))
        outer = np.outer(np.arange(1.0, m + 1), np.arange(1.0, k + 1))
        _assert_matches_svd(spectral_norm(ones), ones, f"ones {m}x{k}")
        _assert_matches_svd(spectral_norm(outer), outer, f"outer {m}x{k}")
    # Rank one with the right singular vector orthogonal to the start block.
    basis, _ = np.linalg.qr(np.column_stack([_start_columns(8, 0, 4), np.arange(8.0) ** 2]))
    hidden = np.outer(np.arange(1.0, 21.0), basis[:, 4])
    _assert_matches_svd(spectral_norm(hidden), hidden, "orthogonal to the start block")
    graded = _with_singular_values(np.logspace(0, -12, 40), 60, 7)
    _assert_matches_svd(spectral_norm(graded), graded, "graded")


@pytest.mark.parametrize("size", [2, 6, 20])
@pytest.mark.parametrize("gap", [1e-9, 1e-7, 1e-6])
def test_direct_norm_resolves_near_clusters(size, gap):
    """A cluster wider than the start block needs the block to widen."""
    sv = np.concatenate([1.0 - gap * np.arange(size), np.linspace(0.9, 0.1, 40 - size)])
    a = _with_singular_values(sv, 60, size)
    _assert_matches_svd(spectral_norm(a), a)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_direct_norm_scales_by_powers_of_two_exactly(k):
    """Unit scaling is exact, so 2**k passes through the direct kernel bit for
    bit."""
    s = 2.0**k
    for a in (_rand(9, 6, 31), _rand(3, 7, 32), np.ones((5, 4))):
        assert spectral_norm(s * a) == s * spectral_norm(a)


# Gram side 140 > GRAM_CROSSOVER: normed by block power iteration. Every
# entry is at least 2**-22 in magnitude, so 2**-1000 times it is still normal.
POWER_PATH_INPUT = _rand(150, 140, 33)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_power_norm_scales_by_powers_of_two_exactly(k):
    """The power-iteration path runs at unit scale too. Unscaled, 2**-600 A
    normed to 0.0 and 2**-300, 2**300 and 2**600 A raised NoConvergence."""
    s = 2.0**k
    assert spectral_norm(s * POWER_PATH_INPUT) == s * spectral_norm(POWER_PATH_INPUT)


@pytest.mark.parametrize("shape", [(150, 140), (140, 300), (200, 129)])
def test_power_norm_matches_svd(shape):
    """Gram sides above ``GRAM_CROSSOVER`` go through block power iteration,
    which stops on a 1e-12 relative Ritz increment."""
    assert min(shape) > linalg_mod.GRAM_CROSSOVER
    a = _rand(*shape, shape[1])
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)


@pytest.mark.parametrize("shape", [(200, 150), (200, 129), (150, 140)])
def test_power_norm_of_all_ones(shape):
    """Rank one on the power path: every block column but the first collapses
    onto the ones vector and is dropped. The modified Gram-Schmidt that
    refilled such columns with noise gave 2x, sqrt(3)x and 2x."""
    m, n = shape
    assert spectral_norm(np.ones(shape)) == pytest.approx(math.sqrt(m * n), rel=1e-13)


# Gram eigenvalues 1, then 0.949, 0.948, ... down from below the cluster
# threshold: the width-4 block never widens, and the top Ritz value settles
# at the rate 0.946**2 per step, in about 250 steps.
SLOW_POWER_INPUT = _with_singular_values(np.sqrt(np.r_[1.0, 0.95 - 1e-3 * np.arange(1, 140)]), 150, 5)


def test_power_norm_no_convergence_raised(monkeypatch):
    want = np.linalg.norm(SLOW_POWER_INPUT, 2)
    assert spectral_norm(SLOW_POWER_INPUT) == pytest.approx(want, rel=1e-10)
    monkeypatch.setattr(linalg_mod, "POWER_SWEEPS", 1)  # cap 140 steps, not 1400
    with pytest.raises(NoConvergence, match="within 140 iterations"):
        spectral_norm(SLOW_POWER_INPUT)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_spectral_le_frobenius_property(seed):
    a = _rand(4, 3, seed)
    assert spectral_norm(a) <= frobenius_norm(a) + 1e-12


def test_submultiplicativity():
    a, b = _rand(4, 4, 21), _rand(4, 4, 22)
    assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12


# ------------------------------------------------------------- Ritz step


def _jacobi_reference(h: np.ndarray) -> np.ndarray:
    """The cyclic Jacobi with numpy row/column rotations that the scalar
    kernel must reproduce bit for bit."""
    a = 0.5 * (h + h.T)
    b = a.shape[0]
    if b == 1:
        return a[0, :1].copy()
    scale = max(float(np.max(np.abs(a))), 1e-300)
    for _ in range(60):
        off = a - np.diag(np.diag(a))
        if np.max(np.abs(off)) <= 1e-16 * scale:
            break
        for p in range(b - 1):
            for q in range(p + 1, b):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))[::-1].copy()


def _ritz_blocks(width: int):
    """Seeded symmetric blocks: dense, Gram, near-diagonal, diagonal, and
    dense blocks scaled far from 1 by exact powers of two."""
    rng = np.random.default_rng(width)
    for _ in range(3):
        g = rng.standard_normal((width, width))
        diag = np.diag(rng.standard_normal(width))
        yield "dense", g
        yield "gram", g @ g.T
        yield "near-diagonal", diag + 1e-9 * (g + g.T)
        yield "diagonal", diag
        yield "scaled-up", 2.0**500 * (g + g.T)
        yield "scaled-down", 2.0**-500 * (g @ g.T)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 16, 32])
def test_jacobi_eigenvalues_bit_identical_to_numpy_rotations(width):
    for kind, h in _ritz_blocks(width):
        got = _jacobi_eigenvalues(h)
        want = _jacobi_reference(h)
        assert got.dtype == want.dtype and got.shape == want.shape, kind
        assert np.array_equal(got, want), kind
        sym = 0.5 * (h + h.T)
        ref = np.linalg.eigvalsh(sym)[::-1]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), kind


def test_library_never_calls_numpy_linalg():
    package = Path(centroqx.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "np.linalg" in line or "numpy.linalg" in line
    ]
    assert offenders == []
