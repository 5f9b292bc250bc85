"""Dense kernels against numpy.linalg references and hand-derived fixtures."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroqx
from centroqx.errors import NoConvergence, RankDeficient, SingularTriangular
from centroqx.linalg import (
    _jacobi_eigenvalues,
    comp_distance,
    entrywise_div,
    frobenius_norm,
    householder_qr,
    inf_norm_vector,
    kron,
    max_abs,
    operator_norm,
    spectral_norm,
    triangular_solve,
    unvec,
    vec,
    vec_perm,
    vec_perm_indices,
)
from centroqx.rng import uniform_open


def _rand(m, n, seed):
    return uniform_open(seed, m * n).reshape(m, n)


# ---------------------------------------------------------------- vec / kron


def test_vec_is_column_major():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(a), 2, 2), a)


def test_kron_matches_numpy():
    a, b = _rand(2, 3, 1), _rand(3, 2, 2)
    assert np.array_equal(kron(a, b), np.kron(a, b))


def test_vec_perm_sends_vec_to_vec_transpose():
    a = _rand(2, 3, 3)
    perm = vec_perm_indices(2, 3)
    # scatter contract: entry at vec-position b lands at row perm[b]
    assert np.array_equal(vec(a.T)[perm], vec(a))
    p = vec_perm(2, 3)
    assert np.array_equal(p @ vec(a), vec(a.T))
    # frozen index fixture for (2, 3): b = i + 2j -> a = j + 3i
    assert list(perm) == [0, 3, 1, 4, 2, 5]


# ----------------------------------------------------------------- norms


def test_elementary_norms_match_numpy():
    a = _rand(5, 3, 4)
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-15)
    assert max_abs(a) == np.max(np.abs(a))
    v = uniform_open(5, 7)
    assert inf_norm_vector(v) == np.max(np.abs(v))


def test_entrywise_div_zero_convention():
    x = np.array([2.0, 3.0, 4.0])
    y = np.array([4.0, 0.0, 2.0])
    assert np.array_equal(entrywise_div(x, y), [0.5, 3.0, 2.0])
    with pytest.raises(ValueError):
        entrywise_div(np.ones(2), np.ones(3))


def test_comp_distance_fixture():
    # |x-y|/|y| entrywise, absolute gap where y == 0: max(0.1, 0.3) = 0.3
    assert comp_distance([1.1, 0.3], [1.0, 0.0]) == pytest.approx(0.3, rel=1e-15)


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


def test_operator_norm_block_callbacks():
    a = _rand(7, 5, 12)
    got = operator_norm(lambda v: a @ v, lambda u: a.T @ u, 5)
    assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)


def test_operator_norm_no_convergence_raised():
    a = np.diag([1.0, 1.0 - 1e-13, 0.5])
    with pytest.raises(NoConvergence):
        operator_norm(lambda v: a @ v, lambda u: a.T @ u, 3, max_iter=1)


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
