"""Factorization: hand-derived fixtures, invariants, numpy cross-checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroqx.centro as centro_mod
import centroqx.qx as qx_mod
from centroqx.bounds import FactorNorms, bound_report
from centroqx.centro import (
    fold,
    random_centro,
    random_centro_perturbation,
    unfold,
)
from centroqx.errors import (
    NotCentrosymmetric,
    OddColumnDimension,
    RankDeficient,
    SingularTriangular,
)
from centroqx.linalg import householder_qr, triangular_solve
from centroqx.qx import conditioning, qx_decompose, verify_qx, x_inverse
from centroqx.rng import uniform_open
from centroqx.xops import support_mask
from oracles import exchange_matrix, is_x_type

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ------------------------------------------------- hand-derived fixtures


@pytest.mark.parametrize("n", [2, 4, 6])
def test_identity_fixture(n):
    f = qx_decompose(np.eye(n))
    assert np.max(np.abs(f.q - np.eye(n))) <= 1e-14
    assert np.max(np.abs(f.x - np.eye(n))) <= 1e-14


def test_exchange_fixture():
    # A = R_2 -> Q = R_2, X = I_2 (scalar folded QRs with the sign convention)
    f = qx_decompose(exchange_matrix(2))
    assert np.max(np.abs(f.q - exchange_matrix(2))) <= 1e-14
    assert np.max(np.abs(f.x - np.eye(2))) <= 1e-14


def test_symmetric_2x2_fixture():
    # A = [[2,1],[1,2]] -> Q = I, X = A (folded blocks 3 and 1, both positive)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = qx_decompose(a)
    assert np.max(np.abs(f.q - np.eye(2))) <= 1e-14
    assert np.max(np.abs(f.x - a)) <= 1e-14


def test_odd_row_3x2_fixture():
    # A = [[1,2],[3,3],[2,1]]: folded blocks F = [[3],[3*sqrt2]], G = [[-1]];
    # norms give R_F = 3*sqrt3, R_G = 1, so with s = (3*sqrt3+1)/2 and
    # d = (3*sqrt3-1)/2 the factors are X = [[s,d],[d,s]] and the Q below.
    a = np.array([[1.0, 2.0], [3.0, 3.0], [2.0, 1.0]])
    f = qx_decompose(a)
    s = (3.0 * SQRT3 + 1.0) / 2.0
    d = (3.0 * SQRT3 - 1.0) / 2.0
    x_want = np.array([[s, d], [d, s]])
    r12 = 1.0 / math.sqrt(12.0)
    q_want = np.array(
        [
            [r12 - 0.5, r12 + 0.5],
            [1.0 / SQRT3, 1.0 / SQRT3],
            [r12 + 0.5, r12 - 0.5],
        ]
    )
    assert np.max(np.abs(f.x - x_want)) <= 1e-14
    assert np.max(np.abs(f.q - q_want)) <= 1e-14
    assert np.max(np.abs(f.q @ f.x - a)) <= 1e-14


# ------------------------------------------------------- invariant sweep


def test_factor_invariants(instance, shape):
    a, f = instance
    m, n = shape
    rm, rn = exchange_matrix(m), exchange_matrix(n)
    norm_a = np.linalg.norm(a)
    assert np.linalg.norm(a - f.q @ f.x) <= 1e-12 * (1.0 + norm_a)
    assert np.linalg.norm(f.q.T @ f.q - np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm(f.q.T @ rm @ f.q - rn) <= 1e-12 * n
    assert np.array_equal(rm @ f.q @ rn, f.q)  # Q centrosymmetric (exact flips)
    assert is_x_type(f.x)
    # off-support entries are exactly zero by construction
    off = ~support_mask(n).inside
    assert np.array_equal(f.x[off], np.zeros(int(off.sum())))
    assert np.all(np.diag(f.x) > 0)


def test_verify_qx_report(instance, shape):
    a, f = instance
    rep = verify_qx(a, f)
    assert rep.max_residual() <= 1e-12 * max(shape)
    # tampering must be detected
    bad = f.q.copy()
    bad[0, 0] += 1e-3
    rep_bad = verify_qx(a, dataclasses.replace(f, q=bad))
    assert rep_bad.max_residual() > 1e-5


def test_x_against_numpy_qr(instance, shape):
    """Dual route: assemble X from numpy's QR of the folded blocks."""
    a, f = instance
    m, n = shape
    l = n // 2
    pair = fold(a)
    rf = np.linalg.qr(pair.f, mode="r")
    rf = np.sign(np.diag(rf))[:, None] * rf
    rg = np.linalg.qr(pair.g, mode="r")
    rg = np.sign(np.diag(rg))[:, None] * rg
    rl = exchange_matrix(l)
    s = 0.5 * (rf + rg)
    d = 0.5 * (rf - rg)
    x_ref = np.block([[s, d @ rl], [rl @ d, rl @ s @ rl]])
    assert np.max(np.abs(f.x - x_ref)) <= 1e-11 * (1.0 + np.max(np.abs(x_ref)))
    # and Q agrees with A X^{-1} computed by numpy
    q_ref = np.linalg.solve(f.x.T, a.T).T
    assert np.max(np.abs(f.q - q_ref)) <= 1e-9


def test_decomposition_deterministic(shape):
    m, n = shape
    a = random_centro(m, n, seed=77)
    f1, f2 = qx_decompose(a), qx_decompose(a)
    assert np.array_equal(f1.q, f2.q)
    assert np.array_equal(f1.x, f2.x)


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _factored_alone(a):
    """Q, X, R_f, R_g and X^{-1} from one 2-d kernel call per half; for odd
    m, g is factored with one zero bottom row and Q_g drops that row."""
    f, g = fold(a)
    padded = np.zeros_like(f)
    padded[: len(g)] = g
    (qf, rf), (qg, rg) = householder_qr(f), householder_qr(padded)
    xinv = unfold(triangular_solve(rf), triangular_solve(rg))
    return unfold(qf, qg[: len(g)]), unfold(rf, rg), rf, rg, xinv


@pytest.mark.parametrize("shape", [(2, 2), (8, 4), (9, 4), (31, 12), (40, 40), (41, 10)])
def test_stacked_decompose_is_bit_identical_per_matrix(shape):
    """Each matrix of a stack (at scales 2**-30, 2**-10, 2**10) factors bit
    for bit as its halves do one by one, f as it is and g, for odd m, with
    the zero row that gives it f's shape; a single matrix factors as its
    slice of the stack, and an empty stack gives no factors."""
    m, n = shape
    stack = np.stack([2.0 ** (20 * i - 30) * random_centro(m, n, seed=i) for i in range(3)])
    got = qx_decompose(stack)
    assert isinstance(got, list) and len(got) == 3
    for a, f in zip(stack, got):
        want = _factored_alone(a)
        assert [_bits(v) for v in (f.q, f.x, f.rf, f.rg, f.xinv)] == [_bits(v) for v in want]
    single = qx_decompose(stack[1])
    assert [_bits(v) for v in (single.q, single.x, single.xinv)] == [
        _bits(v) for v in (got[1].q, got[1].x, got[1].xinv)
    ]
    assert qx_decompose(np.empty((0, m, n))) == []


def test_stacked_decompose_rejects_a_rank_deficient_member():
    for shape in [(8, 4), (9, 4)]:
        stack = np.stack([random_centro(*shape, seed=1), np.ones(shape)])
        with pytest.raises(RankDeficient, match=r"^slice \d: pivot column "):
            qx_decompose(stack)


@pytest.mark.parametrize("shape", [(8, 4), (9, 4), (40, 40), (41, 10)])
@pytest.mark.parametrize("depth", [None, 1, 3])
def test_decompose_makes_one_qr_call(monkeypatch, shape, depth):
    """One ``householder_qr`` call takes all 2B fold halves, f's then g's,
    for odd and even m and for a single matrix (``depth`` None) or a stack;
    for odd m the pad row of each g half comes out of it exactly zero."""
    calls = []

    def counted(mat):
        calls.append((mat, householder_qr(mat)))
        return calls[-1][1]

    monkeypatch.setattr(qx_mod, "householder_qr", counted)
    m, n = shape
    mats = [random_centro(m, n, seed=i) for i in range(depth or 1)]
    qx_decompose(mats[0] if depth is None else np.stack(mats))
    [(halves, (q, _))] = calls
    nb = len(mats)
    assert halves.shape == (2 * nb, m - m // 2, n // 2)
    for i, a in enumerate(mats):
        f, g = fold(a)
        assert np.array_equal(halves[i], f) and np.array_equal(halves[nb + i, : m // 2], g)
    if m % 2:
        assert np.all(halves[nb:, -1] == 0) and np.all(q[nb:, -1] == 0)


@pytest.mark.parametrize("shape", [(25, 10), (31, 12), (41, 10), (1001, 100)])
def test_odd_m_factors_agree_with_the_unpadded_halves(shape):
    """For odd m the zero row on g moves its factors at rounding level only:
    Q, X, R_f and R_g agree with the per-half QR of the unpadded halves to
    1e-14 kappa_2 relative."""
    a = random_centro(*shape, seed=5)
    got = qx_decompose(a)
    f, g = fold(a)
    (qf, rf), (qg, rg) = householder_qr(f), householder_qr(g)
    tol = 1e-14 * conditioning(got)["kappa2"]
    pairs = [(got.q, unfold(qf, qg)), (got.x, unfold(rf, rg)), (got.rf, rf), (got.rg, rg)]
    for have, want in pairs:
        assert np.max(np.abs(have - want)) <= tol * np.max(np.abs(want))


# --------------------------------------------------------------- inverse


def test_x_inverse_fixture():
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    want = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert np.max(np.abs(x_inverse(x) - want)) <= 1e-15


def test_x_inverse_properties(instance, shape):
    _, f = instance
    n = shape[1]
    xi = x_inverse(f.x)
    assert np.max(np.abs(f.x @ xi - np.eye(n))) <= 1e-11 * conditioning(f)["kappa2"]
    assert is_x_type(xi)
    assert np.max(np.abs(xi - np.linalg.inv(f.x))) <= 1e-11 * np.max(np.abs(xi))


def test_factors_keep_the_halves_and_invert_them_lazily(instance, shape):
    """X is the unfold of the kept triangular halves, bit for bit; X^{-1}
    is built from them on first use only, and agrees with ``x_inverse``."""
    _, f = instance
    assert np.array_equal(unfold(f.rf, f.rg), f.x)
    assert "xinv" not in vars(f) and "xinv_halves" not in vars(f)
    kappa2 = np.linalg.cond(f.x)
    assert np.linalg.norm(f.xinv - x_inverse(f.x)) <= 1e-14 * kappa2 * np.linalg.norm(f.xinv)
    assert np.array_equal(unfold(*f.xinv_halves), f.xinv)
    assert vars(f)["xinv"] is f.xinv


def test_x_inverse_singular():
    with pytest.raises(SingularTriangular):
        x_inverse(np.zeros((2, 2)))


def test_x_inverse_rejects_what_it_cannot_fold():
    with pytest.raises(NotCentrosymmetric):
        x_inverse(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(OddColumnDimension):
        x_inverse(np.eye(3))


# ------------------------------------------------------------ scale safety

SCALE_BASE = random_centro(8, 4, 3)
# Fold halves of 40x35: three QR panels, so the blocked updates are covered.
SCALE_BASE_PANELS = random_centro(80, 70, 3)


@pytest.mark.parametrize(
    "scale", [2.0**530, 2.0**-540, 1e-160, 1e160], ids=["2^530", "2^-540", "1e-160", "1e160"]
)
def test_factorization_of_well_scaled_inputs_far_from_one(scale):
    for base in (SCALE_BASE, SCALE_BASE_PANELS):
        a = scale * base
        f = qx_decompose(a)
        assert np.linalg.norm(f.q.T @ f.q - np.eye(base.shape[1])) <= 1e-14
        residual = (a - f.q @ f.x) / scale
        assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(base)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_power_of_two_scaling_commutes_with_the_factorization(k):
    for a in (SCALE_BASE, SCALE_BASE_PANELS):
        base = qx_decompose(a)
        f = qx_decompose(2.0**k * a)
        assert np.array_equal(f.q, base.q)
        assert np.array_equal(f.x, 2.0**k * base.x)
        assert np.array_equal(x_inverse(f.x), 2.0**-k * x_inverse(base.x))


def test_conditioning_fixture():
    # X = [[2,1],[1,2]]: kappa2 = 3; |X||X^{-1}| = (1/3)[[5,4],[4,5]] has norm 3
    cond = conditioning(qx_decompose(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert cond["kappa2"] == pytest.approx(3.0, rel=1e-12)
    assert cond["cond_x"] == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("shape", [(20, 10), (31, 12), (40, 40)])
def test_conditioning_is_the_report_path(shape):
    """kappa2 and cond_x come from the bound report's own norms, bit for bit."""
    a = random_centro(*shape, seed=sum(shape))
    f = qx_decompose(a)
    norms = FactorNorms(f)
    cond = conditioning(f)
    assert cond == {"kappa2": norms.x_norm * norms.xinv_norm, "cond_x": norms.cond_x}
    da, _, _ = random_centro_perturbation(a, 1e-8, seed=1)
    rep = bound_report(a, f, da)
    assert (cond["kappa2"], cond["cond_x"]) == (rep.kappa2, rep.cond_x)


def test_conditioning_norms_only_the_unscaled_halves(monkeypatch):
    """conditioning takes |X|_2 and |X^{-1}|_2 from two fold halves each and
    the nonnegative ||X||X^{-1}||_2 from its first half alone (5 spectral
    norms), and none of a report's scaled norms."""
    f = qx_decompose(random_centro(30, 12, seed=30))
    calls = []
    real = centro_mod.spectral_norm
    monkeypatch.setattr(centro_mod, "spectral_norm", lambda h: calls.append(h.shape) or real(h))
    conditioning(f)
    assert calls == [(6, 6)] * 5


# ---------------------------------------------------------------- errors


def test_rejects_rank_deficient():
    a = np.ones((4, 2))  # centrosymmetric but rank 1
    with pytest.raises(RankDeficient):
        qx_decompose(a)


def test_rejects_odd_columns():
    with pytest.raises(OddColumnDimension):
        qx_decompose(np.eye(5)[:, :3])


def test_rejects_non_centro():
    with pytest.raises(NotCentrosymmetric):
        qx_decompose(uniform_open(1, 8).reshape(4, 2))


def test_rejects_small_non_centro():
    # Every entry is below the centrosymmetry tolerance; the test is relative.
    with pytest.raises(NotCentrosymmetric):
        qx_decompose(1e-13 * uniform_open(3, 8).reshape(4, 2))


def test_rejects_wide():
    with pytest.raises(ValueError):
        qx_decompose(random_centro(2, 4, seed=1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entries(value):
    """The fold's one max/min scan of A finds a non-finite entry, also where
    A stays centrosymmetric."""
    a = random_centro(8, 4, seed=2)
    a[1, 2] = a[-2, -3] = value
    with pytest.raises(ValueError, match="non-finite"):
        qx_decompose(a)


def test_rejects_one_dimensional_input():
    with pytest.raises(ValueError, match="2-dimensional"):
        qx_decompose(np.ones(4))
