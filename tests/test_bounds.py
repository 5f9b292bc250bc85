"""Perturbation bounds: frozen oracles, action laws, gates, orderings."""

from __future__ import annotations

import math

import numpy as np
import pytest

import centroqx.bounds as bounds_mod
import centroqx.linalg as linalg_mod
from centroqx.bounds import (
    COMP_SMALLNESS_THRESHOLD,
    REFINED_X_CONSTANT,
    SMALLNESS_THRESHOLD,
    FactorNorms,
    bound_report,
    build_first_order_operators,
    comp_matvec_bounds,
    comp_refined_bounds,
    gate_comp,
    gate_normwise,
    matvec_bound_q,
    matvec_bounds_normwise,
    min_sym_kappa,
    operator_norms,
    refined_bounds_normwise,
    tightness_check,
)
from centroqx.centro import random_centro, random_centro_perturbation
from centroqx.errors import GateViolated, SizeCapExceeded
from centroqx.linalg import spectral_norm, vec, vec_perm
from centroqx.qx import qx_decompose, x_inverse
from centroqx.rng import derive_seed
from centroqx.xops import scaling_candidates, upx, xvec

SQRT2, SQRT3, SQRT6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)


def _identity_ops():
    return build_first_order_operators(np.eye(2), np.eye(2))


def _factored(m, n, seed):
    a = random_centro(m, n, seed)
    f = qx_decompose(a)
    return a, f


# ------------------------------------------------ frozen identity oracles


def test_identity_operator_matrices():
    ops = _identity_ops()
    gx_want = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    perm = vec_perm(2, 2)
    assert np.max(np.abs(ops.gx - gx_want)) <= 1e-15
    assert np.max(np.abs(ops.hx - 0.5 * np.eye(4))) <= 1e-15
    assert np.max(np.abs(ops.gq - 0.5 * (np.eye(4) - perm))) <= 1e-15


def test_identity_operator_norms():
    norms = operator_norms(_identity_ops())
    assert norms["g"] == pytest.approx(1.0, abs=1e-12)
    assert norms["h"] == pytest.approx(0.5, abs=1e-12)
    assert norms["gq"] == pytest.approx(1.0, abs=1e-12)


def test_constants():
    assert REFINED_X_CONSTANT == pytest.approx(SQRT6 + SQRT3, rel=1e-15)
    assert SMALLNESS_THRESHOLD == pytest.approx(math.sqrt(1.5) - 1.0, rel=1e-15)
    assert COMP_SMALLNESS_THRESHOLD == pytest.approx(1.0 / (SQRT6 + 2.0), rel=1e-15)


# ------------------------------------------------------------ action laws


@pytest.mark.parametrize("shape", [(4, 2), (8, 4), (7, 4), (12, 12)])
def test_gx_action_law(shape):
    """G_X applied to vec(dA) equals the closed-form first-order X change."""
    m, n = shape
    a, f = _factored(m, n, seed=300 + m)
    ops = build_first_order_operators(f.q, f.x)
    da, _, _ = random_centro_perturbation(a, 1.0, seed=301 + m)
    xinv = np.linalg.inv(f.x)
    w = f.q.T @ da @ xinv
    want = xvec(upx(w + w.T) @ f.x)
    got = ops.gx @ vec(da)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("shape", [(4, 2), (8, 4), (7, 4)])
def test_gq_action_law(shape):
    m, n = shape
    a, f = _factored(m, n, seed=310 + m)
    ops = build_first_order_operators(f.q, f.x)
    da, _, _ = random_centro_perturbation(a, 1.0, seed=311 + m)
    xinv = np.linalg.inv(f.x)
    w = f.q.T @ da @ xinv
    want = vec(da @ xinv - f.q @ upx(w + w.T))
    got = ops.gq @ vec(da)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def test_first_order_exact_on_identity_diagonal():
    """Diagonal perturbations of I leave no quadratic remainder."""
    n = 4
    eps = 1e-6
    f = qx_decompose(np.eye(n))
    ops = build_first_order_operators(f.q, f.x)
    da = np.diag([eps, 2 * eps, 2 * eps, eps])  # centrosymmetric diagonal
    f2 = qx_decompose(np.eye(n) + da)
    actual = xvec(f2.x - f.x)
    predicted = ops.gx @ vec(da)
    assert np.max(np.abs(actual - predicted)) <= 1e-14


def test_size_cap_enforced():
    a, f = _factored(20, 10, seed=5)
    with pytest.raises(SizeCapExceeded):
        build_first_order_operators(f.q, f.x, cap=100)


# ------------------------------------------------------- normwise bounds


def test_refined_identity_example():
    """A = I_2, dA = 1e-8 I: the scaled-kappa bound is 2(sqrt6+sqrt3)e-8."""
    a = np.eye(2)
    f = qx_decompose(a)
    da = 1e-8 * np.eye(2)
    out = refined_bounds_normwise(a, f.q, f.x, da)
    want = 2.0 * (SQRT6 + SQRT3) * 1e-8
    assert out["x_refined"] == pytest.approx(want, rel=1e-12)


def test_q_operator_identity_example():
    """Identity instance: coefficient (2+sqrt2)*(gq + |X^{-1}|(1+g)) = 3(2+sqrt2)."""
    f = qx_decompose(np.eye(2))
    ops = build_first_order_operators(f.q, f.x)
    delta = 0.1
    out = matvec_bound_q(ops, f.q, f.x, delta)
    assert out["q_operator"] == pytest.approx((2.0 + SQRT2) * 3.0 * delta, rel=1e-12)


def test_normwise_gate_violation():
    """dA = 0.2 I on A = I_2 exceeds the smallness threshold."""
    a = np.eye(2)
    f = qx_decompose(a)
    da = 0.2 * np.eye(2)
    gate = gate_normwise(f.q, f.x, da)
    assert not gate.satisfied
    assert gate.value == pytest.approx(0.2 * SQRT2, rel=1e-12)
    with pytest.raises(GateViolated):
        refined_bounds_normwise(a, f.q, f.x, da)


def test_matvec_majorant_frozen_example():
    """g=1, h=1/2, delta=0.1: u=0.105, gate 0.0525, root/twice/linear frozen."""
    ops = _identity_ops()
    out = matvec_bounds_normwise(ops, 0.1, g=1.0, h=0.5)
    u = 0.105
    gate = next(g for g in out["gates"] if g.name == "majorant-x")
    assert gate.value == pytest.approx(0.0525, rel=1e-12)
    assert gate.satisfied
    assert out["x_majorant_twice"] == pytest.approx(2 * u, rel=1e-12)
    want_root = 2 * u / (1.0 + math.sqrt(1.0 - 4.0 * 0.5 * u))
    assert out["x_majorant_root"] == pytest.approx(want_root, rel=1e-12)
    assert out["x_majorant_root"] == pytest.approx(0.11118055826844112, rel=1e-12)
    assert out["x_majorant_linear"] == pytest.approx(0.3, rel=1e-12)


def test_majorant_gate_fails_for_large_delta():
    ops = _identity_ops()
    out = matvec_bounds_normwise(ops, 0.6, g=1.0, h=0.5)
    gate = next(g for g in out["gates"] if g.name == "majorant-x")
    assert not gate.satisfied
    assert out["x_majorant_root"] is None


@pytest.mark.parametrize("shape", [(8, 4), (20, 10), (12, 12)])
def test_bound_orderings(shape):
    """Chainable bounds must order: relative_a <= relative_b <= refined and
    root <= twice <= linear, on gated instances."""
    m, n = shape
    a, f = _factored(m, n, seed=700 + m)
    da, k, eps = random_centro_perturbation(a, 1e-7, seed=701 + m)
    ops = build_first_order_operators(f.q, f.x)
    rep = bound_report(a, f.q, f.x, da, k=k, eps=eps, ops=ops)
    assert rep.x_relative_a <= rep.x_relative_b <= rep.x_refined
    assert rep.x_majorant_root <= rep.x_majorant_twice * (1 + 1e-15)
    assert rep.x_majorant_twice <= rep.x_majorant_linear * (1 + 1e-15)
    assert (
        rep.x_comp_majorant_root
        <= rep.x_comp_majorant_twice * (1 + 1e-15)
        <= rep.x_comp_majorant_linear * (1 + 1e-12)
    )


def test_tightness_inequality(shape=None):
    for m, n in [(8, 4), (20, 10)]:
        a, f = _factored(m, n, seed=800 + m)
        ops = build_first_order_operators(f.q, f.x)
        out = tightness_check(ops, f.x)
        assert out["g"] <= out["envelope"] + 1e-10
        assert out["slack"] >= -1e-10


# ----------------------------------------------------- entrywise bounds


def test_comp_gate_and_bounds():
    a, f = _factored(8, 4, seed=900)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=901, k_mode="ones")
    gate = gate_comp(f.q, f.x, k, eps)
    assert gate.satisfied
    out = comp_refined_bounds(a, f.q, f.x, k, eps)
    assert out["x_comp_refined"] > 0
    assert out["q_comp"] > 0
    assert out["x_comp_combined"] is not None


def test_comp_gate_violation_raises():
    a, f = _factored(8, 4, seed=902)
    k = np.ones((8, 8))
    with pytest.raises(GateViolated):
        comp_refined_bounds(a, f.q, f.x, k, eps=0.5)


def test_comp_matvec_dense_cross_check():
    """Matrix-free structured norms equal dense Kronecker evaluations."""
    m, n = 8, 4
    a, f = _factored(m, n, seed=903)
    ops = build_first_order_operators(f.q, f.x)
    k = np.eye(m)
    out = comp_matvec_bounds(ops, f.q, f.x, k, eps=1e-8)
    absx = np.abs(f.x)
    dense_a = np.abs(ops.gx) @ np.kron(absx.T, np.eye(m))
    dense_b = np.abs(ops.hx) @ np.kron(absx.T, absx.T)
    assert out["gxa_norm"] == pytest.approx(np.linalg.norm(dense_a, 2), rel=1e-9)
    want_b_norm = np.linalg.norm(dense_b, 2)
    got_b_norm = out["b_hat"] / np.linalg.norm(
        np.abs(f.q).T @ k.T @ k @ np.abs(f.q)
    )
    assert got_b_norm == pytest.approx(want_b_norm, rel=1e-9)
    assert out["c_hat"] == pytest.approx(np.linalg.norm(np.abs(ops.hx), 2), rel=1e-9)


# ------------------------------------------------------------ aggregation


def test_bound_report_full(shape):
    m, n = shape
    a, f = _factored(m, n, seed=950 + m)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=951 + m)
    ops = build_first_order_operators(f.q, f.x)
    rep = bound_report(a, f.q, f.x, da, k=k, eps=eps, ops=ops)
    gate_names = {g.name for g in rep.gates}
    assert {"normwise-smallness", "inverse-dominance", "majorant-x"} <= gate_names
    for name in rep.X_BOUND_FIELDS + rep.Q_BOUND_FIELDS:
        value = getattr(rep, name)
        assert value is not None and value > 0, name
    for name in ("coef_x1", "coef_x2", "coef_x3", "coef_x4", "coef_q1", "coef_q2", "coef_q3"):
        assert getattr(rep, name) > 0


def test_bound_report_gate_failure_keeps_coefficients():
    a, f = _factored(8, 4, seed=970)
    da = 0.9 * a  # enormous perturbation: every smallness gate fails
    ops = build_first_order_operators(f.q, f.x)
    rep = bound_report(a, f.q, f.x, da, k=np.eye(8), eps=0.9, ops=ops)
    assert rep.x_refined is None
    assert rep.x_majorant_root is None
    for name in ("coef_x3", "coef_x4", "coef_q2", "coef_q3"):
        assert np.isfinite(getattr(rep, name))


def test_min_sym_kappa_identity():
    # X = I: both candidates give sqrt(1 + 1) * 1 = sqrt(2)
    x = np.eye(4)
    val, winner = min_sym_kappa(x, x, scaling_candidates(x))
    assert val == pytest.approx(SQRT2, rel=1e-12)
    assert winner in ("identity", "row-norms")


# --------------------------------------------------- norms computed once


def _count_spectral_norm_runs(monkeypatch) -> list[int]:
    """Count power iterations started by ``spectral_norm``.

    ``spectral_norm`` looks ``operator_norm`` up in ``linalg``; the direct
    ``operator_norm`` calls in ``bounds`` (matrix-free products) are not counted.
    """
    count = [0]
    original = linalg_mod.operator_norm

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg_mod, "operator_norm", counting)
    return count


def test_each_distinct_norm_computed_once(monkeypatch):
    """11 distinct operands on the closed-form route, 16 with the operators
    (21 and 32 before the norms were shared); the tightness check reuses
    the report's envelope and |gx|_2."""
    a, f = _factored(20, 10, seed=990)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=991)
    ops = build_first_order_operators(f.q, f.x)
    count = _count_spectral_norm_runs(monkeypatch)

    closed = bound_report(a, f.q, f.x, da, k=k, eps=eps)
    assert count[0] == 11
    count[0] = 0
    full = bound_report(a, f.q, f.x, da, k=k, eps=eps, ops=ops)
    assert count[0] == 16
    count[0] = 0
    shared = tightness_check(ops, f.x, full)
    assert count[0] == 0

    monkeypatch.undo()
    fresh = tightness_check(ops, f.x)
    assert shared == fresh
    assert closed.sym_kappa == full.sym_kappa == shared["envelope"]


def test_context_norms_equal_direct_evaluation():
    """Each norm read from the context is the float a direct ``spectral_norm``
    of its operand gives; the identity candidate shares the unscaled norms."""
    a, f = _factored(20, 10, seed=992)
    xinv = x_inverse(f.x)
    cands = scaling_candidates(f.x)
    assert cands[0].is_identity and not cands[1].is_identity
    norms = FactorNorms(f.q, f.x, xinv, cands)
    abs_x_abs_xinv = np.abs(f.x) @ np.abs(xinv)
    abs_x_xinv = np.abs(f.x) @ xinv
    for i, d in enumerate(cands):
        diag = d.diagonal()
        assert norms.dinv_x(i) == spectral_norm(f.x / diag[:, None])
        assert norms.xinv_d(i) == spectral_norm(xinv * diag[None, :])
        assert norms.q_dinv(i) == spectral_norm(f.q / diag[None, :])
        assert norms.cond_d(i) == spectral_norm(abs_x_abs_xinv * diag[None, :])
        assert norms.abs_x_xinv_d(i) == spectral_norm(abs_x_xinv * diag[None, :])
    assert norms.x_norm == norms.dinv_x(0) == spectral_norm(f.x)
    assert norms.xinv_norm == spectral_norm(xinv)
    assert norms.q_norm == spectral_norm(f.q)
    assert norms.cond_x == spectral_norm(abs_x_abs_xinv)


def test_report_matches_the_standalone_functions():
    a, f = _factored(20, 10, seed=993)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=994, k_mode="ones")
    rep = bound_report(a, f.q, f.x, da, k=k, eps=eps)
    normwise = refined_bounds_normwise(a, f.q, f.x, da)
    comp = comp_refined_bounds(a, f.q, f.x, k, eps)
    assert rep.x_refined == normwise["x_refined"]
    assert rep.q_refined == normwise["q_refined"]
    assert rep.x_comp_info == comp["x_comp_info"]
    assert rep.q_comp == comp["q_comp"]
    xinv = x_inverse(f.x)
    envelope = min_sym_kappa(f.x, xinv, scaling_candidates(f.x))
    assert (rep.sym_kappa, rep.winners["sym_kappa"]) == envelope
    assert gate_comp(f.q, f.x, k, eps) == rep.gate("comp-smallness")


# ------------------------------------------------------------ fault hook


def test_refined_constant_hook_changes_bound(monkeypatch):
    a, f = _factored(8, 4, seed=980)
    da, _, _ = random_centro_perturbation(a, 1e-8, seed=981)
    baseline = refined_bounds_normwise(a, f.q, f.x, da)["x_refined"]
    monkeypatch.setattr(bounds_mod, "REFINED_X_CONSTANT", -REFINED_X_CONSTANT)
    flipped = refined_bounds_normwise(a, f.q, f.x, da)["x_refined"]
    assert flipped == pytest.approx(-baseline, rel=1e-12)
