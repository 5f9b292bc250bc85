"""Perturbation bounds: frozen oracles, action laws, gates, orderings."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import centroqx
import centroqx.bounds as bounds_mod
import centroqx.centro as centro_mod
import centroqx.condnum as condnum_mod
import centroqx.linalg as linalg_mod
import centroqx.qx as qx_mod
from centroqx.bounds import (
    BOUNDS,
    COMP_SMALLNESS_THRESHOLD,
    REFINED_X_CONSTANT,
    SMALLNESS_THRESHOLD,
    BoundReport,
    FactorNorms,
    bound_report,
    build_first_order_operators,
    comp_matvec_bounds,
    majorant,
    make_gate,
    min_comp_product,
    min_q_product,
    min_sym_kappa,
    operator_norms,
    tightness_check,
)
from centroqx.centro import (
    centro_part,
    fold,
    fold_norm,
    random_centro,
    random_centro_perturbation,
)
from centroqx.condnum import cond_upper_bounds, mixed_comp_cond
from centroqx.errors import NotCentrosymmetric, SizeCapExceeded
from centroqx.harness import BOUND_COLUMNS, TrialConfig, run_trial
from centroqx.linalg import frobenius_norm, operator_norm, spectral_norm, vec
from centroqx.qx import qx_decompose
from centroqx.rng import uniform_open
from centroqx.xops import ScalingD, scaling_candidates, upx, xvec
from oracles import fold_half, kron_operators, materialize

SQRT2, SQRT3, SQRT6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)


def _identity_ops():
    return build_first_order_operators(qx_decompose(np.eye(2)))


def _factored(m, n, seed):
    a = random_centro(m, n, seed)
    f = qx_decompose(a)
    return a, f


def _ops(f):
    return build_first_order_operators(f)


def _report(a, f, da, **kwargs):
    return bound_report(a, f, da, **kwargs)


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
    perm = np.eye(4)[[0, 2, 1, 3]]  # vec(E) -> vec(E^T) for 2 x 2 E
    assert np.max(np.abs(ops.gx - fold_half(gx_want))) <= 1e-15
    assert np.max(np.abs(materialize(ops.maps["g"]) - gx_want)) <= 1e-15
    assert np.max(np.abs(materialize(ops.maps["h"]) - 0.5 * np.eye(4))) <= 1e-15
    assert np.max(np.abs(materialize(ops.maps["gq"]) - 0.5 * (np.eye(4) - perm))) <= 1e-15


def test_identity_operator_norms():
    norms = operator_norms(_identity_ops())
    assert norms["g"] == pytest.approx(1.0, abs=1e-12)
    assert norms["h"] == pytest.approx(0.5, abs=1e-12)
    assert norms["gq"] == pytest.approx(1.0, abs=1e-12)


def test_constants():
    assert REFINED_X_CONSTANT == pytest.approx(SQRT6 + SQRT3, rel=1e-15)
    assert SMALLNESS_THRESHOLD == pytest.approx(math.sqrt(1.5) - 1.0, rel=1e-15)
    assert COMP_SMALLNESS_THRESHOLD == pytest.approx(1.0 / (SQRT6 + 2.0), rel=1e-15)


def test_gate_relations_and_lookup():
    with pytest.raises(ValueError, match="unknown relation"):
        make_gate("g", 1.0, 2.0, "!=")
    rep = BoundReport(delta=0.0, eps=None, gates=[make_gate("g", 1.0, 2.0, "<")])
    assert rep.gate("g").satisfied
    assert rep.gate("majorant-x") is None


# ------------------------------------------------------------ action laws


ACTION_SHAPES = [(4, 2), (8, 4), (7, 4), (12, 12), (9, 6), (31, 20), (44, 44)]


def _action_case(m, n, seed):
    """Factors of a random centrosymmetric A, its maps and a perturbation."""
    a, f = _factored(m, n, seed=seed)
    da, _, _ = random_centro_perturbation(a, 1.0, seed=seed + 1)
    return f, _ops(f).maps, da, np.linalg.inv(f.x)


def _assert_action(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("shape", ACTION_SHAPES)
def test_gx_action_law(shape):
    """G_X applied to vec(dA) equals the closed-form first-order X change."""
    m, n = shape
    f, ops, da, xinv = _action_case(m, n, seed=300 + m)
    w = f.q.T @ da @ xinv
    _assert_action(ops["g"].matvec(vec(da)), xvec(upx(w + w.T) @ f.x))


@pytest.mark.parametrize("shape", ACTION_SHAPES)
def test_hx_action_law(shape):
    """H_X applied to vec(E) equals xvec(upx(X^{-T} E X^{-1}) X)."""
    m, n = shape
    f, ops, _, xinv = _action_case(m, n, seed=320 + m)
    e = np.random.default_rng(321 + m).standard_normal((n, n))
    _assert_action(ops["h"].matvec(vec(e)), xvec(upx(xinv.T @ e @ xinv) @ f.x))


@pytest.mark.parametrize("shape", ACTION_SHAPES)
def test_gq_action_law(shape):
    m, n = shape
    f, ops, da, xinv = _action_case(m, n, seed=310 + m)
    w = f.q.T @ da @ xinv
    _assert_action(ops["gq"].matvec(vec(da)), vec(da @ xinv - f.q @ upx(w + w.T)))


@pytest.mark.parametrize("shape", ACTION_SHAPES)
def test_adjoint_identities(shape):
    """<G v, y> = <v, G^T y> for gx, hx and gq, on stacks of three vectors."""
    m, n = shape
    f, ops, _, _ = _action_case(m, n, seed=340 + m)
    rng = np.random.default_rng(341 + m)
    for label, op in ops.items():
        v, y = rng.standard_normal((3, op.cols)), rng.standard_normal((3, op.rows))
        gv, gty = op.forward(v), op.adjoint(y)
        assert gv.shape == y.shape and gty.shape == v.shape, label
        lhs, rhs = np.sum(gv * y, axis=1), np.sum(v * gty, axis=1)
        scale = np.linalg.norm(gv, axis=1) * np.linalg.norm(y, axis=1)
        scale += np.linalg.norm(v, axis=1) * np.linalg.norm(gty, axis=1)
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale), label


@pytest.mark.parametrize("shape", [(4, 2), (9, 6), (20, 10), (31, 20), (44, 44)])
def test_first_order_maps_match_kronecker_oracle(shape):
    """The dense fold half of |gx|, the three maps applied to the identity
    and the rank-one rows of hx (its top tau1/2 rows) equal the Kronecker
    construction to rounding (relative in the Frobenius norm); the fold half
    has the memory order of the oracle's |gx| folded."""
    _, f = _factored(*shape, seed=330 + sum(shape))
    ops = _ops(f)
    gx, hx, gq = kron_operators(f)
    abs_gx = fold_half(np.abs(gx))
    assert ops.gx.shape == abs_gx.shape and ops.gx.strides == abs_gx.strides
    a, u = ops.hx_rows
    rows = np.ldexp(a, ops.e)[:, :, None] * u[:, None, :]
    for label, got, want in (
        ("|gx|", ops.gx, abs_gx),
        ("gx map", materialize(ops.maps["g"]), gx),
        ("hx map", materialize(ops.maps["h"]), hx),
        ("hx rows", rows.reshape(len(a), -1), hx[: len(a)]),
        ("gq map", materialize(ops.maps["gq"]), gq),
    ):
        assert got.shape == want.shape, label
        assert frobenius_norm(got - want) <= 1e-14 * frobenius_norm(want), label


@pytest.mark.parametrize("shape", ACTION_SHAPES)
def test_absolute_maps_are_reversal_invariant(shape):
    """The oracle's |gx|, |hx| and |X^T| kron I_m are centrosymmetric:
    reversing their rows and their columns returns them to 1e-15 of their
    largest entry, so their fold halves carry their norms and products."""
    m, n = shape
    _, f = _factored(m, n, seed=360 + m)
    gx, hx, _ = kron_operators(f)
    for label, mat in (
        ("|gx|", np.abs(gx)),
        ("|hx|", np.abs(hx)),
        ("|X^T| kron I_m", np.kron(np.abs(f.x).T, np.eye(m))),
    ):
        assert np.max(np.abs(mat[::-1, ::-1] - mat)) <= 1e-15 * np.max(mat), label


@pytest.mark.parametrize("shape", [(4, 2), (9, 6), (20, 10), (30, 20)])
def test_folded_rank_one_rows_and_their_gram(shape):
    """The folded rank-one-row map of |hx| is the fold half of the oracle's
    |hx|, and its explicit Gram matrix is F F^T of the map applied to the
    identity."""
    _, f = _factored(*shape, seed=370 + sum(shape))
    ops = _ops(f)
    _, hx, _ = kron_operators(f)
    a, u = (np.abs(r) for r in ops.hx_rows)
    op = bounds_mod._folded_rank_one_rows(a, u, ops.e)
    dense = materialize(op)
    want = fold_half(np.abs(hx))
    assert frobenius_norm(dense - want) <= 1e-14 * frobenius_norm(want)
    gram = np.ldexp(op.gram(), 2 * op.e)
    assert frobenius_norm(gram - dense @ dense.T) <= 1e-14 * frobenius_norm(gram)


@pytest.mark.parametrize("shape", [(9, 6), (20, 10)])
def test_condition_numbers_read_the_half_that_fold_factors(shape):
    """A centrosymmetric only to CENTRO_TOL (its bottom rows, and for odd m
    the second half of its middle row, moved by 1e-13 max|A|) has the
    factors of its exact mirror completion, and the same condition numbers
    bit for bit: neither reads the moved entries."""
    m, n = shape
    p, l = m // 2, n // 2
    a, f = _factored(m, n, seed=380 + m)
    moved = a.copy()
    moved[m - p:] += 1e-13 * np.max(np.abs(a))
    moved[p, l:] += 1e-13 * np.max(np.abs(a)) * (m % 2)
    g = qx_decompose(moved)
    assert np.array_equal(g.q, f.q) and np.array_equal(g.x, f.x)
    assert mixed_comp_cond(moved, _ops(g), g) == mixed_comp_cond(a, _ops(f), f)


@pytest.mark.parametrize("shape", [(4, 2), (9, 6), (20, 10), (44, 44)])
def test_streamed_absolute_products_match_oracle(shape, monkeypatch):
    """|gx| vec|A| and |gq| vec|A|, the latter summed in blocks over the rows
    of X^{-1}, and the exact condition numbers built from them equal the
    dense oracle's to 1e-14 relative."""
    a, f = _factored(*shape, seed=350 + sum(shape))
    gx, _, gq = kron_operators(f)
    responses = []
    original = condnum_mod._mixed_comp
    monkeypatch.setattr(
        condnum_mod, "_mixed_comp", lambda r, fac: responses.append(r) or original(r, fac)
    )
    cond = mixed_comp_cond(a, _ops(f), f)
    w = np.abs(vec(a))
    want_x, want_q = np.abs(gx) @ w, np.abs(gq) @ w
    assert len(responses) == 2
    for got, want in zip(responses, (want_x, want_q)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    want = {
        "mx": np.max(want_x) / np.max(np.abs(xvec(f.x))),
        "cx": np.max(want_x / np.abs(xvec(f.x))),
        "mq": np.max(want_q) / np.max(np.abs(f.q)),
        "cq": np.max(want_q / np.abs(vec(f.q))),
    }
    for name, value in want.items():
        assert getattr(cond, name) == pytest.approx(value, rel=1e-14), name


def test_first_order_exact_on_identity_diagonal():
    """Diagonal perturbations of I leave no quadratic remainder."""
    n = 4
    eps = 1e-6
    f = qx_decompose(np.eye(n))
    ops = _ops(f)
    da = np.diag([eps, 2 * eps, 2 * eps, eps])  # centrosymmetric diagonal
    f2 = qx_decompose(np.eye(n) + da)
    actual = xvec(f2.x - f.x)
    predicted = ops.maps["g"].matvec(vec(da))
    assert np.max(np.abs(actual - predicted)) <= 1e-14


def test_size_cap_enforced():
    """60 x 50 is above the cap; the builder raises before any allocation."""
    a, f = _factored(60, 50, seed=5)
    with pytest.raises(SizeCapExceeded):
        _ops(f)


# ------------------------------------------------------- normwise bounds


def test_refined_identity_example():
    """A = I_2, dA = 1e-8 I: the scaled-kappa bound is 2(sqrt6+sqrt3)e-8."""
    a = np.eye(2)
    f = qx_decompose(a)
    da = 1e-8 * np.eye(2)
    rep = _report(a, f, da)
    want = 2.0 * (SQRT6 + SQRT3) * 1e-8
    assert rep.x_refined == pytest.approx(want, rel=1e-12)


def test_q_operator_identity_example():
    """Identity instance: coefficient (2+sqrt2)*(gq + |X^{-1}|(1+g)) = 3(2+sqrt2)."""
    f = qx_decompose(np.eye(2))
    ops = _ops(f)
    rep = _report(np.eye(2), f, 0.1 * np.eye(2), ops=ops)
    assert rep.delta == pytest.approx(0.1 * SQRT2, rel=1e-15)
    assert rep.coef_q2 == pytest.approx((2.0 + SQRT2) * 3.0, rel=1e-12)
    assert rep.q_operator == rep.coef_q2 * rep.delta


def test_normwise_gate_violation():
    """dA = 0.2 I on A = I_2 exceeds the smallness threshold."""
    a = np.eye(2)
    f = qx_decompose(a)
    da = 0.2 * np.eye(2)
    rep = _report(a, f, da)
    gate = rep.gate("normwise-smallness")
    assert not gate.satisfied
    assert gate.value == pytest.approx(0.2 * SQRT2, rel=1e-12)
    assert rep.gate("normwise-smallness") == gate
    assert rep.gate("inverse-dominance").satisfied
    for name in ("x_refined", "x_relative_a", "x_relative_b", "x_first_order", "q_refined"):
        assert getattr(rep, name) is None, name
    assert rep.coef_x4 > 0.0 and rep.coef_q3 > 0.0


def test_matvec_majorant_frozen_example():
    """g=1, h=1/2, delta=0.1: u=0.105, gate 0.0525, root/twice/linear frozen."""
    quad, lin_gate, root, twice, linear = majorant(0.1, 1.0, 0.5, 0.5, 3.0)
    u = 0.105
    assert quad == pytest.approx(0.0525, rel=1e-12) and quad < 0.25
    assert lin_gate == pytest.approx(0.15, rel=1e-12) and lin_gate < 0.5
    assert twice == pytest.approx(2 * u, rel=1e-12)
    want_root = 2 * u / (1.0 + math.sqrt(1.0 - 4.0 * 0.5 * u))
    assert root == pytest.approx(want_root, rel=1e-12)
    assert root == pytest.approx(0.11118055826844112, rel=1e-12)
    assert linear == pytest.approx(0.3, rel=1e-12)


def test_majorant_gate_fails_for_large_delta():
    """g = 1, h = 1/2 on A = I_2; delta = 0.6 fails both majorant gates."""
    quad, lin_gate, *_ = majorant(0.6, 1.0, 0.5, 0.5, 3.0)
    assert quad >= 0.25 and lin_gate >= 0.5
    f = qx_decompose(np.eye(2))
    rep = _report(np.eye(2), f, 0.3 * SQRT2 * np.eye(2), ops=_ops(f))
    assert rep.delta == pytest.approx(0.6, rel=1e-15)
    assert rep.gate("majorant-x").value == pytest.approx(quad, rel=1e-12)
    assert rep.gate("majorant-x-linear").value == pytest.approx(lin_gate, rel=1e-12)
    assert not rep.gate("majorant-x").satisfied
    assert not rep.gate("majorant-x-linear").satisfied
    assert rep.x_majorant_root is None and rep.x_majorant_twice is None
    assert rep.x_majorant_linear is None and rep.coef_x3 == pytest.approx(3.0, rel=1e-12)


def test_both_operator_routes_solve_one_majorant():
    """The normwise route solves the majorant at t = delta with coefficients
    (g, h, h, 1 + 2g), the entrywise route at t = eps with (a_hat, b_hat,
    c_hat, coef_x1); each gates the values under its own names and relation."""
    a, f = _factored(20, 10, seed=996)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=997, k_mode="ones")
    rep = _report(a, f, da, k=k, eps=eps, ops=_ops(f))
    g, h = rep.g_x_norm, rep.h_x_norm
    comp = (rep.a_hat, rep.b_hat, rep.c_hat, rep.coef_x1)
    routes = (
        (rep.delta, (g, h, h, 1.0 + 2.0 * g), "majorant-x", "<", "x_majorant"),
        (eps, comp, "comp-majorant", "<=", "x_comp_majorant"),
    )
    for t, coeffs, gate, relation, prefix in routes:
        quad, linear, *values = majorant(t, *coeffs)
        gates = [rep.gate(gate), rep.gate(f"{gate}-linear")]
        assert [gs.value for gs in gates] == [quad, linear]
        assert [gs.relation for gs in gates] == [relation] * 2
        assert all(gs.satisfied for gs in gates)
        assert [getattr(rep, f"{prefix}_{kind}") for kind in ("root", "twice", "linear")] == values


@pytest.mark.parametrize("shape", [(8, 4), (20, 10), (12, 12)])
def test_bound_orderings(shape):
    """Chainable bounds must order: relative_a <= relative_b <= refined and
    root <= twice <= linear, on gated instances."""
    m, n = shape
    a, f = _factored(m, n, seed=700 + m)
    da, k, eps = random_centro_perturbation(a, 1e-7, seed=701 + m)
    ops = _ops(f)
    rep = _report(a, f, da, k=k, eps=eps, ops=ops)
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
        ops = _ops(f)
        da, _, _ = random_centro_perturbation(a, 1e-8, seed=801 + m)
        out = tightness_check(_report(a, f, da, ops=ops))
        assert out["g"] == operator_norm(ops.maps["g"])
        assert out["g"] <= out["envelope"] + 1e-10
        assert out["slack"] >= -1e-10


# ----------------------------------------------------- entrywise bounds


def test_comp_gate_and_bounds():
    a, f = _factored(8, 4, seed=900)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=901, k_mode="ones")
    rep = _report(a, f, da, k=k, eps=eps)
    assert rep.gate("comp-smallness").satisfied
    assert rep.x_comp_refined > 0
    assert rep.q_comp > 0
    assert rep.x_comp_combined is not None


def test_comp_gate_violation_withholds_bounds():
    a, f = _factored(8, 4, seed=902)
    k = np.ones((8, 8))
    rep = _report(a, f, 1e-8 * a, k=k, eps=0.5)
    assert not rep.gate("comp-smallness").satisfied
    for name in ("x_comp_refined", "x_comp_combined", "q_comp"):
        assert getattr(rep, name) is None, name
    assert rep.coef_x2 > 0.0 and rep.coef_q1 > 0.0
    assert rep.x_refined is not None  # the normwise gates still hold


def test_comp_matvec_dense_cross_check():
    """The norms taken through the maps' fold halves equal dense Kronecker
    evaluations of |gx|(|X^T| kron I_m), from the fold halves of the
    oracle's |gx| and of |X^T| kron I_m, of |hx|(|X^T| kron |X^T|) and of
    |hx|."""
    m, n = 8, 4
    a, f = _factored(m, n, seed=903)
    ops = _ops(f)
    gx, hx, _ = kron_operators(f)
    k = np.eye(m)
    kq = k @ np.abs(f.q)
    kq_fro = frobenius_norm(kq)
    out = BoundReport(delta=0.0, eps=1e-8)
    comp_matvec_bounds(out, ops, FactorNorms(f), kq, kq_fro)
    absx = np.abs(f.x)
    dense_a = fold_half(np.abs(gx)) @ fold_half(np.kron(absx.T, np.eye(m)))
    dense_b = np.abs(hx) @ np.kron(absx.T, absx.T)
    assert out.a_hat / kq_fro == pytest.approx(np.linalg.norm(dense_a, 2), rel=1e-9)
    want_b_norm = np.linalg.norm(dense_b, 2)
    got_b_norm = out.b_hat / np.linalg.norm(
        np.abs(f.q).T @ k.T @ k @ np.abs(f.q)
    )
    assert got_b_norm == pytest.approx(want_b_norm, rel=1e-9)
    assert out.c_hat == pytest.approx(np.linalg.norm(np.abs(hx), 2), rel=1e-9)


# ------------------------------------------------------------ aggregation


def test_bound_report_full(shape):
    m, n = shape
    a, f = _factored(m, n, seed=950 + m)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=951 + m)
    ops = _ops(f)
    rep = _report(a, f, da, k=k, eps=eps, ops=ops)
    gate_names = {g.name for g in rep.gates}
    assert {"normwise-smallness", "inverse-dominance", "majorant-x"} <= gate_names
    for name in rep.X_BOUND_FIELDS + rep.Q_BOUND_FIELDS:
        value = getattr(rep, name)
        assert value is not None and value > 0, name
    for name in ("coef_x1", "coef_x2", "coef_x3", "coef_x4", "coef_q1", "coef_q2", "coef_q3"):
        assert getattr(rep, name) > 0
    # c_hat norms |hx|, which majorizes hx, so the entrywise majorant stays a bound.
    assert rep.c_hat >= rep.h_x_norm


def test_bound_report_rejects_small_non_centro_perturbation():
    # dA's entries are all below the centrosymmetry tolerance, but it is not
    # centrosymmetric; its norm cannot come from fold halves.
    a = random_centro(4, 2, seed=5)
    f = qx_decompose(a)
    da = 1e-13 * uniform_open(3, 8).reshape(4, 2)
    with pytest.raises(NotCentrosymmetric):
        bound_report(a, f, da)


def test_bound_report_gate_failure_keeps_coefficients():
    a, f = _factored(8, 4, seed=970)
    da = 0.9 * a  # enormous perturbation: every smallness gate fails
    ops = _ops(f)
    rep = _report(a, f, da, k=np.eye(8), eps=0.9, ops=ops)
    assert rep.x_refined is None
    assert rep.x_majorant_root is None
    for name in ("coef_x3", "coef_x4", "coef_q2", "coef_q3"):
        assert np.isfinite(getattr(rep, name))


def test_min_sym_kappa_identity():
    # X = I: both candidates give sqrt(1 + 1) * 1 = sqrt(2)
    val, winner = min_sym_kappa(FactorNorms(qx_decompose(np.eye(4))))
    assert val == pytest.approx(SQRT2, rel=1e-12)
    assert winner in ("identity", "row-norms")


# --------------------------------------------------- norms computed once


def _record_norm_operands(monkeypatch) -> tuple[list, list]:
    """Shapes of the operands of every ``spectral_norm`` call, all made
    through ``centro`` (``halves_norm``, ``nonnegative_norm`` and
    ``fold_norm``), and (rows, cols) of every ``operator_norm`` call."""
    shapes: list[tuple[int, ...]] = []
    maps: list[tuple[int, int]] = []
    original, original_op = linalg_mod.spectral_norm, linalg_mod.operator_norm

    def recording(mat):
        shapes.append(np.shape(mat))
        return original(mat)

    def recording_op(op):
        maps.append((op.rows, op.cols))
        return original_op(op)

    monkeypatch.setattr(centro_mod, "spectral_norm", recording)
    monkeypatch.setattr(bounds_mod, "operator_norm", recording_op)
    return shapes, maps


def test_each_distinct_norm_computed_once(monkeypatch):
    """A closed-form report norms fold halves only: the 4 n x n signed
    X-side operands (D^{-1}X and X^{-1}D under both scalings) two halves
    each, the nonnegative |X||X^{-1}|D under both scalings from its first
    half alone, and dA's two halves; |Q D^{-1}|_2 is a closed-form
    enclosure. That is 12 cheap ``spectral_norm`` calls, none on Q or an m x
    n operand, and no ``operator_norm`` call. The operator route adds the
    first half of the nonnegative |X| to ``spectral_norm`` (13 calls) and
    norms six maps through their actions with ``operator_norm``: gx, hx and
    gq, and the fold halves (tau1/2 rows, half the columns) of the
    nonnegative |hx| and of the two structured products |gx|(|X^T| kron
    I_m) and |hx|(|X^T| kron |X^T|). No array of the size of a map reaches
    ``spectral_norm``. The tightness check reuses the report's envelope and
    |gx|_2."""
    m, n = 20, 10
    a, f = _factored(m, n, seed=990)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=991)
    ops = _ops(f)
    shapes, maps = _record_norm_operands(monkeypatch)

    closed = bound_report(a, f, da, k=k, eps=eps)
    assert len(shapes) == 4 * 2 + 2 + 2 == 12 and maps == []
    assert sorted(shapes) == [(n // 2, n // 2)] * 10 + [(m // 2, n // 2)] * 2
    shapes.clear()
    full = bound_report(a, f, da, k=k, eps=eps, ops=ops)
    assert len(shapes) == 12 + 1 == 13
    assert shapes[12:] == [(n // 2, n // 2)]
    tau1, h = n * (n + 2) // 2, n * (n + 2) // 4
    assert sorted(maps) == sorted(
        [(tau1, m * n), (tau1, n * n), (m * n, m * n)]
        + [(h, n * n // 2), (h, m * n // 2), (h, n * n // 2)]
    )
    shapes.clear()
    maps.clear()
    shared = tightness_check(full)
    assert shapes == [] and maps == []

    monkeypatch.undo()
    envelope, winner = min_sym_kappa(FactorNorms(f))
    g = operator_norm(ops.maps["g"])
    assert shared == {"g": g, "envelope": envelope, "winner": winner, "slack": envelope - g}
    assert closed.sym_kappa == full.sym_kappa == shared["envelope"]


def test_a_report_folds_only_what_has_no_kept_halves(monkeypatch):
    """X and X^{-1} are normed from the kept triangular halves, so a report
    folds |X||X^{-1}| and dA only: 2 ``fold`` calls closed-form, and the
    operator route adds |X|: 3."""
    m, n = 20, 10
    a, f = _factored(m, n, seed=990)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=991, k_mode="ones")
    ops = _ops(f)
    fresh = qx_decompose(a)  # X^{-1} not yet built
    shapes: list[tuple[int, ...]] = []
    original = centro_mod.fold

    def recording(arr, *args, **kwargs):
        shapes.append(np.shape(arr))
        return original(arr, *args, **kwargs)

    for module in (centro_mod, bounds_mod, qx_mod):
        if getattr(module, "fold", None) is original:
            monkeypatch.setattr(module, "fold", recording)
    bound_report(a, fresh, da, k=k, eps=eps)
    assert sorted(shapes) == [(n, n), (m, n)]
    shapes.clear()
    bound_report(a, f, da, k=k, eps=eps, ops=ops)
    assert sorted(shapes) == [(n, n), (n, n), (m, n)]


def _halves_norm(halves) -> float:
    return max(spectral_norm(h) for h in halves)


def test_context_norms_equal_direct_evaluation():
    """Each X-side norm read from the context is the float the norms of its
    operand's scaled fold halves give: X's halves are (R_f, R_g), X^{-1}'s
    their inverses, and D scales them by its half-diagonal delta (rows for
    D^{-1}X, columns for the rest). Each is within 1e-13 of numpy's SVD of
    the full operand and within 1e-14 of ``fold_norm`` of it; |Q D^{-1}|_2
    is an upper enclosure no more than 1e-13 above numpy. The identity
    candidate shares the unscaled norms."""
    a, f = _factored(20, 10, seed=992)
    xinv = f.xinv
    norms = FactorNorms(f)
    cands = norms.cands
    assert [d.diagonal().tolist() for d in cands] == [
        d.diagonal().tolist() for d in scaling_candidates(f.x)
    ]
    assert np.all(cands[0].delta == 1) and not np.all(cands[1].delta == 1)
    abs_x_abs_xinv = centro_part(np.abs(f.x) @ np.abs(xinv))
    for i, d in enumerate(cands):
        diag, delta = d.diagonal(), d.delta
        cases = {
            "dinv_x": (f.x / diag[:, None], [h / delta[:, None] for h in (f.rf, f.rg)]),
            "xinv_d": (xinv * diag[None, :], [h * delta[None, :] for h in f.xinv_halves]),
            "cond_d": (
                abs_x_abs_xinv * diag[None, :],
                [h * delta[None, :] for h in fold(abs_x_abs_xinv)],
            ),
        }
        for name, (operand, scaled) in cases.items():
            got = getattr(norms, name)[i]
            want = np.linalg.norm(operand, 2)
            assert got == _halves_norm(scaled), name
            assert abs(got - want) <= 1e-13 * want, name
            assert abs(got - fold_norm(operand)) <= 1e-14 * got, name
        want = np.linalg.norm(f.q / diag[None, :], 2)
        assert want <= norms.q_dinv[i] <= want * (1.0 + 1e-13)
    assert norms.x_norm == norms.dinv_x[0] == _halves_norm((f.rf, f.rg))
    assert norms.xinv_norm == _halves_norm(f.xinv_halves)
    assert norms.q_norm == norms.q_dinv[0]
    assert norms.cond_x == _halves_norm(fold(abs_x_abs_xinv))


def test_report_matches_the_direct_formulas():
    """Each shared quantity is the float its direct evaluation gives:
    |Q^T dA X^{-1}|_F, ||Q^T| K |Q||_F and |K |Q||_F enter the report once,
    and the values built from them equal the closed forms bit for bit."""
    a, f = _factored(20, 10, seed=993)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=994, k_mode="ones")
    xinv = f.xinv
    rep = bound_report(a, f, da, k=k, eps=eps)
    norms = FactorNorms(f)
    delta = frobenius_norm(da)
    q_norm = norms.q_norm
    msym, msym_winner = min_sym_kappa(norms)
    mq, _ = min_q_product(norms)
    mcomp, _ = min_comp_product(norms)
    projected = frobenius_norm(f.q.T @ da @ xinv)
    qtkq = frobenius_norm(np.abs(f.q.T) @ k @ np.abs(f.q))
    kq_fro = frobenius_norm(k @ np.abs(f.q))
    cond_x = norms.cond_x

    assert (rep.sym_kappa, rep.winners["sym_kappa"]) == (msym, msym_winner)
    assert rep.x_refined == REFINED_X_CONSTANT * msym * q_norm * delta
    assert rep.q_refined == (
        bounds_mod.REFINED_Q_CONSTANT_A * mq * q_norm * delta
        + bounds_mod.REFINED_Q_CONSTANT_B * projected
    )
    assert rep.gate("normwise-smallness") == make_gate(
        "normwise-smallness", projected, SMALLNESS_THRESHOLD, "<="
    )
    assert rep.gate("normwise-smallness").value == projected
    assert rep.gate("comp-smallness").value == qtkq * cond_x * eps
    assert rep.q_comp == bounds_mod.COMP_Q_CONSTANT * qtkq * cond_x * eps
    assert rep.x_comp_refined == bounds_mod.COMP_X_CONSTANT * mcomp * qtkq * eps
    assert rep.gate("comp-combined-smallness").value == cond_x * kq_fro * eps
    assert rep.x_comp_combined == bounds_mod.COMP_COMBINED_CONSTANT * mcomp * kq_fro * eps


# ------------------------------------------------------------ homogeneity

SCALE_BASE = random_centro(20, 10, 3)
SCALE_DA, SCALE_K, SCALE_EPS = random_centro_perturbation(SCALE_BASE, 1e-8, seed=4)


# Degree of each reported number in the scale of A: 2**j A reports it times
# 2**(degree * j). Every ``x_`` name (X bounds and |X|_2) has degree +1.
DEGREE_PLUS = {"delta", "a_hat", "b_hat", "coef_x1", "coef_x2"}
DEGREE_MINUS = {"xinv_norm", "h_x_norm", "g_q_norm", "c_hat", "coef_q2", "coef_q3"}


def _degree(name: str) -> int:
    if name in DEGREE_PLUS or name.startswith("x_"):
        return 1
    return -1 if name in DEGREE_MINUS else 0


def _scaled_values(j: int, with_ops: bool) -> dict[str, tuple[float, int]]:
    """Every number reported for (2**j A, 2**j dA), each with its degree: the
    float fields of the bound report, its gate values, the condition-number
    upper bounds and, with operators, the exact condition numbers."""
    s = 2.0**j
    a = s * SCALE_BASE
    f = qx_decompose(a)
    ops = _ops(f) if with_ops else None
    rep = bound_report(a, f, s * SCALE_DA, k=SCALE_K, eps=SCALE_EPS, ops=ops)
    values = {
        field.name: getattr(rep, field.name)
        for field in dataclasses.fields(BoundReport)
        if field.name not in ("gates", "winners")
    }
    values.update((f"gate {g.name}", g.value) for g in rep.gates)
    values.update(cond_upper_bounds(a, f))
    if with_ops:
        cond = mixed_comp_cond(a, ops, f)
        values.update(
            (field.name, getattr(cond, field.name))
            for field in dataclasses.fields(cond)
            if isinstance(getattr(cond, field.name), float)
        )
    return {name: (value, _degree(name)) for name, value in values.items()}


def _assert_homogeneous(j: int, with_ops: bool) -> None:
    base = _scaled_values(0, with_ops)
    scaled = _scaled_values(j, with_ops)
    assert scaled.keys() == base.keys()
    for name, (got, degree) in scaled.items():
        want = base[name][0]
        if want is None:
            assert got is None, name
        else:
            assert got == pytest.approx(want * 2.0 ** (degree * j), rel=1e-12), name


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
@example(-900)
@example(-600)
@example(600)
@example(900)
def test_closed_form_report_is_homogeneous(j):
    """Unscaled row norms of X made the scaling candidates raise ZeroRow at
    2**-600 and 2**-900 and a non-finite half-diagonal at 2**600 and 2**900."""
    _assert_homogeneous(j, with_ops=False)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
@example(-520)
@example(-300)
@example(300)
@example(1000)
def test_operator_report_is_homogeneous(j):
    """An unscaled kron(X^{-1}, X^{-1}) overflowed at 2**-520 and went
    subnormal at 2**1000, moving ``x_majorant_root``. The unscaled callback
    norms raised NoConvergence at 2**±300."""
    _assert_homogeneous(j, with_ops=True)


# --------------------------------------------------------- bound registry

TODAYS_BOUND_HEADER = (
    "row,m,n,eps,eps_eff,delta_a,delta_x,delta_q,qt_delta_q,kappa2,cond_x,"
    "x_refined,x_relative_a,x_relative_b,x_first_order,"
    "x_majorant_root,x_majorant_twice,x_majorant_linear,"
    "x_comp_refined,x_comp_combined,"
    "x_comp_majorant_root,x_comp_majorant_twice,x_comp_majorant_linear,"
    "x_comp_first_order,q_refined,q_operator,q_comp,"
    "coef_x1,coef_x2,coef_x3,coef_x4,coef_q1,coef_q2,coef_q3,"
    "gates_ok,domination_ok,operators_skipped,error"
)


def test_bound_registry_is_consistent():
    fields = {f.name for f in dataclasses.fields(BoundReport)}
    names = [b.name for b in BOUNDS]
    assert len(set(names)) == len(names) and set(names) <= fields
    assert {b.target for b in BOUNDS} == {"x", "q", None}
    assert ",".join(BOUND_COLUMNS) == TODAYS_BOUND_HEADER
    assert BoundReport.X_BOUND_FIELDS == (
        "x_refined", "x_relative_a", "x_relative_b",
        "x_majorant_root", "x_majorant_twice", "x_majorant_linear",
        "x_comp_refined", "x_comp_combined",
        "x_comp_majorant_root", "x_comp_majorant_twice", "x_comp_majorant_linear",
    )
    assert BoundReport.Q_BOUND_FIELDS == ("q_refined", "q_operator", "q_comp")
    # A full report (entrywise model and operators) emits every gate there is.
    a, f = _factored(8, 4, seed=960)
    da, k, eps = random_centro_perturbation(a, 1e-8, seed=961, k_mode="ones")
    rep = _report(a, f, da, k=k, eps=eps, ops=_ops(f))
    emitted = [g.name for g in rep.gates]
    assert len(set(emitted)) == len(emitted)
    assert {g for b in BOUNDS for g in b.gates} <= set(emitted)


GUARD_TRIALS = [
    TrialConfig(m=m, n=n, scale=scale, seed=seed, k_mode=k_mode, with_operators=with_ops)
    for m, n, seed in ((8, 4, 1), (20, 10, 0))
    for scale in (0.9, 1e-2, 1e-3, 1e-8)
    for k_mode in ("identity", "ones")
    for with_ops in (True, False)
]


def test_a_bound_is_reported_exactly_when_its_gates_hold():
    """Over small to huge perturbations, with and without the operator route,
    each registry bound is None whenever one of its gates is unsatisfied or
    absent, and present whenever all of its (non-empty) gates hold."""
    withheld = reported = 0
    for cfg in GUARD_TRIALS:
        rec = run_trial(cfg)
        assert rec.error is None, rec.error
        held = {g.name: g.satisfied for g in rec.report.gates}
        for bound in BOUNDS:
            value = getattr(rec.report, bound.name)
            if not all(held.get(g, False) for g in bound.gates):
                assert value is None, (cfg, bound.name)
                withheld += 1
            elif bound.gates:
                assert value is not None, (cfg, bound.name)
                reported += 1
    assert withheld > 0 and reported > 0


@pytest.mark.parametrize(
    "m, n, scale, seed, k_mode", [(8, 4, 1e-2, 1, "ones"), (20, 10, 1e-3, 0, "identity")]
)
def test_comp_majorant_linear_has_its_own_gate(m, n, scale, seed, k_mode):
    """comp-majorant holds and comp-majorant-linear fails: the root bound is
    reported and the linear one withheld."""
    rep = run_trial(TrialConfig(m=m, n=n, scale=scale, seed=seed, k_mode=k_mode)).report
    assert rep.gate("comp-majorant").satisfied
    assert not rep.gate("comp-majorant-linear").satisfied
    assert rep.x_comp_majorant_root is not None
    assert rep.x_comp_majorant_linear is None


def test_no_optional_xinv_or_cands_parameters():
    """X^{-1} is computed once by the caller and the scaling candidates by
    ``FactorNorms``: no package function takes ``xinv=None`` or ``cands``."""
    offenders = []
    for path in sorted(Path(centroqx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
            for arg, default in list(zip(positional, defaults)) + list(
                zip(args.kwonlyargs, args.kw_defaults)
            ):
                optional = isinstance(default, ast.Constant) and default.value is None
                if arg.arg == "cands" or (arg.arg == "xinv" and optional):
                    offenders.append(f"{path.name}:{node.lineno} {arg.arg}")
    assert offenders == []


def test_x_inverse_is_read_from_the_factors():
    """X^{-1} is ``QxFactors.xinv``: no package function takes an ``xinv``
    parameter, and no module but ``qx`` calls ``x_inverse``."""
    offenders = []
    for path in sorted(Path(centroqx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "xinv" in [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]:
                    offenders.append(f"{path.name}:{node.lineno} takes xinv")
            elif isinstance(node, ast.Call) and path.name != "qx.py":
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "x_inverse":
                    offenders.append(f"{path.name}:{node.lineno} calls x_inverse")
    assert offenders == []


def test_factor_norms_are_set_once_as_candidate_pairs():
    """Every norm a report reads is set in ``FactorNorms.__init__``: the
    scaled norms are (identity, row-norms) pairs of floats and the unscaled
    ones their ``[0]`` entries. There is no lazy cache, no separate normwise
    gate and no identity test on a scaling, and K is an argument of
    ``bound_report`` only (every other consumer takes K|Q|)."""
    _, f = _factored(8, 4, seed=996)
    norms = vars(FactorNorms(f))
    for name in ("dinv_x", "xinv_d", "cond_d", "q_dinv"):
        pair = norms[name]
        assert type(pair) is tuple and len(pair) == 2, name
        assert all(isinstance(v, float) for v in pair), name
    for name, pair in (("x_norm", "dinv_x"), ("xinv_norm", "xinv_d"),
                       ("cond_x", "cond_d"), ("q_norm", "q_dinv")):
        assert norms[name] == norms[pair][0], name
    assert not hasattr(FactorNorms, "_norm") and "_norms" not in norms
    assert not hasattr(bounds_mod, "gate_normwise")
    assert not hasattr(ScalingD, "is_identity")
    source = Path(bounds_mod.__file__).read_text(encoding="utf-8")
    assert "cached_property" not in source
    takes_k = [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and "k" in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    ]
    assert takes_k == ["bound_report"]


# ------------------------------------------------------------ fault hook


def test_refined_constant_hook_changes_bound(monkeypatch):
    a, f = _factored(8, 4, seed=980)
    da, _, _ = random_centro_perturbation(a, 1e-8, seed=981)
    baseline = _report(a, f, da).x_refined
    monkeypatch.setattr(bounds_mod, "REFINED_X_CONSTANT", -REFINED_X_CONSTANT)
    flipped = _report(a, f, da).x_refined
    assert flipped == pytest.approx(-baseline, rel=1e-12)
