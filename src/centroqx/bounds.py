"""Rigorous perturbation bounds for the factors of the QX factorization.

Two routes are implemented for the X factor and the Q factor, each under two
perturbation models:

- *refined* bounds evaluate closed-form expressions minimized over a list of
  palindromic diagonal scalings (identity and row norms of X);
- *operator* bounds build the dense first-order maps ``gx`` (perturbation of
  A to the support entries of the X perturbation), ``hx`` (quadratic-term
  map), and ``gq`` (perturbation of A to the Q perturbation) and evaluate
  majorant-equation bounds from their spectral norms.

The perturbation models are normwise (``delta = |dA|_F``) and entrywise
(``|dA| <= eps * K |A|`` for a nonnegative ``K``). Every bound is only
claimed under an explicit smallness gate; gate status objects record the
value, threshold, and comparison used so callers can report applicability
instead of silently emitting vacuous numbers.

All minimizations record which scaling candidate won. Within one report
each distinct spectral norm is computed once (``FactorNorms``). Spectral
norms of operator products with Kronecker structure are evaluated
matrix-free through power iteration to keep the memory footprint at one
dense operator per map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import GateViolated, SizeCapExceeded
from .linalg import (
    POWER_TOL,
    as_matrix,
    frobenius_norm,
    operator_norm,
    spectral_norm,
    vec,
    vec_perm_indices,
)
from .qx import x_inverse
from .xops import ScalingD, build_operator_matrices, scaling_candidates, varsigma

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# Prefactors of the closed-form bounds. Module-level on purpose: the
# self-check harness reads them at call time, so a test can patch one and
# confirm that a wrong constant is caught by the domination sweep.
REFINED_X_CONSTANT = SQRT6 + SQRT3
REFINED_Q_CONSTANT_A = 2.0 * SQRT2 + 2.0
REFINED_Q_CONSTANT_B = 2.0 * SQRT3 + SQRT6
OPERATOR_Q_CONSTANT = 2.0 + SQRT2
COMP_X_CONSTANT = SQRT3 + SQRT6
COMP_Q_CONSTANT = SQRT6 + 2.0 + 2.0 * SQRT2 + 2.0 * SQRT3
COMP_COMBINED_CONSTANT = SQRT6 + SQRT3

SMALLNESS_THRESHOLD = math.sqrt(1.5) - 1.0
COMP_SMALLNESS_THRESHOLD = 1.0 / (SQRT6 + 2.0)

OPERATOR_SIZE_CAP = 2500


@dataclass(frozen=True)
class GateStatus:
    """One applicability condition: ``value <relation> threshold``."""

    name: str
    value: float
    threshold: float
    relation: str  # "<", "<=", or ">="
    satisfied: bool

    def describe(self) -> str:
        mark = "ok" if self.satisfied else "VIOLATED"
        return f"{self.name}: {self.value:.6e} {self.relation} {self.threshold:.6e} [{mark}]"


def make_gate(name: str, value: float, threshold: float, relation: str) -> GateStatus:
    if relation == "<":
        ok = value < threshold
    elif relation == "<=":
        ok = value <= threshold
    elif relation == ">=":
        ok = value >= threshold
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return GateStatus(name, float(value), float(threshold), relation, bool(ok))


class FactorNorms:
    """Spectral norms of one factorization's operands, each computed once.

    ``bound_report`` builds one per call from (Q, X, X^{-1}, candidates) and
    drops it on return. A norm is computed on first use and kept as a float;
    besides the factors the context holds only the two n x n products
    ``|X||X^{-1}|`` and ``|X| X^{-1}`` that the entrywise bounds norm under
    every scaling. The identity candidate's scaled operands are the unscaled
    ones bit for bit (``x / 1.0 == x``), so it shares their norms.
    """

    def __init__(
        self, q, x, xinv: Optional[np.ndarray] = None, cands: Optional[list[ScalingD]] = None
    ) -> None:
        self.q = None if q is None else as_matrix(q, "Q factor")
        self.x = as_matrix(x, "X factor")
        self.xinv = x_inverse(self.x) if xinv is None else xinv
        if cands is not None:
            self.cands = cands
        self._norms: dict[tuple[str, int], float] = {}

    @cached_property
    def cands(self) -> list[ScalingD]:
        return scaling_candidates(self.x)

    @cached_property
    def abs_x_abs_xinv(self) -> np.ndarray:
        return np.abs(self.x) @ np.abs(self.xinv)

    @cached_property
    def abs_x_xinv(self) -> np.ndarray:
        return np.abs(self.x) @ self.xinv

    def _norm(
        self, name: str, i: int, base: np.ndarray,
        scale: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> float:
        """``|scale(base, diag)|_2`` for candidate ``i``; ``i = -1`` norms ``base``."""
        if i >= 0 and self.cands[i].is_identity:
            i = -1
        key = (name, i)
        if key not in self._norms:
            operand = base if i < 0 else scale(base, self.cands[i].diagonal())
            self._norms[key] = spectral_norm(operand)
        return self._norms[key]

    def dinv_x(self, i: int) -> float:
        """``|D^{-1} X|_2``."""
        return self._norm("dinv_x", i, self.x, lambda m, d: m / d[:, None])

    def xinv_d(self, i: int) -> float:
        """``|X^{-1} D|_2``."""
        return self._norm("xinv_d", i, self.xinv, lambda m, d: m * d[None, :])

    def q_dinv(self, i: int) -> float:
        """``|Q D^{-1}|_2``."""
        return self._norm("q_dinv", i, self.q, lambda m, d: m / d[None, :])

    def cond_d(self, i: int) -> float:
        """``||X||X^{-1}|D|_2``."""
        return self._norm("cond_d", i, self.abs_x_abs_xinv, lambda m, d: m * d[None, :])

    def abs_x_xinv_d(self, i: int) -> float:
        """``||X| X^{-1} D|_2``."""
        return self._norm("abs_x_xinv_d", i, self.abs_x_xinv, lambda m, d: m * d[None, :])

    @property
    def q_norm(self) -> float:
        return self.q_dinv(-1)

    @property
    def x_norm(self) -> float:
        return self.dinv_x(-1)

    @property
    def xinv_norm(self) -> float:
        return self.xinv_d(-1)

    @property
    def cond_x(self) -> float:
        """``||X||X^{-1}||_2``."""
        return self.cond_d(-1)


def _minimize(
    cands: list[ScalingD], value_fn: Callable[[int, ScalingD], float]
) -> tuple[float, str]:
    best = math.inf
    label = "identity"
    for i, d in enumerate(cands):
        v = float(value_fn(i, d))
        if v < best:
            best = v
            label = "identity" if d.is_identity else "row-norms"
    return best, label


def min_sym_kappa(
    x, xinv, cands: list[ScalingD], norms: Optional[FactorNorms] = None
) -> tuple[float, str]:
    """Minimized ``sqrt(1 + varsigma_D^2) * kappa2(D^{-1} X)``.

    ``norms``, the context of the same X, X^{-1} and candidates, lends the
    norms already computed for the factorization.
    """
    ctx = FactorNorms(None, x, xinv, cands) if norms is None else norms
    return _minimize(
        ctx.cands,
        lambda i, d: math.sqrt(1.0 + varsigma(d) ** 2) * ctx.dinv_x(i) * ctx.xinv_d(i),
    )


def min_q_product(
    q, x, xinv, cands: list[ScalingD], norms: Optional[FactorNorms] = None
) -> tuple[float, str]:
    """Minimized ``|Q D^{-1}|_2 * |X^{-1} D|_2`` (``norms`` as in ``min_sym_kappa``)."""
    ctx = FactorNorms(q, x, xinv, cands) if norms is None else norms
    return _minimize(ctx.cands, lambda i, d: ctx.q_dinv(i) * ctx.xinv_d(i))


def min_comp_product(
    x, xinv, cands: list[ScalingD], norms: Optional[FactorNorms] = None
) -> tuple[float, str]:
    """Minimized ``sqrt(1 + varsigma_D^2) * ||X||X^{-1}|D|_2 * |D^{-1} X|_2``.

    ``norms`` as in ``min_sym_kappa``.
    """
    ctx = FactorNorms(None, x, xinv, cands) if norms is None else norms
    return _minimize(
        ctx.cands,
        lambda i, d: math.sqrt(1.0 + varsigma(d) ** 2) * ctx.cond_d(i) * ctx.dinv_x(i),
    )


def gate_normwise(q, x, da, xinv: Optional[np.ndarray] = None) -> GateStatus:
    """Smallness gate on the projected perturbation ``|Q^T dA X^{-1}|_F``."""
    qa = as_matrix(q, "Q factor")
    xa = as_matrix(x, "X factor")
    daa = as_matrix(da, "perturbation")
    xi = x_inverse(xa) if xinv is None else xinv
    value = frobenius_norm(qa.T @ daa @ xi)
    return make_gate("normwise-smallness", value, SMALLNESS_THRESHOLD, "<=")


def _inverse_dominance_gate(da_norm: float, xinv_norm: float) -> GateStatus:
    return make_gate("inverse-dominance", da_norm * xinv_norm, 1.0, "<")


def gate_inverse_dominance(x, da, xinv: Optional[np.ndarray] = None) -> GateStatus:
    """Perturbation smaller than the inverse's reach: ``|dA|_2 |X^{-1}|_2 < 1``."""
    return _inverse_dominance_gate(
        spectral_norm(as_matrix(da, "perturbation")), FactorNorms(None, x, xinv).xinv_norm
    )


def _refined_normwise_values(a, da, norms: FactorNorms) -> dict:
    aa = as_matrix(a, "matrix")
    daa = as_matrix(da, "perturbation")
    qa, xa, xinv = norms.q, norms.x, norms.xinv
    delta = frobenius_norm(daa)
    q_norm = norms.q_norm
    x_norm = norms.x_norm
    xinv_norm = norms.xinv_norm
    kappa2 = x_norm * xinv_norm
    projected = frobenius_norm(qa.T @ daa @ xinv)

    msym, msym_winner = min_sym_kappa(xa, xinv, norms.cands, norms)
    mq, mq_winner = min_q_product(qa, xa, xinv, norms.cands, norms)

    x_refined = REFINED_X_CONSTANT * msym * q_norm * delta
    x_first_order = msym * q_norm * delta
    q_refined = REFINED_Q_CONSTANT_A * mq * q_norm * delta + REFINED_Q_CONSTANT_B * projected

    # Relative forms share a denominator whose radicand must stay nonnegative.
    a_fro = frobenius_norm(aa)
    t = kappa2 * delta / x_norm if x_norm > 0 else math.inf
    radicand = 1.0 - 4.0 * t - 2.0 * t * t
    rad_gate = make_gate("relative-radicand", radicand, 0.0, ">=")
    x_relative_a = x_relative_b = None
    if rad_gate.satisfied and a_fro > 0.0:
        den = SQRT2 - 1.0 + math.sqrt(radicand)
        qt_da = frobenius_norm(qa.T @ daa)
        num_a = SQRT2 * msym * (qt_da / a_fro + kappa2 * delta**2 / x_norm**2)
        num_b = SQRT3 * msym * (delta / x_norm)
        x_relative_a = x_norm * num_a / den
        x_relative_b = x_norm * num_b / den

    return {
        "delta": delta,
        "q_norm": q_norm,
        "x_norm": x_norm,
        "xinv_norm": xinv_norm,
        "kappa2": kappa2,
        "projected": projected,
        "min_sym_kappa": msym,
        "min_sym_kappa_winner": msym_winner,
        "min_q_product": mq,
        "min_q_product_winner": mq_winner,
        "x_refined": x_refined,
        "x_first_order": x_first_order,
        "q_refined": q_refined,
        "radicand_gate": rad_gate,
        "x_relative_a": x_relative_a,
        "x_relative_b": x_relative_b,
    }


def refined_bounds_normwise(
    a, q, x, da, cands: Optional[list[ScalingD]] = None, xinv: Optional[np.ndarray] = None
) -> dict:
    """Closed-form normwise bounds for both factors.

    Raises ``GateViolated`` when the smallness gate or the inverse-dominance
    precondition fails; the relative-form values are ``None`` (with their
    radicand gate recorded) when the shared radicand goes negative.
    """
    norms = FactorNorms(q, x, xinv, cands)
    daa = as_matrix(da, "perturbation")
    g1 = _inverse_dominance_gate(spectral_norm(daa), norms.xinv_norm)
    g2 = gate_normwise(norms.q, norms.x, daa, norms.xinv)
    for g in (g1, g2):
        if not g.satisfied:
            raise GateViolated(g.describe())
    out = _refined_normwise_values(a, daa, norms)
    out["gates"] = [g1, g2, out.pop("radicand_gate")]
    return out


@dataclass
class FirstOrderOperators:
    """Dense first-order maps from vec(dA) to the factor perturbations.

    ``gx`` (tau1 x mn) sends vec(dA) to the support entries of the
    first-order X perturbation, ``hx`` (tau1 x n^2) is the quadratic-term
    map on vec-space, and ``gq`` (mn x mn) sends vec(dA) to vec of the
    first-order Q perturbation.
    """

    m: int
    n: int
    gx: np.ndarray
    hx: np.ndarray
    gq: np.ndarray


def _columns_right_multiply(s: np.ndarray, factor: np.ndarray, rows: int) -> np.ndarray:
    """Map each column vec(C) of ``s`` to vec(C @ factor)."""
    k = s.shape[1]
    cube = s.reshape(rows, -1, k, order="F")
    out = np.einsum("ijk,jl->ilk", cube, factor)
    return out.reshape(rows * factor.shape[1], k, order="F")


def _columns_left_multiply(s: np.ndarray, factor: np.ndarray, rows: int) -> np.ndarray:
    """Map each column vec(C) of ``s`` to vec(factor @ C)."""
    k = s.shape[1]
    cube = s.reshape(rows, -1, k, order="F")
    out = np.einsum("ij,jlk->ilk", factor, cube)
    return out.reshape(factor.shape[0] * cube.shape[1], k, order="F")


def build_first_order_operators(
    q, x, xinv: Optional[np.ndarray] = None, cap: int = OPERATOR_SIZE_CAP
) -> FirstOrderOperators:
    """Assemble the dense first-order operators for one factorization.

    Raises ``SizeCapExceeded`` when ``m*n`` exceeds ``cap`` (the maps cost
    O((mn)^2) memory).
    """
    qa = as_matrix(q, "Q factor")
    xa = as_matrix(x, "X factor")
    m, n = qa.shape
    if m * n > cap:
        raise SizeCapExceeded(f"m*n = {m * n} exceeds the operator cap {cap}")
    xi = x_inverse(xa) if xinv is None else xinv
    ops = build_operator_matrices(n)
    xit = xi.T

    s = np.kron(xit, qa.T)
    s += np.kron(qa.T, xit)[:, vec_perm_indices(m, n)]
    s *= ops.half_weights[:, None]

    gx = _columns_right_multiply(s, xa, n)[ops.indices, :]

    h = np.kron(xit, xit) * ops.half_weights[:, None]
    hx = _columns_right_multiply(h, xa, n)[ops.indices, :]

    gq = np.kron(xit, np.eye(m))
    gq -= _columns_left_multiply(s, qa, n)

    return FirstOrderOperators(m=m, n=n, gx=gx, hx=hx, gq=gq)


def operator_norms(
    ops: FirstOrderOperators, tol: float = POWER_TOL, max_iter: Optional[int] = None
) -> dict[str, float]:
    """Spectral norms of the three first-order maps."""
    return {
        "g": spectral_norm(ops.gx, tol, max_iter),
        "h": spectral_norm(ops.hx, tol, max_iter),
        "gq": spectral_norm(ops.gq, tol, max_iter),
    }


def matvec_bounds_normwise(
    ops: FirstOrderOperators,
    delta: float,
    g: Optional[float] = None,
    h: Optional[float] = None,
) -> dict:
    """Majorant-equation bounds on ``|dX|_F`` from the operator norms.

    Returns the quadratic-root bound, its doubled linearization, and the
    fully linear form, each guarded by its gate; values are ``None`` when
    the guarding gate fails.
    """
    if g is None:
        g = spectral_norm(ops.gx)
    if h is None:
        h = spectral_norm(ops.hx)
    u = g * delta + h * delta * delta
    gate_major = make_gate("majorant-x", h * u, 0.25, "<")
    gate_linear = make_gate("majorant-x-linear", h * (1.0 + 2.0 * g) * delta, 0.5, "<")
    x_root = x_twice = x_linear = None
    if gate_major.satisfied:
        x_root = 2.0 * u / (1.0 + math.sqrt(1.0 - 4.0 * h * u))
        x_twice = 2.0 * u
    if gate_linear.satisfied:
        x_linear = (1.0 + 2.0 * g) * delta
    return {
        "g": g,
        "h": h,
        "gates": [gate_major, gate_linear],
        "x_majorant_root": x_root,
        "x_majorant_twice": x_twice,
        "x_majorant_linear": x_linear,
        "coef_x3": 1.0 + 2.0 * g,
    }


def _q_operator_bound(
    delta: float, g: float, gq_norm: float, xinv_norm: float, q_norm: float
) -> dict:
    coef = OPERATOR_Q_CONSTANT * (gq_norm + xinv_norm * q_norm * (1.0 + g))
    return {"gq": gq_norm, "q_operator": coef * delta, "coef_q2": coef}


def matvec_bound_q(ops: FirstOrderOperators, q, x, delta: float) -> dict:
    """Operator-route bound on ``|dQ|_F``.

    ``(2 + sqrt2) * (|gq|_2 + |X^{-1}|_2 |Q|_2 (1 + |gx|_2)) * delta``; the
    Kronecker factor's norm is the product of the factor norms.
    """
    norms = FactorNorms(q, x)
    return _q_operator_bound(
        delta, spectral_norm(ops.gx), spectral_norm(ops.gq), norms.xinv_norm, norms.q_norm
    )


def _comp_gate(k, eps: float, norms: FactorNorms) -> GateStatus:
    qa = norms.q
    qtkq = frobenius_norm(np.abs(qa.T) @ as_matrix(k, "entrywise weight") @ np.abs(qa))
    return make_gate(
        "comp-smallness", qtkq * norms.cond_x * eps, COMP_SMALLNESS_THRESHOLD, "<"
    )


def gate_comp(q, x, k, eps: float, xinv: Optional[np.ndarray] = None) -> GateStatus:
    """Entrywise-model smallness gate ``||Q^T| K |Q||_F cond(X) eps``."""
    return _comp_gate(k, eps, FactorNorms(q, x, xinv))


def _comp_refined_values(k, eps: float, norms: FactorNorms) -> dict:
    qa, xa, xinv = norms.q, norms.x, norms.xinv
    ka = as_matrix(k, "entrywise weight")
    absq = np.abs(qa)
    qtkq = frobenius_norm(absq.T @ ka @ absq)
    kq_fro = frobenius_norm(ka @ absq)
    cond_x = norms.cond_x

    mcomp, mcomp_winner = min_comp_product(xa, xinv, norms.cands, norms)
    x_comp_refined = COMP_X_CONSTANT * mcomp * qtkq * eps
    q_comp = COMP_Q_CONSTANT * qtkq * cond_x * eps

    # Informational looser form: |X| X^{-1} D (absolute value on X only).
    def info_value(i: int, d: ScalingD) -> float:
        factor = math.sqrt(2.0 + 2.0 * varsigma(d) ** 2) + (SQRT3 - SQRT2)
        return norms.abs_x_xinv_d(i) * factor

    minfo, minfo_winner = _minimize(norms.cands, info_value)
    x_comp_info = minfo * qtkq * eps / (SQRT2 - 1.0)

    gate_combined = make_gate(
        "comp-combined-smallness", cond_x * kq_fro * eps, SMALLNESS_THRESHOLD, "<="
    )
    x_comp_combined = None
    if gate_combined.satisfied:
        x_comp_combined = COMP_COMBINED_CONSTANT * mcomp * kq_fro * eps

    return {
        "qtkq_fro": qtkq,
        "kq_fro": kq_fro,
        "cond_x": cond_x,
        "min_comp_product": mcomp,
        "min_comp_product_winner": mcomp_winner,
        "min_info_winner": minfo_winner,
        "x_comp_refined": x_comp_refined,
        "x_comp_info": x_comp_info,
        "q_comp": q_comp,
        "combined_gate": gate_combined,
        "x_comp_combined": x_comp_combined,
    }


def comp_refined_bounds(
    a, q, x, k, eps: float, cands: Optional[list[ScalingD]] = None,
    xinv: Optional[np.ndarray] = None,
) -> dict:
    """Closed-form bounds under the entrywise model ``|dA| <= eps K |A|``.

    Raises ``GateViolated`` when the entrywise smallness gate fails. The
    combined-form bound carries its own gate and is ``None`` when that gate
    fails.
    """
    norms = FactorNorms(q, x, xinv, cands)
    g = _comp_gate(k, eps, norms)
    if not g.satisfied:
        raise GateViolated(g.describe())
    out = _comp_refined_values(k, eps, norms)
    out["gates"] = [g, out.pop("combined_gate")]
    return out


def comp_matvec_bounds(
    ops: FirstOrderOperators,
    q,
    x,
    k,
    eps: float,
    tol: float = POWER_TOL,
    max_iter: Optional[int] = None,
) -> dict:
    """Majorant-equation bounds under the entrywise model.

    The three coefficients are

    - ``a_hat = ||gx| (|X^T| kron I_m)|_2 * |K |Q||_F``
    - ``b_hat = ||hx| (|X^T| kron |X^T|)|_2 * ||Q^T| K^T K |Q||_F``
    - ``c_hat = ||hx||_2``

    with the structured products evaluated matrix-free. Values are ``None``
    when the majorant gate fails.
    """
    qa = as_matrix(q, "Q factor")
    xa = as_matrix(x, "X factor")
    ka = as_matrix(k, "entrywise weight")
    m, n = qa.shape
    absq = np.abs(qa)
    absx = np.abs(xa)
    abs_gx = np.abs(ops.gx)
    abs_hx = np.abs(ops.hx)

    def _as_block(v: np.ndarray) -> tuple[np.ndarray, bool]:
        return (v, True) if v.ndim == 2 else (v[:, None], False)

    def mv_a(v: np.ndarray) -> np.ndarray:
        vb, was_block = _as_block(v)
        out = abs_gx @ _columns_right_multiply(vb, absx, m)
        return out if was_block else out[:, 0]

    def rmv_a(u: np.ndarray) -> np.ndarray:
        ub, was_block = _as_block(u)
        out = _columns_right_multiply(abs_gx.T @ ub, absx.T, m)
        return out if was_block else out[:, 0]

    gxa_norm = operator_norm(mv_a, rmv_a, m * n, tol, max_iter)

    def mv_b(v: np.ndarray) -> np.ndarray:
        vb, was_block = _as_block(v)
        w = _columns_right_multiply(_columns_left_multiply(vb, absx.T, n), absx, n)
        out = abs_hx @ w
        return out if was_block else out[:, 0]

    def rmv_b(u: np.ndarray) -> np.ndarray:
        ub, was_block = _as_block(u)
        w = _columns_right_multiply(
            _columns_left_multiply(abs_hx.T @ ub, absx, n), absx.T, n
        )
        return w if was_block else w[:, 0]

    hxb_norm = operator_norm(mv_b, rmv_b, n * n, tol, max_iter)

    c_hat = spectral_norm(abs_hx, tol, max_iter)
    kq_fro = frobenius_norm(ka @ absq)
    qtktkq_fro = frobenius_norm(absq.T @ ka.T @ ka @ absq)
    a_hat = gxa_norm * kq_fro
    b_hat = hxb_norm * qtktkq_fro
    absx_norm = spectral_norm(absx)

    u = a_hat * eps + b_hat * eps * eps
    gate_major = make_gate("comp-majorant", c_hat * u, 0.25, "<=")
    gate_linear = make_gate(
        "comp-majorant-linear",
        c_hat * (absx_norm + 2.0 * gxa_norm) * kq_fro * eps,
        0.5,
        "<=",
    )
    x_root = x_twice = x_linear = None
    if gate_major.satisfied:
        x_root = 2.0 * u / (1.0 + math.sqrt(max(1.0 - 4.0 * c_hat * u, 0.0)))
        x_twice = 2.0 * u
        x_linear = (absx_norm + 2.0 * gxa_norm) * kq_fro * eps
    return {
        "a_hat": a_hat,
        "b_hat": b_hat,
        "c_hat": c_hat,
        "gxa_norm": gxa_norm,
        "absx_norm": absx_norm,
        "gates": [gate_major, gate_linear],
        "x_comp_majorant_root": x_root,
        "x_comp_majorant_twice": x_twice,
        "x_comp_majorant_linear": x_linear,
        "x_comp_first_order": a_hat * eps,
        "coef_x1": (absx_norm + 2.0 * gxa_norm) * kq_fro,
    }


def tightness_check(
    ops: FirstOrderOperators, x, report: Optional["BoundReport"] = None
) -> dict:
    """Operator norm of ``gx`` against its closed-form envelope.

    The envelope ``min_D sqrt(1 + varsigma^2) kappa2(D^{-1} X)`` must
    dominate ``|gx|_2``; the returned slack is ``envelope - |gx|_2``. Pass
    the operator-route ``report`` of the same factorization to reuse its
    ``|gx|_2`` and envelope instead of recomputing them.
    """
    if report is not None:
        g, envelope = report.g_x_norm, report.sym_kappa
        winner = report.winners["sym_kappa"]
    else:
        xa = as_matrix(x, "X factor")
        g = spectral_norm(ops.gx)
        envelope, winner = min_sym_kappa(xa, x_inverse(xa), scaling_candidates(xa))
    return {
        "g": g,
        "envelope": envelope,
        "winner": winner,
        "slack": envelope - g,
    }


@dataclass
class BoundReport:
    """Every bound/gate evaluated for one (A, dA, K, eps) instance.

    Bound fields are ``None`` when their gate fails or their route was
    skipped; ``gates`` carries the reason. Coefficient fields are the
    perturbation-free factors of the corresponding bounds (per unit delta
    for normwise routes, per unit eps for entrywise routes; ``coef_x3`` is
    dimensionless by construction).
    """

    delta: float
    eps: Optional[float]
    gates: list[GateStatus] = field(default_factory=list)
    winners: dict[str, str] = field(default_factory=dict)
    # route diagnostics
    q_norm: Optional[float] = None
    x_norm: Optional[float] = None
    xinv_norm: Optional[float] = None
    kappa2: Optional[float] = None
    sym_kappa: Optional[float] = None  # min_D sqrt(1 + varsigma^2) kappa2(D^{-1} X)
    cond_x: Optional[float] = None
    g_x_norm: Optional[float] = None
    h_x_norm: Optional[float] = None
    g_q_norm: Optional[float] = None
    a_hat: Optional[float] = None
    b_hat: Optional[float] = None
    c_hat: Optional[float] = None
    # normwise bounds on |dX|_F
    x_refined: Optional[float] = None
    x_relative_a: Optional[float] = None
    x_relative_b: Optional[float] = None
    x_first_order: Optional[float] = None
    x_majorant_root: Optional[float] = None
    x_majorant_twice: Optional[float] = None
    x_majorant_linear: Optional[float] = None
    # normwise bounds on |dQ|_F
    q_refined: Optional[float] = None
    q_operator: Optional[float] = None
    # entrywise bounds
    x_comp_refined: Optional[float] = None
    x_comp_info: Optional[float] = None
    x_comp_combined: Optional[float] = None
    x_comp_majorant_root: Optional[float] = None
    x_comp_majorant_twice: Optional[float] = None
    x_comp_majorant_linear: Optional[float] = None
    x_comp_first_order: Optional[float] = None
    q_comp: Optional[float] = None
    # coefficient (perturbation-free) forms
    coef_x1: Optional[float] = None
    coef_x2: Optional[float] = None
    coef_x3: Optional[float] = None
    coef_x4: Optional[float] = None
    coef_q1: Optional[float] = None
    coef_q2: Optional[float] = None
    coef_q3: Optional[float] = None
    operators_skipped: bool = False
    skip_reason: Optional[str] = None

    def gate(self, name: str) -> Optional[GateStatus]:
        for g in self.gates:
            if g.name == name:
                return g
        return None

    def gates_ok(self) -> bool:
        return all(g.satisfied for g in self.gates)

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if key == "gates":
                out[key] = [
                    {
                        "name": g.name,
                        "value": g.value,
                        "threshold": g.threshold,
                        "relation": g.relation,
                        "satisfied": g.satisfied,
                    }
                    for g in value
                ]
            else:
                out[key] = value
        return out

    # Names of absolute bounds participating in domination checks, keyed by
    # which measured quantity they dominate.
    X_BOUND_FIELDS = (
        "x_refined",
        "x_relative_a",
        "x_relative_b",
        "x_majorant_root",
        "x_majorant_twice",
        "x_majorant_linear",
        "x_comp_refined",
        "x_comp_combined",
        "x_comp_majorant_root",
        "x_comp_majorant_twice",
        "x_comp_majorant_linear",
    )
    Q_BOUND_FIELDS = ("q_refined", "q_operator", "q_comp")


def bound_report(
    a,
    q,
    x,
    da,
    k=None,
    eps: Optional[float] = None,
    cands: Optional[list[ScalingD]] = None,
    xinv: Optional[np.ndarray] = None,
    ops: Optional[FirstOrderOperators] = None,
) -> BoundReport:
    """Evaluate every applicable bound for one perturbed factorization.

    Gate failures never raise here; the affected bound fields stay ``None``
    and the gate list records why. Pass ``ops`` to include the operator
    route (builders enforce the size cap), or leave it ``None`` to restrict
    to the closed-form route.
    """
    daa = as_matrix(da, "perturbation")
    norms = FactorNorms(q, x, xinv, cands)
    qa, xa = norms.q, norms.x
    delta = frobenius_norm(daa)
    report = BoundReport(delta=delta, eps=eps)

    g_inv = _inverse_dominance_gate(spectral_norm(daa), norms.xinv_norm)
    g_small = gate_normwise(qa, xa, daa, norms.xinv)
    report.gates.extend([g_inv, g_small])

    values = _refined_normwise_values(a, daa, norms)
    report.q_norm = values["q_norm"]
    report.x_norm = values["x_norm"]
    report.xinv_norm = values["xinv_norm"]
    report.kappa2 = values["kappa2"]
    report.sym_kappa = values["min_sym_kappa"]
    report.winners["sym_kappa"] = values["min_sym_kappa_winner"]
    report.winners["q_product"] = values["min_q_product_winner"]
    report.coef_x4 = REFINED_X_CONSTANT * values["min_sym_kappa"] * values["q_norm"]
    if delta > 0.0:
        report.coef_q3 = values["q_refined"] / delta
    report.gates.append(values["radicand_gate"])
    if g_inv.satisfied and g_small.satisfied:
        report.x_refined = values["x_refined"]
        report.x_first_order = values["x_first_order"]
        report.q_refined = values["q_refined"]
        report.x_relative_a = values["x_relative_a"]
        report.x_relative_b = values["x_relative_b"]

    if k is not None and eps is not None:
        g_comp = _comp_gate(k, eps, norms)
        report.gates.append(g_comp)
        comp = _comp_refined_values(k, eps, norms)
        report.cond_x = comp["cond_x"]
        report.winners["comp_product"] = comp["min_comp_product_winner"]
        report.coef_x2 = COMP_X_CONSTANT * comp["min_comp_product"] * comp["qtkq_fro"]
        report.coef_q1 = COMP_Q_CONSTANT * comp["qtkq_fro"] * comp["cond_x"]
        report.gates.append(comp["combined_gate"])
        if g_comp.satisfied:
            report.x_comp_refined = comp["x_comp_refined"]
            report.x_comp_info = comp["x_comp_info"]
            report.q_comp = comp["q_comp"]
            report.x_comp_combined = comp["x_comp_combined"]
    else:
        report.cond_x = norms.cond_x

    if ops is not None:
        op_norms = operator_norms(ops)
        report.g_x_norm = op_norms["g"]
        report.h_x_norm = op_norms["h"]
        report.g_q_norm = op_norms["gq"]
        mv = matvec_bounds_normwise(ops, delta, op_norms["g"], op_norms["h"])
        report.gates.extend(mv["gates"])
        report.x_majorant_root = mv["x_majorant_root"]
        report.x_majorant_twice = mv["x_majorant_twice"]
        report.x_majorant_linear = mv["x_majorant_linear"]
        report.coef_x3 = mv["coef_x3"]
        qb = _q_operator_bound(
            delta, op_norms["g"], op_norms["gq"], norms.xinv_norm, norms.q_norm
        )
        report.q_operator = qb["q_operator"]
        report.coef_q2 = qb["coef_q2"]
        if k is not None and eps is not None:
            cmv = comp_matvec_bounds(ops, qa, xa, k, eps)
            report.a_hat = cmv["a_hat"]
            report.b_hat = cmv["b_hat"]
            report.c_hat = cmv["c_hat"]
            report.gates.extend(cmv["gates"])
            report.x_comp_majorant_root = cmv["x_comp_majorant_root"]
            report.x_comp_majorant_twice = cmv["x_comp_majorant_twice"]
            report.x_comp_majorant_linear = cmv["x_comp_majorant_linear"]
            report.x_comp_first_order = cmv["x_comp_first_order"]
            report.coef_x1 = cmv["coef_x1"]
    else:
        report.operators_skipped = True
        report.skip_reason = "operator route not requested or above size cap"

    return report
