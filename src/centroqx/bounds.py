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
claimed under explicit applicability gates; gate status objects record the
value, threshold, and comparison used so callers can report applicability
instead of silently emitting vacuous numbers. The registry ``BOUNDS`` lists
each bound with the measured quantity it must dominate and its gates;
``bound_report`` withholds every bound whose gates do not all hold.

All minimizations record which scaling candidate won. Within one report
each distinct spectral norm is computed once (``FactorNorms``). Every n x n
operand the closed forms norm (D^{-1}X, X^{-1}D, |X||X^{-1}|D, |X|X^{-1}D)
and dA are centrosymmetric, because D is palindromic, so each norm is the
larger of its two fold halves' norms; ``QxFactors`` keeps the halves of X
and X^{-1}. The Q-side norm |Q D^{-1}|_2 is the enclosure
max(1/d_i) sqrt(1 + |Q^T Q - I|_F) and needs no iteration. The operator
route forms its Kronecker-structured products as batched matrix products
and norms them with ``spectral_norm`` like every other operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .centro import FoldedPair, centro_part, fold, fold_norm
from .errors import SizeCapExceeded
from .linalg import as_matrix, frobenius_norm, spectral_norm, vec_perm_indices
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
class Bound:
    """One registry entry: a ``BoundReport`` field, the measured quantity it
    must dominate (``"x"`` for |dX|_F, ``"q"`` for |dQ|_F, ``None`` for a
    first-order prediction), and the gates that must all hold to claim it."""

    name: str
    target: Optional[str]
    gates: tuple[str, ...]


_NORMWISE = ("inverse-dominance", "normwise-smallness")
_RELATIVE = _NORMWISE + ("relative-radicand",)

# Every bound a report can carry, in table-column order.
BOUNDS = (
    Bound("x_refined", "x", _NORMWISE),
    Bound("x_relative_a", "x", _RELATIVE),
    Bound("x_relative_b", "x", _RELATIVE),
    Bound("x_first_order", None, _NORMWISE),
    Bound("x_majorant_root", "x", ("majorant-x",)),
    Bound("x_majorant_twice", "x", ("majorant-x",)),
    Bound("x_majorant_linear", "x", ("majorant-x-linear",)),
    Bound("x_comp_refined", "x", ("comp-smallness",)),
    Bound("x_comp_info", None, ("comp-smallness",)),
    Bound("x_comp_combined", "x", ("comp-smallness", "comp-combined-smallness")),
    Bound("x_comp_majorant_root", "x", ("comp-majorant",)),
    Bound("x_comp_majorant_twice", "x", ("comp-majorant",)),
    Bound("x_comp_majorant_linear", "x", ("comp-majorant-linear",)),
    Bound("x_comp_first_order", None, ()),
    Bound("q_refined", "q", _NORMWISE),
    Bound("q_operator", "q", ()),
    Bound("q_comp", "q", ("comp-smallness",)),
)


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

    ``bound_report`` builds one per call from the ``QxFactors`` and drops it
    on return; the context alone builds the scaling candidates. A norm is
    computed on first use and kept as a float. Every X-side operand is held
    as its fold halves: X as (R_f, R_g), X^{-1} as their inverses, and
    ``|X||X^{-1}|``, ``|X| X^{-1}`` as the fold of their centrosymmetric
    part. D = diag(delta, reversed delta) scales the halves by delta:
    fold(D^{-1} M) = delta^{-1} (F, G) and fold(M D) = (F, G) delta. The
    Q-side norm is the enclosure ``q_dinv``. The identity candidate shares
    the unscaled norms.
    """

    def __init__(self, factors) -> None:
        self.factors = factors
        self._norms: dict[tuple[str, int], float] = {}

    @cached_property
    def cands(self) -> list[ScalingD]:
        return scaling_candidates(self.factors.x)

    @cached_property
    def abs_q(self) -> np.ndarray:
        return np.abs(self.factors.q)

    @cached_property
    def abs_x_abs_xinv(self) -> FoldedPair:
        return fold(centro_part(np.abs(self.factors.x) @ np.abs(self.factors.xinv)))

    @cached_property
    def abs_x_xinv(self) -> FoldedPair:
        return fold(centro_part(np.abs(self.factors.x) @ self.factors.xinv))

    @cached_property
    def q_enclosure(self) -> float:
        """``sqrt(1 + |Q^T Q - I|_F)``, an upper bound on ``|Q|_2``."""
        q = self.factors.q
        return math.sqrt(1.0 + frobenius_norm(q.T @ q - np.eye(q.shape[1])))

    def _norm(self, name: str, i: int, halves, side: str) -> float:
        """``|M|_2`` from M's fold ``halves``, as D^{-1} M or M D on ``side``."""
        if i >= 0 and self.cands[i].is_identity:
            i = -1
        key = (name, i)
        if key not in self._norms:
            if i >= 0:
                d = self.cands[i].delta
                halves = [h / d[:, None] if side == "rows" else h * d[None, :] for h in halves]
            self._norms[key] = max(spectral_norm(h) for h in halves)
        return self._norms[key]

    def dinv_x(self, i: int) -> float:
        """``|D^{-1} X|_2``."""
        return self._norm("dinv_x", i, (self.factors.rf, self.factors.rg), "rows")

    def xinv_d(self, i: int) -> float:
        """``|X^{-1} D|_2``."""
        return self._norm("xinv_d", i, self.factors.xinv_halves, "cols")

    def q_dinv(self, i: int) -> float:
        """Upper enclosure ``max(1/d_i) sqrt(1 + |Q^T Q - I|_F)`` of ``|Q D^{-1}|_2``."""
        if i < 0 or self.cands[i].is_identity:
            return self.q_enclosure
        return (1.0 / float(np.min(self.cands[i].delta))) * self.q_enclosure

    def cond_d(self, i: int) -> float:
        """``||X||X^{-1}|D|_2``."""
        return self._norm("cond_d", i, self.abs_x_abs_xinv, "cols")

    def abs_x_xinv_d(self, i: int) -> float:
        """``||X| X^{-1} D|_2``."""
        return self._norm("abs_x_xinv_d", i, self.abs_x_xinv, "cols")

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
    norms: FactorNorms, value_fn: Callable[[int, ScalingD], float]
) -> tuple[float, str]:
    best = math.inf
    label = "identity"
    for i, d in enumerate(norms.cands):
        v = float(value_fn(i, d))
        if v < best:
            best = v
            label = "identity" if d.is_identity else "row-norms"
    return best, label


def min_sym_kappa(norms: FactorNorms) -> tuple[float, str]:
    """Minimized ``sqrt(1 + varsigma_D^2) * kappa2(D^{-1} X)`` over ``norms.cands``."""
    return _minimize(
        norms,
        lambda i, d: math.sqrt(1.0 + varsigma(d) ** 2) * norms.dinv_x(i) * norms.xinv_d(i),
    )


def min_q_product(norms: FactorNorms) -> tuple[float, str]:
    """Minimized ``|Q D^{-1}|_2 * |X^{-1} D|_2``."""
    return _minimize(norms, lambda i, d: norms.q_dinv(i) * norms.xinv_d(i))


def min_comp_product(norms: FactorNorms) -> tuple[float, str]:
    """Minimized ``sqrt(1 + varsigma_D^2) * ||X||X^{-1}|D|_2 * |D^{-1} X|_2``."""
    return _minimize(
        norms,
        lambda i, d: math.sqrt(1.0 + varsigma(d) ** 2) * norms.cond_d(i) * norms.dinv_x(i),
    )


def gate_normwise(factors, da) -> GateStatus:
    """Smallness gate on the projected perturbation ``|Q^T dA X^{-1}|_F``."""
    daa = as_matrix(da, "perturbation")
    value = frobenius_norm(factors.q.T @ daa @ factors.xinv)
    return make_gate("normwise-smallness", value, SMALLNESS_THRESHOLD, "<=")


def _normwise_route(report: BoundReport, norms: FactorNorms, a, daa: np.ndarray) -> None:
    delta = report.delta
    q_norm = norms.q_norm
    x_norm = norms.x_norm
    xinv_norm = norms.xinv_norm
    kappa2 = x_norm * xinv_norm
    # Perturbation smaller than the inverse's reach: |dA|_2 |X^{-1}|_2 < 1.
    g_inv = make_gate("inverse-dominance", fold_norm(daa) * xinv_norm, 1.0, "<")
    g_small = gate_normwise(norms.factors, daa)
    projected = g_small.value

    msym, report.winners["sym_kappa"] = min_sym_kappa(norms)
    mq, report.winners["q_product"] = min_q_product(norms)
    report.q_norm, report.x_norm, report.xinv_norm = q_norm, x_norm, xinv_norm
    report.kappa2, report.sym_kappa = kappa2, msym

    report.x_refined = REFINED_X_CONSTANT * msym * q_norm * delta
    report.x_first_order = msym * q_norm * delta
    report.q_refined = REFINED_Q_CONSTANT_A * mq * q_norm * delta + REFINED_Q_CONSTANT_B * projected
    report.coef_x4 = REFINED_X_CONSTANT * msym * q_norm
    if delta > 0.0:
        report.coef_q3 = report.q_refined / delta

    # Relative forms share a denominator whose radicand must stay nonnegative.
    a_fro = frobenius_norm(as_matrix(a, "matrix"))
    t = kappa2 * delta / x_norm if x_norm > 0 else math.inf
    radicand = 1.0 - 4.0 * t - 2.0 * t * t
    g_rad = make_gate("relative-radicand", radicand, 0.0, ">=")
    report.gates.extend([g_inv, g_small, g_rad])
    if g_rad.satisfied and a_fro > 0.0:
        den = SQRT2 - 1.0 + math.sqrt(radicand)
        qt_da = frobenius_norm(norms.factors.q.T @ daa)
        num_a = SQRT2 * msym * (qt_da / a_fro + kappa2 * (delta / x_norm) ** 2)
        num_b = SQRT3 * msym * (delta / x_norm)
        report.x_relative_a = x_norm * num_a / den
        report.x_relative_b = x_norm * num_b / den


def _entrywise_route(
    report: BoundReport, norms: FactorNorms, k: np.ndarray, kq_fro: float
) -> None:
    eps = report.eps
    absq = norms.abs_q
    qtkq = frobenius_norm(absq.T @ k @ absq)
    cond_x = norms.cond_x
    report.gates.append(
        make_gate("comp-smallness", qtkq * cond_x * eps, COMP_SMALLNESS_THRESHOLD, "<")
    )

    mcomp, report.winners["comp_product"] = min_comp_product(norms)
    report.x_comp_refined = COMP_X_CONSTANT * mcomp * qtkq * eps
    report.q_comp = COMP_Q_CONSTANT * qtkq * cond_x * eps
    report.coef_x2 = COMP_X_CONSTANT * mcomp * qtkq
    report.coef_q1 = COMP_Q_CONSTANT * qtkq * cond_x

    # Informational looser form: |X| X^{-1} D (absolute value on X only).
    def info_value(i: int, d: ScalingD) -> float:
        factor = math.sqrt(2.0 + 2.0 * varsigma(d) ** 2) + (SQRT3 - SQRT2)
        return norms.abs_x_xinv_d(i) * factor

    minfo, _ = _minimize(norms, info_value)
    report.x_comp_info = minfo * qtkq * eps / (SQRT2 - 1.0)

    report.gates.append(
        make_gate("comp-combined-smallness", cond_x * kq_fro * eps, SMALLNESS_THRESHOLD, "<=")
    )
    report.x_comp_combined = COMP_COMBINED_CONSTANT * mcomp * kq_fro * eps


@dataclass
class FirstOrderOperators:
    """Dense first-order maps from vec(dA) to the factor perturbations.

    ``gx`` (tau1 x mn) sends vec(dA) to the support entries of the
    first-order X perturbation, ``hx`` (tau1 x n^2) is the quadratic-term
    map on vec-space, and ``gq`` (mn x mn) sends vec(dA) to vec of the
    first-order Q perturbation.
    """

    gx: np.ndarray
    hx: np.ndarray
    gq: np.ndarray


def build_first_order_operators(factors) -> FirstOrderOperators:
    """Assemble the dense first-order operators for one ``QxFactors``.

    Raises ``SizeCapExceeded`` when ``m*n`` exceeds ``OPERATOR_SIZE_CAP``
    (the maps cost O((mn)^2) memory).
    """
    qa, xa = factors.q, factors.x
    m, n = qa.shape
    if m * n > OPERATOR_SIZE_CAP:
        raise SizeCapExceeded(f"m*n = {m * n} exceeds the operator cap {OPERATOR_SIZE_CAP}")
    ops = build_operator_matrices(n)
    xinv = factors.xinv

    # Each map is built transposed: row j is its column j, vec(C_j). The
    # C-order (n, n) view of that row is C_j^T, so vec(C_j F) is F^T @ C_j^T
    # and vec(F C_j) is C_j^T @ F^T, batched over j.
    st = np.kron(xinv, qa)
    st += st[:, vec_perm_indices(n, n)]  # the vec(C^T) term
    st *= ops.half_weights
    st = st.reshape(m * n, n, n)
    gx = (xa.T @ st).reshape(m * n, n * n)[:, ops.indices].T

    ht = np.kron(xinv, xinv) * ops.half_weights
    hx = (xa.T @ ht.reshape(n * n, n, n)).reshape(n * n, n * n)[:, ops.indices].T

    gqt = np.kron(xinv, np.eye(m))
    gqt -= (st @ qa.T).reshape(m * n, m * n)
    return FirstOrderOperators(gx=gx, hx=hx, gq=gqt.T)


def operator_norms(ops: FirstOrderOperators) -> dict[str, float]:
    """Spectral norms of the three first-order maps."""
    return {
        "g": spectral_norm(ops.gx),
        "h": spectral_norm(ops.hx),
        "gq": spectral_norm(ops.gq),
    }


def matvec_bounds_normwise(
    delta: float, g: float, h: float
) -> tuple[list[GateStatus], float, float, float]:
    """Majorant-equation bounds on ``|dX|_F`` from ``g = |gx|_2``, ``h = |hx|_2``.

    Returns the gates ``majorant-x`` and ``majorant-x-linear``, then the
    quadratic-root bound, its doubled linearization and the fully linear
    form. The values are not withheld here; ``bound_report`` drops each one
    whose gate fails.
    """
    u = g * delta + h * delta * delta
    gates = [
        make_gate("majorant-x", h * u, 0.25, "<"),
        make_gate("majorant-x-linear", h * (1.0 + 2.0 * g) * delta, 0.5, "<"),
    ]
    root = 2.0 * u / (1.0 + math.sqrt(max(1.0 - 4.0 * h * u, 0.0)))
    return gates, root, 2.0 * u, (1.0 + 2.0 * g) * delta


def comp_matvec_bounds(
    report: BoundReport, ops: FirstOrderOperators, norms: FactorNorms, k: np.ndarray,
    kq_fro: float,
) -> None:
    """Majorant-equation bounds under the entrywise model, written into ``report``.

    The three coefficients are

    - ``a_hat = ||gx| (|X^T| kron I_m)|_2 * |K |Q||_F``
    - ``b_hat = ||hx| (|X^T| kron |X^T|)|_2 * ||Q^T| K^T K |Q||_F``
    - ``c_hat = ||hx||_2``

    ``kq_fro`` is ``|K |Q||_F`` and ``eps`` is ``report.eps``. A row vec(R)
    of an operator times ``|X^T| kron B^T`` is vec(B R |X|^T), formed on the
    C-order view R^T of the row. As in ``matvec_bounds_normwise``, the values
    are not withheld here.
    """
    m, n = norms.factors.q.shape
    tau1 = ops.gx.shape[0]
    absq = norms.abs_q
    absx = np.abs(norms.factors.x)
    abs_hx = np.abs(ops.hx)

    gxa = absx @ np.abs(ops.gx).reshape(tau1, n, m)
    gxa_norm = spectral_norm(gxa.reshape(tau1, m * n))
    hxb = absx @ abs_hx.reshape(tau1, n, n) @ absx.T
    hxb_norm = spectral_norm(hxb.reshape(tau1, n * n))

    c_hat = spectral_norm(abs_hx)
    qtktkq_fro = frobenius_norm(absq.T @ k.T @ k @ absq)
    a_hat = gxa_norm * kq_fro
    b_hat = hxb_norm * qtktkq_fro
    absx_norm = fold_norm(absx)

    eps = report.eps
    u = a_hat * eps + b_hat * eps * eps
    report.gates.append(make_gate("comp-majorant", c_hat * u, 0.25, "<="))
    report.gates.append(
        make_gate(
            "comp-majorant-linear", c_hat * (absx_norm + 2.0 * gxa_norm) * kq_fro * eps, 0.5, "<="
        )
    )
    report.a_hat, report.b_hat, report.c_hat = a_hat, b_hat, c_hat
    report.coef_x1 = (absx_norm + 2.0 * gxa_norm) * kq_fro
    report.x_comp_majorant_root = 2.0 * u / (1.0 + math.sqrt(max(1.0 - 4.0 * c_hat * u, 0.0)))
    report.x_comp_majorant_twice = 2.0 * u
    report.x_comp_majorant_linear = report.coef_x1 * eps
    report.x_comp_first_order = a_hat * eps


def tightness_check(report: BoundReport) -> dict:
    """Operator norm of ``gx`` against its closed-form envelope.

    The envelope ``min_D sqrt(1 + varsigma^2) kappa2(D^{-1} X)`` must
    dominate ``|gx|_2``; the returned slack is ``envelope - |gx|_2``. Both
    are read from an operator-route ``report``.
    """
    g, envelope = report.g_x_norm, report.sym_kappa
    return {
        "g": g,
        "envelope": envelope,
        "winner": report.winners["sym_kappa"],
        "slack": envelope - g,
    }


@dataclass
class BoundReport:
    """Every bound/gate evaluated for one (A, dA, K, eps) instance.

    Bound fields (the ``BOUNDS`` registry) are ``None`` when a gate of
    theirs fails or was not evaluated; ``gates`` carries the reason.
    Coefficient fields are the perturbation-free factors of the
    corresponding bounds (per unit delta for normwise routes, per unit eps
    for entrywise routes; ``coef_x3`` is dimensionless by construction).
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

    # Bounds that must dominate the measured |dX|_F and |dQ|_F.
    X_BOUND_FIELDS = tuple(b.name for b in BOUNDS if b.target == "x")
    Q_BOUND_FIELDS = tuple(b.name for b in BOUNDS if b.target == "q")

    def gate(self, name: str) -> Optional[GateStatus]:
        for g in self.gates:
            if g.name == name:
                return g
        return None

    def gates_ok(self) -> bool:
        return all(g.satisfied for g in self.gates)


def bound_report(
    a,
    factors,
    da,
    k=None,
    eps: Optional[float] = None,
    ops: Optional[FirstOrderOperators] = None,
) -> BoundReport:
    """Evaluate every applicable bound for A + dA, given the ``QxFactors`` of A.

    Gate failures never raise here; a bound whose registry gates do not all
    hold stays ``None`` and the gate list records why. ``da`` must be
    centrosymmetric, as every perturbation that keeps A + dA factorizable
    is: its norm is taken from its fold halves, and the fold raises
    ``NotCentrosymmetric`` otherwise. The entrywise route
    runs when ``k`` and ``eps`` are given; pass ``ops`` to include the
    operator route, or leave it ``None`` to restrict to the closed forms.
    """
    daa = as_matrix(da, "perturbation")
    norms = FactorNorms(factors)
    report = BoundReport(delta=frobenius_norm(daa), eps=eps)
    _normwise_route(report, norms, a, daa)
    report.cond_x = norms.cond_x

    entrywise = k is not None and eps is not None
    if entrywise:
        ka = as_matrix(k, "entrywise weight")
        kq_fro = frobenius_norm(ka @ norms.abs_q)
        _entrywise_route(report, norms, ka, kq_fro)

    if ops is not None:
        op = operator_norms(ops)
        report.g_x_norm, report.h_x_norm, report.g_q_norm = op["g"], op["h"], op["gq"]
        gates, *majorants = matvec_bounds_normwise(report.delta, op["g"], op["h"])
        report.gates.extend(gates)
        report.x_majorant_root, report.x_majorant_twice, report.x_majorant_linear = majorants
        report.coef_x3 = 1.0 + 2.0 * op["g"]
        # (2 + sqrt2) * (|gq|_2 + |X^{-1}|_2 |Q|_2 (1 + |gx|_2)) * delta
        report.coef_q2 = OPERATOR_Q_CONSTANT * (
            op["gq"] + norms.xinv_norm * norms.q_norm * (1.0 + op["g"])
        )
        report.q_operator = report.coef_q2 * report.delta
        if entrywise:
            comp_matvec_bounds(report, ops, norms, ka, kq_fro)

    held = {g.name for g in report.gates if g.satisfied}
    for bound in BOUNDS:
        if not held.issuperset(bound.gates):
            setattr(report, bound.name, None)
    return report
