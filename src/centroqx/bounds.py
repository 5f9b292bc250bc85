"""Rigorous perturbation bounds for the factors of the QX factorization.

Two routes are implemented for the X factor and the Q factor, each under two
perturbation models:

- *refined* bounds evaluate closed-form expressions minimized over a list of
  palindromic diagonal scalings (identity and row norms of X);
- *operator* bounds evaluate majorant-equation bounds from the spectral
  norms of the first-order maps ``gx`` (perturbation of A to the support
  entries of the X perturbation), ``hx`` (quadratic-term map) and ``gq``
  (perturbation of A to the Q perturbation).

The perturbation models are normwise (``delta = |dA|_F``) and entrywise
(``|dA| <= eps * K |A|`` for a nonnegative ``K``). Every bound is only
claimed under explicit applicability gates; gate status objects record the
value, threshold, and comparison used so callers can report applicability
instead of silently emitting vacuous numbers. The registry ``BOUNDS`` lists
each bound with the measured quantity it must dominate and its gates;
``bound_report`` withholds every bound whose gates do not all hold.

All minimizations record which scaling candidate won. Within one report
every norm, and each candidate's sqrt(1 + varsigma^2), is computed once,
when ``FactorNorms`` is built. Every n x n operand the closed forms norm
(D^{-1}X, X^{-1}D, |X||X^{-1}|D) and dA are centrosymmetric, because D is
palindromic, so each norm is the larger of its two fold halves' norms
(``centro.halves_norm``), or for the nonnegative |X||X^{-1}|D the norm of
its first half alone (``centro.nonnegative_norm``); ``qx.x_side_halves``
hands out the halves of X and X^{-1} and the first half of |X||X^{-1}|.
The Q-side norm |Q D^{-1}|_2 is the enclosure max(1/d_i) sqrt(1 + |Q^T Q
- I|_F) and needs no iteration. The operator route norms its maps through
their actions (``linalg.operator_norm`` of a ``LinearMap``), at O(mn^2 +
n^3) flops per product. The entrywise consumers (``comp_matvec_bounds``
and ``abs_responses``) read nonnegative centrosymmetric maps, which their
fold halves carry: only the fold half of |gx| is formed, a quarter of
|gx|, without Kronecker products. Both operator routes solve the same
majorant equation (``majorant``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .centro import fold, fold_norm, halves_norm, nonnegative_norm
from .errors import SizeCapExceeded
from .linalg import LinearMap, as_matrix, binary_exponent, frobenius_norm, operator_norm
from .qx import x_side_halves
from .xops import scaling_candidates, support_mask, varsigma

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
    """Every norm a bound report reads, each computed once, on construction.

    ``bound_report`` builds one per call from the ``QxFactors`` and drops it
    on return. Each scaled norm is a pair indexed by the scaling candidate
    in ``cands``: 0 is the identity, 1 the row norms of X. Every X-side
    operand is normed from its fold halves: X as (R_f, R_g), X^{-1} as their
    inverses, and ``|X||X^{-1}|``, which is nonnegative, from the first half
    f of the fold of its centrosymmetric part alone (``nonnegative_norm``).
    D = diag(delta, reversed delta) scales the halves by delta: fold(D^{-1}
    M) = delta^{-1} (F, G) and fold(M D) = (F, G) delta. The Q-side norm
    ``q_dinv`` is the enclosure ``max(1/d_i) sqrt(1 + |Q^T Q - I|_F)`` of
    ``|Q D^{-1}|_2``. The unscaled norms are the pairs' ``[0]`` entries.
    ``spread`` holds each candidate's ``sqrt(1 + varsigma_D^2)``.
    """

    def __init__(self, factors) -> None:
        self.factors = factors
        self.cands = scaling_candidates(factors.x)
        self.abs_q = np.abs(factors.q)
        self.abs_x = np.abs(factors.x)
        delta = self.cands[1].delta
        rows, cols = delta[:, None], delta[None, :]
        x_halves, xinv_halves, cond_f = x_side_halves(factors, self.abs_x)
        # |D^{-1} X|_2, |X^{-1} D|_2 and ||X||X^{-1}|D|_2
        self.dinv_x = halves_norm(x_halves), halves_norm([h / rows for h in x_halves])
        self.xinv_d = halves_norm(xinv_halves), halves_norm([h * cols for h in xinv_halves])
        self.cond_d = nonnegative_norm(cond_f), nonnegative_norm(cond_f * cols)
        self.spread = tuple(math.sqrt(1.0 + varsigma(d) ** 2) for d in self.cands)
        q = factors.q
        enclosure = math.sqrt(1.0 + frobenius_norm(q.T @ q - np.eye(q.shape[1])))
        self.q_dinv = (enclosure, (1.0 / float(np.min(delta))) * enclosure)
        self.x_norm, self.xinv_norm = self.dinv_x[0], self.xinv_d[0]
        self.cond_x, self.q_norm = self.cond_d[0], self.q_dinv[0]


def _least(products) -> tuple[float, str]:
    """The smaller of the (identity, row-norms) candidates' products, with
    the winner's label; the identity on a tie."""
    i = int(products[1] < products[0])
    return products[i], ("identity", "row-norms")[i]


def min_sym_kappa(norms: FactorNorms) -> tuple[float, str]:
    """Minimized ``sqrt(1 + varsigma_D^2) * kappa2(D^{-1} X)`` over ``norms.cands``."""
    return _least([s * dx * xd for s, dx, xd in zip(norms.spread, norms.dinv_x, norms.xinv_d)])


def min_q_product(norms: FactorNorms) -> tuple[float, str]:
    """Minimized ``|Q D^{-1}|_2 * |X^{-1} D|_2``."""
    return _least([qd * xd for qd, xd in zip(norms.q_dinv, norms.xinv_d)])


def min_comp_product(norms: FactorNorms) -> tuple[float, str]:
    """Minimized ``sqrt(1 + varsigma_D^2) * ||X||X^{-1}|D|_2 * |D^{-1} X|_2``."""
    return _least([s * cd * dx for s, cd, dx in zip(norms.spread, norms.cond_d, norms.dinv_x)])


def _normwise_route(report: BoundReport, norms: FactorNorms, a, daa: np.ndarray) -> None:
    delta = report.delta
    q_norm = norms.q_norm
    x_norm = norms.x_norm
    xinv_norm = norms.xinv_norm
    kappa2 = x_norm * xinv_norm
    # Perturbation smaller than the inverse's reach: |dA|_2 |X^{-1}|_2 < 1.
    g_inv = make_gate("inverse-dominance", fold_norm(daa) * xinv_norm, 1.0, "<")
    # Smallness of the projected perturbation |Q^T dA X^{-1}|_F.
    qt_da = norms.factors.q.T @ daa
    projected = frobenius_norm(qt_da @ norms.factors.xinv)
    g_small = make_gate("normwise-smallness", projected, SMALLNESS_THRESHOLD, "<=")

    msym, report.winners["sym_kappa"] = min_sym_kappa(norms)
    mq, report.winners["q_product"] = min_q_product(norms)
    report.q_norm, report.x_norm, report.xinv_norm = q_norm, x_norm, xinv_norm
    report.kappa2, report.sym_kappa = kappa2, msym

    report.coef_x4 = REFINED_X_CONSTANT * msym * q_norm
    report.x_refined = report.coef_x4 * delta
    report.x_first_order = msym * q_norm * delta
    report.q_refined = REFINED_Q_CONSTANT_A * mq * q_norm * delta + REFINED_Q_CONSTANT_B * projected
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
        num_a = SQRT2 * msym * (frobenius_norm(qt_da) / a_fro + kappa2 * (delta / x_norm) ** 2)
        num_b = SQRT3 * msym * (delta / x_norm)
        report.x_relative_a = x_norm * num_a / den
        report.x_relative_b = x_norm * num_b / den


def _entrywise_route(
    report: BoundReport, norms: FactorNorms, kq: np.ndarray, kq_fro: float
) -> None:
    eps = report.eps
    qtkq = frobenius_norm(norms.abs_q.T @ kq)
    cond_x = norms.cond_x
    report.gates.append(
        make_gate("comp-smallness", qtkq * cond_x * eps, COMP_SMALLNESS_THRESHOLD, "<")
    )

    mcomp, report.winners["comp_product"] = min_comp_product(norms)
    report.coef_x2 = COMP_X_CONSTANT * mcomp * qtkq
    report.coef_q1 = COMP_Q_CONSTANT * qtkq * cond_x
    report.x_comp_refined = report.coef_x2 * eps
    report.q_comp = report.coef_q1 * eps
    report.gates.append(
        make_gate("comp-combined-smallness", cond_x * kq_fro * eps, SMALLNESS_THRESHOLD, "<=")
    )
    report.x_comp_combined = COMP_COMBINED_CONSTANT * mcomp * kq_fro * eps


def _mirror(v: np.ndarray) -> np.ndarray:
    """A vector (or each row of a stack) followed by its reversal: a
    mirror-symmetric vector from its first half (reversing a vec is the
    double flip of any C-order matrix view of it)."""
    return np.concatenate((v, v[..., ::-1]), axis=-1)


def _fold_add(z: np.ndarray) -> np.ndarray:
    """The first half of each row plus its reversed second half: the adjoint
    of ``_mirror``."""
    half = z.shape[-1] // 2
    return z[..., :half] + z[..., half:][..., ::-1]


def _folded_rank_one_rows(a: np.ndarray, u: np.ndarray, e: int) -> LinearMap:
    """The fold half F = M11 + M12 J of the nonnegative centrosymmetric map M
    whose row c, in the C-order n x n view, is ``2**e a_c u_c^T``: F is M's
    top half of rows (``a`` and ``u`` hold them) applied to mirror-symmetric
    vectors, n^2/2 columns. With A, U the rows of ``a``, ``u``, F F^T = (A
    A^T) o (U U^T) + (A J A^T) o (U J U^T), formed directly for small sides."""
    n = a.shape[1]
    return LinearMap(
        lambda v: np.sum((a @ _mirror(v).reshape(-1, n, n)) * u, axis=2),
        lambda y: _fold_add((a.T @ (y[:, :, None] * u)).reshape(len(y), -1)),
        len(a), n * n // 2, e,
        lambda: (a @ a.T) * (u @ u.T) + (a @ a[:, ::-1].T) * (u @ u[:, ::-1].T),
    )


@dataclass
class FirstOrderOperators:
    """The first-order maps of one factorization, held as the factors that
    apply them. ``gx`` (tau1 x mn) sends vec(dA) to the support entries of
    the first-order X perturbation, ``hx`` (tau1 x n^2) is the
    quadratic-term map and ``gq`` (mn x mn) sends vec(dA) to vec of the
    first-order Q perturbation; ``maps`` applies each in O(mn^2 + n^3) flops
    per vector: gx vec(E) = xvec(upx(W + W^T) X) with W = Q^T E X^{-1}, hx
    vec(E) = xvec(upx(X^{-T} E X^{-1}) X) and gq vec(E) = vec(E X^{-1} - Q
    upx(W + W^T)), with adjoints gx^T y = vec(Q (Z + Z^T) X^{-T}) and hx^T y
    = vec(X^{-1} Z X^{-T}) for Z = H o (Y X^T), Y the support matrix of y
    (H, the upx weights, and the support come from ``support_mask(n)``),
    and gq^T vec(F) = vec((F - Q (Z + Z^T)) X^{-T}) for Z = H o (Q^T F), on
    stacks of transposed matrices (the C-order views of the vecs).

    The three maps are centrosymmetric: reversing a vec of A, of Q or the
    xvec of X is the double flip, since the support positions are ascending
    and closed under the mirror. So are their absolute values, which the
    entrywise consumers read, and for a nonnegative centrosymmetric M with
    fold halves F = M11 + M12 J and G = M11 - M12 J, |G| <= F entrywise, so
    |M|_2 = |F|_2 and M w = [F w1; reversed F w1] for a mirror-symmetric w =
    [w1; reversed w1]. Only the fold half F of |gx| is kept dense, in ``gx``
    (tau1/2 x mn/2, a quarter of |gx|; the signed map is ``maps["g"]``);
    row c < tau1/2 of hx is the rank-one 2**e a_c u_c^T (``hx_rows``), and
    ``abs_responses`` forms the first half of |gq| vec|A| in blocks.
    """

    q: np.ndarray
    xu: np.ndarray  # X^{-1} / 2**e, at unit scale
    xs: np.ndarray  # X * 2**e
    e: int
    hx_rows: tuple[np.ndarray, np.ndarray]  # (a, u), each tau1/2 x n: the top rows of hx
    gx: np.ndarray  # F = |gx|11 + |gx|12 J, tau1/2 x mn/2: the fold half of |gx|

    @property
    def maps(self) -> dict[str, LinearMap]:
        """gx, hx and gq, keyed as ``operator_norms`` reports their norms."""
        q, xu, xs = self.q, self.xu, self.xs
        m, n = q.shape
        support = support_mask(n)
        ht, idx = support.weights.T, support.indices  # H^T; S in a transpose's C-order view
        def sym(t):
            return t + t.swapaxes(1, 2)
        def flat(t):
            return t.reshape(len(t), -1)
        def zt(y):  # Z^T = H^T o (X Y^T)
            yt = np.zeros((len(y), n * n))
            yt[:, idx] = y
            return ht * (xs @ yt.reshape(-1, n, n))
        def gq(v):
            at = xu.T @ v.reshape(-1, n, m)
            return flat(at - (ht * sym(at @ q)) @ q.T)
        def gq_t(f):
            ft = f.reshape(-1, n, m)
            return flat(xu @ (ft - sym(ht * (ft @ q)) @ q.T))

        return {
            "g": LinearMap(
                lambda v: flat(xs.T @ (ht * sym(xu.T @ v.reshape(-1, n, m) @ q)))[:, idx],
                lambda y: flat(xu @ sym(zt(y)) @ q.T), len(idx), m * n,
            ),
            "h": LinearMap(
                lambda v: flat(xs.T @ (ht * (xu.T @ v.reshape(-1, n, n) @ xu)))[:, idx],
                lambda y: flat(xu @ zt(y) @ xu.T), len(idx), n * n, self.e,
            ),
            "gq": LinearMap(gq, gq_t, m * n, m * n, self.e),
        }

    def abs_responses(self, w1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(|gx| w, |gq| w)`` at the scale of A, for the mirror-symmetric w
        = [w1; reversed w1] (w1 holds mn/2 entries). Both maps are nonnegative
        and centrosymmetric, so each response is its first half followed by
        that half reversed; |gx| w starts with F w1. The first half of |gq| w
        sums blocks of gq^T, one per row p of X^{-1}: row (p, r) holds at (s,
        i), s < n/2, u_s (delta_ri - (H^T diag(v) Q^T)[s, i]) - v_s (H^T
        diag(u) Q^T)[s, i], u = X^{-1}[p] / 2**e, v = Q[r]."""
        q, xu = self.q, self.xu
        m, n = q.shape
        l = n // 2
        ht = support_mask(n).weights.T[:l]  # rows s < n/2 of H^T
        eye_minus_c = np.eye(m)[:, None, :] - (ht * q[:, None, :]) @ q.T
        d = (ht * xu[:, None, :]) @ q.T
        block, tmp = np.empty(eye_minus_c.shape), np.empty(eye_minus_c.shape)
        response_q = np.zeros(len(w1))
        for p, wp in enumerate(_mirror(w1).reshape(n, m)):
            np.multiply(eye_minus_c, xu[p, :l, None], out=block)
            block -= np.multiply(q[:, :l, None], d[p], out=tmp)
            response_q += wp @ np.abs(block, out=block).reshape(m, -1)
        return _mirror(self.gx @ w1), _mirror(np.ldexp(response_q, self.e))


# Rows of |gx| folded per step of the build: the blocks stay in cache (at
# (44, 44) the fold took 0.7 ms in blocks of 64 rows and 3.1 ms in one step)
# and the transient stays a fraction of the fold half.
_FOLD_ROWS = 64


def build_first_order_operators(factors) -> FirstOrderOperators:
    """The first-order operators of one ``QxFactors``. Raises
    ``SizeCapExceeded`` when ``m*n`` exceeds ``OPERATOR_SIZE_CAP`` (the dense
    fold half of |gx| costs O(mn^3) memory)."""
    qa, xa = factors.q, factors.x
    m, n = qa.shape
    if m * n > OPERATOR_SIZE_CAP:
        raise SizeCapExceeded(f"m*n = {m * n} exceeds the operator cap {OPERATOR_SIZE_CAP}")
    support = support_mask(n)
    xinv = factors.xinv
    h, l = support.tau1 // 2, n // 2
    wt, idx = support.weights.T, support.indices[:h]  # H^T (H the upx weights); top tau1/2 entries
    cols = idx % n  # the column t of each top support entry (k, t) of X^T S

    # Column (p, r) of gx answers dA = e_r e_p^T, for which Q^T dA X^{-1} =
    # v u^T with u = X^{-1}[p] and v = Q[r]. The transposed X change is then
    # (X^T diag(u) H^T) diag(v) + (X^T diag(v) H^T) diag(u): one n x n product
    # per row of X^{-1} and of Q, gathered at the support and scaled by the
    # other row's entries there. Row c < tau1/2 of hx is 2**e ax[c] xu_s[c]^T.
    e = binary_exponent(xinv)
    xu = np.ldexp(xinv, -e)
    xs = np.ldexp(xa, e)
    ax = ((xs.T * xu[:, None, :]) @ wt).reshape(n, n * n)[:, idx].T
    aq = ((xs.T * qa[:, None, :]) @ wt).reshape(m, n * n)[:, idx].T
    xu_s, q_s = xu[:, cols].T, qa[:, cols].T
    # Row c of gx, as an n x m matrix G_c, is ax[c] q_s[c]^T + xu_s[c] aq[c]^T
    # (rank 2). Row c < tau1/2 of the fold half F of |gx| is |G_c| on its
    # top n/2 rows plus the double flip of |G_c| on its bottom n/2 rows.
    left = np.stack((ax, xu_s), axis=2)  # h x n x 2
    right = np.stack((q_s, aq), axis=1)  # h x 2 x m
    top, bottom = left[:, :l], left[:, l:][:, ::-1]
    flipped = right[:, :, ::-1]
    gx = np.empty((h, l, m))
    tmp = np.empty((min(h, _FOLD_ROWS), l, m))
    for c0 in range(0, h, _FOLD_ROWS):
        c1 = min(c0 + _FOLD_ROWS, h)
        out, t = gx[c0:c1], tmp[: c1 - c0]
        np.abs(np.matmul(top[c0:c1], right[c0:c1], out=out), out=out)
        out += np.abs(np.matmul(bottom[c0:c1], flipped[c0:c1], out=t), out=t)
    return FirstOrderOperators(qa, xu, xs, e, (ax, xu_s), gx.reshape(h, -1))


def operator_norms(ops: FirstOrderOperators) -> dict[str, float]:
    """Spectral norms of the three first-order maps, through their actions."""
    return {name: operator_norm(op) for name, op in ops.maps.items()}


def majorant(
    t: float, a: float, b: float, c: float, lin: float
) -> tuple[float, float, float, float, float]:
    """Solution of the majorant equation ``x = u + c x^2``, ``u = a t + b t^2``.

    Returns the quadratic gate value ``c u`` (the small root is a bound while
    it stays below 1/4), the linear gate value ``(c lin) t``, the small root
    ``2u / (1 + sqrt(1 - 4 c u))``, its doubled linearization ``2u`` and the
    linear form ``lin t``. Each route gates the values itself; ``bound_report``
    drops each bound whose gate fails.
    """
    u = a * t + b * t * t
    root = 2.0 * u / (1.0 + math.sqrt(max(1.0 - 4.0 * c * u, 0.0)))
    return c * u, (c * lin) * t, root, 2.0 * u, lin * t


def comp_matvec_bounds(
    report: BoundReport, ops: FirstOrderOperators, norms: FactorNorms, kq: np.ndarray,
    kq_fro: float,
) -> None:
    """Majorant-equation bounds under the entrywise model, written into ``report``.

    The three coefficients are

    - ``a_hat = ||gx| (|X^T| kron I_m)|_2 * |K |Q||_F``
    - ``b_hat = ||hx| (|X^T| kron |X^T|)|_2 * ||Q^T| K^T K |Q||_F``
    - ``c_hat = | |hx| |_2``, at least ``|hx|_2``, so the majorant stays a bound

    ``kq`` is ``K |Q|``, ``kq_fro`` its Frobenius norm (so ``||Q^T| K^T K
    |Q||_F = |kq^T kq|_F``) and ``eps`` is ``report.eps``. Each product
    is normed through its action, with |X| = 2**-e |xs|: a row vec(R) of |gx|
    times ``|X^T| kron I_m`` is vec(|X| R), and row c of |hx| (|X^T| kron
    |X^T|) is 2**e (|X| |a_c|)(|X| |u_c|)^T. The values are not withheld here.

    All four operands are nonnegative and centrosymmetric, so each is normed
    from its fold half alone (``FirstOrderOperators``): F of |gx| times the
    f block of |X^T| kron I_m, the top tau1/2 rank-one rows of |hx| and of
    its product on mirror-symmetric vectors, and the f half of |X|. The f
    block of |X^T| kron I_m mirror-expands a vector, multiplies it by |X^T|
    (in the C-order n x m view) and keeps the first half; its transpose
    multiplies by |X| instead.
    """
    m, n = ops.q.shape
    l = n // 2
    absxs, f_gx = np.abs(ops.xs), ops.gx
    a, u = (np.abs(f) for f in ops.hx_rows)

    def kron_f(v, x_rows):  # x_rows: the top n/2 rows of |X^T| (or of |X| for the transpose)
        return (x_rows @ _mirror(v).reshape(-1, n, m)).reshape(len(v), -1)

    xt_rows, x_rows = absxs[:, :l].T, absxs[:l]
    gxa_norm = operator_norm(LinearMap(
        lambda v: kron_f(v, xt_rows) @ f_gx.T,
        lambda y: kron_f(y @ f_gx, x_rows),
        len(f_gx), m * n // 2, -ops.e,
    ))
    hxb_norm = operator_norm(_folded_rank_one_rows(a @ absxs.T, u @ absxs.T, -ops.e))
    c_hat = operator_norm(_folded_rank_one_rows(a, u, ops.e))
    qtktkq_fro = frobenius_norm(kq.T @ kq)
    a_hat = gxa_norm * kq_fro
    b_hat = hxb_norm * qtktkq_fro
    coef_x1 = (nonnegative_norm(fold(norms.abs_x).f) + 2.0 * gxa_norm) * kq_fro

    eps = report.eps
    quad, linear, *majorants = majorant(eps, a_hat, b_hat, c_hat, coef_x1)
    report.gates.append(make_gate("comp-majorant", quad, 0.25, "<="))
    report.gates.append(make_gate("comp-majorant-linear", linear, 0.5, "<="))
    report.a_hat, report.b_hat, report.c_hat, report.coef_x1 = a_hat, b_hat, c_hat, coef_x1
    (report.x_comp_majorant_root, report.x_comp_majorant_twice,
     report.x_comp_majorant_linear) = majorants
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
        # K enters every entrywise bound through K|Q| only.
        kq = as_matrix(k, "entrywise weight") @ norms.abs_q
        kq_fro = frobenius_norm(kq)
        _entrywise_route(report, norms, kq, kq_fro)

    if ops is not None:
        op = operator_norms(ops)
        g, h = op["g"], op["h"]
        report.g_x_norm, report.h_x_norm, report.g_q_norm = g, h, op["gq"]
        report.coef_x3 = 1.0 + 2.0 * g
        quad, linear, *majorants = majorant(report.delta, g, h, h, report.coef_x3)
        report.gates.append(make_gate("majorant-x", quad, 0.25, "<"))
        report.gates.append(make_gate("majorant-x-linear", linear, 0.5, "<"))
        report.x_majorant_root, report.x_majorant_twice, report.x_majorant_linear = majorants
        # (2 + sqrt2) * (|gq|_2 + |X^{-1}|_2 |Q|_2 (1 + |gx|_2)) * delta
        report.coef_q2 = OPERATOR_Q_CONSTANT * (
            op["gq"] + norms.xinv_norm * norms.q_norm * (1.0 + g)
        )
        report.q_operator = report.coef_q2 * report.delta
        if entrywise:
            comp_matvec_bounds(report, ops, norms, kq, kq_fro)

    held = {g.name for g in report.gates if g.satisfied}
    for bound in BOUNDS:
        if not held.issuperset(bound.gates):
            setattr(report, bound.name, None)
    return report
