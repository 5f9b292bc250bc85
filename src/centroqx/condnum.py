"""Mixed and component-wise condition numbers of the factorization.

The mixed condition number of a factor measures the worst first-order
max-norm response relative to the factor's max-norm; the component-wise one
measures the worst entrywise relative response. Both are exact expressions
in the absolute first-order operators:

- ``mx = | |gx| vec(|A|) |_inf / |X|_max``
- ``cx = | vec ratios of |gx| vec(|A|) against |xvec(X)| |_inf``
- ``mq = | |gq| vec(|A|) |_inf / |Q|_max``
- ``cq = | vec ratios of |gq| vec(|A|) against |vec(Q)| |_inf``

plus cheap closed-form upper bounds that avoid building the operators, and a
sign-extremal empirical probe that lower-bounds the formulas by refactorizing
under entrywise perturbations ``dA = eps * S * A`` for centrosymmetric sign
patterns S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import FirstOrderOperators
from .centro import random_sign_centro
from .linalg import as_matrix, entrywise_div, max_abs, vec
from .qx import qx_decompose
from .rng import derive_seed
from .xops import upx, xvec, xvec_indices

PROBE_EPS_CAP = 1e-5


@dataclass
class CondReport:
    """Exact condition numbers with argmax positions (1-indexed)."""

    mx: float
    cx: float
    mq: float
    cq: float
    mq_q_weighted: float  # variant driven by vec(|Q|) instead of vec(|A|)
    mx_position: tuple[int, int]
    mq_position: tuple[int, int]


def mixed_comp_cond(a, ops: FirstOrderOperators, factors) -> CondReport:
    """Exact mixed/component-wise condition numbers from the operators."""
    aa = as_matrix(a, "matrix")
    m, n = factors.q.shape
    abs_a_vec = np.abs(vec(aa))

    response_x = np.abs(ops.gx) @ abs_a_vec
    x_max = max_abs(factors.x)
    ix = int(np.argmax(response_x))
    pos_vec = int(xvec_indices(n)[ix])
    mx_pos = (pos_vec % n + 1, pos_vec // n + 1)
    mx = float(response_x[ix]) / x_max
    cx = max_abs(entrywise_div(response_x, np.abs(xvec(factors.x))))

    abs_gq = np.abs(ops.gq)
    response_q = abs_gq @ abs_a_vec
    q_max = max_abs(factors.q)
    iq = int(np.argmax(response_q))
    mq_pos = (iq % m + 1, iq // m + 1)
    mq = float(response_q[iq]) / q_max
    cq = max_abs(entrywise_div(response_q, np.abs(vec(factors.q))))
    mq_q_weighted = float(np.max(abs_gq @ np.abs(vec(factors.q)))) / q_max

    return CondReport(
        mx=mx,
        cx=cx,
        mq=mq,
        cq=cq,
        mq_q_weighted=mq_q_weighted,
        mx_position=mx_pos,
        mq_position=mq_pos,
    )


def cond_upper_bounds(a, factors) -> dict:
    """Operator-free upper bounds on the four condition numbers.

    Built from ``w = upx(|X^{-T}||A^T||Q| + |Q^T||A||X^{-1}|)`` (which
    dominates the absolute response of the X map applied to |A|) and
    ``v = |A||X^{-1}| + |Q| w`` for the Q map.
    """
    aa = as_matrix(a, "matrix")
    abs_a = np.abs(aa)
    abs_q = np.abs(factors.q)
    abs_x = np.abs(factors.x)
    abs_xi = np.abs(factors.xinv)

    w = upx(abs_xi.T @ abs_a.T @ abs_q + abs_q.T @ abs_a @ abs_xi)
    wx = w @ abs_x
    v = abs_a @ abs_xi + abs_q @ w

    return {
        "mx_upper": max_abs(wx) / max_abs(abs_x),
        "cx_upper": max_abs(entrywise_div(vec(wx), vec(abs_x))),
        "mq_upper": max_abs(v) / max_abs(abs_q),
        "cq_upper": max_abs(entrywise_div(vec(v), vec(abs_q))),
    }


@dataclass
class ProbeReport:
    """Largest empirical condition ratios over sign-extremal perturbations."""

    eps: float
    trials: int
    mx: float
    cx: float
    mq: float
    cq: float


def empirical_cond_probe(a, base, eps: float, seed: int, trials: int = 8) -> ProbeReport:
    """Measure condition ratios by refactorizing under ``dA = eps * S * A``.

    ``base`` is the ``QxFactors`` of ``a``. The sign patterns S are
    centrosymmetric, so each perturbed matrix stays factorizable; the
    measured ratios are first-order lower evidence for the formula values
    (they may never exceed them beyond O(eps) curvature). ``eps`` is capped
    at ``PROBE_EPS_CAP`` to stay in the linear regime.
    """
    if not (0.0 < eps <= PROBE_EPS_CAP):
        raise ValueError(f"probe eps must lie in (0, {PROBE_EPS_CAP}], got {eps}")
    aa = as_matrix(a, "matrix")
    m, n = aa.shape
    x_max = max_abs(base.x)
    q_max = max_abs(base.q)
    xv = xvec(base.x)
    qv = vec(base.q)
    mx = cx = mq = cq = 0.0
    for t in range(trials):
        s = random_sign_centro(m, n, derive_seed(seed, t))
        perturbed = qx_decompose(aa + eps * (s * aa))
        dx = perturbed.x - base.x
        dq = perturbed.q - base.q
        mx = max(mx, max_abs(dx) / x_max / eps)
        cx = max(cx, max_abs(entrywise_div(xvec(dx), xv)) / eps)
        mq = max(mq, max_abs(dq) / q_max / eps)
        cq = max(cq, max_abs(entrywise_div(vec(dq), qv)) / eps)
    return ProbeReport(eps=eps, trials=trials, mx=mx, cx=cx, mq=mq, cq=cq)
