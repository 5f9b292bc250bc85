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
from .xops import support_mask, upx, xvec

PROBE_EPS_CAP = 1e-5
COND_NUMBERS = ("mx", "cx", "mq", "cq")  # mixed and componentwise, X then Q


def _mixed_comp(response, factor) -> tuple[float, float]:
    """``(max|r| / max|f|, max|r_i / f_i|)`` of a response r against a factor f."""
    return max_abs(response) / max_abs(factor), max_abs(entrywise_div(response, factor))


@dataclass
class CondReport:
    """Exact condition numbers with argmax positions (1-indexed, first of a mirrored pair)."""

    mx: float
    cx: float
    mq: float
    cq: float
    mx_position: tuple[int, int]
    mq_position: tuple[int, int]


def _mirror_argmax(response: np.ndarray) -> int:
    """Argmax of a response that is exactly its own reversal (the centro
    mirror), as the lower index of its pair: the argmax of its first half."""
    return int(np.argmax(response[: len(response) // 2]))


def mixed_comp_cond(a, ops: FirstOrderOperators, factors) -> CondReport:
    """Exact mixed/component-wise condition numbers from the absolute
    responses |gx| vec|A| and |gq| vec|A| (``ops.abs_responses``).

    |A| is read only through the half that ``fold`` factors: the top
    floor(m/2) rows and, for odd m, the first half of the middle row. Q and
    X are the factors of the mirror completion of that half, so for an A
    that is centrosymmetric only to ``CENTRO_TOL`` the condition numbers
    are the completion's, and A's other entries are not read. The left
    column half of the completion is the first half of the mirror-symmetric
    vec|A| that ``abs_responses`` takes.
    """
    aa = as_matrix(a, "matrix")
    m, n = aa.shape
    p, l = m // 2, n // 2
    left = np.concatenate((aa[: m - p, :l], aa[:p, l:][::-1, ::-1]))
    response_x, response_q = ops.abs_responses(np.abs(vec(left)))
    mx, cx = _mixed_comp(response_x, xvec(factors.x))
    mq, cq = _mixed_comp(response_q, vec(factors.q))
    jx = int(support_mask(n).indices[_mirror_argmax(response_x)])  # in vec(X)
    jq = _mirror_argmax(response_q)
    return CondReport(mx, cx, mq, cq, (jx % n + 1, jx // n + 1), (jq % m + 1, jq // m + 1))


def cond_upper_bounds(a, factors) -> dict:
    """Operator-free upper bounds on the four condition numbers, keyed ``<name>_upper``.

    Built from ``w = upx(P + P^T)`` with ``P = |Q^T||A||X^{-1}|`` (w
    dominates the absolute response of the X map applied to |A|) and
    ``v = |A||X^{-1}| + |Q| w`` for the Q map.
    """
    aa = as_matrix(a, "matrix")
    abs_a = np.abs(aa)
    abs_q = np.abs(factors.q)
    abs_x = np.abs(factors.x)
    abs_xi = np.abs(factors.xinv)

    p = abs_q.T @ abs_a @ abs_xi
    w = upx(p + p.T)
    v = abs_a @ abs_xi + abs_q @ w
    values = (*_mixed_comp(w @ abs_x, abs_x), *_mixed_comp(v, abs_q))
    return {f"{name}_upper": value for name, value in zip(COND_NUMBERS, values)}


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
    centrosymmetric, so each perturbed matrix stays factorizable; all of
    them are factored in one stacked ``qx_decompose`` call. The measured
    ratios are first-order lower evidence for the formula values (they may
    never exceed them beyond O(eps) curvature). ``eps`` must lie in
    (0, ``PROBE_EPS_CAP``], to stay in the linear regime (``ValueError``
    otherwise); the caller caps it.
    """
    if not (0.0 < eps <= PROBE_EPS_CAP):
        raise ValueError(f"probe eps must lie in (0, {PROBE_EPS_CAP}], got {eps}")
    aa = as_matrix(a, "matrix")
    m, n = aa.shape
    xv = xvec(base.x)
    qv = vec(base.q)
    best = [0.0] * len(COND_NUMBERS)
    signs = np.array([random_sign_centro(m, n, derive_seed(seed, t)) for t in range(trials)])
    for perturbed in qx_decompose(aa + eps * (signs.reshape(-1, m, n) * aa)):
        # X is exactly zero off its support, so its ratios run over xvec.
        ratios = (
            *_mixed_comp(xvec(perturbed.x - base.x), xv),
            *_mixed_comp(vec(perturbed.q - base.q), qv),
        )
        best = [max(b, r / eps) for b, r in zip(best, ratios)]
    return ProbeReport(eps=eps, trials=trials, **dict(zip(COND_NUMBERS, best)))
