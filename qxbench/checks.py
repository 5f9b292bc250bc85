"""Correctness checks made apart from the program, with numpy.

The reference factorization folds A with the benchmark's own fold basis and
factors both halves with ``numpy.linalg.qr`` normalised to a positive
diagonal; that QX factorization is unique for a full-rank A, so the program's
factors must agree with it to rounding. The ``check_*`` functions return the
names of the checks that failed (an empty list when all pass) and never raise
on a wrong value.
"""

from __future__ import annotations

import math

import numpy as np

# Criterion-1 tolerances of the acceptance suite.
RECON_TOL = 1e-12  # |A - QX|_F <= tol * (1 + |A|_F)
ORTH_TOL = 1e-12  # |Q^T Q - I|_F <= tol * n, and the same for the exchange identity
# Agreement with the numpy reference, per unit of kappa_F(X) * |X|_F, and
# |X X^{-1} - I|_F per unit of kappa_F(X).
AGREE_TOL = 1e-14
DELTA_RTOL = 1e-5  # measured |dX|_F, |dQ|_F against their numpy recomputation
KAPPA_RTOL = 1e-6  # reported kappa2(X) against numpy.linalg.cond
DOMINATION_RTOL = 1e-9  # a bound may undershoot the numpy delta by this share only
COND_RTOL = 1e-10  # upper estimate against the exact condition number
TIGHTNESS_SLACK = 1e-10
PROBE_FACTOR = 100.0  # probe <= formula * (1 + PROBE_FACTOR * eps)
FIRST_ORDER_MARGIN = 1e-2  # second-order share allowed over the first-order response

# Values the program reports as upper bounds on |dX|_F and |dQ|_F.
X_BOUNDS = (
    "x_refined", "x_relative_a", "x_relative_b",
    "x_majorant_root", "x_majorant_twice", "x_majorant_linear",
    "x_comp_refined", "x_comp_combined",
    "x_comp_majorant_root", "x_comp_majorant_twice", "x_comp_majorant_linear",
)
Q_BOUNDS = ("q_refined", "q_operator", "q_comp")
COND_KEYS = ("mx", "cx", "mq", "cq")


def fold_basis(k: int) -> np.ndarray:
    """Orthogonal B_k whose first ceil(k/2) columns are flip-symmetric."""
    p = k // 2
    b = np.zeros((k, k))
    eye = np.eye(p) / math.sqrt(2.0)
    b[:p, :p] = eye
    b[:p, k - p:] = eye
    b[k - p:, :p] = eye[::-1]
    b[k - p:, k - p:] = -eye[::-1]
    if k % 2:
        b[p, p] = 1.0
    return b


def fold(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal blocks (F, G) of B_m^T A B_n for centrosymmetric A, n even.

    Written out blockwise (O(mn)) rather than as the two dense products.
    """
    m, n = a.shape
    p, l = m // 2, n // 2
    top, bottom = a[:p], a[m - p:][::-1]
    s, d = top + bottom, top - bottom
    f = 0.5 * (s[:, :l] + s[:, l:][:, ::-1])
    g = 0.5 * (d[:, :l] - d[:, l:][:, ::-1])
    if m % 2:
        f = np.vstack([f, (a[p, :l] + a[p, l:][::-1]) / math.sqrt(2.0)])
    return f, g


def qr_positive(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(mat)
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * sign[None, :], r * sign[:, None]


def reference_halves(a: np.ndarray):
    """numpy QR of both fold halves: ((Qf, Rf), (Qg, Rg))."""
    f, g = fold(np.asarray(a, dtype=float))
    return qr_positive(f), qr_positive(g)


def assemble_x(halves, n: int) -> np.ndarray:
    """X = B_n diag(Rf, Rg) B_n^T of the reference factorization."""
    (_, rf), (_, rg) = halves
    l = n // 2
    block = np.zeros((n, n))
    block[:l, :l] = rf
    block[l:, l:] = rg
    bn = fold_basis(n)
    return bn @ block @ bn.T


def assemble_q(halves, m: int, n: int) -> np.ndarray:
    """Q = B_m diag(Qf, Qg) B_n^T of the reference factorization."""
    (qf, _), (qg, _) = halves
    l = n // 2
    block = np.zeros((m, n))
    block[: qf.shape[0], :l] = qf
    block[qf.shape[0]:, l:] = qg
    return fold_basis(m) @ block @ fold_basis(n).T


def cone_mask(n: int) -> np.ndarray:
    """Double-cone support: (a <= b and a+b <= n+1) or (a >= b and a+b >= n+1)."""
    a = np.arange(1, n + 1)[:, None]
    b = np.arange(1, n + 1)[None, :]
    return ((a <= b) & (a + b <= n + 1)) | ((a >= b) & (a + b >= n + 1))


def factor_residuals(a, q, x, label: str) -> list[str]:
    """Criterion-1 residuals and exact zeros off the double cone."""
    n = a.shape[1]
    failed = []
    if np.linalg.norm(a - q @ x) > RECON_TOL * (1.0 + np.linalg.norm(a)):
        failed.append(f"{label}:reconstruction")
    if np.linalg.norm(q.T @ q - np.eye(n)) > ORTH_TOL * n:
        failed.append(f"{label}:orthogonality")
    if np.linalg.norm(q.T @ q[::-1, :] - np.eye(n)[::-1]) > ORTH_TOL * n:
        failed.append(f"{label}:exchange")
    if np.any(x[~cone_mask(n)] != 0.0):
        failed.append(f"{label}:off-cone-zeros")
    return failed


def agrees(got, want, scale: float) -> bool:
    return bool(np.linalg.norm(got - want) <= AGREE_TOL * scale)


def check_factor(a, q, x, xinv) -> list[str]:
    """``qx_decompose`` then ``x_inverse`` on one input."""
    n = a.shape[1]
    failed = factor_residuals(a, q, x, "qx")
    if np.any(xinv[~cone_mask(n)] != 0.0):
        failed.append("x_inverse:off-cone-zeros")
    kappa_f = np.linalg.norm(x) * np.linalg.norm(xinv)
    if np.linalg.norm(x @ xinv - np.eye(n)) > AGREE_TOL * kappa_f:
        failed.append("x_inverse:residual")
    x_ref = assemble_x(reference_halves(a), n)
    if not agrees(x, x_ref, kappa_f * np.linalg.norm(x_ref)):
        failed.append("qx:x-vs-numpy")
    return failed


def _bound_names(report, names: tuple[str, ...], extra_attr: str) -> tuple[str, ...]:
    # Also check any bound the program itself lists, so that one added later
    # is held to the same test.
    listed = tuple(getattr(type(report), extra_attr, ()) or ())
    return names + tuple(n for n in listed if n not in names)


def check_trial(a, da, factors, perturbed, record) -> list[str]:
    """One ``run_trial`` record against numpy and the method's properties.

    ``a`` and ``da`` are the trial's matrix and perturbation; ``factors`` and
    ``perturbed`` are the program's (Q, X) of A and A + dA.
    """
    m, n = a.shape
    failed: list[str] = []
    if record.error is not None or record.report is None:
        return [f"error:{record.error}"]
    failed += factor_residuals(a, factors.q, factors.x, "qx(A)")
    failed += factor_residuals(a + da, perturbed.q, perturbed.x, "qx(A+dA)")

    base = reference_halves(a)
    moved = reference_halves(a + da)
    x_ref, x_ref2 = assemble_x(base, n), assemble_x(moved, n)
    q_ref, q_ref2 = assemble_q(base, m, n), assemble_q(moved, m, n)
    kappa_f = np.linalg.norm(x_ref) * np.linalg.norm(np.linalg.inv(x_ref))
    if not agrees(factors.x, x_ref, kappa_f * np.linalg.norm(x_ref)):
        failed.append("qx(A):x-vs-numpy")

    dx = np.linalg.norm(x_ref2 - x_ref)
    dq = np.linalg.norm(q_ref2 - q_ref)
    if abs(record.delta_a - np.linalg.norm(da)) > 1e-12 * np.linalg.norm(da):
        failed.append("input:delta_a")
    if abs(record.delta_x - dx) > DELTA_RTOL * dx:
        failed.append("measured:delta_x")
    if abs(record.delta_q - dq) > DELTA_RTOL * dq:
        failed.append("measured:delta_q")

    rep = record.report
    for names, attr, measured in (
        (X_BOUNDS, "X_BOUND_FIELDS", dx),
        (Q_BOUNDS, "Q_BOUND_FIELDS", dq),
    ):
        for name in _bound_names(rep, names, attr):
            value = getattr(rep, name, None)
            if value is not None and not value >= measured * (1.0 - DOMINATION_RTOL):
                failed.append(f"domination:{name}")

    if not abs(record.kappa2 - np.linalg.cond(factors.x)) <= KAPPA_RTOL * record.kappa2:
        failed.append("kappa2-vs-numpy")

    # First-order response to |dA| <= eps |A| is bounded by the condition
    # numbers, so the measured max-norm changes must stay under the upper
    # estimates (up to second-order terms).
    eps = record.eps_request
    upper = record.cond_upper or {}
    dx_max = np.max(np.abs(x_ref2 - x_ref)) / (eps * np.max(np.abs(x_ref)))
    dq_max = np.max(np.abs(q_ref2 - q_ref)) / (eps * np.max(np.abs(q_ref)))
    for key, measured in (("mx_upper", dx_max), ("mq_upper", dq_max)):
        if key not in upper or not measured <= upper[key] * (1.0 + FIRST_ORDER_MARGIN):
            failed.append(f"cond_upper:{key}-vs-measured")

    if record.cond is not None:
        for key in COND_KEYS:
            if not upper.get(f"{key}_upper", -math.inf) >= record.cond[key] * (1.0 - COND_RTOL):
                failed.append(f"cond_upper:{key}-below-exact")
        if record.tightness_slack is None or not record.tightness_slack >= -TIGHTNESS_SLACK:
            failed.append("tightness")
    if record.probe is not None:
        exact = record.cond or {}
        limit = 1.0 + PROBE_FACTOR * record.probe["eps"]
        for key in COND_KEYS:
            if not record.probe[key] <= exact.get(key, -math.inf) * limit:
                failed.append(f"probe:{key}")
    return failed
