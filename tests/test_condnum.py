"""Mixed/component-wise condition numbers: oracles, dominance, probes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from centroqx.bounds import build_first_order_operators
from centroqx.centro import random_centro
from centroqx.condnum import (
    PROBE_EPS_CAP,
    cond_upper_bounds,
    empirical_cond_probe,
    mixed_comp_cond,
)
from centroqx.harness import run_table
from centroqx.qx import qx_decompose
from centroqx.xops import support_mask


def _cond_for(a):
    f = qx_decompose(a)
    return mixed_comp_cond(a, build_first_order_operators(f), f), f


# -------------------------------------------------------- identity oracle


@pytest.mark.parametrize("n", [2, 4, 6])
def test_identity_exact_values(n):
    """A = I: X is insensitive in relative terms (m = c = 1), Q is fixed."""
    cond, _ = _cond_for(np.eye(n))
    assert cond.mx == pytest.approx(1.0, abs=1e-12)
    assert cond.cx == pytest.approx(1.0, abs=1e-12)
    assert cond.mq == pytest.approx(0.0, abs=1e-12)
    # cq is not pinned at identity: Q's exact zeros come out as rounding-level
    # entries, so the component-wise Q ratio there is a 0/0 form.
    assert math.isfinite(cond.cq) and cond.cq >= 0.0


def test_identity_upper_estimates():
    n = 4
    f = qx_decompose(np.eye(n))
    upper = cond_upper_bounds(np.eye(n), f)
    assert upper["mx_upper"] == pytest.approx(1.0, abs=1e-12)
    assert upper["cx_upper"] == pytest.approx(1.0, abs=1e-12)
    assert upper["mq_upper"] == pytest.approx(2.0, abs=1e-12)
    assert upper["cq_upper"] == pytest.approx(2.0, abs=1e-12)


# ----------------------------------------------------------- homogeneity


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_scale_invariance(scale):
    a = random_centro(8, 4, seed=40)
    base, _ = _cond_for(a)
    scaled, _ = _cond_for(scale * a)
    assert scaled.mx == pytest.approx(base.mx, rel=1e-12)
    assert scaled.cx == pytest.approx(base.cx, rel=1e-12)
    assert scaled.mq == pytest.approx(base.mq, rel=1e-12)
    assert scaled.cq == pytest.approx(base.cq, rel=1e-12)


# -------------------------------------------------------------- dominance


@pytest.mark.parametrize("shape", [(4, 2), (8, 4), (7, 4), (20, 10), (12, 12)])
def test_upper_estimates_dominate(shape):
    m, n = shape
    a = random_centro(m, n, seed=50 + m)
    cond, f = _cond_for(a)
    upper = cond_upper_bounds(a, f)
    slack = 1e-10
    assert cond.mx <= upper["mx_upper"] * (1 + slack)
    assert cond.cx <= upper["cx_upper"] * (1 + slack)
    assert cond.mq <= upper["mq_upper"] * (1 + slack)
    assert cond.cq <= upper["cq_upper"] * (1 + slack)


def test_positions_recorded():
    a = random_centro(8, 4, seed=60)
    cond, _ = _cond_for(a)
    assert len(cond.mx_position) == 2
    assert len(cond.mq_position) == 2


def test_positions_are_lower_member_of_mirrored_pair():
    """Mirrored entries (i, j) and (m+1-i, n+1-j) of a response are equal in
    exact arithmetic, so each reported position is the one of its pair with
    the lower index in vec(Q) or xvec(X), whichever one rounding made
    larger; a plain argmax picks the higher one for five of these 34."""
    checked = 0
    for preset in ("t4", "t5", "t6", "t7"):
        for rec in run_table(preset, 42)[1]:
            if rec.cond is None:
                continue
            m, n = rec.m, rec.n
            support = support_mask(n).indices
            # Reversing xvec(X) is the centro mirror, as reversing vec(Q) is.
            assert np.array_equal(support[::-1], n * n - 1 - support)
            i, j = rec.cond["mx_position"]
            k = int(np.searchsorted(support, (j - 1) * n + i - 1))
            assert support[k] == (j - 1) * n + i - 1
            assert k <= len(support) - 1 - k, (preset, m, n, "mx", (i, j))
            i, j = rec.cond["mq_position"]
            iq = (j - 1) * m + i - 1
            assert iq <= m * n - 1 - iq, (preset, m, n, "mq", (i, j))
            checked += 2
    assert checked == 34


# ------------------------------------------------------------------ probe


@pytest.mark.parametrize("shape", [(4, 2), (8, 4), (12, 12)])
def test_probe_below_formula_values(shape):
    m, n = shape
    a = random_centro(m, n, seed=70 + m)
    cond, f = _cond_for(a)
    eps = 1e-6
    probe = empirical_cond_probe(a, f, eps, seed=71 + m, trials=12)
    tol = 1.0 + 100.0 * probe.eps
    assert probe.mx <= cond.mx * tol
    assert probe.cx <= cond.cx * tol
    assert probe.mq <= cond.mq * tol + 1e-12
    assert probe.cq <= cond.cq * tol + 1e-12


def test_probe_eps_capped():
    a = random_centro(4, 2, seed=80)
    f = qx_decompose(a)
    with pytest.raises(ValueError):
        empirical_cond_probe(a, f, 1e-2, seed=81, trials=2)
    with pytest.raises(ValueError):
        empirical_cond_probe(a, f, 0.0, seed=81, trials=2)
    probe = empirical_cond_probe(a, f, PROBE_EPS_CAP, seed=81, trials=2)
    assert probe.eps == PROBE_EPS_CAP
    assert probe.trials == 2


def test_probe_deterministic():
    a = random_centro(4, 2, seed=82)
    p1 = empirical_cond_probe(a, qx_decompose(a), 1e-7, seed=83, trials=4)
    p2 = empirical_cond_probe(a, qx_decompose(a), 1e-7, seed=83, trials=4)
    assert (p1.mx, p1.cx, p1.mq, p1.cq) == (p2.mx, p2.cx, p2.mq, p2.cq)
