"""Double-cone support machinery: projections, scan order, scalings."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroqx.xops as xops_mod
from centroqx.bounds import FirstOrderOperators
from centroqx.centro import random_centro
from centroqx.errors import OddDimension, ZeroRow
from centroqx.linalg import vec
from centroqx.rng import uniform_open
from centroqx.xops import (
    make_scaling,
    scaling_candidates,
    support_mask,
    upx,
    varsigma,
    xvec,
)
from oracles import indicator_dense, is_x_type, lemma1_check, lowx, selection_dense, utx


def _in_support_ref(alpha: int, beta: int, n: int) -> bool:
    """Independent 1-indexed predicate for the double-cone support."""
    return (alpha <= beta and alpha + beta <= n + 1) or (
        alpha >= beta and alpha + beta >= n + 1
    )


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_support_mask_matches_predicate(n):
    mask = support_mask(n)
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            assert bool(mask.inside[alpha - 1, beta - 1]) == _in_support_ref(alpha, beta, n)
    assert mask.tau1 == n * (n + 2) // 2  # exact integer count
    assert mask.tau1 == int(np.sum(mask.inside))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_support_count_identity_exact(n):
    # |S| = n(n+2)/2, an exact integer identity
    got = sum(
        _in_support_ref(a, b, n) for a in range(1, n + 1) for b in range(1, n + 1)
    )
    assert got == n * (n + 2) // 2


def test_support_rejects_odd():
    with pytest.raises(OddDimension):
        support_mask(3)


def test_upx_ones_fixture():
    want = np.array(
        [
            [0.5, 1.0, 1.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.5, 1.0, 1.0, 0.5],
        ]
    )
    assert np.array_equal(upx(np.ones((4, 4))), want)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_projection_identities_exact(n):
    c = uniform_open(50 + n, n * n).reshape(n, n)
    assert np.array_equal(upx(c) + lowx(c), c)
    assert np.array_equal(lowx(c), upx(c.T).T)
    assert np.array_equal(utx(c), c * support_mask(n).inside)


def test_x_type_predicate():
    w = upx(random_centro(6, 6, seed=8) + random_centro(6, 6, seed=9).T @ np.eye(6))
    # upx output of anything is supported on S
    assert is_x_type(utx(np.ones((6, 6))) * 3.0)
    bad = np.ones((4, 4))
    assert not is_x_type(bad)


# Dense, so neither centrosymmetric nor supported on S, but every entry of
# the scaled copies is below the tolerance: an absolute test accepts them.
DENSE = uniform_open(3, 16).reshape(4, 4)


def test_x_type_test_is_relative():
    for scale in (1.0, 1e-13, 2.0**-60):
        assert not is_x_type(scale * DENSE)


def _nudged_x_type(rel_defect: float) -> np.ndarray:
    """X-type 6x6 with the off-support entry (1, 0) set to ``rel_defect * max|W|``."""
    w = upx(random_centro(6, 6, seed=26))
    w[1, 0] = rel_defect * np.max(np.abs(w))
    return w


X_TYPE_SCALE_CASES = (
    (upx(random_centro(6, 6, seed=26)), True),
    (DENSE, False),
    (_nudged_x_type(2.0**-42), True),
    (_nudged_x_type(2.0**-38), False),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000))
def test_x_type_test_is_scale_invariant(k):
    for c, expected in X_TYPE_SCALE_CASES:
        assert is_x_type(c) is expected
        assert is_x_type(2.0**k * c) is expected


def test_exact_recovery_for_x_type():
    # upx undoes symmetrization exactly on X-type input
    for n in (2, 4, 8):
        w = upx(random_centro(n, n, seed=20 + n))
        assert is_x_type(w)
        assert np.array_equal(upx(w + w.T), w)


def test_xvec_column_major_scan():
    n = 4
    c = np.arange(1.0, 17.0).reshape(n, n)  # row-major fill for readability
    mask = support_mask(n).inside
    want = vec(c)[vec(mask).astype(bool)]  # column-major scan of the support
    assert np.array_equal(xvec(c), want)
    assert np.array_equal(xvec(c), vec(c)[support_mask(n).indices])
    assert len(xvec(c)) == n * (n + 2) // 2


def test_xvec_rejects_rectangular():
    with pytest.raises(ValueError):
        xvec(np.ones((4, 2)))


# ----------------------------------------------------------- operators


@pytest.mark.parametrize("n", [2, 4, 6])
def test_structured_operator_matrices(n):
    ops = support_mask(n)
    sel = selection_dense(n)
    tau1 = n * (n + 2) // 2
    assert sel.shape == (tau1, n * n)
    assert np.array_equal(sel @ sel.T, np.eye(tau1))
    assert np.array_equal(sel.T @ sel, indicator_dense(n))
    c = uniform_open(70 + n, n * n).reshape(n, n)
    # half-weight operator realizes the halved projection in vec coordinates
    hw = np.diag(ops.weights.reshape(-1, order="F"))
    assert np.allclose(hw @ vec(c), vec(upx(c)), rtol=0, atol=1e-15)
    # selection composed with halving lands in xvec coordinates
    assert np.allclose(sel @ hw @ vec(c), xvec(upx(c)), rtol=0, atol=1e-15)
    # indicator realizes utx in vec coordinates
    assert np.allclose(
        indicator_dense(n) @ vec(c), vec(utx(c)), rtol=0, atol=1e-15
    )


def test_one_support_object_per_dimension():
    """The mask, the upx weights and the xvec positions of each n come from
    one cached constructor, and the first-order operators keep none of them."""
    cached = [
        name for name, obj in vars(xops_mod).items()
        if hasattr(obj, "cache_info") and obj.__module__ == xops_mod.__name__
    ]
    assert cached == ["support_mask"]
    support = support_mask(6)
    assert support_mask(6) is support
    assert np.array_equal(upx(np.ones((6, 6))), support.weights)
    assert np.array_equal(lowx(np.ones((6, 6))), support.weights.T)
    fields = {f.name for f in dataclasses.fields(FirstOrderOperators)}
    assert not fields & {"ht", "indices", "inside", "weights", "support"}


# ------------------------------------------------------------ scalings


def test_make_scaling_palindromic_fixture():
    d = make_scaling([2.0, 1.0])
    assert np.array_equal(d.diagonal(), [2.0, 1.0, 1.0, 2.0])
    assert varsigma(d) == 2.0


def test_varsigma_identity():
    assert varsigma(make_scaling([1.0, 1.0])) == 1.0


def _varsigma_loop(d) -> float:
    """Reference: one pass over the diagonal with a running minimum."""
    diag = d.diagonal()
    best = 0.0
    running_min = diag[0]
    for beta in range(1, diag.size):
        best = max(best, diag[beta] / running_min)
        running_min = min(running_min, diag[beta])
    return float(best)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-150, max_value=1e150), min_size=1, max_size=12))
def test_varsigma_matches_the_loop_bitwise(half):
    """The vectorized running minimum divides and compares the same floats."""
    d = make_scaling(half)
    assert varsigma(d) == _varsigma_loop(d)


def test_make_scaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_scaling([1.0, -2.0])


def test_scaling_candidates_fixture():
    # X = [[2,1],[1,2]] -> row-norm scaling sqrt(5) * I
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    cands = scaling_candidates(x)
    assert len(cands) == 2
    assert np.array_equal(cands[0].diagonal(), [1.0, 1.0])
    assert np.allclose(cands[1].diagonal(), math.sqrt(5.0), rtol=1e-15)


def test_scaling_candidates_zero_row():
    with pytest.raises(ZeroRow):
        scaling_candidates(np.zeros((2, 2)))


# ------------------------------------------------- interchange identities


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("spread", [0.0, 1.0, 3.0])
def test_lemma_identities_hold(n, spread):
    c = uniform_open(90 + n, n * n).reshape(n, n)
    delta = np.exp(spread * uniform_open(91 + n, n // 2))
    chk = lemma1_check(c, make_scaling(delta))
    assert chk.max_residual <= 1e-12 * (1.0 + np.linalg.norm(c))
    assert chk.min_slack >= -1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lemma_slack_property(seed):
    n = 4
    c = uniform_open(seed, n * n).reshape(n, n)
    delta = np.exp(2.0 * uniform_open(seed + 1, n // 2))
    chk = lemma1_check(c, make_scaling(delta))
    assert chk.min_slack >= -1e-13


def test_lemma_rejects_a_scaling_of_another_dimension():
    with pytest.raises(ValueError, match="scaling dimension"):
        lemma1_check(np.eye(4), make_scaling(np.ones(1)))
