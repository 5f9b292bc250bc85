"""Tests of the benchmark's checker and tracer.

Run from the repository root: ``python3 -m pytest qxbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import centroqx.bounds as bounds  # noqa: E402
import centroqx.linalg as linalg  # noqa: E402
import centroqx.qx as qx  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _trial(wl_cls, m, n, seed=0):
    wl = wl_cls(0)
    cfg = wl.config(0, m, n, "random", seed)
    return wl, cfg, wl.run(cfg)


def test_clean_operator_trial_passes_every_check():
    wl, cfg, record = _trial(workloads.TrialOperator, 20, 10)
    assert wl.check(cfg, cfg, record) == []


@pytest.mark.parametrize(
    "constant, bound, route",
    [
        ("REFINED_X_CONSTANT", "x_refined", workloads.TrialClosed),
        ("COMP_X_CONSTANT", "x_comp_refined", workloads.TrialClosed),
        ("OPERATOR_Q_CONSTANT", "q_operator", workloads.TrialOperator),
    ],
)
def test_checker_flags_a_wrong_prefactor(monkeypatch, constant, bound, route):
    monkeypatch.setattr(bounds, constant, getattr(bounds, constant) * 1e-6)
    wl, cfg, record = _trial(route, 20, 10)
    assert f"domination:{bound}" in wl.check(cfg, cfg, record)


def test_checker_flags_a_wrong_delta_x():
    wl, cfg, record = _trial(workloads.TrialClosed, 20, 10)
    record.delta_x *= 1.01
    assert wl.check(cfg, cfg, record) == ["measured:delta_x"]


def test_known_fault_shows_on_a_tall_input():
    wl, cfg, record = _trial(workloads.TrialClosed, 200, 60)
    failed = wl.check(cfg, cfg, record)
    assert failed == [workloads.KNOWN_FAULT]
    assert wl.known_fault(cfg, failed)


def test_factor_check_passes_and_flags_a_wrong_x():
    wl = workloads.Factor(0)
    item = (40, 20, 7)
    a = wl.prepare(item)
    factors, xinv = wl.run(a)
    assert wl.check(item, a, (factors, xinv)) == []
    factors.x[0, -1] += 1e-3  # inside the cone: breaks agreement and residuals
    failed = wl.check(item, a, (factors, xinv))
    assert "qx:x-vs-numpy" in failed and "qx:reconstruction" in failed
    factors.x[1, 0] = 1e-300  # outside the cone: a structural zero lost
    assert "qx:off-cone-zeros" in wl.check(item, a, (factors, xinv))


def test_reference_fold_matches_the_definition():
    a = workloads.Factor(0).prepare((9, 6, 3))
    f, g = checks.fold(a)
    conj = checks.fold_basis(9).T @ a @ checks.fold_basis(6)
    assert np.allclose(conj[:5, :3], f, atol=1e-15) and np.allclose(conj[5:, 3:], g, atol=1e-15)
    assert np.allclose(conj[:5, 3:], 0.0, atol=1e-15) and np.allclose(conj[5:, :3], 0.0, atol=1e-15)


def test_tracer_tolerates_a_missing_name():
    original = linalg.householder_qr
    tr = tracing.Tracer()
    tr.install([("linalg", "no_such_function"), ("linalg", "householder_qr")])
    try:
        assert tr.absent == ["linalg.no_such_function"]
        assert qx.householder_qr is not original  # rebound where imported by name
        tr.op = 0
        qx.qx_decompose(workloads.Factor(0).prepare((12, 6, 1)))
        tr.op = None
    finally:
        tr.uninstall()
    assert qx.householder_qr is original and linalg.householder_qr is original
    values = tracing.layer_metrics(tr, 1)
    assert set(values) == set(tracing.LAYER_METRICS)
    assert values["linalg.householder_qr.ms"] > 0.0
    assert values["linalg.spectral_norm.calls"] == 0.0


def test_traced_counts_repeat_and_skip_untraced_calls():
    wl, cfg, _ = _trial(workloads.TrialOperator, 20, 10)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            wl.run(cfg)  # op is None: not recorded
            assert tr.spans == []
            tr.op = 0
            wl.run(cfg)
            tr.op = None
        finally:
            tr.uninstall()
        values = tracing.layer_metrics(tr, 1)
        counts.append({k: v for k, v in values.items() if k.endswith((".calls", "_ratio", "_mb"))})
        # spectral_norm is called from bounds and condnum, below run_trial.
        parents = {tr.spans[s.parent].name for s in tr.spans
                   if s.name == "linalg.spectral_norm" and s.parent is not None}
        assert "bounds.bound_report" in parents
    assert counts[0] == counts[1]
    assert counts[0]["linalg.spectral_norm.calls"] > 0
    assert 0.0 < counts[0]["linalg.spectral_norm.distinct_ratio"] <= 1.0
    assert counts[0]["bounds.operator_mb"] > 0.0
