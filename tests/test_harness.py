"""Experiment harness: trials, presets, tables, fd decay, self-verify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import centroqx.bounds as bounds_mod
import centroqx.condnum as condnum_mod
import centroqx.harness as harness_mod
import centroqx.qx as qx_mod
from centroqx.bounds import OPERATOR_SIZE_CAP
from centroqx.cli import build_parser
from centroqx.condnum import COND_NUMBERS
from centroqx.harness import (
    BOUND_COLUMNS,
    COND_COLUMNS,
    COND_PRESETS,
    PRESETS,
    TrialConfig,
    TrialRecord,
    _check_domination,
    fd_check,
    preset_configs,
    preset_param_labels,
    render_table,
    run_table,
    run_trial,
    verify,
)
from centroqx.matio import read_matrix, write_matrix


def _exchange(k: int) -> np.ndarray:
    return np.fliplr(np.eye(k))


def _is_centro(a: np.ndarray) -> bool:
    m, n = a.shape
    return np.allclose(_exchange(m) @ a @ _exchange(n), a, rtol=0, atol=0)


# ----------------------------------------------------------- preset layout


def test_preset_t1_sizes_and_ladder():
    cfgs = preset_configs("t1", seed=5)
    assert [(c.m, c.n) for c in cfgs] == [
        (20, 10), (30, 20), (40, 20), (50, 30), (60, 30),
        (70, 40), (150, 50), (200, 60), (300, 100),
    ]
    assert [c.scale for c in cfgs] == [10.0 ** -(6 + r) for r in range(1, 10)]
    assert all(c.generator == "random" for c in cfgs)
    assert all(c.probe_trials == 0 for c in cfgs)


@pytest.mark.parametrize("preset", ["t2", "t3"])
def test_preset_square_families(preset):
    cfgs = preset_configs(preset, seed=5)
    assert [(c.m, c.n) for c in cfgs] == [
        (10, 10), (10, 10), (20, 20), (20, 20), (30, 30),
        (30, 30), (100, 100), (110, 110), (120, 120),
    ]
    assert [c.scale for c in cfgs] == [10.0 ** -(6 + r) for r in range(1, 10)]
    expected_gen = "toeplitz" if preset == "t3" else "random"
    assert all(c.generator == expected_gen for c in cfgs)


def test_preset_t4_condition_rows():
    cfgs = preset_configs("t4", seed=5)
    assert [(c.m, c.n) for c in cfgs] == [(c.m, c.n) for c in preset_configs("t1", 5)]
    assert all(c.scale == 1e-8 for c in cfgs)
    assert all(c.probe_trials == 4 for c in cfgs)


def test_preset_free_entry_families():
    t5 = preset_configs("t5", seed=5)
    t6 = preset_configs("t6", seed=5)
    t7 = preset_configs("t7", seed=5)
    assert [(len(p), p[0].m, p[0].n) for p in (t5, t6, t7)] == [
        (5, 5, 4), (3, 5, 4), (4, 6, 6),
    ]
    assert all(c.generator == "free-entries" for c in t5 + t6 + t7)
    assert all(len(c.free_entries) == 10 for c in t5 + t6)
    assert all(len(c.free_entries) == 18 for c in t7)
    # First t5 row spreads a decade pair around milli-scale interior values.
    assert t5[0].free_entries == tuple(
        [0.1] + [1.0 / (1000.0 * k) for k in range(2, 10)] + [10.0]
    )
    assert preset_param_labels("t5") == ["1", "0", "-1", "-4", "-3"]
    assert preset_param_labels("t6") == ["-4", "4", "3"]
    assert preset_param_labels("t7") == ["2", "3", "4", "5"]
    assert preset_param_labels("t1") == []


def test_preset_rows_get_distinct_seeds():
    for preset in PRESETS:
        seeds = [c.seed for c in preset_configs(preset, seed=9)]
        assert len(set(seeds)) == len(seeds)


def test_preset_unknown_raises():
    with pytest.raises(ValueError):
        preset_configs("t9", seed=0)


# --------------------------------------------------------- config sources


def test_materialize_random_is_centrosymmetric():
    a = TrialConfig(m=8, n=4, seed=3).materialize()
    assert a.shape == (8, 4)
    assert _is_centro(a)


def test_materialize_toeplitz():
    a = TrialConfig(m=6, n=6, generator="toeplitz", seed=3).materialize()
    assert _is_centro(a)
    for d in range(-5, 6):
        band = np.diagonal(a, d)
        assert np.all(band == band[0])
    with pytest.raises(ValueError):
        TrialConfig(m=6, n=4, generator="toeplitz", seed=3).materialize()


def test_materialize_file_adopts_shape(tmp_path):
    path = tmp_path / "wide.txt"
    mat = np.array([[1.0, 2.0], [4.0, 3.0], [3.0, 4.0], [2.0, 1.0]])
    write_matrix(str(path), mat)
    cfg = TrialConfig(m=2, n=2, generator="file", input_path=str(path))
    out = cfg.materialize()
    assert np.array_equal(out, mat)
    assert (cfg.m, cfg.n) == (4, 2)


def test_materialize_rejects_bad_configs():
    with pytest.raises(ValueError):
        TrialConfig(m=2, n=2, generator="file").materialize()
    with pytest.raises(ValueError):
        TrialConfig(m=4, n=2, generator="free-entries").materialize()
    with pytest.raises(ValueError):
        TrialConfig(m=4, n=2, generator="nope").materialize()


# ----------------------------------------------------------------- trials


def test_run_trial_identity_file(tmp_path):
    """The worked file example: for A = I the X response matches dA."""
    path = tmp_path / "ident.txt"
    write_matrix(str(path), np.eye(2))
    rec = run_trial(
        TrialConfig(m=2, n=2, generator="file", input_path=str(path), scale=1e-8, seed=5)
    )
    assert rec.error is None
    assert rec.eps_eff == 1e-8
    assert rec.delta_x == pytest.approx(rec.delta_a, rel=1e-6)
    assert rec.report is not None and rec.report.gates_ok()
    assert rec.domination_ok and rec.domination  # flags actually evaluated
    assert rec.cond is not None and rec.cond["mx"] == pytest.approx(1.0, abs=1e-12)
    assert rec.cond_dominance_ok
    assert rec.tightness_slack is not None and rec.tightness_slack >= 0.0


def test_run_trial_deterministic():
    cfg = TrialConfig(m=8, n=4, scale=1e-7, seed=33)
    d1 = run_trial(cfg).to_dict()
    d2 = run_trial(TrialConfig(m=8, n=4, scale=1e-7, seed=33)).to_dict()
    for timing in ("wall_time", "stage_times"):
        d1.pop(timing)
        d2.pop(timing)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_run_trial_records_stage_times():
    closed = run_trial(TrialConfig(m=8, n=4, seed=5, with_operators=False))
    assert list(closed.stage_times) == ["generate", "factor", "bounds", "cond_upper"]
    full = run_trial(TrialConfig(m=8, n=4, seed=5, probe_trials=2))
    assert list(full.stage_times) == [
        "generate", "factor", "operators", "bounds", "cond_upper", "cond", "probe",
    ]
    for rec in (closed, full):
        assert all(t >= 0.0 for t in rec.stage_times.values())
        assert sum(rec.stage_times.values()) <= rec.wall_time + 1e-12
        assert json.loads(json.dumps(rec.to_dict()))["stage_times"] == rec.stage_times


def test_run_trial_factors_a_once(monkeypatch):
    """A and A + dA are factored once each; the probe reuses A's factors and
    factors only its perturbed matrices. Counted in matrices: the trial
    factors A and A + dA in one stacked call, the probe its patterns in
    another."""
    calls = []
    original = qx_mod.qx_decompose

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    for module in (harness_mod, condnum_mod):
        monkeypatch.setattr(module, "qx_decompose", counting)
    rec = run_trial(TrialConfig(m=8, n=4, seed=5, probe_trials=3))
    assert rec.error is None and rec.probe is not None
    assert sum(shape[0] if len(shape) == 3 else 1 for shape in calls) == 2 + 3


def test_run_trial_gate_violation_keeps_coefficients():
    """A too-large perturbation fails the gates but never errors the trial."""
    rec = run_trial(TrialConfig(m=4, n=2, scale=0.9, seed=11))
    assert rec.error is None
    assert rec.report is not None and not rec.report.gates_ok()
    assert rec.report.x_refined is None
    assert rec.report.coef_x4 is not None and rec.report.coef_x4 > 0.0
    assert rec.domination_ok  # only bounds that were emitted are checked


def test_run_trial_structured_error_lands_in_record():
    rec = run_trial(
        TrialConfig(
            m=4, n=2, generator="free-entries",
            free_entries=(1.0, 1.0, 1.0, 1.0), scale=1e-8, seed=1,
        )
    )
    assert rec.error is not None and rec.error.startswith("RankDeficient")
    assert rec.report is None
    assert rec.domination_ok  # vacuous: nothing was claimed
    assert rec.wall_time > 0.0


def test_run_trial_respects_operator_cap():
    rec = run_trial(TrialConfig(m=70, n=40, scale=1e-8, seed=2))
    assert 70 * 40 > OPERATOR_SIZE_CAP
    assert rec.operators_skipped
    assert rec.cond is None and rec.tightness_slack is None
    assert rec.report.q_operator is None
    # closed-form route still produces checked bounds
    assert rec.domination_ok and rec.domination


def test_operator_trial_stores_no_map_of_size_mn_squared():
    """One (44, 44) operator trial (as in the benchmark's heavy trials:
    entrywise model, 4 probe samples) peaks below 30 MB of traced
    allocations. The dense |gx| is 15.6 MB, built in place: a signed gx
    with |gx| copies beside it peaked at 36.7 MB, and dense hx and gq at
    (44, 44) would be 15.6 and 30 MB more (a dense trial peaked at 122 MB)."""
    cfg = TrialConfig(m=44, n=44, seed=5, scale=1e-8, k_mode="ones", probe_trials=4)
    tracemalloc.start()
    try:
        rec = run_trial(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.error is None and rec.cond is not None
    assert peak < 30 * 2**20, peak / 2**20


def test_operator_trial_keeps_a_quarter_of_the_absolute_map():
    """The same (44, 44) operator trial peaks below 12 MB of traced
    allocations: it keeps only the fold half of |gx| (tau1/2 x mn/2, 3.9 MB,
    a quarter of the 15.7 MB |gx|), folds it in row blocks and forms only
    the first half of |gq| vec|A|. With the whole |gx| it peaked at 18.6 MB."""
    cfg = TrialConfig(m=44, n=44, seed=5, scale=1e-8, k_mode="ones", probe_trials=4)
    tracemalloc.start()
    try:
        rec = run_trial(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.error is None and rec.cond is not None
    assert peak < 12 * 2**20, peak / 2**20


def test_run_trial_with_operators_disabled():
    rec = run_trial(TrialConfig(m=4, n=2, scale=1e-8, seed=2, with_operators=False))
    assert rec.operators_skipped and rec.error is None
    assert rec.cond is None


def test_run_trial_probe_attached():
    rec = run_trial(TrialConfig(m=4, n=2, scale=1e-8, seed=4, probe_trials=3))
    assert rec.probe is not None
    assert rec.probe["trials"] == 3
    assert set(rec.probe) == {"eps", "trials", "mx", "cx", "mq", "cq"}


def test_check_domination_flags_short_bound():
    rec = run_trial(TrialConfig(m=8, n=4, scale=1e-8, seed=6))
    assert rec.domination_ok
    rec.report.x_refined = rec.delta_x / 2.0  # tamper: claim less than measured
    _check_domination(rec)
    assert not rec.domination_ok
    assert rec.domination["x_refined"] is False


# ----------------------------------------------------------------- tables


def test_run_table_bound_style_header_and_rows():
    text, records = run_table("t5", seed=3)
    lines = text.splitlines()
    assert lines[0] == ",".join(COND_COLUMNS)
    assert len(records) == 5 and len(lines) == 6
    assert all(r.error is None for r in records)


def test_run_table_byte_deterministic():
    text1, _ = run_table("t5", seed=3)
    text2, _ = run_table("t5", seed=3)
    assert text1 == text2


def test_render_markdown_and_json():
    text, records = run_table("t5", seed=3)
    md = render_table("t5", records, "md")
    lines = md.splitlines()
    assert lines[0].startswith("| row | m | n | param_e |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 2 + len(records)

    payload = json.loads(render_table("t5", records, "json"))
    assert [row["row"] for row in payload] == [1, 2, 3, 4, 5]
    assert [row["param_e"] for row in payload] == ["1", "0", "-1", "-4", "-3"]
    with pytest.raises(ValueError):
        render_table("t5", records, "xml")


def test_render_bound_columns_for_t1_style():
    rec = run_trial(TrialConfig(m=4, n=2, scale=1e-8, seed=8))
    text = render_table("t2", [rec], "csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(BOUND_COLUMNS)
    cells = lines[1].split(",")
    header = lines[0].split(",")
    row = dict(zip(header, cells))
    assert row["row"] == "1" and row["m"] == "4" and row["n"] == "2"
    assert row["gates_ok"] == "true" and row["error"] == ""
    assert float(row["delta_x"]) == rec.delta_x  # format_float round-trips


def test_cell_blank_for_missing_values():
    rec = TrialRecord(m=4, n=2, generator="random", seed=0, eps_request=1e-8, k_mode="identity")
    rec.error = "RankDeficient: synthetic"
    text = render_table("t2", [rec], "csv")
    row = dict(zip(text.splitlines()[0].split(","), text.splitlines()[1].split(",")))
    assert row["x_refined"] == "" and row["delta_x"] == ""
    assert row["error"] == "RankDeficient: synthetic"


def _subparser(name: str):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[name]


def test_table_registries_are_consistent():
    """Each condition number has its exact, upper and probe column; ``table
    --preset`` offers exactly the presets; the condition layout is used
    exactly for the condition presets."""
    for key in COND_NUMBERS:
        assert {key, f"{key}_upper", f"probe_{key}"} <= set(COND_COLUMNS)
    preset = next(a for a in _subparser("table")._actions if a.dest == "preset")
    assert tuple(preset.choices) == PRESETS
    assert set(COND_PRESETS) < set(PRESETS)
    rec = TrialRecord(m=4, n=2, generator="random", seed=0, eps_request=1e-8, k_mode="identity")
    for name in PRESETS:
        header = render_table(name, [rec], "csv").splitlines()[0]
        assert header == ",".join(COND_COLUMNS if name in COND_PRESETS else BOUND_COLUMNS)


# --------------------------------------------------- finite-difference decay


def test_fd_check_linear_decay():
    fd = fd_check(8, 4, seed=17, eps_values=[1e-4, 1e-5, 1e-6, 1e-7])
    assert len(fd.rx) == len(fd.rq) == 4
    assert all(r > 0 for r in fd.rx + fd.rq)
    assert fd.rx == sorted(fd.rx, reverse=True)
    assert fd.ratios_within(5.0, 20.0)
    d = dataclasses.asdict(fd)
    assert d["eps_values"] == [1e-4, 1e-5, 1e-6, 1e-7]
    assert len(d["rx_ratios"]) == 3


@pytest.mark.parametrize(
    "eps_values, message",
    [
        ([], "at least two"),
        ([1e-5], "at least two"),
        ([0.0, 0.0], "finite and positive"),
        ([1e-4, -1e-5], "finite and positive"),
        ([1e-4, float("nan")], "finite and positive"),
        ([float("inf"), 1e-5], "finite and positive"),
    ],
)
def test_fd_check_rejects_eps_values_with_no_ratio_to_check(eps_values, message):
    with pytest.raises(ValueError, match=message):
        fd_check(8, 4, seed=17, eps_values=eps_values)


# ------------------------------------------------------------- self-verify


def test_verify_passes_and_reports_sections():
    summary = verify(trials=10, seed=0)
    assert summary.ok
    assert list(summary.sections) == [
        "factorization",
        "bound-domination",
        "fd-ratios",
    ]
    assert all(checks > 0 and fails == 0 for checks, fails in summary.sections.values())
    assert summary.describe().splitlines()[-1] == "verify: PASS"


def test_verify_detects_injected_bound_fault(monkeypatch):
    """Flipping the sign of the refined-bound constant must fail the sweep."""
    monkeypatch.setattr(
        bounds_mod, "REFINED_X_CONSTANT", -bounds_mod.REFINED_X_CONSTANT
    )
    summary = verify(trials=6, seed=0)
    assert not summary.ok
    assert summary.sections["bound-domination"][1] > 0
    assert any("bound-domination" in failure for failure in summary.failures)
    assert summary.describe().splitlines()[-1] == "verify: FAIL"
