"""Acceptance suite: every shipped claim re-checked at its stated tolerance.

Each criterion prints one ``ACCEPTANCE <name>: PASS|FAIL`` line (echoed in the
terminal summary) and asserts it. Claims with a runtime budget measure and
enforce it. The bound-domination trial set is produced once and shared by the
domination, tightness, and condition-number criteria.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import centroqx.bounds as bounds_mod
from centroqx.bounds import build_first_order_operators
from centroqx.centro import random_centro
from centroqx.cli import main as cli_main
from centroqx.condnum import empirical_cond_probe, mixed_comp_cond
from centroqx.harness import TrialConfig, fd_check, run_trial
from centroqx.qx import qx_decompose
from centroqx.rng import derive_seed, uniform_open
from centroqx.xops import make_scaling, support_mask, upx
from oracles import exchange_matrix, indicator_dense, lemma1_check, lowx, selection_dense

SIZES = [(4, 2), (8, 4), (20, 10), (31, 20), (40, 40)]

# Trial counts per (size, eps) cell, weighted so the sweep spans every size
# while the large square instances do not dominate the runtime budget.
TRIALS_PER_CELL = {(4, 2): 30, (8, 4): 30, (20, 10): 21, (31, 20): 16, (40, 40): 8}
EPS_VALUES = (1e-6, 1e-9)

X_BOUNDS = (
    "x_refined",
    "x_majorant_root",
    "x_majorant_twice",
    "x_majorant_linear",
    "x_comp_refined",
    "x_comp_majorant_root",
    "x_comp_majorant_twice",
    "x_comp_majorant_linear",
    "x_comp_combined",
)
Q_BOUNDS = ("q_refined", "q_operator", "q_comp")


# ------------------------------------------------ 1. factorization sweep


def test_criterion_1_factorization(acceptance):
    start = time.perf_counter()
    failures = 0
    count = 0
    for m, n in SIZES:
        rm, rn = exchange_matrix(m), exchange_matrix(n)
        off_support = ~support_mask(n).inside
        for t in range(40):
            a = random_centro(m, n, derive_seed(9000, m, n, t))
            f = qx_decompose(a)
            count += 1
            ok = (
                np.linalg.norm(a - f.q @ f.x) <= 1e-12 * (1.0 + np.linalg.norm(a))
                and np.linalg.norm(f.q.T @ f.q - np.eye(n)) <= 1e-12 * n
                and np.linalg.norm(f.q.T @ rm @ f.q - rn) <= 1e-12 * n
                and np.all(f.x[off_support] == 0.0)
            )
            failures += 0 if ok else 1
    elapsed = time.perf_counter() - start
    acceptance(
        "factorization-correctness",
        failures == 0 and count == 200 and elapsed < 5.0,
        f"{count} instances, {failures} failures, {elapsed:.2f}s < 5s",
    )


# --------------------------------------- 2. structured-operator identities


def test_criterion_2_operator_identities(acceptance):
    start = time.perf_counter()
    ok = True
    for n in (2, 4, 6, 8, 10):
        ops = support_mask(n)
        sel = selection_dense(n)
        ok &= ops.tau1 == n * (n + 2) // 2
        ok &= int(np.sum(support_mask(n).inside)) == n * (n + 2) // 2
        ok &= np.array_equal(sel @ sel.T, np.eye(ops.tau1))
        ok &= np.array_equal(sel.T @ sel, indicator_dense(n))
    draws = 0
    for t in range(500):
        n = (2, 4, 6, 8, 10)[t % 5]
        c = uniform_open(derive_seed(9100, t), n * n).reshape(n, n)
        fro = np.linalg.norm(c)
        sym = 0.5 * (c + c.T)
        ok &= bool(np.array_equal(upx(c) + lowx(c), c))
        ok &= bool(np.array_equal(lowx(c), upx(c.T).T))
        ok &= np.linalg.norm(upx(c)) <= fro + 1e-13
        ok &= np.linalg.norm(upx(sym)) <= np.linalg.norm(sym) / math.sqrt(2.0) + 1e-13
        ok &= np.linalg.norm(upx(c + c.T)) <= math.sqrt(2.0) * fro + 1e-13
        delta = np.exp(uniform_open(derive_seed(9101, t), n // 2))
        chk = lemma1_check(c, make_scaling(delta))
        ok &= chk.max_residual <= 1e-13 * (1.0 + fro)
        ok &= chk.min_slack >= -1e-13
        draws += 1
    elapsed = time.perf_counter() - start
    acceptance(
        "operator-identities",
        bool(ok) and draws == 500 and elapsed < 5.0,
        f"{draws} draws, {elapsed:.2f}s < 5s",
    )


# ----------------------------------------------- 3/4/6 shared trial sweep


@pytest.fixture(scope="module")
def domination_trials():
    start = time.perf_counter()
    records = []
    for m, n in SIZES:
        for ei, eps in enumerate(EPS_VALUES):
            for t in range(TRIALS_PER_CELL[(m, n)]):
                records.append(
                    run_trial(
                        TrialConfig(
                            m=m, n=n, scale=eps, seed=derive_seed(9200, m, n, ei, t)
                        )
                    )
                )
    return records, time.perf_counter() - start


def test_criterion_3_bound_domination(domination_trials, acceptance):
    records, elapsed = domination_trials
    gated = [r for r in records if r.report is not None and r.report.gates_ok()]
    violations = 0
    for rec in gated:
        rep = rec.report
        for name in X_BOUNDS:
            value = getattr(rep, name)
            if value is None or value + 1e-15 < rec.delta_x:
                violations += 1
        for name in Q_BOUNDS:
            value = getattr(rep, name)
            if value is None or value + 1e-15 < rec.delta_q:
                violations += 1
    acceptance(
        "bound-domination",
        len(gated) >= 200 and violations == 0 and elapsed < 60.0,
        f"{len(gated)} gated trials, {violations} violations, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_tightness(domination_trials, acceptance):
    records, _ = domination_trials
    envelope_ok = all(
        rec.tightness_slack is not None and rec.tightness_slack >= -1e-10
        for rec in records
    )
    ordering_ok = all(
        rec.report.x_majorant_linear <= rec.report.x_refined
        for rec in records
        if rec.report is not None and rec.report.gates_ok()
    )
    acceptance(
        "operator-norm-tightness",
        envelope_ok and ordering_ok,
        f"envelope and bound ordering on {len(records)} trials",
    )


# -------------------------------------------- 5. first-order operator decay


def test_criterion_5_first_order_decay(acceptance):
    start = time.perf_counter()
    ok = True
    for m, n in ((8, 4), (20, 10)):
        fd = fd_check(m, n, seed=9300 + m, eps_values=[1e-4, 1e-5, 1e-6, 1e-7])
        ok &= fd.ratios_within(5.0, 20.0)
    elapsed = time.perf_counter() - start
    acceptance(
        "first-order-decay",
        bool(ok) and elapsed < 10.0,
        f"decade ratios within [5, 20], {elapsed:.2f}s < 10s",
    )


# ------------------------------------------------- 6. condition numbers


def test_criterion_6_condition_numbers(domination_trials, acceptance):
    records, _ = domination_trials
    ok = True
    checked = 0
    for rec in records:
        if rec.cond is None or rec.cond_upper is None:
            ok = False
            continue
        for key in ("mx", "cx", "mq", "cq"):
            ok &= rec.cond_upper[f"{key}_upper"] >= rec.cond[key] * (1.0 - 1e-10)
        checked += 1

    probes = 0
    for m, n in ((4, 2), (8, 4), (20, 10)):
        for s in range(2):
            a = random_centro(m, n, derive_seed(9400, m, s))
            f = qx_decompose(a)
            cond = mixed_comp_cond(a, build_first_order_operators(f), f)
            probe = empirical_cond_probe(a, f, 1e-6, derive_seed(9401, m, s), trials=50)
            tol = 1.0 + 100.0 * probe.eps
            ok &= probe.mx <= cond.mx * tol
            ok &= probe.cx <= cond.cx * tol
            ok &= probe.mq <= cond.mq * tol
            ok &= probe.cq <= cond.cq * tol
            probes += probe.trials

    for n in (2, 4, 6, 8):
        eye = np.eye(n)
        f = qx_decompose(eye)
        cond = mixed_comp_cond(eye, build_first_order_operators(f), f)
        ok &= abs(cond.mx - 1.0) <= 1e-12
        ok &= abs(cond.cx - 1.0) <= 1e-12
        ok &= cond.mq <= 1e-12

    acceptance(
        "condition-numbers",
        bool(ok),
        f"dominances on {checked} trials, {probes} probe samples, identity values",
    )


# ------------------------------------------------ 7. hand-derived fixtures


def test_criterion_7_fixtures(acceptance):
    ok = True
    for n in (2, 4, 6):
        f = qx_decompose(np.eye(n))
        ok &= np.max(np.abs(f.q - np.eye(n))) <= 1e-14
        ok &= np.max(np.abs(f.x - np.eye(n))) <= 1e-14

    f = qx_decompose(exchange_matrix(2))
    ok &= np.max(np.abs(f.q - exchange_matrix(2))) <= 1e-14
    ok &= np.max(np.abs(f.x - np.eye(2))) <= 1e-14

    sym = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = qx_decompose(sym)
    ok &= np.max(np.abs(f.q - np.eye(2))) <= 1e-14
    ok &= np.max(np.abs(f.x - sym)) <= 1e-14

    a = np.array([[1.0, 2.0], [3.0, 3.0], [2.0, 1.0]])
    f = qx_decompose(a)
    sqrt3 = math.sqrt(3.0)
    s, d = (3.0 * sqrt3 + 1.0) / 2.0, (3.0 * sqrt3 - 1.0) / 2.0
    r12 = 1.0 / math.sqrt(12.0)
    x_want = np.array([[s, d], [d, s]])
    q_want = np.array(
        [
            [r12 - 0.5, r12 + 0.5],
            [1.0 / sqrt3, 1.0 / sqrt3],
            [r12 + 0.5, r12 - 0.5],
        ]
    )
    ok &= np.max(np.abs(f.x - x_want)) <= 1e-14
    ok &= np.max(np.abs(f.q - q_want)) <= 1e-14

    acceptance("hand-derived-fixtures", bool(ok), "identity, exchange, symmetric, odd-rows")


# ----------------------------------------------------- 8. determinism


def test_criterion_8_table_determinism(tmp_path, acceptance):
    out1 = tmp_path / "t1-first.csv"
    out2 = tmp_path / "t1-second.csv"
    rc1 = cli_main(["table", "--preset", "t1", "--seed", "42", "--out", str(out1)])
    rc2 = cli_main(["table", "--preset", "t1", "--seed", "42", "--out", str(out2)])
    first = out1.read_bytes()
    acceptance(
        "table-determinism",
        rc1 == 0 and rc2 == 0 and len(first) > 0 and first == out2.read_bytes(),
        "table preset t1 seed 42 twice, byte-identical",
    )


# ----------------------------------------------------- fault injection


def test_fault_injection_detectability(monkeypatch, acceptance):
    """The self-check suite must catch a sign flip in the refined constant."""
    rc_default = cli_main(["verify", "--trials", "6", "--seed", "0"])
    monkeypatch.setattr(
        bounds_mod, "REFINED_X_CONSTANT", -bounds_mod.REFINED_X_CONSTANT
    )
    rc_broken = cli_main(["verify", "--trials", "6", "--seed", "0"])
    acceptance(
        "fault-injection-detectability",
        rc_default == 0 and rc_broken == 1,
        "default verify exit 0; sign-flipped constant exit 1",
    )
