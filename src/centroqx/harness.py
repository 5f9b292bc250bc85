"""Experiment harness: trials, preset tables, derivative checks, self-verify.

A trial generates a centrosymmetric matrix, factors it, applies a random
entrywise-relative centrosymmetric perturbation, refactors, and evaluates
every applicable bound and condition number against the measured factor
changes. Presets reproduce fixed experiment families:

- ``t1``  rectangular random matrices, shrinking perturbation ladder;
- ``t2``  square random matrices, same ladder;
- ``t3``  symmetric Toeplitz matrices, same ladder;
- ``t4``  condition numbers on the t1 sizes;
- ``t5``/``t6``  (5, 4) matrices built from 10-entry free-half fills with a
  spread exponent, stressing ill conditioning;
- ``t7``  (6, 6) matrices from 18-entry fills.

All randomness is keyed by (seed, row) through the deterministic stream, so
re-running a preset yields byte-identical csv/markdown output.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from .bounds import (
    BoundReport,
    FirstOrderOperators,
    OPERATOR_SIZE_CAP,
    bound_report,
    build_first_order_operators,
    tightness_check,
)
from .centro import (
    centro_from_free_entries,
    random_centro,
    random_centro_perturbation,
    toeplitz_centro,
)
from .condnum import cond_upper_bounds, empirical_cond_probe, mixed_comp_cond
from .errors import CentroQxError
from .linalg import frobenius_norm, vec
from .matio import format_float, read_matrix
from .qx import qx_decompose, verify_qx, x_inverse
from .rng import derive_seed, uniform_open
from .xops import scaling_candidates, xvec

DOMINATION_SLACK = 1e-15
TIGHTNESS_SLACK = 1e-10
COND_DOMINANCE_RTOL = 1e-10
FD_RATIO_WINDOW = (5.0, 20.0)


@dataclass
class TrialConfig:
    """One experiment instance: matrix source, perturbation, and options."""

    m: int
    n: int
    generator: str = "random"  # random | toeplitz | file | free-entries
    scale: float = 1e-8
    seed: int = 0
    k_mode: str = "identity"  # identity | ones
    input_path: Optional[str] = None
    free_entries: Optional[tuple[float, ...]] = None
    operator_cap: int = OPERATOR_SIZE_CAP
    with_operators: bool = True
    probe_trials: int = 0  # >0 adds the empirical condition probe

    def materialize(self) -> np.ndarray:
        if self.generator == "random":
            return random_centro(self.m, self.n, derive_seed(self.seed, 0xA))
        if self.generator == "toeplitz":
            if self.m != self.n:
                raise ValueError("toeplitz generator needs m == n")
            col = uniform_open(derive_seed(self.seed, 0xA), self.n)
            return toeplitz_centro(col)
        if self.generator == "file":
            if not self.input_path:
                raise ValueError("file generator needs input_path")
            mat = read_matrix(self.input_path)
            if mat.shape != (self.m, self.n):
                # Trust the file; selectors are informational for file input.
                self.m, self.n = mat.shape
            return mat
        if self.generator == "free-entries":
            if self.free_entries is None:
                raise ValueError("free-entries generator needs the fill values")
            return centro_from_free_entries(self.m, self.n, np.asarray(self.free_entries))
        raise ValueError(f"unknown generator {self.generator!r}")


@dataclass
class TrialRecord:
    """Everything measured and claimed for one trial."""

    m: int
    n: int
    generator: str
    seed: int
    eps_request: float
    k_mode: str
    eps_eff: Optional[float] = None
    delta_a: Optional[float] = None
    delta_x: Optional[float] = None
    delta_q: Optional[float] = None
    qt_delta_q: Optional[float] = None
    kappa2: Optional[float] = None
    cond_x: Optional[float] = None
    report: Optional[BoundReport] = None
    cond: Optional[dict] = None
    cond_upper: Optional[dict] = None
    probe: Optional[dict] = None
    domination: dict[str, bool] = field(default_factory=dict)
    domination_ok: bool = True
    cond_dominance_ok: Optional[bool] = None
    tightness_slack: Optional[float] = None
    operators_skipped: bool = False
    error: Optional[str] = None
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "generator": self.generator,
            "seed": self.seed,
            "eps_request": self.eps_request,
            "k_mode": self.k_mode,
            "eps_eff": self.eps_eff,
            "delta_a": self.delta_a,
            "delta_x": self.delta_x,
            "delta_q": self.delta_q,
            "qt_delta_q": self.qt_delta_q,
            "kappa2": self.kappa2,
            "cond_x": self.cond_x,
            "bounds": self.report.to_dict() if self.report else None,
            "cond": self.cond,
            "cond_upper": self.cond_upper,
            "probe": self.probe,
            "domination": self.domination,
            "domination_ok": self.domination_ok,
            "cond_dominance_ok": self.cond_dominance_ok,
            "tightness_slack": self.tightness_slack,
            "operators_skipped": self.operators_skipped,
            "error": self.error,
            "wall_time": self.wall_time,
            "extra": self.extra,
        }
        return out


def _check_domination(record: TrialRecord) -> None:
    """Flag every applicable absolute bound against its measured quantity."""
    rep = record.report
    if rep is None:
        return
    flags: dict[str, bool] = {}
    if record.delta_x is not None:
        for name in BoundReport.X_BOUND_FIELDS:
            value = getattr(rep, name)
            if value is not None:
                flags[name] = bool(value + DOMINATION_SLACK >= record.delta_x)
    if record.delta_q is not None:
        for name in BoundReport.Q_BOUND_FIELDS:
            value = getattr(rep, name)
            if value is not None:
                flags[name] = bool(value + DOMINATION_SLACK >= record.delta_q)
    record.domination = flags
    record.domination_ok = all(flags.values()) if flags else True


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Run one full trial; structured errors land in the record, not raises."""
    record = TrialRecord(
        m=cfg.m,
        n=cfg.n,
        generator=cfg.generator,
        seed=cfg.seed,
        eps_request=cfg.scale,
        k_mode=cfg.k_mode,
    )
    start = time.perf_counter()
    try:
        a = cfg.materialize()
        record.m, record.n = a.shape
        factors = qx_decompose(a)
        xinv = x_inverse(factors.x)
        da, k, eps_eff = random_centro_perturbation(
            a, cfg.scale, derive_seed(cfg.seed, 0xB), cfg.k_mode
        )
        record.eps_eff = eps_eff
        record.delta_a = frobenius_norm(da)
        perturbed = qx_decompose(a + da)
        record.delta_x = frobenius_norm(perturbed.x - factors.x)
        record.delta_q = frobenius_norm(perturbed.q - factors.q)
        record.qt_delta_q = frobenius_norm(factors.q.T @ (perturbed.q - factors.q))

        cands = scaling_candidates(factors.x)
        ops: Optional[FirstOrderOperators] = None
        if cfg.with_operators and record.m * record.n <= cfg.operator_cap:
            ops = build_first_order_operators(factors.q, factors.x, xinv, cfg.operator_cap)
        else:
            record.operators_skipped = True

        rep = bound_report(
            a, factors.q, factors.x, da, k, eps_eff, cands, xinv, ops
        )
        record.report = rep
        record.kappa2 = rep.kappa2
        record.cond_x = rep.cond_x
        _check_domination(record)

        record.cond_upper = cond_upper_bounds(a, factors.q, factors.x, xinv)
        if ops is not None:
            cond = mixed_comp_cond(a, ops, factors.q, factors.x)
            record.cond = cond.to_dict()
            rtol = COND_DOMINANCE_RTOL
            record.cond_dominance_ok = bool(
                record.cond_upper["mx_upper"] >= cond.mx * (1.0 - rtol)
                and record.cond_upper["cx_upper"] >= cond.cx * (1.0 - rtol)
                and record.cond_upper["mq_upper"] >= cond.mq * (1.0 - rtol)
                and record.cond_upper["cq_upper"] >= cond.cq * (1.0 - rtol)
            )
            tight = tightness_check(ops, factors.x, rep)
            record.tightness_slack = tight["slack"]
        if cfg.probe_trials > 0:
            probe = empirical_cond_probe(
                a, min(cfg.scale, 1e-6), derive_seed(cfg.seed, 0xC), cfg.probe_trials
            )
            record.probe = probe.to_dict()
    except CentroQxError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_time = time.perf_counter() - start
    return record


# ---------------------------------------------------------------------------
# Preset tables


T1_SIZES = [
    (20, 10), (30, 20), (40, 20), (50, 30), (60, 30),
    (70, 40), (150, 50), (200, 60), (300, 100),
]
T2_SIZES = [
    (10, 10), (10, 10), (20, 20), (20, 20), (30, 30),
    (30, 30), (100, 100), (110, 110), (120, 120),
]
T5_EXPONENTS = [1, 0, -1, -4, -3]
T6_EXPONENTS = [-4, 4, 3]
T7_EXPONENTS = [2, 3, 4, 5]
COND_PRESET_EPS = 1e-8

PRESETS = ("t1", "t2", "t3", "t4", "t5", "t6", "t7")


def _spread_fill_10(e: float) -> list[float]:
    return (
        [10.0 ** -e]
        + [1.0 / (1000.0 * k) for k in range(2, 10)]
        + [10.0 ** e]
    )


def _spread_fill_10_mid(e: float) -> list[float]:
    return [
        1000.0,
        1.0 / 2000.0,
        (1.0 / 3.0) * 10.0 ** -e,
        1.0 / 4000.0,
        1.0 / 5000.0,
        1.0 / 6000.0,
        (1.0 / 7.0) * 10.0 ** -e,
        1.0 / 8000.0,
        1.0 / 9000.0,
        1.0 / 1000.0,
    ]


def _spread_fill_18(e: float) -> list[float]:
    return [
        10.0 ** -e,
        1.0 / 2000.0,
        1.0 / 3000.0,
        1.0 / 4000.0,
        1.0 / 5000.0,
        1.0 / 6000.0,
        1.0 / 7000.0,
        1.0 / 8000.0,
        1.0 / 9000.0,
        10.0 ** e,
        1.0 / 4000.0,
        1.0 / 5000.0,
        1.0 / 6000.0,
        (1.0 / 7.0) * 10.0 ** -e,
        1.0 / 8000.0,
        1.0 / 9000.0,
        1.0 / 1000.0,
        (1.0 / 3.0) * 10.0 ** -e,
    ]


def preset_configs(preset: str, seed: int) -> list[TrialConfig]:
    """Row configurations of one preset (row seeds derived from ``seed``)."""
    if preset in ("t1", "t4"):
        sizes = T1_SIZES
        gen = "random"
    elif preset == "t2":
        sizes = T2_SIZES
        gen = "random"
    elif preset == "t3":
        sizes = T2_SIZES
        gen = "toeplitz"
    elif preset == "t5":
        return [
            TrialConfig(
                m=5, n=4, generator="free-entries", scale=COND_PRESET_EPS,
                seed=derive_seed(seed, row), probe_trials=4,
                free_entries=tuple(_spread_fill_10(e)),
            )
            for row, e in enumerate(T5_EXPONENTS, start=1)
        ]
    elif preset == "t6":
        return [
            TrialConfig(
                m=5, n=4, generator="free-entries", scale=COND_PRESET_EPS,
                seed=derive_seed(seed, row), probe_trials=4,
                free_entries=tuple(_spread_fill_10_mid(e)),
            )
            for row, e in enumerate(T6_EXPONENTS, start=1)
        ]
    elif preset == "t7":
        return [
            TrialConfig(
                m=6, n=6, generator="free-entries", scale=COND_PRESET_EPS,
                seed=derive_seed(seed, row), probe_trials=4,
                free_entries=tuple(_spread_fill_18(e)),
            )
            for row, e in enumerate(T7_EXPONENTS, start=1)
        ]
    else:
        raise ValueError(f"unknown preset {preset!r} (choose from {PRESETS})")

    configs = []
    for row, (m, n) in enumerate(sizes, start=1):
        scale = COND_PRESET_EPS if preset == "t4" else 10.0 ** -(6 + row)
        configs.append(
            TrialConfig(
                m=m, n=n, generator=gen, scale=scale,
                seed=derive_seed(seed, row),
                probe_trials=4 if preset == "t4" else 0,
            )
        )
    return configs


def preset_param_labels(preset: str) -> list[str]:
    """Row parameter annotations (the spread exponent for t5-t7)."""
    if preset == "t5":
        return [str(e) for e in T5_EXPONENTS]
    if preset == "t6":
        return [str(e) for e in T6_EXPONENTS]
    if preset == "t7":
        return [str(e) for e in T7_EXPONENTS]
    return []


BOUND_COLUMNS = [
    "row", "m", "n", "eps", "eps_eff", "delta_a", "delta_x", "delta_q",
    "qt_delta_q", "kappa2", "cond_x",
    "x_refined", "x_relative_a", "x_relative_b", "x_first_order",
    "x_majorant_root", "x_majorant_twice", "x_majorant_linear",
    "x_comp_refined", "x_comp_info", "x_comp_combined",
    "x_comp_majorant_root", "x_comp_majorant_twice", "x_comp_majorant_linear",
    "x_comp_first_order",
    "q_refined", "q_operator", "q_comp",
    "coef_x1", "coef_x2", "coef_x3", "coef_x4",
    "coef_q1", "coef_q2", "coef_q3",
    "gates_ok", "domination_ok", "operators_skipped", "error",
]

COND_COLUMNS = [
    "row", "m", "n", "param_e", "eps", "kappa2", "cond_x",
    "mx", "mx_upper", "cx", "cx_upper",
    "mq", "mq_q_weighted", "mq_upper", "cq", "cq_upper",
    "probe_mx", "probe_cx", "probe_mq", "probe_cq",
    "cond_dominance_ok", "operators_skipped", "error",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _bound_row(row_idx: int, record: TrialRecord) -> list[str]:
    rep = record.report
    cells: dict[str, object] = {
        "row": row_idx,
        "m": record.m,
        "n": record.n,
        "eps": record.eps_request,
        "eps_eff": record.eps_eff,
        "delta_a": record.delta_a,
        "delta_x": record.delta_x,
        "delta_q": record.delta_q,
        "qt_delta_q": record.qt_delta_q,
        "kappa2": record.kappa2,
        "cond_x": record.cond_x,
        "gates_ok": rep.gates_ok() if rep else None,
        "domination_ok": record.domination_ok,
        "operators_skipped": record.operators_skipped,
        "error": record.error,
    }
    for name in BOUND_COLUMNS:
        if name not in cells:
            cells[name] = getattr(rep, name) if rep else None
    return [_cell(cells[name]) for name in BOUND_COLUMNS]


def _cond_row(row_idx: int, record: TrialRecord, param: Optional[str]) -> list[str]:
    cond = record.cond or {}
    upper = record.cond_upper or {}
    probe = record.probe or {}
    cells = {
        "row": row_idx,
        "m": record.m,
        "n": record.n,
        "param_e": param,
        "eps": record.eps_request,
        "kappa2": record.kappa2,
        "cond_x": record.cond_x,
        "mx": cond.get("mx"),
        "mx_upper": upper.get("mx_upper"),
        "cx": cond.get("cx"),
        "cx_upper": upper.get("cx_upper"),
        "mq": cond.get("mq"),
        "mq_q_weighted": cond.get("mq_q_weighted"),
        "mq_upper": upper.get("mq_upper"),
        "cq": cond.get("cq"),
        "cq_upper": upper.get("cq_upper"),
        "probe_mx": probe.get("mx"),
        "probe_cx": probe.get("cx"),
        "probe_mq": probe.get("mq"),
        "probe_cq": probe.get("cq"),
        "cond_dominance_ok": record.cond_dominance_ok,
        "operators_skipped": record.operators_skipped,
        "error": record.error,
    }
    return [_cell(cells[name]) for name in COND_COLUMNS]


def render_table(preset: str, records: list[TrialRecord], fmt: str) -> str:
    """Render trial records as csv, markdown, or json text."""
    cond_style = preset in ("t4", "t5", "t6", "t7")
    params = preset_param_labels(preset)
    if cond_style:
        header = COND_COLUMNS
        rows = [
            _cond_row(i + 1, rec, params[i] if i < len(params) else None)
            for i, rec in enumerate(records)
        ]
    else:
        header = BOUND_COLUMNS
        rows = [_bound_row(i + 1, rec) for i, rec in enumerate(records)]

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("| " + " | ".join("---" for _ in header) + " |")
        for row in rows:
            lines.append("| " + " | ".join(cell if cell else " " for cell in row) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = []
        for i, rec in enumerate(records):
            d = rec.to_dict()
            d["row"] = i + 1
            if cond_style and i < len(params):
                d["param_e"] = params[i]
            payload.append(d)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r} (csv, md, json)")


def run_table(
    preset: str, seed: int, fmt: str = "csv", operator_cap: int = OPERATOR_SIZE_CAP
) -> tuple[str, list[TrialRecord]]:
    """Run one preset and render it; returns (text, records)."""
    configs = preset_configs(preset, seed)
    records = []
    for cfg in configs:
        cfg.operator_cap = operator_cap
        records.append(run_trial(cfg))
    return render_table(preset, records, fmt), records


# ---------------------------------------------------------------------------
# Finite-difference derivative check


@dataclass
class FdReport:
    """First-order residuals of the operator maps across a perturbation ladder."""

    m: int
    n: int
    seed: int
    eps_values: list[float]
    rx: list[float]  # |xvec(dX_actual) - gx vec(dA)|_2 / |dA|_F
    rq: list[float]
    rx_ratios: list[float]  # consecutive rx ratios (expect ~ the eps step)
    rq_ratios: list[float]

    def ratios_within(self, low: float, high: float) -> bool:
        return all(low <= r <= high for r in self.rx_ratios + self.rq_ratios)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "seed": self.seed,
            "eps_values": self.eps_values,
            "rx": self.rx,
            "rq": self.rq,
            "rx_ratios": self.rx_ratios,
            "rq_ratios": self.rq_ratios,
        }


def fd_check(m: int, n: int, seed: int, eps_values: list[float]) -> FdReport:
    """Residual decay of the first-order maps under a shrinking perturbation.

    One fixed random direction is scaled by each eps; the residuals must
    shrink linearly in eps, so consecutive-decade ratios land near 10.
    """
    a = random_centro(m, n, derive_seed(seed, 0xA))
    factors = qx_decompose(a)
    xinv = x_inverse(factors.x)
    ops = build_first_order_operators(factors.q, factors.x, xinv)
    mask = random_centro(m, n, derive_seed(seed, 0xB))
    rx, rq = [], []
    for eps in eps_values:
        da = eps * (mask * a)
        perturbed = qx_decompose(a + da)
        scale = frobenius_norm(da)
        rx.append(
            frobenius_norm(xvec(perturbed.x - factors.x) - ops.gx @ vec(da)) / scale
        )
        rq.append(
            frobenius_norm(vec(perturbed.q - factors.q) - ops.gq @ vec(da)) / scale
        )
    rx_ratios = [rx[i] / rx[i + 1] for i in range(len(rx) - 1) if rx[i + 1] > 0]
    rq_ratios = [rq[i] / rq[i + 1] for i in range(len(rq) - 1) if rq[i + 1] > 0]
    return FdReport(
        m=m, n=n, seed=seed, eps_values=list(eps_values),
        rx=rx, rq=rq, rx_ratios=rx_ratios, rq_ratios=rq_ratios,
    )


# ---------------------------------------------------------------------------
# Self-verification sweep


VERIFY_SIZES = [(4, 2), (8, 4), (20, 10), (31, 20), (12, 12)]
VERIFY_EPS = (1e-6, 1e-9)


@dataclass
class VerifySummary:
    """Per-section check/failure counts from the self-verification sweep."""

    sections: dict[str, tuple[int, int]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(fails == 0 for _, fails in self.sections.values())

    def describe(self) -> str:
        lines = []
        for name, (checks, fails) in self.sections.items():
            status = "ok" if fails == 0 else "FAIL"
            lines.append(f"{name}: {checks} checks, {fails} failures [{status}]")
        lines.append("verify: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _section(summary: VerifySummary, name: str, outcomes: list[tuple[bool, str]]) -> None:
    fails = [msg for ok, msg in outcomes if not ok]
    summary.sections[name] = (len(outcomes), len(fails))
    summary.failures.extend(f"{name}: {msg}" for msg in fails)


def verify(trials: int = 40, seed: int = 0) -> VerifySummary:
    """Run the full internal consistency sweep; see the CLI ``verify`` command.

    ``trials`` scales the number of factorization/domination instances; the
    remaining sections run a fixed set of structural identities.
    """
    from .xops import build_operator_matrices, lemma1_check, lowx, make_scaling, upx

    summary = VerifySummary()

    # Factorization invariants.
    outcomes = []
    count = max(trials // 2, len(VERIFY_SIZES))
    for t in range(count):
        m, n = VERIFY_SIZES[t % len(VERIFY_SIZES)]
        a = random_centro(m, n, derive_seed(seed, 1, t))
        rep = verify_qx(a, qx_decompose(a))
        ok = rep.max_residual() <= 1e-12 * max(m, n)
        outcomes.append((ok, f"({m},{n}) trial {t}: residual {rep.max_residual():.3e}"))
    _section(summary, "factorization", outcomes)

    # Structured-operator identities.
    outcomes = []
    for n in (2, 4, 6, 8):
        ops = build_operator_matrices(n)
        sel = ops.selection_dense()
        ident = sel @ sel.T
        outcomes.append(
            (np.array_equal(ident, np.eye(ops.tau1)), f"n={n}: selection rows not orthonormal")
        )
        outcomes.append(
            (
                np.array_equal(sel.T @ sel, ops.indicator_dense()),
                f"n={n}: selection gram != indicator",
            )
        )
        rng_mat = uniform_open(derive_seed(seed, 2, n), n * n).reshape(n, n)
        outcomes.append(
            (
                np.array_equal(upx(rng_mat) + lowx(rng_mat), rng_mat),
                f"n={n}: upx + lowx != identity",
            )
        )
        # upx of a centrosymmetric matrix is X-type; recovery must be exact.
        w = upx(random_centro(n, n, derive_seed(seed, 2, n, 1)))
        outcomes.append(
            (np.array_equal(upx(w + w.T), w), f"n={n}: x-type recovery not exact")
        )
    _section(summary, "operator-identities", outcomes)

    # Norm inequalities for the support projection.
    outcomes = []
    for t in range(max(trials, 20)):
        n = (2, 4, 6, 8)[t % 4]
        c = uniform_open(derive_seed(seed, 3, t), n * n).reshape(n, n)
        fc = frobenius_norm(c)
        outcomes.append(
            (frobenius_norm(upx(c)) <= fc + 1e-13, f"t={t}: contraction failed")
        )
        sym = 0.5 * (c + c.T)
        outcomes.append(
            (
                frobenius_norm(upx(sym)) <= frobenius_norm(sym) / np.sqrt(2.0) + 1e-13,
                f"t={t}: symmetric contraction failed",
            )
        )
        outcomes.append(
            (
                frobenius_norm(upx(c + c.T)) <= np.sqrt(2.0) * fc + 1e-13,
                f"t={t}: symmetrized growth failed",
            )
        )
    _section(summary, "norm-inequalities", outcomes)

    # Diagonal-scaling interchange identities.
    outcomes = []
    for t in range(max(trials // 2, 10)):
        n = (2, 4, 6)[t % 3]
        c = uniform_open(derive_seed(seed, 4, t), n * n).reshape(n, n)
        delta = np.exp(uniform_open(derive_seed(seed, 5, t), n // 2))
        chk = lemma1_check(c, make_scaling(delta))
        outcomes.append(
            (chk.max_residual <= 1e-12 * (1 + frobenius_norm(c)), f"t={t}: residual")
        )
        outcomes.append((chk.min_slack >= -1e-13, f"t={t}: slack {chk.min_slack:.3e}"))
    _section(summary, "lemma-identities", outcomes)

    # Bound domination sweep (+ tightness, orderings).
    outcomes = []
    per_cell = max(1, trials // (len(VERIFY_SIZES) * len(VERIFY_EPS)))
    for si, (m, n) in enumerate(VERIFY_SIZES):
        for ei, eps in enumerate(VERIFY_EPS):
            for t in range(per_cell):
                cfg = TrialConfig(
                    m=m, n=n, scale=eps, seed=derive_seed(seed, 6, si, ei, t)
                )
                rec = run_trial(cfg)
                label = f"({m},{n}) eps={eps:g} t={t}"
                outcomes.append((rec.error is None, f"{label}: {rec.error}"))
                if rec.error is None:
                    outcomes.append((rec.domination_ok, f"{label}: domination {rec.domination}"))
                    if rec.tightness_slack is not None:
                        outcomes.append(
                            (
                                rec.tightness_slack >= -TIGHTNESS_SLACK,
                                f"{label}: tightness slack {rec.tightness_slack:.3e}",
                            )
                        )
                    if rec.cond_dominance_ok is not None:
                        outcomes.append(
                            (rec.cond_dominance_ok, f"{label}: cond dominance")
                        )
    _section(summary, "bound-domination", outcomes)

    # Finite-difference decay of the operator maps.
    outcomes = []
    for m, n in ((8, 4), (20, 10)):
        fd = fd_check(m, n, derive_seed(seed, 7, m), [1e-4, 1e-5, 1e-6])
        outcomes.append(
            (
                fd.ratios_within(*FD_RATIO_WINDOW),
                f"({m},{n}): ratios {fd.rx_ratios + fd.rq_ratios}",
            )
        )
    _section(summary, "fd-ratios", outcomes)

    return summary
