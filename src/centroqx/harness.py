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
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .bounds import (
    BOUNDS,
    BoundReport,
    FirstOrderOperators,
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
from .condnum import COND_NUMBERS, cond_upper_bounds, empirical_cond_probe, mixed_comp_cond
from .errors import CentroQxError, SizeCapExceeded
from .linalg import frobenius_norm, vec
from .matio import format_float, read_matrix
from .qx import qx_decompose, verify_qx
from .rng import derive_seed, uniform_open
from .xops import xvec

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
    # Wall seconds per stage that ran: generate (A and dA), factor (A and
    # A + dA in one stacked call, Q, X and X's halves of each, and the
    # measured deltas; X^{-1} is built by the first stage that reads it,
    # operators or else bounds), operators, bounds (report and domination),
    # cond_upper, cond (exact condition numbers and tightness), probe.
    stage_times: dict[str, float] = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """The record as plain data; the ``report`` field is keyed ``bounds``."""
        return {("bounds" if k == "report" else k): v for k, v in asdict(self).items()}


def _check_domination(record: TrialRecord) -> None:
    """Flag every applicable absolute bound against its measured quantity."""
    rep = record.report
    measured = {"x": record.delta_x, "q": record.delta_q}
    flags: dict[str, bool] = {}
    for bound in BOUNDS:
        value, target = getattr(rep, bound.name), measured.get(bound.target)
        if value is not None and target is not None:
            flags[bound.name] = bool(value + DOMINATION_SLACK >= target)
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
    start = mark = time.perf_counter()

    def lap(stage: str) -> None:
        """Charge the time since the previous lap to ``stage``."""
        nonlocal mark
        now = time.perf_counter()
        record.stage_times[stage] = record.stage_times.get(stage, 0.0) + (now - mark)
        mark = now

    try:
        a = cfg.materialize()
        record.m, record.n = a.shape
        # dA depends on A alone, so A and A + dA are factored in one call.
        da, k, eps_eff = random_centro_perturbation(
            a, cfg.scale, derive_seed(cfg.seed, 0xB), cfg.k_mode
        )
        lap("generate")
        factors, perturbed = qx_decompose(np.stack([a, a + da]))
        record.eps_eff = eps_eff
        record.delta_a = frobenius_norm(da)
        record.delta_x = frobenius_norm(perturbed.x - factors.x)
        record.delta_q = frobenius_norm(perturbed.q - factors.q)
        record.qt_delta_q = frobenius_norm(factors.q.T @ (perturbed.q - factors.q))
        lap("factor")

        ops: Optional[FirstOrderOperators] = None
        if cfg.with_operators:
            try:
                ops = build_first_order_operators(factors)
                lap("operators")
            except SizeCapExceeded:
                pass
        record.operators_skipped = ops is None

        rep = bound_report(a, factors, da, k, eps_eff, ops)
        record.report = rep
        record.kappa2 = rep.kappa2
        record.cond_x = rep.cond_x
        _check_domination(record)
        lap("bounds")

        record.cond_upper = cond_upper_bounds(a, factors)
        lap("cond_upper")
        if ops is not None:
            cond = mixed_comp_cond(a, ops, factors)
            record.cond = asdict(cond)
            upper, rtol = record.cond_upper, COND_DOMINANCE_RTOL
            record.cond_dominance_ok = all(
                upper[f"{name}_upper"] >= record.cond[name] * (1.0 - rtol) for name in COND_NUMBERS
            )
            record.tightness_slack = tightness_check(rep)["slack"]
            lap("cond")
        if cfg.probe_trials > 0:
            probe = empirical_cond_probe(
                a, factors, min(cfg.scale, 1e-6), derive_seed(cfg.seed, 0xC), cfg.probe_trials
            )
            record.probe = asdict(probe)
            lap("probe")
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
COND_PRESET_EPS = 1e-8
COND_PROBE_TRIALS = 4


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


# Size ladders: name -> (sizes, generator). t4 reruns t1's sizes at one eps.
_LADDERS = {
    "t1": (T1_SIZES, "random"),
    "t2": (T2_SIZES, "random"),
    "t3": (T2_SIZES, "toeplitz"),
    "t4": (T1_SIZES, "random"),
}
# Free-half fills: name -> (m, n, fill, spread exponents), one row per exponent.
_FILLS = {
    "t5": (5, 4, _spread_fill_10, (1, 0, -1, -4, -3)),
    "t6": (5, 4, _spread_fill_10_mid, (-4, 4, 3)),
    "t7": (6, 6, _spread_fill_18, (2, 3, 4, 5)),
}
PRESETS = (*_LADDERS, *_FILLS)
COND_PRESETS = ("t4", *_FILLS)  # the condition-number table layout


def preset_configs(preset: str, seed: int) -> list[TrialConfig]:
    """Row configurations of one preset (row seeds derived from ``seed``)."""
    cond = preset in COND_PRESETS
    if preset in _LADDERS:
        sizes, gen = _LADDERS[preset]
        return [
            TrialConfig(
                m=m, n=n, generator=gen,
                scale=COND_PRESET_EPS if cond else 10.0 ** -(6 + row),
                seed=derive_seed(seed, row),
                probe_trials=COND_PROBE_TRIALS if cond else 0,
            )
            for row, (m, n) in enumerate(sizes, start=1)
        ]
    if preset in _FILLS:
        m, n, fill, exponents = _FILLS[preset]
        return [
            TrialConfig(
                m=m, n=n, generator="free-entries", scale=COND_PRESET_EPS,
                seed=derive_seed(seed, row), probe_trials=COND_PROBE_TRIALS,
                free_entries=tuple(fill(e)),
            )
            for row, e in enumerate(exponents, start=1)
        ]
    raise ValueError(f"unknown preset {preset!r} (choose from {PRESETS})")


def preset_param_labels(preset: str) -> list[str]:
    """Row parameter annotations (the spread exponent of a fill preset)."""
    return [str(e) for e in _FILLS[preset][3]] if preset in _FILLS else []


BOUND_COLUMNS = [
    "row", "m", "n", "eps", "eps_eff", "delta_a", "delta_x", "delta_q",
    "qt_delta_q", "kappa2", "cond_x",
    *(bound.name for bound in BOUNDS),
    "coef_x1", "coef_x2", "coef_x3", "coef_x4",
    "coef_q1", "coef_q2", "coef_q3",
    "gates_ok", "domination_ok", "operators_skipped", "error",
]

COND_COLUMNS = [
    "row", "m", "n", "param_e", "eps", "kappa2", "cond_x",
    "mx", "mx_upper", "cx", "cx_upper",
    "mq", "mq_upper", "cq", "cq_upper",
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


def _row(record: TrialRecord, columns: list[str], row: int, param: Optional[str]) -> list[str]:
    """One table row: every column is read from one name -> value map.

    Later sources override earlier ones: the bound report's fields, the
    exact and upper condition numbers, the probe (``probe_`` prefix), the
    record's fields, then the row annotations (``eps`` is the requested
    size; the report's ``eps`` is the effective one).
    """
    rep = record.report
    values = {
        **(vars(rep) if rep else {}),
        **(record.cond or {}),
        **(record.cond_upper or {}),
        **{f"probe_{k}": v for k, v in (record.probe or {}).items()},
        **vars(record),
        "row": row,
        "param_e": param,
        "eps": record.eps_request,
        "gates_ok": rep.gates_ok() if rep else None,
    }
    return [_cell(values.get(name)) for name in columns]


def render_table(preset: str, records: list[TrialRecord], fmt: str) -> str:
    """Render trial records as csv, markdown, or json text."""
    params = preset_param_labels(preset)
    header = COND_COLUMNS if preset in COND_PRESETS else BOUND_COLUMNS
    rows = [
        _row(rec, header, i, params[i - 1] if i <= len(params) else None)
        for i, rec in enumerate(records, start=1)
    ]

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
            if i < len(params):
                d["param_e"] = params[i]
            payload.append(d)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r} (csv, md, json)")


def run_table(preset: str, seed: int, fmt: str = "csv") -> tuple[str, list[TrialRecord]]:
    """Run one preset and render it; returns (text, records)."""
    records = [run_trial(cfg) for cfg in preset_configs(preset, seed)]
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


def fd_check(m: int, n: int, seed: int, eps_values: list[float]) -> FdReport:
    """Residual decay of the first-order maps under a shrinking perturbation.

    One fixed random direction is scaled by each eps; the residuals must
    shrink linearly in eps, so consecutive-decade ratios land near 10.
    Raises ``ValueError`` unless there are at least two eps values, each
    finite and positive: fewer leave no ratio to check, and a zero step has
    no residual to divide by.
    """
    if len(eps_values) < 2:
        raise ValueError(f"fd-check needs at least two eps values, got {len(eps_values)}")
    if not all(0.0 < eps < np.inf for eps in eps_values):
        raise ValueError(f"eps values must be finite and positive, got {list(eps_values)}")
    a = random_centro(m, n, derive_seed(seed, 0xA))
    mask = random_centro(m, n, derive_seed(seed, 0xB))
    steps = [eps * (mask * a) for eps in eps_values]
    factors, *ladder = qx_decompose(np.stack([a, *(a + da for da in steps)]))
    ops = build_first_order_operators(factors)
    rx, rq = [], []
    for da, perturbed in zip(steps, ladder):
        scale = frobenius_norm(da)
        rx.append(
            frobenius_norm(xvec(perturbed.x - factors.x) - ops.maps["g"].matvec(vec(da))) / scale
        )
        rq.append(
            frobenius_norm(vec(perturbed.q - factors.q) - ops.maps["gq"].matvec(vec(da))) / scale
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
    fd-ratio section factors two fixed shapes at a seed-derived draw.
    """
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
