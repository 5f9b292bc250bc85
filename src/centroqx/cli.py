"""Command-line interface.

Subcommands
-----------

- ``decompose``  factor a matrix from a file, optionally check residuals and
  write the factors out;
- ``bounds``     run one perturbation trial and print every bound next to the
  measured factor change;
- ``cond``       mixed/component-wise condition numbers, their closed-form
  upper estimates, and an optional empirical probe;
- ``table``      one of the built-in experiment presets (t1..t7) as csv,
  markdown, or json;
- ``fd-check``   directional-derivative ratio test for the first-order maps;
- ``verify``     the internal self-check suite.

Exit codes: 0 on success, 1 when a requested check fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .bounds import BOUNDS
from .condnum import COND_NUMBERS
from .errors import CentroQxError
from .harness import (
    FD_RATIO_WINDOW,
    PRESETS,
    TrialConfig,
    fd_check,
    run_table,
    run_trial,
    verify,
)
from .matio import format_float, read_matrix, write_matrix
from .qx import conditioning, qx_decompose, verify_qx

CHECK_TOL_SCALE = 1e-10  # looser than library verification; CLI gate only


def _eps_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("eps list is empty")
    return values


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative count, got {text!r}")
    return int(text)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _print_kv(pairs, indent: str = "  ") -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{indent}{key.ljust(width)}  {_fmt(value)}")


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="row count (generated matrices)")
    p.add_argument("--n", type=int, help="column count (generated matrices)")
    p.add_argument(
        "--gen",
        choices=("random", "toeplitz", "file"),
        default="random",
        help="matrix source (default: random)",
    )
    p.add_argument("--input", help="matrix file (required for --gen file)")
    p.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p.add_argument(
        "--scale", type=float, default=1e-8, help="perturbation size eps"
    )
    p.add_argument(
        "--k",
        choices=("identity", "ones"),
        default="identity",
        dest="k_mode",
        help="entrywise weight pattern for the perturbation",
    )


def _config_from_args(args, probe_trials: int = 0) -> TrialConfig:
    if args.gen == "file":
        if not args.input:
            raise ValueError("--gen file requires --input")
        m = n = 0
    else:
        if args.m is None or args.n is None:
            raise ValueError(f"--gen {args.gen} requires --m and --n")
        m, n = args.m, args.n
    return TrialConfig(
        m=m,
        n=n,
        generator=args.gen,
        scale=args.scale,
        seed=args.seed,
        k_mode=args.k_mode,
        input_path=args.input,
        probe_trials=probe_trials,
    )


def _cmd_decompose(args) -> int:
    a = read_matrix(args.input)
    factors = qx_decompose(a)
    m, n = a.shape
    cond = conditioning(factors)
    print(f"decomposed {m}x{n} matrix: Q {m}x{n}, X {n}x{n}")
    _print_kv(
        [
            ("kappa2(X)", cond["kappa2"]),
            ("cond(X)", cond["cond_x"]),
        ]
    )
    status = 0
    if args.check:
        report = verify_qx(a, factors)
        tol = CHECK_TOL_SCALE * max(m, n)
        ok = report.max_residual() <= tol
        _print_kv(
            [
                ("reconstruction", report.reconstruction),
                ("orthogonality", report.orthogonality),
                ("perplecticity", report.perplecticity),
                ("Q centro defect", report.q_centro_defect),
                ("X off-support", report.off_support),
            ]
        )
        print(f"check: {'PASS' if ok else 'FAIL'} (max residual vs tol {tol:g})")
        if not ok:
            status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_matrix(handle, factors.q, comment=f"Q factor ({m}x{n})")
            handle.write("\n")
            write_matrix(handle, factors.x, comment=f"X factor ({n}x{n})")
        print(f"wrote factors to {args.out}")
    return status


def _trial_or_fail(cfg: TrialConfig):
    record = run_trial(cfg)
    if record.error:
        raise CentroQxError(record.error)
    return record


def _cmd_bounds(args) -> int:
    record = _trial_or_fail(_config_from_args(args))
    if args.json:
        print(json.dumps(record.to_dict(), indent=2))
        return 0 if record.domination_ok else 1
    rep = record.report
    print(
        f"trial {record.m}x{record.n} gen={record.generator} seed={record.seed} "
        f"eps={record.eps_request:g} k={record.k_mode}"
    )
    _print_kv(
        [
            ("|dA|_F", record.delta_a),
            ("measured |dX|_F", record.delta_x),
            ("measured |dQ|_F", record.delta_q),
            ("kappa2(X)", record.kappa2),
            ("cond(X)", record.cond_x),
        ]
    )
    print("gates:")
    for gate in rep.gates:
        state = "ok" if gate.satisfied else "FAILED"
        print(
            f"  {gate.name:<26} {format_float(gate.value)} "
            f"{gate.relation} {format_float(gate.threshold)}  [{state}]"
        )
    for target, title in (
        ("x", "X bounds (each must dominate measured |dX|_F):"),
        ("q", "Q bounds (each must dominate measured |dQ|_F):"),
        (None, "first-order predictions:"),
    ):
        print(title)
        _print_kv([(b.name, getattr(rep, b.name)) for b in BOUNDS if b.target == target])
    if record.tightness_slack is not None:
        _print_kv([("tightness slack", record.tightness_slack)])
    verdict = "PASS" if record.domination_ok else "FAIL"
    print(f"domination: {verdict}")
    return 0 if record.domination_ok else 1


def _cmd_cond(args) -> int:
    record = _trial_or_fail(_config_from_args(args, probe_trials=args.probe))
    if args.json:
        print(json.dumps(record.to_dict(), indent=2))
        return 0 if record.cond_dominance_ok in (True, None) else 1
    print(
        f"condition numbers for {record.m}x{record.n} gen={record.generator} "
        f"seed={record.seed}"
    )
    exact = record.cond or {}
    if record.cond is None:
        print("  first-order operators skipped (size cap); no exact values")
    print("  quantity   exact            upper-estimate")
    for key in COND_NUMBERS:
        print(f"  {key:<9}  {_fmt(exact.get(key)):<16} {_fmt(record.cond_upper[f'{key}_upper'])}")
    if record.probe:
        print(f"probe ({record.probe['trials']} trials, eps={record.probe['eps']:g}):")
        for key in COND_NUMBERS:
            print(f"  {key:<9}  {_fmt(record.probe[key])}")
    if record.cond is None:
        return 0  # no exact values, so no dominance to report
    ok = record.cond_dominance_ok
    print(f"upper-estimate dominance: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    text, records = run_table(args.preset, args.seed, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.preset} table ({len(records)} rows) to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    errors = [r for r in records if r.error]
    for r in errors:
        print(f"note: row {r.m}x{r.n} seed={r.seed}: {r.error}", file=sys.stderr)
    return 0


def _cmd_fd_check(args) -> int:
    report = fd_check(args.m, args.n, args.seed, args.eps)
    lo, hi = FD_RATIO_WINDOW
    print(f"directional-derivative check {args.m}x{args.n} seed={args.seed}")
    print("  eps          X residual        Q residual")
    for eps, rx, rq in zip(report.eps_values, report.rx, report.rq):
        print(f"  {eps:<12g} {format_float(rx):<17} {format_float(rq)}")
    print(f"  decade ratios (expect within [{lo:g}, {hi:g}]):")
    for pair, ratios in (("X", report.rx_ratios), ("Q", report.rq_ratios)):
        for val in ratios:
            print(f"    {pair}: {val:.3f} [{'ok' if lo <= val <= hi else 'OUT OF WINDOW'}]")
    ok = report.ratios_within(lo, hi)
    print(f"fd-check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    summary = verify(trials=args.trials, seed=args.seed)
    print(summary.describe())
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centroqx",
        description=(
            "Structure-preserving thin QX factorization of centrosymmetric "
            "matrices, with perturbation bounds and condition numbers."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="factor a matrix from a file")
    p_dec.add_argument("--input", required=True, help="matrix file to factor")
    p_dec.add_argument(
        "--check", action="store_true", help="verify residuals after factoring"
    )
    p_dec.add_argument("--out", help="write Q and X blocks to this file")
    p_dec.set_defaults(func=_cmd_decompose)

    p_bounds = sub.add_parser(
        "bounds", help="one perturbation trial with every bound evaluated"
    )
    _add_generator_args(p_bounds)
    p_bounds.add_argument(
        "--json", action="store_true", help="emit the full trial record as json"
    )
    p_bounds.set_defaults(func=_cmd_bounds)

    p_cond = sub.add_parser("cond", help="condition numbers for one matrix")
    _add_generator_args(p_cond)
    p_cond.add_argument(
        "--probe",
        type=_count,
        default=0,
        help="empirical probe trials (0 disables)",
    )
    p_cond.add_argument(
        "--json", action="store_true", help="emit the full trial record as json"
    )
    p_cond.set_defaults(func=_cmd_cond)

    p_table = sub.add_parser("table", help="run an experiment preset")
    p_table.add_argument(
        "--preset",
        required=True,
        choices=PRESETS,
        help="preset name",
    )
    p_table.add_argument("--seed", type=int, default=0)
    p_table.add_argument(
        "--format", choices=("csv", "md", "json"), default="csv"
    )
    p_table.add_argument("--out", help="write the table to this file")
    p_table.set_defaults(func=_cmd_table)

    p_fd = sub.add_parser(
        "fd-check", help="directional-derivative ratio test"
    )
    p_fd.add_argument("--m", type=int, required=True)
    p_fd.add_argument("--n", type=int, required=True)
    p_fd.add_argument("--seed", type=int, default=0)
    p_fd.add_argument(
        "--eps",
        type=_eps_list,
        default=[1e-4, 1e-5, 1e-6, 1e-7],
        help="comma-separated perturbation sizes, e.g. 1e-5,1e-6,1e-7",
    )
    p_fd.set_defaults(func=_cmd_fd_check)

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument("--trials", type=int, default=40)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CentroQxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
