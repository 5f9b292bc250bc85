#!/usr/bin/env python3
"""Benchmark of centroqx: perturbation trials and factorizations.

Run from the repository root:

    python3 qxbench/run.py --workload trial-closed --seed 1 --seconds 25 --trace 0
    python3 qxbench/run.py --workload all --seed 1 --seconds 25

Workloads are ``trial-closed``, ``trial-operator`` and ``factor`` (``all``
runs the three, each in its own process). With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the package functions of each layer are wrapped and the
per-layer metrics are printed instead. See ``qxbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("trial-closed", "trial-operator", "factor")
# One BLAS thread: with two, short runs on a 2-core machine swing by 2x.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (
        f"numpy {np.__version__}, BLAS {blas}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
        f"nproc {len(os.sched_getaffinity(0))}, python {sys.version.split()[0]}"
    )


def setup_probe(args) -> int:
    """Child of ``measure_setup``: import, build the pool, warm up, report."""
    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.run(wl.prepare(wl.warmup))
    print("ready", flush=True)
    return 0


def measure_setup(args) -> float:
    """Median time from process start to ready for the first timed operation."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        samples.append(ready - start)
    return statistics.median(samples)


def run_workload(args) -> int:
    setup_s = None if args.trace else measure_setup(args)

    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.run(wl.prepare(wl.warmup))
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()

    print(f"env: {environment()}")
    passes = wl.passes(args.seconds)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    times: list[float] = []
    attempted = failed = unexpected = 0
    with open(OUT / f"ops-{stem}.jsonl", "w", encoding="utf-8") as log:
        for _ in range(passes):
            for item in wl.pool:
                arg = wl.prepare(item)
                op = attempted
                attempted += 1
                try:
                    if tr:
                        tr.op = op
                    start = time.perf_counter()
                    out = wl.run(arg)
                    seconds = time.perf_counter() - start
                    if tr:
                        tr.op = None
                    fails = wl.check(item, arg, out)
                except Exception:  # counted as a failed operation; the run goes on
                    if tr:
                        tr.op = None
                    traceback.print_exc()
                    seconds, fails = None, ["exception"]
                if seconds is not None:
                    times.append(seconds)
                known = bool(fails) and wl.known_fault(item, fails)
                if fails:
                    failed += 1
                    unexpected += not known
                    note = "known fault" if known else "UNEXPECTED"
                    print(f"failed op {op} {wl.label(item)}: {', '.join(fails)} ({note})")
                log.write(json.dumps({"op": op, "item": wl.label(item), "seconds": seconds,
                                      "failed": fails}) + "\n")

    print(f"work: {passes} passes of {len(wl.pool)} inputs, {attempted} operations, "
          f"{failed} failed ({unexpected} unexpected)")
    if tr:
        tr.uninstall()
        tr.write(OUT / f"spans-{stem}.jsonl")
        metrics = layer_report(tr, attempted)
    else:
        metrics = end_to_end(times, setup_s)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(times: list[float], setup_s: float) -> dict:
    ordered = sorted(times)
    tail_index = len(ordered) - 1 - TAIL_BEYOND
    print(f"latency_tail_ms: p{100.0 * (tail_index + 1) / len(ordered):.1f} "
          f"of {len(ordered)} samples, {TAIL_BEYOND} beyond it")
    values = {
        "throughput_ops_s": len(ordered) / sum(ordered),
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * ordered[tail_index],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    for name, value in values.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def layer_report(tr, ops: int) -> dict:
    import tracer

    for label in tr.absent:
        print(f"absent: {label} (its metrics read 0)")
    values = tracer.layer_metrics(tr, ops)
    out = {}
    for name, (unit, moves, where) in tracer.LAYER_METRICS.items():
        print(f"{name} = {values[name]:.6g} {unit}  [moves {moves} on {where}]")
        out[name] = {"value": values[name], "unit": unit}
    return out


def run_all(args) -> int:
    """Each workload in its own process; a JSON line per workload at the end."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "centroqx" / "__init__.py").is_file():
        print(f"qxbench: no centroqx sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
