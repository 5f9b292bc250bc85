#!/usr/bin/env python3
"""Run every experiment preset and write the tables under results/.

Each preset is emitted as csv (machine-readable) and markdown (readable)
with a fixed seed. Re-running the script agrees with the committed results/
within the per-column tolerances of tests/test_golden_tables.py, not byte
for byte: changes to the norm kernels, the operator route, the
condition-number upper bounds and the triangular solve since the files
were written move 329 cells in their last bits, closed-form t2 and t3
columns among them (at most 9.0e-16 relative with one BLAS thread on a
2-core machine). Within one build and BLAS thread count a re-run is
deterministic. Pass a different seed or an output directory to vary either.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from centroqx.harness import PRESETS, render_table, run_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--preset",
        action="append",
        choices=PRESETS,
        help="restrict to specific presets (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    presets = args.preset or list(PRESETS)

    for preset in presets:
        start = time.perf_counter()
        csv_text, records = run_table(preset, args.seed, "csv")
        md_text = render_table(preset, records, "md")
        (out_dir / f"{preset}.csv").write_text(csv_text, encoding="utf-8")
        (out_dir / f"{preset}.md").write_text(md_text, encoding="utf-8")
        elapsed = time.perf_counter() - start
        errors = sum(1 for r in records if r.error)
        note = f", {errors} rows errored" if errors else ""
        print(f"{preset}: {len(records)} rows in {elapsed:.1f}s{note}")
    print(f"tables written to {out_dir}/ (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
