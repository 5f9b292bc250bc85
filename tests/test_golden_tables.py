"""Golden tables: a fresh run of every preset against the committed results/.

``scripts/run_tables.py`` writes ``results/<preset>.csv`` at seed 42. The
same-process byte identity of a table is acceptance criterion 8; this test
is the cross-build regression check, so it compares cell by cell with a
tolerance per column group:

- text and boolean columns (gates, domination, skipped, error) and the
  integer columns ``row``, ``m``, ``n``: exact;
- inputs that do not depend on the factorization (``param_e``, ``eps``,
  ``eps_eff``, ``delta_a``): 1e-13 relative;
- measured deltas (``delta_x``, ``delta_q``, ``qt_delta_q``): 1e-5 relative
  on rows with eps >= 1e-10; below that they are at the rounding floor, so
  1e-13 absolute;
- probe estimates (``probe_*``, random sampling of ill-conditioned maps):
  1e-4 relative;
- componentwise condition numbers (``cx``, ``cx_upper``, ``cq``,
  ``cq_upper``): 1e-8 relative. They divide by |X| or |Q| entrywise, so an
  entry near zero turns a rounding-level change in the factors into a
  relative change of u/|entry| (2.2e-10 in ``cq`` at t5 row 5 from
  reordering the Householder updates);
- every other number (bounds, coefficients, normwise condition numbers):
  1e-10 relative.

A blank cell (a route that did not run) must stay blank.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import pytest

from centroqx.harness import PRESETS, run_table

RESULTS = Path(__file__).resolve().parents[1] / "results"
SEED = 42

EXACT_COLUMNS = frozenset(
    {"row", "m", "n", "gates_ok", "domination_ok", "cond_dominance_ok", "operators_skipped", "error"}
)
INPUT_COLUMNS = frozenset({"param_e", "eps", "eps_eff", "delta_a"})
DELTA_COLUMNS = frozenset({"delta_x", "delta_q", "qt_delta_q"})
COMPONENTWISE_COLUMNS = frozenset({"cx", "cx_upper", "cq", "cq_upper"})
INPUT_RTOL = 1e-13
DELTA_RTOL = 1e-5
DELTA_FLOOR_EPS = 1e-10  # rows with a smaller eps measure rounding noise
DELTA_FLOOR_ATOL = 1e-13
PROBE_RTOL = 1e-4
COMPONENTWISE_RTOL = 1e-8
NUMBER_RTOL = 1e-10


def cell_tolerance(column: str, eps: float) -> tuple[float, float] | None:
    """``(rtol, atol)`` for a numeric cell, or None for an exact comparison."""
    if column in EXACT_COLUMNS:
        return None
    if column in INPUT_COLUMNS:
        return INPUT_RTOL, 0.0
    if column in DELTA_COLUMNS:
        return (DELTA_RTOL, 0.0) if eps >= DELTA_FLOOR_EPS else (0.0, DELTA_FLOOR_ATOL)
    if column.startswith("probe_"):
        return PROBE_RTOL, 0.0
    if column in COMPONENTWISE_COLUMNS:
        return COMPONENTWISE_RTOL, 0.0
    return NUMBER_RTOL, 0.0


def table_differences(fresh: str, golden: str) -> list[str]:
    """Every cell of ``fresh`` outside its column's tolerance of ``golden``."""
    new_rows = list(csv.DictReader(io.StringIO(fresh)))
    old_rows = list(csv.DictReader(io.StringIO(golden)))
    if len(new_rows) != len(old_rows):
        return [f"row count {len(new_rows)} != {len(old_rows)}"]
    if new_rows and list(new_rows[0]) != list(old_rows[0]):
        return [f"columns {list(new_rows[0])} != {list(old_rows[0])}"]
    out = []
    for new, old in zip(new_rows, old_rows):
        eps = float(old["eps"]) if old.get("eps") else math.inf
        for column, want in old.items():
            got = new[column]
            tol = cell_tolerance(column, eps)
            if tol is None or not want or not got:
                ok = got == want
            else:
                rtol, atol = tol
                ok = abs(float(got) - float(want)) <= max(rtol * abs(float(want)), atol)
            if not ok:
                out.append(f"row {old['row']} {column}: {got} vs {want}")
    return out


@pytest.mark.parametrize("preset", PRESETS)
def test_fresh_table_matches_committed_results(preset):
    fresh, _ = run_table(preset, SEED, "csv")
    golden = (RESULTS / f"{preset}.csv").read_text(encoding="utf-8")
    assert table_differences(fresh, golden) == []


def test_comparison_catches_moved_cells():
    golden = "row,m,n,eps,delta_x,x_refined,probe_cx,gates_ok\n1,4,2,1e-08,2.0,3.0,5.0,true\n"
    assert table_differences(golden, golden) == []
    assert table_differences(golden.replace("3.0", "3.0000001"), golden) == [
        "row 1 x_refined: 3.0000001 vs 3.0"
    ]
    assert table_differences(golden.replace("true", "false"), golden) != []
    assert table_differences(golden.replace("5.0,", "5.0001,"), golden) == []
    assert table_differences(golden.replace("5.0,", "5.001,"), golden) != []
    assert table_differences(golden.replace("2.0,", "2.00001,"), golden) == []
    assert table_differences(golden.replace("2.0,", "2.0001,"), golden) != []
    floor = golden.replace("1e-08", "1e-15").replace("2.0,", "2e-14,")
    assert table_differences(floor.replace("2e-14,", "9e-14,"), floor) == []
    assert table_differences(floor.replace("2e-14,", "2e-13,"), floor) != []
    assert table_differences(golden.replace("3.0", ""), golden) != []
    cond = "row,m,n,eps,cq,kappa2\n1,4,2,1e-08,1.0,7.0\n"
    assert table_differences(cond.replace("1.0,", "1.000000001,"), cond) == []
    assert table_differences(cond.replace("1.0,", "1.0000001,"), cond) != []
    assert table_differences(cond.replace("7.0", "7.000000001"), cond) != []
