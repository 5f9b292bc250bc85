"""Golden tables: a fresh run of every preset against the committed results/.

``scripts/run_tables.py`` writes ``results/<preset>.csv`` and
``results/<preset>.md`` at seed 42. The same-process byte identity of a
table is acceptance criterion 8; these tests are the cross-build regression
check, so they compare both formats, rendered from one fresh run per preset,
cell by cell with a tolerance per column group:

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
from functools import lru_cache
from pathlib import Path

import pytest

from centroqx.harness import PRESETS, render_table, run_table

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


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def md_rows(text: str) -> list[dict[str, str]]:
    """Rows of a markdown table as written by ``render_table`` (blank cells are " ")."""
    header, _, *body = (
        [cell.strip() for cell in line[2:-2].split(" | ")] for line in text.splitlines()
    )
    return [dict(zip(header, cells)) for cells in body]


def table_differences(fresh: str, golden: str, rows=csv_rows) -> list[str]:
    """Every cell of ``fresh`` outside its column's tolerance of ``golden``."""
    new_rows = rows(fresh)
    old_rows = rows(golden)
    if len(new_rows) != len(old_rows):
        return [f"row count {len(new_rows)} != {len(old_rows)}"]
    if new_rows and list(new_rows[0]) != list(old_rows[0]):
        added = [c for c in new_rows[0] if c not in old_rows[0]]
        removed = [c for c in old_rows[0] if c not in new_rows[0]]
        if not added and not removed:
            return ["columns reordered"]
        named = (", ".join(cols) or "none" for cols in (added, removed))
        return ["columns added: {}; removed: {}".format(*named)]
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


@lru_cache(maxsize=None)
def fresh_run(preset: str):
    """One run per preset, shared by the csv and the markdown comparison."""
    return run_table(preset, SEED, "csv")


@pytest.mark.parametrize("preset", PRESETS)
def test_fresh_table_matches_committed_results(preset):
    fresh, _ = fresh_run(preset)
    golden = (RESULTS / f"{preset}.csv").read_text(encoding="utf-8")
    assert table_differences(fresh, golden) == []


@pytest.mark.parametrize("preset", PRESETS)
def test_fresh_markdown_matches_committed_results(preset):
    _, records = fresh_run(preset)
    fresh = render_table(preset, records, "md")
    golden = (RESULTS / f"{preset}.md").read_text(encoding="utf-8")
    assert table_differences(fresh, golden, md_rows) == []


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
    dropped = "row,m,n,eps,delta_x,probe_cx,gates_ok\n1,4,2,1e-08,2.0,5.0,true\n"
    assert table_differences(dropped, golden) == ["columns added: none; removed: x_refined"]
    renamed = golden.replace("x_refined", "x_new")
    assert table_differences(renamed, golden) == ["columns added: x_new; removed: x_refined"]
    swapped = "row,m,n,eps,x_refined,delta_x,probe_cx,gates_ok\n1,4,2,1e-08,3.0,2.0,5.0,true\n"
    assert table_differences(swapped, golden) == ["columns reordered"]
    cond = "row,m,n,eps,cq,kappa2\n1,4,2,1e-08,1.0,7.0\n"
    assert table_differences(cond.replace("1.0,", "1.000000001,"), cond) == []
    assert table_differences(cond.replace("1.0,", "1.0000001,"), cond) != []
    assert table_differences(cond.replace("7.0", "7.000000001"), cond) != []


def test_markdown_comparison_reads_blank_cells():
    golden = "| row | eps | x_refined | error |\n| --- | --- | --- | --- |\n| 1 | 1e-08 | 3.0 |   |\n"
    assert md_rows(golden) == [{"row": "1", "eps": "1e-08", "x_refined": "3.0", "error": ""}]
    assert table_differences(golden, golden, md_rows) == []
    assert table_differences(golden.replace("3.0", "3.0000001"), golden, md_rows) == [
        "row 1 x_refined: 3.0000001 vs 3.0"
    ]
    assert table_differences(golden.replace("3.0", " "), golden, md_rows) != []
