"""Shared fixtures.

Tests freely use ``numpy.linalg`` as an independent reference; the library
under test never does.
"""

from __future__ import annotations

import pytest

from centroqx.centro import random_centro
from centroqx.qx import qx_decompose

# Representative shapes: strictly tall, odd rows, square.
SHAPES = [(4, 2), (8, 4), (7, 4), (20, 10), (12, 12)]


@pytest.fixture(params=SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def shape(request):
    return request.param


@pytest.fixture()
def instance(shape):
    """A factored random instance for the given shape."""
    m, n = shape
    a = random_centro(m, n, seed=1000 + 7 * m + n)
    return a, qx_decompose(a)


# One "ACCEPTANCE <name>: PASS|FAIL" line per acceptance criterion, echoed in
# the terminal summary so the verdicts survive pytest's output capture.
_acceptance_lines: list[str] = []


@pytest.fixture()
def acceptance():
    def _report(name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {name}: {status}"
        if detail:
            line += f" ({detail})"
        _acceptance_lines.append(line)
        print(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
