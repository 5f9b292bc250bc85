"""Matrix file format: round-trips, comments, and malformed-input errors."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroqx.errors import MatrixFormatError
from centroqx.matio import format_float, read_matrices, read_matrix, write_matrix
from centroqx.rng import uniform_open


def test_round_trip_exact(tmp_path):
    a = uniform_open(1, 12).reshape(4, 3) * 1e-7
    path = tmp_path / "a.txt"
    write_matrix(path, a, comment="round trip\nsecond line")
    assert np.array_equal(read_matrix(path), a)
    text = path.read_text()
    assert text.startswith("# round trip\n# second line\n4 3\n")


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# header\n\n2 2\n1 2\n# interior\n3 4\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrices_multi_block(tmp_path):
    path = tmp_path / "two.txt"
    with open(path, "w") as fh:
        write_matrix(fh, np.eye(2), comment="first")
        fh.write("\n")
        write_matrix(fh, np.ones((1, 3)), comment="second")
    blocks = read_matrices(path)
    assert len(blocks) == 2
    assert np.array_equal(blocks[0], np.eye(2))
    assert np.array_equal(blocks[1], np.ones((1, 3)))


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "2 2\n1 2\n3\n",  # short row
        "2 2\n1 2 9\n3 4\n",  # long row
        "2 2\n1 2\n",  # missing row
        "2 2\n1 2\n3 4\n5 6\n",  # trailing content
        "2\n1 2\n",  # bad header
        "2 2\n1 x\n3 4\n",  # bad number
        "0 2\n",  # empty dimension
    ],
)
def test_read_matrix_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


@pytest.mark.parametrize("text", ["2 x\n1 2\n3 4\n", "1 2\n1 inf\n", "1 2\nnan 1\n"])
def test_read_matrix_rejects_bad_dimensions_and_non_finite_entries(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MatrixFormatError, match="non-integer|non-finite"):
        read_matrix(path)


def test_write_to_handle():
    buf = io.StringIO()
    write_matrix(buf, np.array([[1.5]]))
    assert buf.getvalue() == "1 1\n1.5\n"


@settings(max_examples=200, deadline=None)
@given(
    st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
    )
)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
