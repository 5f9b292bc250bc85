"""Command-line interface: subcommands, output shape, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import centroqx.bounds as bounds_mod
from centroqx import __version__
from centroqx.centro import random_centro
from centroqx.cli import main
from centroqx.harness import run_table
from centroqx.matio import format_float, read_matrices, write_matrix


@pytest.fixture()
def centro_file(tmp_path):
    path = tmp_path / "a.txt"
    write_matrix(str(path), random_centro(8, 4, seed=21))
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


# -------------------------------------------------------------- decompose


def test_decompose_check_and_out(tmp_path, centro_file, capsys):
    out_path = tmp_path / "factors.txt"
    rc = main(["decompose", "--input", centro_file, "--check", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "decomposed 8x4 matrix" in out
    assert "check: PASS" in out
    q, x = read_matrices(str(out_path))
    assert q.shape == (8, 4) and x.shape == (4, 4)
    a = read_matrices(centro_file)[0]
    assert np.allclose(q @ x, a, atol=1e-12)


def test_decompose_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["decompose", "--input", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_rejects_non_centrosymmetric(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("2 2\n1 2\n3 4\n")
    rc = main(["decompose", "--input", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- bounds


def test_bounds_text_report(capsys):
    rc = main(["bounds", "--m", "8", "--n", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gates:" in out
    assert "normwise-smallness" in out
    assert "X bounds" in out and "Q bounds" in out
    assert out.rstrip().endswith("domination: PASS")


def test_bounds_json_record(capsys):
    rc = main(["bounds", "--m", "4", "--n", "2", "--seed", "3", "--json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["domination_ok"] is True
    assert record["bounds"]["x_refined"] > 0.0


def test_bounds_text_prints_the_tightness_slack(capsys):
    """The text report labels envelope - |gx|_2 a slack, with the value the
    JSON record carries."""
    args = ["bounds", "--m", "20", "--n", "10", "--seed", "3"]
    assert main(args + ["--json"]) == 0
    slack = json.loads(capsys.readouterr().out)["tightness_slack"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"  tightness slack  {format_float(slack)}\n" in out
    assert "ratio" not in out


def test_bounds_requires_shape_or_input(capsys):
    assert main(["bounds", "--gen", "file"]) == 2
    assert main(["bounds"]) == 2
    err = capsys.readouterr().err
    assert "requires --input" in err and "requires --m and --n" in err


def test_bounds_file_source(centro_file, capsys):
    rc = main(["bounds", "--gen", "file", "--input", centro_file, "--seed", "2"])
    assert rc == 0
    assert "trial 8x4 gen=file" in capsys.readouterr().out


# ------------------------------------------------------------------- cond


def test_cond_with_probe(capsys):
    rc = main(["cond", "--m", "4", "--n", "2", "--seed", "5", "--probe", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "probe (3 trials" in out
    assert out.rstrip().endswith("upper-estimate dominance: PASS")


def test_cond_rejects_a_negative_probe_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cond", "--m", "4", "--n", "2", "--probe", "-3"])
    assert exc.value.code == 2
    assert "non-negative count" in capsys.readouterr().err


def test_cond_json(capsys):
    rc = main(["cond", "--m", "4", "--n", "2", "--seed", "5", "--json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record["cond"]) >= {"mx", "cx", "mq", "cq"}
    assert record["cond_dominance_ok"] is True


def test_cond_above_operator_cap_still_succeeds(capsys):
    """Above the cap there are no exact values, but the upper estimates and
    the probe that were computed are printed; no dominance is claimed."""
    args = ["cond", "--m", "70", "--n", "40", "--seed", "5", "--probe", "2"]
    rc = main(args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "operators skipped" in out
    assert main([*args, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    lines = out.splitlines()
    for key in ("mx", "cx", "mq", "cq"):
        upper = format_float(record["cond_upper"][f"{key}_upper"])
        assert f"  {key:<9}  {'-':<16} {upper}" in lines
        assert f"  {key:<9}  {format_float(record['probe'][key])}" in lines
    assert "probe (2 trials, eps=1e-08):" in lines
    assert "dominance" not in out


# ------------------------------------------------------------------ table


def test_table_stdout_csv(capsys):
    rc = main(["table", "--preset", "t5", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("row,m,n,param_e,")
    assert len(out.splitlines()) == 6


def test_table_out_file_matches_library(tmp_path, capsys):
    out_path = tmp_path / "t5.csv"
    rc = main(["table", "--preset", "t5", "--seed", "3", "--out", str(out_path)])
    assert rc == 0
    assert "wrote t5 table (5 rows)" in capsys.readouterr().out
    text, _ = run_table("t5", seed=3, fmt="csv")
    assert out_path.read_text(encoding="utf-8") == text


def test_table_markdown_format(capsys):
    rc = main(["table", "--preset", "t6", "--seed", "3", "--format", "md"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("| row | m | n |")


def test_table_rejects_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--preset", "t9"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --------------------------------------------------------------- fd-check


def test_fd_check_pass(capsys):
    rc = main(
        ["fd-check", "--m", "8", "--n", "4", "--seed", "17", "--eps", "1e-4,1e-5,1e-6"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "decade ratios" in out
    assert out.rstrip().endswith("fd-check: PASS")


def test_fd_check_rejects_bad_eps_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fd-check", "--m", "8", "--n", "4", "--eps", "abc"])
    assert exc.value.code == 2
    assert "bad eps list" in capsys.readouterr().err


def test_fd_check_rejects_empty_eps_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fd-check", "--m", "8", "--n", "4", "--eps", ","])
    assert exc.value.code == 2
    assert "eps list is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eps, message",
    [("1e-5", "at least two eps values"), ("0,0", "finite and positive")],
)
def test_fd_check_rejects_eps_lists_with_no_ratio_to_check(capsys, eps, message):
    rc = main(["fd-check", "--m", "8", "--n", "4", "--eps", eps])
    captured = capsys.readouterr()
    assert rc == 2
    assert message in captured.err
    assert "fd-check: PASS" not in captured.out


# ----------------------------------------------------------------- verify


def test_verify_pass(capsys):
    rc = main(["verify", "--trials", "10", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().endswith("verify: PASS")


def test_verify_fails_on_injected_fault(monkeypatch, capsys):
    """A sign flip in the refined constant must surface as exit code 1."""
    monkeypatch.setattr(
        bounds_mod, "REFINED_X_CONSTANT", -bounds_mod.REFINED_X_CONSTANT
    )
    rc = main(["verify", "--trials", "6", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.rstrip().endswith("verify: FAIL")


# ------------------------------------------------------------ module entry


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "centroqx", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
