"""CLI subcommands, exit codes, output formats and determinism."""

import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest

from secretary_lab import dp
from secretary_lab.cli import (
    EXIT_CERTIFICATE,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from secretary_lab.theta import generate_thetas

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "cli_schema.json")

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string[]": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "number[]": lambda v: isinstance(v, list)
    and all(isinstance(s, (int, float)) for s in v),
    "number[][]": lambda v: isinstance(v, list)
    and all(isinstance(r, list) and all(isinstance(s, (int, float)) for s in r) for r in v),
    "object": lambda v: isinstance(v, dict),
    "object[]": lambda v: isinstance(v, list) and all(isinstance(o, dict) for o in v),
}


def check_schema(payload: dict, schema_key: str):
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    required = schema[schema_key]["required"]
    for field, typ in required.items():
        assert field in payload, f"{schema_key}: missing {field}"
        assert _TYPE_CHECKS[typ](payload[field]), f"{schema_key}: bad type for {field}"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_thresholds_exact_k1(capsys):
    code, out = run(capsys, "thresholds", "--J", "3", "--K", "1", "--exact")
    assert code == EXIT_OK
    assert "1, 3/2, 47/24" in out
    assert "0.732103" in out


def test_thresholds_k1_json_schema(capsys):
    code, out = run(capsys, "thresholds", "--J", "2", "--K", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "thresholds (K = 1)")
    assert payload["thetas"] == ["1", "3/2"]
    assert payload["thresholds"][0] == pytest.approx(math.exp(-1), rel=1e-12)


def test_thresholds_12_values(capsys):
    code, out = run(capsys, "thresholds", "--J", "1", "--K", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "thresholds (K >= 2)")
    tau11, tau12 = payload["tau"][0]
    assert tau12 == pytest.approx(0.666667, abs=1e-6)
    assert tau11 == pytest.approx(0.346982, abs=1e-6)
    assert payload["payoff"] == pytest.approx(0.573567, abs=1e-6)


def test_thresholds_11_value(capsys):
    code, out = run(capsys, "thresholds", "--J", "1", "--K", "1")
    assert code == EXIT_OK
    assert "0.367879" in out


def test_dual_check_passes(capsys):
    code, out = run(capsys, "dual-check", "--J", "2", "--K", "2")
    assert code == EXIT_OK
    assert "PASS" in out


def test_dual_check_k1_exact_route(capsys):
    code, out = run(capsys, "dual-check", "--J", "3", "--K", "1")
    assert code == EXIT_OK


def test_dual_check_json_schema(capsys):
    code, out = run(
        capsys, "dual-check", "--J", "1", "--K", "2", "--format", "json",
        "--grid", "400",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "dual-check")
    assert payload["verification"]["ok"] is True


def test_dual_check_perturbed_fails(capsys):
    code, out = run(capsys, "dual-check", "--J", "2", "--K", "2", "--perturb", "0.01")
    assert code == EXIT_CERTIFICATE
    assert "FAIL" in out


def test_finite_lp_hand_value(capsys):
    code, out = run(capsys, "finite-lp", "--J", "1", "--K", "1", "--n", "2",
                    "--mode", "exact")
    assert code == EXIT_OK
    assert "0.500000" in out


def test_finite_lp_json_schema(capsys):
    code, out = run(
        capsys, "finite-lp", "--J", "1", "--K", "1", "--n", "5,15",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "finite-lp")
    assert [r["n"] for r in payload["rows"]] == [5, 15]
    assert all(r["gap"] > 0 for r in payload["rows"])


def test_finite_lp_size_caps(capsys):
    for mode, cap in (("float", dp.FLOAT_SIZE_CAP), ("exact", dp.EXACT_SIZE_CAP)):
        code = main(["finite-lp", "--J", "1", "--K", "1", "--n", str(cap + 1),
                     "--mode", mode])
        assert code == EXIT_NUMERIC
        assert "cap" in capsys.readouterr().err


def test_finite_lp_large_n(capsys):
    code, out = run(capsys, "finite-lp", "--J", "4", "--K", "4", "--n", "100000",
                    "--format", "json")
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert 0 < row["gap"] < 1e-3


def test_simulate_json_schema_and_determinism(capsys):
    args = ("simulate", "--J", "1", "--K", "1", "--n", "200", "--trials", "500",
            "--seed", "7", "--format", "json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    check_schema(payload, "simulate")
    assert payload["seed"] == 7


def test_simulate_worker_flag_does_not_change_output(capsys):
    base = ("simulate", "--J", "2", "--K", "1", "--n", "150", "--trials", "400",
            "--seed", "3", "--format", "json")
    _, out1 = run(capsys, *base, "--workers", "1")
    _, out2 = run(capsys, *base, "--workers", "2")
    assert out1 == out2


def test_report_reference_rows(capsys):
    code, out = run(capsys, "report")
    assert code == EXIT_OK
    assert "6,0.921675,380537052235603/117413668454400" in out
    assert "8,0.964831," in out
    assert "0.517297" in out  # tau_2_2
    assert "0.227788" in out  # tau_2_1
    assert "0.977256" in out  # (2,2) payoff
    assert "0.573567" in out  # (1,2) payoff


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "thresholds", "--J", "1", "--K", "1",
                  "--format", "json", "--output", str(target))
    assert code == EXIT_OK
    assert json.loads(target.read_text())["payoff"] == pytest.approx(
        math.exp(-1), rel=1e-10
    )


def test_io_failure_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "out.csv"
    code, _ = run(capsys, "report", "--output", str(missing_dir))
    assert code == EXIT_IO


def test_usage_errors(capsys):
    assert main(["thresholds"]) == EXIT_USAGE  # missing --J
    capsys.readouterr()
    assert main(["thresholds", "--J", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["thresholds", "--J", "x"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["finite-lp", "--J", "1", "--n", "2,x"]) == EXIT_USAGE
    capsys.readouterr()


def test_thread_setting_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("SECRETARY_LAB_THREADS", "two")
    code = main(["simulate", "--J", "1", "--n", "20", "--trials", "10"])
    assert code == EXIT_USAGE
    assert "SECRETARY_LAB_THREADS" in capsys.readouterr().err


def test_thresholds_beyond_int_str_limit(capsys):
    """theta_16's numerator has over 4300 digits, the default int-to-str limit."""
    for fmt in ("text", "json", "csv"):
        code, out = run(capsys, "thresholds", "--J", "16", "--K", "1", "--exact",
                        "--format", fmt)
        assert code == EXIT_OK, fmt
        if fmt == "json":
            p, q = json.loads(out)["thetas"][-1].split("/")
    assert Fraction(Decimal(p)) / Fraction(Decimal(q)) == generate_thetas(16).thetas[-1]


def test_numeric_failure_exit_code(capsys):
    # K=1 path enforces the J cap, surfaced as a numeric failure
    code = main(["thresholds", "--J", "40", "--K", "1"])
    capsys.readouterr()
    assert code == EXIT_NUMERIC


def test_csv_formats(capsys):
    code, out = run(capsys, "thresholds", "--J", "2", "--K", "1", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "j,theta,threshold"
    code, out = run(capsys, "finite-lp", "--J", "1", "--K", "1", "--n", "4",
                    "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,p_star,gap"
    code, out = run(capsys, "simulate", "--J", "1", "--K", "1", "--n", "50",
                    "--trials", "100", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("J,K,n,trials,seed,mean")
