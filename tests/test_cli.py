"""CLI subcommands, exit codes, output formats and determinism."""

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import shlex
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from secretary_lab import cli, dp, dual, sim, theta, value
from secretary_lab.cli import (
    DEFAULT_N_LIST,
    EXIT_CERTIFICATE,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from secretary_lab.theta import generate_thetas

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "cli_schema.json")
README_PATH = os.path.join(os.path.dirname(__file__), "..", "README.md")

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "number|null": lambda v: v is None or _TYPE_CHECKS["number"](v),
    "boolean": lambda v: isinstance(v, bool),
    "boolean|null": lambda v: v is None or isinstance(v, bool),
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
    """--exact adds the rational thetas to K = 1's text and changes no
    other output; every format carries the payoff exactly once."""
    code, out = run(capsys, "thresholds", "--J", "3", "--K", "1", "--exact")
    assert code == EXIT_OK
    assert "1, 3/2, 47/24" in out
    assert "0.732103" in out
    for K in ("1", "3"):
        for fmt in ("text", "json", "csv"):
            args = ("thresholds", "--J", "2", "--K", K, "--format", fmt)
            code, plain = run(capsys, *args)
            assert code == EXIT_OK
            exact = run(capsys, *args, "--exact")[1]
            if (K, fmt) == ("1", "text"):
                assert exact == "theta: 1, 3/2\n" + plain
            else:
                assert exact == plain, (K, fmt)
            if fmt == "json":
                assert plain.count('"payoff"') == 1, K
            else:
                first = [line.split(",")[0].split(":")[0] for line in plain.splitlines()]
                assert first.count("payoff") == 1 and first[-1] == "payoff", (K, fmt)


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


def test_thresholds_verified_flag(capsys):
    code, out = run(capsys, "thresholds", "--J", "2", "--K", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "thresholds (K >= 2)")
    assert payload["verified"] is True
    assert capsys.readouterr().err == ""


def _planted_failure(monkeypatch):
    """Every certificate check fails, naming the violation "planted"."""
    real = dual.verify_certificate
    monkeypatch.setattr(
        dual, "verify_certificate",
        lambda cert, *a, **kw: real(cert, *a, **kw)._replace(
            ok=False, first_violation="planted"),
    )


def test_thresholds_flag_unverified_output(monkeypatch, capsys):
    """A certificate that fails at the default tolerance keeps stdout and
    the exit code, and every format warns once on stderr."""
    _planted_failure(monkeypatch)
    for fmt in ("json", "text", "csv"):
        code = main(["thresholds", "--J", "8", "--K", "8", "--format", fmt])
        captured = capsys.readouterr()
        assert code == EXIT_OK, fmt
        warnings = captured.err.splitlines()
        assert len(warnings) == 1, fmt
        assert warnings[0] == "warning: thresholds unverified: planted", fmt
        if fmt == "json":
            assert json.loads(captured.out)["verified"] is False
        else:
            assert "payoff" in captured.out and "verified" not in captured.out


def _construct_once(monkeypatch):
    """Every command in the test reads one certificate per (J, K)."""
    monkeypatch.setattr(dual, "construct_dual", functools.cache(dual.construct_dual))


def test_16_16_builds_and_fails_its_check(monkeypatch, capsys):
    """At the J and K envelope corner the certificate builds and passes
    its check: thresholds exits 0 verified and without a warning, and
    dual-check exits 0."""
    _construct_once(monkeypatch)
    code = main(["thresholds", "--J", "16", "--K", "16", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["verified"] is True
    assert captured.err == ""
    code, out = run(capsys, "dual-check", "--J", "16", "--K", "16")
    assert code == EXIT_OK
    assert "FAIL" not in out and "violation" not in out


@pytest.mark.parametrize("J, K", [(2, 2), (8, 8), (12, 12)])
def test_printed_tau_is_the_value_function_solvers(monkeypatch, capsys, J, K):
    """thresholds and dual-check print value.solve's tau bit for bit."""
    _construct_once(monkeypatch)
    want = [list(row) for row in value.solve(J, K).tau.tau]
    args = ["--J", str(J), "--K", str(K), "--format", "json"]
    for argv in (["thresholds", *args], ["dual-check", *args, "--grid", "1"]):
        main(argv)
        assert json.loads(capsys.readouterr().out)["tau"] == want, argv[0]


def test_thresholds_11_value(capsys):
    code, out = run(capsys, "thresholds", "--J", "1", "--K", "1")
    assert code == EXIT_OK
    assert "0.367879" in out


def test_dual_check_passes(capsys):
    code, out = run(capsys, "dual-check", "--J", "2", "--K", "2")
    assert code == EXIT_OK
    assert "PASS" in out


@pytest.mark.parametrize("grid, warns", [(1, True), (2, True), (2000, False)])
def test_dual_check_warns_when_it_checks_no_inequality(capsys, grid, warns):
    """At (1,1), grids 1 and 2 hold no point below tau_{1,1} = 0.368, so
    the check passes without testing dual feasibility, and says so on
    stderr; exit code and stdout are those of any pass."""
    code = main(["dual-check", "--J", "1", "--K", "1", "--grid", str(grid)])
    out, err = capsys.readouterr()
    assert code == EXIT_OK and "PASS" in out
    warning = "warning: no checked point lies below a threshold; dual feasibility unchecked\n"
    assert err == (warning if warns else "")


@pytest.mark.parametrize("J", range(1, 17))
def test_dual_check_k1_certificate(capsys, J):
    """Every J up to the cap at K = 1: the certificate passes, tau is within
    1e-12 of exp(-theta_j), and the perturbed copy fails."""
    argv = ["dual-check", "--J", str(J), "--K", "1"]
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verification"]["ok"]
    for row, t in zip(payload["tau"], theta.thresholds(generate_thetas(J)), strict=True):
        assert abs(row[0] - t) <= 1e-12
    assert run(capsys, *argv, "--perturb", "0.01")[0] == EXIT_CERTIFICATE


@pytest.mark.parametrize("K", ["1", "2"])
@pytest.mark.parametrize("command", ["dual-check", "simulate", "thresholds"])
def test_j_cap_for_every_k(capsys, command, K):
    """J = 17 exits 3 naming the one J cap, whatever K."""
    assert main([command, "--J", "17", "--K", K]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: J=17 exceeds the cap 16\n"


def test_dual_check_json_schema(capsys):
    code, out = run(
        capsys, "dual-check", "--J", "1", "--K", "2", "--format", "json",
        "--grid", "400",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "dual-check")
    assert payload["verification"]["ok"] is True


@pytest.mark.parametrize("grid", ["0", "-5", str(dual.MAX_GRID_POINTS + 1), "x"])
def test_dual_check_rejects_bad_grid(capsys, grid):
    code = main(["dual-check", "--J", "1", "--K", "2", "--grid", grid])
    assert code == EXIT_USAGE
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "x"])
def test_dual_check_rejects_bad_tolerance(capsys, tolerance):
    code = main(["dual-check", "--J", "2", "--K", "2", "--tolerance", tolerance])
    assert code == EXIT_USAGE
    assert "--tolerance" in capsys.readouterr().err


def test_dual_check_has_no_csv_format(capsys):
    code = main(["dual-check", "--J", "2", "--K", "2", "--format", "csv"])
    assert code == EXIT_USAGE
    assert "--format" in capsys.readouterr().err


def test_dual_check_perturbed_fails(capsys):
    code, out = run(capsys, "dual-check", "--J", "2", "--K", "2", "--perturb", "0.01")
    assert code == EXIT_CERTIFICATE
    assert "FAIL" in out


@pytest.mark.parametrize("extra", [[], ["--perturb", "0.01"]])
def test_dual_check_text_builds_no_json_record(monkeypatch, capsys, extra):
    """dual-check's one format test: text output never builds the JSON
    record, which costs more than the check, and is what it was."""
    argv = ["dual-check", "--J", "2", "--K", "2", "--format", "text", *extra]
    want = main(argv), capsys.readouterr()
    assert want[0] == (EXIT_CERTIFICATE if extra else EXIT_OK)

    def refuse(*args, **kwargs):
        raise RuntimeError("certificate_json called for text output")

    monkeypatch.setattr(dual, "certificate_json", refuse)
    assert (main(argv), capsys.readouterr()) == want


@pytest.mark.parametrize("perturb", ["0.5", "-0.5"])
def test_out_of_order_perturb_writes_no_json(capsys, perturb):
    """As in text (test_dual_check_rejects_perturb_that_breaks_the_order)."""
    code = main(["dual-check", "--J", "2", "--K", "2", "--perturb", perturb, "--format", "json"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("perturb", ["nan", "inf", "-inf", "x"])
def test_dual_check_rejects_non_finite_perturb(monkeypatch, capsys, perturb):
    """Refused while parsing, before the construction runs."""
    calls = []
    monkeypatch.setattr(dual, "construct_dual", lambda *a, **kw: calls.append(a))
    code = main(["dual-check", "--J", "2", "--K", "2", "--perturb", perturb])
    assert code == EXIT_USAGE
    assert "--perturb" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("perturb", ["0.5", "-0.5"])
def test_dual_check_rejects_perturb_that_breaks_the_order(capsys, perturb):
    """A shift moving tau_{1,1} out of (0, 1] or out of order is a usage
    error that names the broken condition and writes nothing to stdout."""
    with pytest.raises(value.MonotonicityError) as err:
        dual.perturbed(dual.construct_dual(2, 2), float(perturb))
    code = main(["dual-check", "--J", "2", "--K", "2", "--perturb", perturb])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--perturb" in captured.err
    assert str(err.value) in captured.err


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


def test_finite_lp_cap_refuses_before_construction(monkeypatch, capsys):
    """The DP's size cap trips before the continuous thresholds are solved."""
    calls = []
    monkeypatch.setattr(value, "solve", lambda *a, **kw: calls.append(a))
    code = main(["finite-lp", "--J", "12", "--K", "12",
                 "--n", f"10,{dp.FLOAT_SIZE_CAP // 144 + 1}"])
    assert code == EXIT_NUMERIC
    assert "cap" in capsys.readouterr().err
    assert calls == []


def test_finite_lp_keeps_rows_when_construction_fails(monkeypatch, capsys):
    """P*_n is printed without CP* and the gaps when the threshold solve fails."""

    def fail(J, K):
        raise value.ValueSolveError("no sign change found")

    monkeypatch.setattr(value, "solve", fail)
    argv = ["finite-lp", "--J", "2", "--K", "2", "--n", "2,5"]
    want = ["warning: cp_star unavailable: no sign change found"]

    assert main(argv + ["--format", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.splitlines() == want
    payload = json.loads(captured.out)
    check_schema(payload, "finite-lp")
    assert payload["cp_star"] is None and payload["cp_star_verified"] is None
    assert [r["p_star"] for r in payload["rows"]] == [2.0, float(dp.p_star(5, 2, 2))]
    assert all(r["gap"] is None for r in payload["rows"])

    assert main(argv + ["--format", "csv"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.splitlines() == want
    assert captured.out.splitlines()[1:] == [
        "2,2.000000000,", f"5,{dp.p_star(5, 2, 2):.9f},"
    ]

    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.splitlines() == want
    lines = captured.out.splitlines()
    assert lines[0] == "CP* = unavailable"
    assert len(lines) == 3 and "gap" not in captured.out


@pytest.mark.parametrize("J", range(1, 17))
def test_finite_lp_k1_cp_star_is_thresholds_payoff(capsys, J):
    """K = 1 CP* is the payoff `thresholds --K 1` prints, bit for bit."""
    args = ["--J", str(J), "--K", "1", "--format", "json"]
    code, out = run(capsys, "finite-lp", *args, "--n", "1")
    assert code == EXIT_OK
    _, want = run(capsys, "thresholds", *args)
    assert json.loads(out)["cp_star"] == json.loads(want)["payoff"]


@pytest.mark.parametrize("K, verified", [(1, True), (2, False), (8, False)])
def test_finite_lp_flags_an_unverified_cp_star(capsys, K, verified):
    """K = 1's cp_star comes from exact theta; a K >= 2 cp_star comes from
    a certificate finite-lp does not check, so JSON says so in
    cp_star_verified and text in its first line; CSV has no such column."""
    argv = ["finite-lp", "--J", "8", "--K", str(K), "--n", "10"]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    check_schema(payload, "finite-lp")
    assert payload["cp_star_verified"] is verified
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    first = f"CP* = {payload['cp_star']:.6f}" + ("" if verified else " (unverified)")
    assert out.splitlines()[0] == first
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,p_star,gap"


def test_finite_lp_16_16_prints_cp_star(capsys):
    """At the J and K envelope corner cp_star comes from the value function
    with no warning, although the certificate there fails its check."""
    code, out = run(capsys, "finite-lp", "--J", "16", "--K", "16", "--n", "20",
                    "--format", "json")
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    payload = json.loads(out)
    assert payload["cp_star"] == dual.payoff_jk(value.solve(16, 16).tau)
    assert abs(payload["cp_star"] - 12.5069288392) < 1e-9


def test_simulate_16_16_runs(capsys):
    code, out = run(capsys, "simulate", "--J", "16", "--K", "16", "--n", "1000",
                    "--trials", "200", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["J"], payload["K"], payload["trials"]) == (16, 16, 200)
    assert 11.0 < payload["mean"] < 14.0


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
    # CSV: the JSON keys in order, ci99 split in two, and the same values
    code, out = run(capsys, *args[:-1], "csv")
    assert code == EXIT_OK
    header, values = (line.split(",") for line in out.splitlines())
    payload["ci99_lo"], payload["ci99_hi"] = payload.pop("ci99")
    assert header == list(payload)
    assert [json.loads(v) for v in values] == list(payload.values())


def test_simulate_worker_flag_does_not_change_output(capsys):
    base = ("simulate", "--J", "2", "--K", "1", "--n", "150", "--trials", "400",
            "--seed", "3", "--format", "json")
    _, out1 = run(capsys, *base, "--workers", "1")
    _, out2 = run(capsys, *base, "--workers", "2")
    assert out1 == out2


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--seed", str(2**64)), ("--n", str(2**53 + 1)),
     ("--n", "1" + "0" * 400), ("--n", "0")],
)
def test_simulate_rejects_out_of_range_seed_and_n(capsys, flag, value):
    code = main(["simulate", "--J", "1", "--trials", "10", flag, value])
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_simulate_trials_range(monkeypatch, capsys):
    """--trials takes 1..2**53; above that it is a usage error, not a
    traceback from the block bounds."""
    asked = []

    def no_run(tau, n, trials, seed, workers):
        asked.append(trials)
        return sim.SimReport(tau.J, tau.K, n, trials, seed, 1.0, 0.0, (1.0, 1.0))

    monkeypatch.setattr(sim, "monte_carlo", no_run)
    argv = ["simulate", "--J", "1", "--trials"]
    assert main([*argv, str(2**53)]) == EXIT_OK
    assert asked == [2**53]
    capsys.readouterr()
    for value in (str(2**53 + 1), "1" + "0" * 23):
        assert main([*argv, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err
    assert asked == [2**53]


def test_report_reference_rows(capsys):
    code, out = run(capsys, "report")
    assert code == EXIT_OK
    assert "6,0.921675,380537052235603/117413668454400" in out
    assert "8,0.964831," in out
    assert "0.517297" in out  # tau_2_2
    assert "0.227788" in out  # tau_2_1
    assert "0.977256" in out  # (2,2) payoff
    assert "0.573567" in out  # (1,2) payoff


def test_failed_check_warns_and_keeps_stdout(monkeypatch, capsys):
    """report and thresholds share one construct-verify-warn step: a failed
    check keeps stdout (but for thresholds' JSON flag) and exit code 0, and
    writes one warning per failing certificate."""
    cases = {
        ("report",): [
            "warning: thresholds (J=1,K=2) unverified: planted",
            "warning: thresholds (J=2,K=2) unverified: planted",
        ],
        ("thresholds", "--J", "2", "--K", "2", "--format", "json"): [
            "warning: thresholds unverified: planted",
        ],
    }
    passing = {argv: run(capsys, *argv) for argv in cases}
    _planted_failure(monkeypatch)
    for argv, warnings in cases.items():
        assert passing[argv][0] == main(list(argv)) == EXIT_OK
        captured = capsys.readouterr()
        want = passing[argv][1]
        if argv[0] == "thresholds":
            want = json.dumps(dict(json.loads(want), verified=False)) + "\n"
        assert captured.out == want
        assert captured.err.splitlines() == warnings


@pytest.mark.parametrize(
    "argv",
    [
        ["dual-check", "--J", "2", "--K", "40"],
        ["thresholds", "--J", "1", "--K", "40"],
        ["simulate", "--J", "1", "--K", "40", "--trials", "10"],
    ],
    ids=" ".join,
)
def test_overflow_exits_numeric(capsys, argv):
    """K past the cap MAX_K = 35 is a numerical failure: exit 3 with one
    error line."""
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_k_cap_refuses_before_any_work(monkeypatch, capsys):
    """K above value.MAX_K exits 3 naming the cap, before the solve forms a
    single alpha row."""

    def fail(K, x):
        raise AssertionError("alphas ran")

    monkeypatch.setattr(value, "alphas", fail)
    assert main(["thresholds", "--J", "1", "--K", "2000"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"error: K=2000 exceeds the cap {value.MAX_K}\n"


def test_largest_k_constructs():
    cert = dual.construct_dual(1, value.MAX_K)
    assert (cert.J, cert.K) == (1, value.MAX_K)


def test_dual_check_at_the_k_cap(capsys):
    """K = MAX_K certifies; one more is refused with exit 3."""
    assert run(capsys, "dual-check", "--J", "2", "--K", "35")[0] == EXIT_OK
    assert main(["dual-check", "--J", "2", "--K", "36"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: K=36 exceeds the cap 35\n"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "thresholds", "--J", "1", "--K", "1",
                  "--format", "json", "--output", str(target))
    assert code == EXIT_OK
    assert json.loads(target.read_text())["payoff"] == pytest.approx(
        math.exp(-1), rel=1e-10
    )


@pytest.mark.parametrize(
    "argv",
    [["report"]]
    + [
        ["thresholds", "--J", "2", "--K", str(K), "--format", fmt]
        for K in (1, 2)
        for fmt in ("text", "json", "csv")
    ]
    + [["dual-check", "--J", "2", "--K", "2", "--format", fmt] for fmt in ("text", "json")]
    + [
        ["finite-lp", "--J", "1", "--K", "1", "--n", "4", "--format", fmt]
        for fmt in ("text", "json", "csv")
    ]
    + [
        ["simulate", "--J", "1", "--n", "50", "--trials", "100", "--format", fmt]
        for fmt in ("text", "json", "csv")
    ],
    ids=" ".join,
)
def test_output_file_matches_stdout(tmp_path, capsys, argv):
    code, out = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(target)) == (code, "")
    assert target.read_text() == out


def readme_block(heading: str) -> str:
    """The first fenced code block under README's `## <heading>`."""
    with open(README_PATH) as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S)[1]


def test_readme_examples_run(capsys):
    """Each CLI line of README exits 0, or 4 where it says so, and the
    library block runs."""
    lines = readme_block("CLI").splitlines()
    assert len(lines) == 9
    for line in lines:
        command, _, comment = line.partition("#")
        prog, *argv = shlex.split(command)
        assert prog == "secretary-lab"
        want = EXIT_CERTIFICATE if "exits 4" in comment else EXIT_OK
        assert main(argv) == want, line
        assert capsys.readouterr().out, line
    exec(readme_block("Library"), {})


def test_io_failure_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "out.csv"
    code, _ = run(capsys, "report", "--output", str(missing_dir))
    assert code == EXIT_IO


@pytest.mark.parametrize("value", [",", "", ",,"])
def test_finite_lp_refuses_an_empty_n_list(capsys, value):
    assert main(["finite-lp", "--J", "1", "--n", value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty item-count list" in captured.err


def test_report_computes_each_threshold_once(monkeypatch, capsys):
    calls = []
    real = theta.exp_neg
    monkeypatch.setattr(theta, "exp_neg", lambda t: calls.append(t) or real(t))
    assert run(capsys, "report")[0] == EXIT_OK
    assert len(calls) == cli.TABLE_MAX_J


def test_usage_errors(capsys):
    assert main(["thresholds"]) == EXIT_USAGE  # missing --J
    capsys.readouterr()
    assert main(["thresholds", "--J", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["thresholds", "--J", "x"]) == EXIT_USAGE
    assert "invalid integer value: 'x'" in capsys.readouterr().err
    assert main(["finite-lp", "--J", "1", "--n", "2,x"]) == EXIT_USAGE
    capsys.readouterr()


def test_one_parser_carries_no_state(capsys):
    """In-process calls share one parser, and no option carries from one
    call to the next."""
    cli.build_parser.cache_clear()
    argv = ["thresholds", "--J", "3", "--K", "1"]
    assert "theta:" in run(capsys, *argv, "--exact")[1]
    assert "theta:" not in run(capsys, *argv)[1]
    argv = ["finite-lp", "--J", "1", "--K", "1"]
    assert len(run(capsys, *argv, "--n", "5")[1].splitlines()) == 2
    lines = run(capsys, *argv)[1].splitlines()
    assert [int(s[2:8]) for s in lines[1:]] == list(DEFAULT_N_LIST)  # "n=%6d"
    argv = ["dual-check", "--J", "2", "--K", "2"]
    assert run(capsys, *argv, "--perturb", "0.01")[0] == EXIT_CERTIFICATE
    assert run(capsys, *argv)[0] == EXIT_OK
    assert cli.build_parser.cache_info().misses == 1


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


def test_thresholds_has_no_precision_option(capsys):
    assert main(["thresholds", "--J", "4", "--precision", "0"]) == EXIT_USAGE
    assert "--precision" in capsys.readouterr().err


def test_thresholds_j_cap_names_no_keyword(capsys):
    """J above the cap exits 3; the message names no library keyword (max_j)."""
    assert main(["thresholds", "--J", "17"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: J=17 exceeds the cap 16\n"


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


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices


def subcommand_options(command: str) -> list[argparse.Action]:
    """The options `command`'s parser declares, -h aside."""
    return [
        action for action in subcommand_parsers()[command]._actions
        if action.option_strings and action.dest != "help"
    ]


def help_bound(text: str) -> int:
    """The integer a help range end states: `1000000`, `2**53` or `2**64-1`."""
    base, power, minus = re.fullmatch(r"(\d+)(?:\*\*(\d+))?(?:-(\d+))?", text).groups()
    return int(base) ** int(power or 1) - int(minus or 0)


# (subcommand, option) -> the caps its help states as `lo..hi`
HELP_RANGES = {
    ("dual-check", "--grid"): (1, dual.MAX_GRID_POINTS),
    ("simulate", "--n"): (1, sim.MAX_N),
    ("simulate", "--trials"): (1, sim.MAX_TRIALS),
    ("simulate", "--seed"): (0, sim.MAX_SEED),
}


def test_help_states_the_caps_the_parser_enforces(monkeypatch, capsys):
    """Each `lo..hi` range that --help prints equals the module's caps, and
    the option's type takes both ends and refuses one past either."""
    monkeypatch.setenv("COLUMNS", "200")  # no range wraps
    stated = {}
    for command, parser in subcommand_parsers().items():
        text = parser.format_help()
        for action in subcommand_options(command):
            flag = action.option_strings[0]
            entry = re.search(rf"^  {flag} [A-Z]+\s+(.*?)(?=^  -|\Z)", text, re.M | re.S)
            found = entry and re.search(r"(?<!\S)(\S+)\.\.(\S+)", " ".join(entry[1].split()))
            if found:
                stated[command, flag] = (help_bound(found[1]), help_bound(found[2]))
    assert stated == HELP_RANGES
    for (command, flag), (lo, hi) in HELP_RANGES.items():
        argv = [command, "--J", "1", flag]
        for bound in (lo, hi):
            assert getattr(cli.build_parser().parse_args([*argv, str(bound)]),
                           flag.lstrip("-")) == bound
        for outside in (lo - 1, hi + 1):
            assert main([*argv, str(outside)]) == EXIT_USAGE, (flag, outside)
            assert capsys.readouterr().out == ""


# The fuzz's boundary pool: 0, 1, -1, each cap and one past it, 2^53 and
# 2^64, non-finite, signed-zero and overflowing floats, empty and malformed
# lists, a 5000-digit integer and two non-ASCII tokens (Unicode digits
# parse as integers).
FUZZ_CAPS = [value.MAX_J, value.MAX_K, dual.MAX_GRID_POINTS, dp.FLOAT_SIZE_CAP,
             dp.EXACT_SIZE_CAP, sim.MAX_N, sim.MAX_TRIALS, sim.MAX_SEED]
FUZZ_POOL = [
    *map(str, sorted({0, 1, -1, 2**53, 2**64, *FUZZ_CAPS, *(c + 1 for c in FUZZ_CAPS)})),
    "nan", "inf", "-0.0", "1e309", "", ",", "1,,2", "7" * 5000, "θ", "１６",
]
# Work bounds, fixed before any example runs: simulate always gets a
# --trials of at most FUZZ_MAX_TRIALS (its default is 100 000), so no pool
# starts (one needs 2 * MIN_POOL_BLOCKS blocks); --workers is at most 2;
# finite-lp's J*K*n summed over the item counts the DP runs, and
# dual-check's (J + K) * grid, stay within a budget.  Sizes past a cap are
# drawn freely where the cap refuses them before any work.
FUZZ_MAX_TRIALS = 4096
FUZZ_MAX_WORKERS = 2
FUZZ_FINITE_LP_WORK = 250_000
FUZZ_DUAL_CHECK_WORK = 2_000_000
FUZZ_THREADS = [None, "", "0", "1", "2", "-1", "two", "7" * 5000, "１６"]


def _accepts(action, raw: str) -> bool:
    try:
        action.type(raw)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


def _within_bounds(flag: str, raw: str) -> bool:
    try:
        number = int(raw)
    except ValueError:
        return True
    if flag == "--trials":
        return not FUZZ_MAX_TRIALS < number <= sim.MAX_TRIALS
    return flag != "--workers" or number <= FUZZ_MAX_WORKERS


@st.composite
def command_lines(draw, out_dir):
    """A subcommand, its required options, --trials, and a subset of its
    other options, each with a value from the boundary pool one time in
    four, else from a few values its type takes."""
    command = draw(st.sampled_from(list(subcommand_parsers())))
    argv = [command]
    for action in subcommand_options(command):
        flag = action.option_strings[0]
        if not (action.required or flag == "--trials" or draw(st.booleans())):
            continue
        argv.append(flag)
        if action.nargs == 0:  # --exact
            continue
        if action.choices:
            plain = list(action.choices)
        elif flag == "--output":
            plain = [str(out_dir / "out"), str(out_dir)]  # a file and a directory
        else:  # those the option's type takes
            plain = [v for v in ("1", "2", "0.01", str(action.default)) if _accepts(action, v)]
        values = FUZZ_POOL if draw(st.integers(0, 3)) == 0 else plain
        argv.append(draw(st.sampled_from([v for v in values if _within_bounds(flag, v)])))
    return argv


def parsed(argv: list[str]) -> argparse.Namespace | None:
    """argv as the parser reads it, None where it refuses it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.build_parser().parse_args(argv)
    except SystemExit:
        return None


def within_budget(args: argparse.Namespace | None) -> bool:
    """Whether a parsed command line's work, where the fuzz bounds it,
    stays within the budget."""
    if args is None:  # refused by the parser: no work
        return True
    if args.command == "finite-lp":
        cap = dp.EXACT_SIZE_CAP if args.mode == "exact" else dp.FLOAT_SIZE_CAP
        sizes = (args.J * args.K * n for n in args.n)
        return sum(itertools.takewhile(lambda size: size <= cap, sizes)) <= FUZZ_FINITE_LP_WORK
    if args.command == "dual-check" and args.J <= value.MAX_J and args.K <= value.MAX_K:
        return (args.J + args.K) * args.grid <= FUZZ_DUAL_CHECK_WORK
    return True  # past a J or K cap, refused before any work


def refuse_constant(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


STDERR_PREFIXES = ("usage error: ", "error: ", "i/o error: ", "warning: ")
CAP_ERROR = re.compile(r"error: .*(exceeds the (\w+ )?cap \d+|; use exact mode)")


def run_checked(monkeypatch, capsys, argv: list[str], threads: str | None):
    """Run argv through main in process with SECRETARY_LAB_THREADS at
    `threads` (None: unset), and check how it ends.  It returns a
    documented exit code, and no exception escapes.  Exits 2, 3 and 5
    print nothing to stdout, nor does any run with --output, and stderr is
    argparse's usage (exit 2) or lines with the CLI's prefixes.  Exit 3
    only refuses a size past a cap, exit 4 is a failed dual-check verdict,
    and JSON output is strict JSON."""
    if threads is None:
        monkeypatch.delenv("SECRETARY_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("SECRETARY_LAB_THREADS", threads)
    args = parsed(argv)
    output = None if args is None else args.output
    code = main(argv)
    captured = capsys.readouterr()

    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_CERTIFICATE, EXIT_IO)
    if code in (EXIT_USAGE, EXIT_NUMERIC, EXIT_IO) or output is not None:
        assert captured.out == ""
    if captured.err.startswith("usage: "):
        assert code == EXIT_USAGE
        assert re.match(r"secretary-lab [\w-]+: error: ", captured.err.splitlines()[-1])
    else:
        assert all(line.startswith(STDERR_PREFIXES) for line in captured.err.splitlines())
    if code == EXIT_NUMERIC:
        assert CAP_ERROR.fullmatch(captured.err.rstrip("\n")), captured.err
    if code not in (EXIT_OK, EXIT_CERTIFICATE):
        return
    text = captured.out if output is None else Path(output).read_text()
    record = json.loads(text, parse_constant=refuse_constant) if args.format == "json" else None
    if code == EXIT_CERTIFICATE:
        assert argv[0] == "dual-check"
        assert "FAIL" in text if record is None else record["verification"]["ok"] is False


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_command_lines_end_in_a_documented_exit(tmp_path, monkeypatch, capsys, data):
    """Drawn command lines, many options off their range at once, end as
    run_checked says."""
    monkeypatch.chdir(tmp_path)  # relative --output paths land here
    out_dir = tmp_path / "dir"
    out_dir.mkdir(exist_ok=True)
    argv = data.draw(command_lines(out_dir), label="argv")
    threads = data.draw(st.sampled_from(FUZZ_THREADS), label="SECRETARY_LAB_THREADS")
    assume(within_budget(parsed(argv)))
    run_checked(monkeypatch, capsys, argv, threads)


def test_each_boundary_value_ends_in_a_documented_exit(tmp_path, monkeypatch, capsys):
    """Each pool value in each option of each subcommand, with only the
    required options besides (and --trials 1), ends as run_checked says;
    so does each SECRETARY_LAB_THREADS value.  The fuzz draws any one of
    these about once in 1400 examples."""
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "dir"
    out_dir.mkdir()
    for command in subcommand_parsers():
        options = subcommand_options(command)
        base = {a.option_strings[0]: "1" for a in options
                if a.required or a.option_strings[0] == "--trials"}
        for action in options:
            if action.nargs == 0:
                continue
            flag = action.option_strings[0]
            extra = [str(out_dir / "out"), str(out_dir)] if flag == "--output" else []
            for raw in [*FUZZ_POOL, *extra]:
                argv = [command, *itertools.chain(*{**base, flag: raw}.items())]
                if _within_bounds(flag, raw) and within_budget(parsed(argv)):
                    run_checked(monkeypatch, capsys, argv, None)
    for threads in FUZZ_THREADS:
        run_checked(monkeypatch, capsys, ["simulate", "--J", "2", "--K", "2", "--trials", "1"],
                    threads)
