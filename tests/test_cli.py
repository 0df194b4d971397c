"""CLI subcommands, exit codes, output formats and determinism."""

import dataclasses
import functools
import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest

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
        lambda cert, *a, **kw: dataclasses.replace(
            real(cert, *a, **kw), ok=False, first_violation="planted"),
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

    def counted(t, *args):
        calls.append(t)
        return real(t, *args)

    monkeypatch.setattr(theta, "exp_neg", counted)
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
