"""Command-line front end.

Subcommands: thresholds, dual-check, finite-lp, simulate, report.  Each
returns its exit code with a JSON record (dual-check's rendered as text),
CSV rows and text lines; main writes the one --format names, if not None.
Exit codes: 0 success, 2 usage error, 3 numerical/construction failure,
4 certificate violation, 5 I/O failure.  Every subcommand is deterministic
given its full flag set; SECRETARY_LAB_THREADS caps simulation workers.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from contextlib import nullcontext
from decimal import Decimal

from . import dp, dual, sim, theta, value

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATE = 4
EXIT_IO = 5

TABLE_MAX_J = 8  # rows reproduced by the report subcommand
DEFAULT_N_LIST = (10, 25, 50, 100, 200)  # finite-lp item counts without --n

# Failures of a numerical method rather than of the request's form.
NUMERIC_ERRORS = (ValueError, ArithmeticError)


def _csv_string(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().removesuffix("\n")  # main ends every output


def _certified(J: int, K: int, what: str) -> tuple[dual.DualCertificateJK, bool]:
    """construct_dual(J, K) and whether its certificate passes at the
    dual-check defaults; a failed check writes one
    `warning: <what> unverified: <first violation>` line to stderr."""
    cert = dual.construct_dual(J, K)
    report = dual.verify_certificate(cert)
    if not report.ok:
        print(f"warning: {what} unverified: {report.first_violation}", file=sys.stderr)
    return cert, report.ok


def _json_text(record) -> str:
    return record if isinstance(record, str) else json.dumps(record)


# Each cmd_* returns (exit code, JSON record, CSV rows, text lines); main
# writes the one that --format names, and nothing where it is None.
WRITERS = {"json": (1, _json_text), "csv": (2, _csv_string), "text": (3, "\n".join)}


def cmd_thresholds(args) -> tuple:
    J, K = args.J, args.K
    if K == 1:
        ts = theta.generate_thetas(J)
        tvals = theta.thresholds(ts)
        payoff = theta.payoff_k1(ts)
        thetas = [theta.format_rational(t) for t in ts.thetas]
        record = {
            "J": J,
            "thetas": thetas,
            "thresholds": tvals,
            "payoff": payoff,
        }
        rows = [["j", "theta", "threshold"]]
        rows += [[j + 1, thetas[j], f"{tvals[j]:.12f}"] for j in range(J)]
        lines = ["theta: " + ", ".join(thetas)] if args.exact else []
        lines.append("thresholds: " + ", ".join(f"{t:.6f}" for t in tvals))
    else:
        cert, verified = _certified(J, K, "thresholds")
        payoff = dual.payoff_jk(cert.tau)
        record = {
            "J": J,
            "K": K,
            "tau": [list(r) for r in cert.tau.tau],
            "payoff": payoff,
            "verified": verified,
        }
        rows = [["j", "k", "tau"]]
        for j in range(1, J + 1):
            for k in range(1, K + 1):
                rows.append([j, k, f"{cert.tau.threshold(j, k):.12f}"])
        lines = [
            f"tau[{j}]: " + ", ".join(f"{t:.6f}" for t in cert.tau.tau[j - 1])
            for j in range(1, J + 1)
        ]
    rows.append(["payoff", "", f"{payoff:.6f}"])
    lines.append(f"payoff: {payoff:.6f}")
    return EXIT_OK, record, rows, lines


def cmd_dual_check(args) -> tuple:
    cert = dual.construct_dual(args.J, args.K)
    if args.perturb:
        try:
            cert = dual.perturbed(cert, args.perturb)
        except value.MonotonicityError as exc:
            # the shift asked for breaks the thresholds' form, not the method
            print(f"usage error: --perturb {args.perturb}: {exc}", file=sys.stderr)
            return EXIT_USAGE, None, None, None
    report = dual.verify_certificate(
        cert, grid_points=args.grid, tol=args.tolerance
    )
    if report.min_inequality_slack == math.inf:
        print("warning: no checked point lies below a threshold; dual feasibility unchecked",
              file=sys.stderr)
    code = EXIT_OK if report.ok else EXIT_CERTIFICATE
    # the one format test: the JSON record costs more than the check
    record = dual.certificate_json(cert, report) if args.format == "json" else None
    worst = max(
        report.max_equality_residual,
        report.max_threshold_residual,
        max(0.0, -report.min_inequality_slack),
        report.objective_gap,
    )
    lines = [
        f"certificate (J={args.J}, K={args.K}): "
        + ("PASS" if report.ok else "FAIL"),
        f"worst residual: {worst:.3e}",
        f"dual objective: {report.dual_objective:.9f}"
        f" vs payoff {report.payoff:.9f}",
    ]
    if report.first_violation:
        lines.append(f"violation: {report.first_violation}")
    return code, record, None, lines


def cmd_finite_lp(args) -> tuple:
    # The DP runs first, so its size caps refuse a request before the
    # continuous solve starts.
    p_stars = [float(dp.p_star(n, args.J, args.K, args.mode)) for n in args.n]
    try:
        if args.K == 1:  # the payoff `thresholds --K 1` prints, from exact theta
            cp_star = theta.payoff_k1(theta.generate_thetas(args.J))
        else:  # the payoff of the value function's thresholds, unverified
            cp_star = dual.payoff_jk(value.solve(args.J, args.K).tau)
    except NUMERIC_ERRORS as exc:
        # P*_n stands on its own; only the gaps need the thresholds
        print(f"warning: cp_star unavailable: {exc}", file=sys.stderr)
        cp_star = None
    gaps = [None if cp_star is None else p - cp_star for p in p_stars]
    rows = list(zip(args.n, p_stars, gaps))
    record = {
        "J": args.J,
        "K": args.K,
        "cp_star": cp_star,
        # K = 1's comes from exact theta; K >= 2's certificate is unchecked
        "cp_star_verified": None if cp_star is None else args.K == 1,
        "rows": [{"n": n, "p_star": p, "gap": gap} for n, p, gap in rows],
    }
    table = [["n", "p_star", "gap"]]
    table += [[n, f"{p:.9f}", "" if gap is None else f"{gap:.9f}"] for n, p, gap in rows]
    lines = [
        "CP* = unavailable" if cp_star is None
        else f"CP* = {cp_star:.6f}" + ("" if args.K == 1 else " (unverified)")
    ]
    lines += [
        f"n={n:6d}  P*_n={p:.6f}" + ("" if gap is None else f"  gap={gap:+.6f}")
        for n, p, gap in rows
    ]
    return EXIT_OK, record, table, lines


def cmd_simulate(args) -> tuple:
    tau = value.solve(args.J, args.K).tau
    report = sim.monte_carlo(
        tau, n=args.n, trials=args.trials, seed=args.seed, workers=args.workers
    )
    record = report._asdict()
    fields = dict(record)
    fields["ci99_lo"], fields["ci99_hi"] = fields.pop("ci99")  # ci99 is the last field
    line = (
        f"mean payoff: {report.mean:.6f} +- {report.stderr:.6f} "
        f"(99% CI [{report.ci99[0]:.6f}, {report.ci99[1]:.6f}])"
    )
    return EXIT_OK, record, [list(fields), list(fields.values())], [line]


def cmd_report(args) -> tuple:
    rows: list[list] = [["J", "payoff", "theta_J"]]
    ts = theta.generate_thetas(TABLE_MAX_J)
    for J in range(1, TABLE_MAX_J + 1):
        payoff = theta.payoff_k1_decimal(ts.exps[:J])
        rows.append(
            [J, str(payoff.quantize(Decimal("0.000001"))),
             theta.format_rational(ts.thetas[J - 1])]
        )
    rows.append([""])
    rows.append(["case", "value", ""])
    for J in (1, 2):
        pair = f"(J={J},K=2)"
        tau = _certified(J, 2, f"thresholds {pair}")[0].tau
        rows.append([f"tau_{J}_2 {pair}", f"{tau.threshold(J, 2):.6f}", ""])
        rows.append([f"tau_{J}_1 {pair}", f"{tau.threshold(J, 1):.6f}", ""])
        rows.append([f"payoff {pair}", f"{dual.payoff_jk(tau):.6f}", ""])
    return EXIT_OK, None, rows, None


def _int_range(lo: int, hi: float):
    """argparse type: an integer in [lo, hi].

    argparse names the type function when int() fails: "invalid integer value".
    """

    def integer(raw: str) -> int:
        value = int(raw)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{raw} is outside [{lo}, {hi}]")
        return value

    return integer


_positive_int = _int_range(1, math.inf)


def _tolerance(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{raw} is not a finite number >= 0")
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw} is not a finite number")
    return value


def _n_list(raw: str) -> list[int]:
    try:
        counts = [_positive_int(s) for s in raw.split(",") if s]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad item-count list {raw!r}") from exc
    if not counts:
        raise argparse.ArgumentTypeError(f"empty item-count list {raw!r}")
    return counts


@functools.cache  # one parser per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secretary-lab",
        description="Optimal selection thresholds, certificates, LPs, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--J", type=_positive_int, required=True,
                       help="number of quotas")
        p.add_argument("--K", type=_positive_int, default=1,
                       help="payoff rank count")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    all_formats = ("text", "json", "csv")
    p = sub.add_parser("thresholds", help="optimal thresholds and payoff")
    common(p, all_formats)
    p.add_argument("--exact", action="store_true", help="print rational thetas (K=1)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("dual-check", help="verify the optimality certificate")
    common(p, ("text", "json"))
    p.add_argument("--grid", type=_int_range(1, dual.MAX_GRID_POINTS),
                   default=dual.DEFAULT_GRID_POINTS,
                   help=f"grid points on (0, 1], 1..{dual.MAX_GRID_POINTS}")
    p.add_argument("--tolerance", type=_tolerance, default=dual.DEFAULT_TOLERANCE,
                   help="finite, >= 0")
    p.add_argument("--perturb", type=_finite, default=0.0,
                   help="shift tau_{1,1} to demonstrate a failing certificate; "
                   "finite, and tau_{1,1} must stay in (0, 1] and in order")
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("finite-lp", help="finite-n LP convergence table")
    common(p, all_formats)
    p.add_argument("--n", type=_n_list, default=DEFAULT_N_LIST,
                   help="comma-separated item counts, at least one")
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.set_defaults(func=cmd_finite_lp)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of the payoff")
    common(p, all_formats)
    p.add_argument("--n", type=_int_range(1, sim.MAX_N), default=10_000,
                   help="item count, 1..2**53")
    p.add_argument("--trials", type=_int_range(1, sim.MAX_TRIALS), default=100_000,
                   help="1..2**53")
    p.add_argument("--seed", type=_int_range(0, sim.MAX_SEED), default=0,
                   help="0..2**64-1")
    p.add_argument("--workers", type=_positive_int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="reference tables (CSV)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report, format="csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
        at, writer = WRITERS[args.format]
        if result[at] is not None:
            text = writer(result[at]) + "\n"
            with nullcontext(sys.stdout) if args.output is None else open(args.output, "w") as fh:
                fh.write(text)
        return result[0]
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except sim.ThreadSettingError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
