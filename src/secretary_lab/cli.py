"""Command-line front end.

Subcommands: thresholds, dual-check, finite-lp, simulate, report.
Exit codes: 0 success, 2 usage error, 3 numerical/construction failure,
4 certificate violation, 5 I/O failure.  Every subcommand is deterministic
given its full flag set; SECRETARY_LAB_THREADS caps simulation workers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from decimal import Decimal

from . import dp, dual, sim, theta
from .exact import format_rational
from .piecewise import QuadratureError, RootBracketError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATE = 4
EXIT_IO = 5

TABLE_MAX_J = 8  # rows reproduced by the report subcommand


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w") as fh:
        fh.write(text)


def _csv_string(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def cmd_thresholds(args) -> int:
    J, K = args.J, args.K
    if K == 1:
        ts = theta.generate_thetas(J)
        tvals = theta.thresholds(ts, args.precision)
        payoff = theta.payoff_k1(ts, args.precision)
        thetas = [format_rational(t) for t in ts.thetas]
        if args.format == "json":
            _write_output(
                json.dumps(
                    {
                        "J": J,
                        "thetas": thetas,
                        "thresholds": tvals,
                        "payoff": payoff,
                    }
                ),
                args.output,
            )
        elif args.format == "csv":
            rows = [["j", "theta", "threshold"]]
            rows += [[j + 1, thetas[j], f"{tvals[j]:.12f}"] for j in range(J)]
            rows.append(["payoff", "", f"{payoff:.6f}"])
            _write_output(_csv_string(rows), args.output)
        else:
            lines = []
            if args.exact:
                lines.append("theta: " + ", ".join(thetas))
            lines.append(
                "thresholds: " + ", ".join(f"{t:.6f}" for t in tvals)
            )
            lines.append(f"payoff: {payoff:.6f}")
            _write_output("\n".join(lines), args.output)
        return EXIT_OK
    cert = dual.construct_dual(J, K)
    payoff = dual.payoff_jk(cert.tau)
    if args.format == "json":
        _write_output(
            json.dumps(
                {
                    "J": J,
                    "K": K,
                    "tau": [list(r) for r in cert.tau.tau],
                    "payoff": payoff,
                }
            ),
            args.output,
        )
    elif args.format == "csv":
        rows = [["j", "k", "tau"]]
        for j in range(1, J + 1):
            for k in range(1, K + 1):
                rows.append([j, k, f"{cert.tau.threshold(j, k):.12f}"])
        rows.append(["payoff", "", f"{payoff:.6f}"])
        _write_output(_csv_string(rows), args.output)
    else:
        lines = [
            f"tau[{j}]: " + ", ".join(f"{t:.6f}" for t in cert.tau.tau[j - 1])
            for j in range(1, J + 1)
        ]
        lines.append(f"payoff: {payoff:.6f}")
        _write_output("\n".join(lines), args.output)
    return EXIT_OK


def cmd_dual_check(args) -> int:
    cert = dual.construct_dual(args.J, args.K)
    if args.perturb:
        cert = dual.perturbed(cert, 1, 1, args.perturb)
    report = dual.verify_certificate(
        cert, grid_points=args.grid, tol=args.tolerance
    )
    if args.format == "json":
        _write_output(
            json.dumps(dual.certificate_to_dict(cert, report)), args.output
        )
    else:
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
        _write_output("\n".join(lines), args.output)
    return EXIT_OK if report.ok else EXIT_CERTIFICATE


def cmd_finite_lp(args) -> int:
    n_list = args.n if args.n else list(dp.DEFAULT_N_LIST)
    cert = dual.construct_dual(args.J, args.K)
    cp_star = dual.payoff_jk(cert.tau)
    rows = dp.convergence_experiment(args.J, args.K, n_list, cp_star, mode=args.mode)
    if args.format == "json":
        _write_output(
            json.dumps(
                {
                    "J": args.J,
                    "K": args.K,
                    "cp_star": cp_star,
                    "rows": [
                        {"n": r.n, "p_star": r.p_star, "gap": r.gap} for r in rows
                    ],
                }
            ),
            args.output,
        )
    elif args.format == "csv":
        table = [["n", "p_star", "gap"]]
        table += [[r.n, f"{r.p_star:.9f}", f"{r.gap:.9f}"] for r in rows]
        _write_output(_csv_string(table), args.output)
    else:
        lines = [f"CP* = {cp_star:.6f}"]
        lines += [
            f"n={r.n:6d}  P*_n={r.p_star:.6f}  gap={r.gap:+.6f}" for r in rows
        ]
        _write_output("\n".join(lines), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cert = dual.construct_dual(args.J, args.K)
    report = sim.monte_carlo(
        cert.tau, n=args.n, trials=args.trials, seed=args.seed, workers=args.workers
    )
    if args.format == "csv":
        rows = [
            ["J", "K", "n", "trials", "seed", "mean", "stderr", "ci99_lo", "ci99_hi"],
            [
                report.J,
                report.K,
                report.n,
                report.trials,
                report.seed,
                repr(report.mean),
                repr(report.stderr),
                repr(report.ci99[0]),
                repr(report.ci99[1]),
            ],
        ]
        _write_output(_csv_string(rows), args.output)
    elif args.format == "text":
        _write_output(
            f"mean payoff: {report.mean:.6f} +- {report.stderr:.6f} "
            f"(99% CI [{report.ci99[0]:.6f}, {report.ci99[1]:.6f}])",
            args.output,
        )
    else:
        _write_output(report.to_json(), args.output)
    return EXIT_OK


def cmd_report(args) -> int:
    rows: list[list] = [["J", "payoff", "theta_J"]]
    ts = theta.generate_thetas(TABLE_MAX_J)
    for J in range(1, TABLE_MAX_J + 1):
        prefix = theta.ThetaSequence(ts.thetas[:J])
        payoff = theta.payoff_k1_decimal(prefix, bits=96)
        rows.append(
            [J, str(payoff.quantize(Decimal("0.000001"))),
             format_rational(ts.thetas[J - 1])]
        )
    cf12 = dual.closed_form_12()
    cf22 = dual.closed_form_22()
    rows.append([])
    rows.append(["case", "value", ""])
    rows.append(["tau_1_2 (J=1,K=2)", f"{cf12.tau12:.6f}", ""])
    rows.append(["tau_1_1 (J=1,K=2)", f"{cf12.tau11:.6f}", ""])
    rows.append(["payoff (J=1,K=2)", f"{cf12.payoff:.6f}", ""])
    rows.append(["tau_2_2 (J=2,K=2)", f"{cf22.tau22:.6f}", ""])
    rows.append(["tau_2_1 (J=2,K=2)", f"{cf22.tau21:.6f}", ""])
    rows.append(["payoff (J=2,K=2)", f"{cf22.payoff:.6f}", ""])
    _write_output(_csv_string([r if r else [""] for r in rows]), args.output)
    return EXIT_OK


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{raw} is not a positive integer")
    return value


def _n_list(raw: str) -> list[int]:
    try:
        return [_positive_int(s) for s in raw.split(",") if s]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad item-count list {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secretary-lab",
        description="Optimal selection thresholds, certificates, LPs, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_k=True):
        p.add_argument("--J", type=_positive_int, required=True,
                       help="number of quotas")
        if with_k:
            p.add_argument("--K", type=_positive_int, default=1,
                           help="payoff rank count")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("thresholds", help="optimal thresholds and payoff")
    common(p)
    p.add_argument("--exact", action="store_true", help="print rational thetas (K=1)")
    p.add_argument("--precision", type=int, default=64, help="working precision bits")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("dual-check", help="verify the optimality certificate")
    common(p)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="shift tau_{1,1} to demonstrate a failing certificate")
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("finite-lp", help="finite-n LP convergence table")
    common(p)
    p.add_argument("--n", type=_n_list, default=None,
                   help="comma-separated item counts")
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.set_defaults(func=cmd_finite_lp)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of the payoff")
    common(p)
    p.add_argument("--n", type=_positive_int, default=10_000)
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="reference tables (CSV)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except sim.ThreadSettingError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RootBracketError, QuadratureError, dual.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
