"""The benchmark's four workloads: fixed job lists and their output checks.

A job is one closed-loop call into the program: a `secretary_lab.cli.main`
invocation with captured output, or (replay) a pair of public library
calls.  Each workload builds the same (J, K, n) mix for every seed; the
seed only picks simulation seeds and replay instances (job order is
shuffled by the runner).  A check returns None when the output is right,
or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref

Z_99 = 2.576


@dataclass
class Job:
    label: str
    run: Callable  # run(lab) -> output; this call is what gets timed
    check: Callable  # check(output, outputs_by_label) -> None | reason
    units: int = 0  # trials this job adds to trials_per_s
    parallel: bool = False  # runs worker processes of its own
    weight: float = 1.0  # interpreter-bound share of its time; exponent on the speed factor


@dataclass
class CliOutput:
    code: int
    out: str
    err: str


@dataclass
class Workload:
    name: str
    pass_s: float  # run seconds per full-size pass on a shared 2-vCPU Xeon; fixes the pass count
    jobs: Callable  # jobs(seed, pass_no, smoke, prep) -> list[Job]
    prepare: Callable = lambda lab: None  # one-time set-up, timed as setup_s


def cli_job(argv: list[str], check: Callable, units: int = 0, parallel: bool = False,
            weight: float = 1.0) -> Job:
    def run(lab) -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lab.cli.main(argv)
        return CliOutput(code, out.getvalue(), err.getvalue())

    return Job(" ".join(argv), run, check, units, parallel, weight)


def _json(res: CliOutput, codes=(0,)) -> dict:
    """Parsed JSON output; raises ValueError on an unexpected exit code."""
    if res.code not in codes:
        raise ValueError(f"exit {res.code}: {res.err.strip()[:200]}")
    return json.loads(res.out)


def _checked(fn: Callable) -> Callable:
    """Turn exceptions raised while reading an output into a failure reason."""

    def check(res, outputs):
        try:
            return fn(res, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return check


def _off(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{name} = {got!r}, expected {want!r} (tolerance {tol:g})"


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


# -- certify ----------------------------------------------------------------

SMALL_PAIRS = [(J, K) for J in range(1, 5) for K in range(1, 5)]
MEDIUM_PAIRS = [(6, 6), (4, 8), (8, 4), (2, 16), (16, 1)]
# certificates that exceed tolerance 1e-8 at the commit that added the
# benchmark; they stay in the mix so the precision defect stays visible
FAILING_PAIRS = [(8, 8), (16, 2), (8, 6)]
SMOKE_PAIRS = [(1, 1), (1, 2), (2, 2), (3, 1)]


def _check_tau(J: int, K: int, tau: list) -> str | None:
    if len(tau) != J or any(len(row) != K for row in tau):
        return "tau has the wrong shape"
    reasons = []
    if K == 1:
        for j in range(1, min(J, 8) + 1):
            want = math.exp(-float(ref.THETAS[j]))
            reasons.append(_off(f"tau[{j}][1]", tau[j - 1][0], want, 1e-12))
    for (j, k), want in ref.CLOSED_FORM_TAU.get((J, K), {}).items():
        reasons.append(_off(f"tau[{j}][{k}]", tau[j - 1][k - 1], want, 1e-9))
    return _first(*reasons)


def check_dual_check(J: int, K: int) -> Callable:
    @_checked
    def check(res: CliOutput, _outputs):
        d = _json(res, codes=(0, 4))
        v = d["verification"]
        if (res.code == 0) != v["ok"]:
            return f"exit {res.code} disagrees with verdict ok={v['ok']}"
        tau = d["tau"]
        formula = J - sum((1.0 - row[0]) ** K for row in tau)
        reason = _first(
            _check_tau(J, K, tau),
            _off("payoff", d["payoff"], formula, 1e-12),
            _off("payoff", d["payoff"], ref.PAYOFF_JK[(J, K)], 1e-9)
            if (J, K) in ref.PAYOFF_JK
            else None,
        )
        if reason or v["ok"]:
            return reason
        return (
            "certificate fails verification: equality residual "
            f"{v['max_equality_residual']:.2e}, objective gap {v['objective_gap']:.2e}"
        )

    return check


@_checked
def check_perturbed(res: CliOutput, _outputs):
    d = _json(res, codes=(4,))
    return None if d["verification"]["ok"] is False else "perturbed certificate passed"


@_checked
def check_thresholds_k1(res: CliOutput, _outputs):
    d = _json(res)
    thetas = [Fraction(t) for t in d["thetas"]]
    if len(thetas) != 16 or any(b <= a for a, b in zip(thetas, thetas[1:])):
        return "thetas are not 16 increasing values"
    reasons = [
        f"theta_{j} = {thetas[j - 1]}, expected {want}"
        for j, want in ref.THETAS.items()
        if thetas[j - 1] != want
    ]
    reasons += [
        _off(f"threshold[{j}]", t, math.exp(-float(th)), 1e-12)
        for j, (t, th) in enumerate(zip(d["thresholds"], thetas), start=1)
    ]
    reasons.append(_off("payoff", d["payoff"], math.fsum(d["thresholds"]), 1e-12))
    return _first(*reasons)


@_checked
def check_report(res: CliOutput, _outputs):
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    rows = list(csv.reader(io.StringIO(res.out)))
    by_j = {r[0]: r for r in rows[1:9]}
    reasons = []
    for j, want in ref.PAYOFFS_6DP.items():
        row = by_j[str(j)]
        if row[1] != want or Fraction(row[2]) != ref.THETAS[j]:
            reasons.append(f"report row J={j} is {row[1:]}")
    cases = {r[0]: r[1] for r in rows if len(r) >= 2}
    reasons += [
        f"report {case} = {cases.get(case)}, expected {want}"
        for case, want in ref.REPORT_CLOSED_FORMS.items()
        if cases.get(case) != want
    ]
    return _first(*reasons)


def certify_jobs(seed: int, pass_no: int, smoke: bool, prep) -> list[Job]:
    pairs = SMOKE_PAIRS if smoke else SMALL_PAIRS + MEDIUM_PAIRS + FAILING_PAIRS
    jobs = [
        cli_job(
            ["dual-check", "--J", str(J), "--K", str(K), "--format", "json",
             "--grid", "2000", "--tolerance", "1e-8"],
            check_dual_check(J, K),
            units=1,
        )
        for J, K in pairs
    ]
    jobs.append(
        cli_job(["thresholds", "--J", "16", "--K", "1", "--exact", "--format", "json"],
                check_thresholds_k1)
    )
    jobs.append(cli_job(["report"], check_report))
    jobs.append(
        cli_job(["dual-check", "--J", "2", "--K", "2", "--format", "json",
                 "--perturb", "0.01"], check_perturbed)
    )
    return jobs


# -- finite_lp ----------------------------------------------------------------

# Eleven labels, the odd count putting job_p50_ms inside a cluster of like
# jobs.  (1,1) n=800 and (2,2) n=200 took 85% of a pass and left three
# samples per job in a run; without them a pass is short enough for seven.
LP_FLOAT = [(1, 1, n) for n in (50, 100, 200, 300, 400)] + [
    (2, 2, n) for n in (50, 100)
] + [(3, 3, 30), (3, 3, 50)]
LP_EXACT = [(1, 1, 10), (2, 2, 6)]
LARGE_TABLEAU_BYTES = 1 << 20


def lp_weight(J: int, K: int, n: int, mode: str) -> float:
    """Interpreter-bound share of a finite-lp job (see speed.py).

    The float simplex keeps a dense J*K*n x 2*J*K*n tableau.  Up to about
    1 MB its pivots are interpreter-bound, as is the exact solver.  Beyond
    that about half the time goes to cache traffic: on the shared host a
    weight of 0.5 gave these jobs the narrowest spread, against 0 or 1.
    """
    rows = J * K * n
    if mode == "float" and 8 * rows * 2 * rows >= LARGE_TABLEAU_BYTES:
        return 0.5
    return 1.0


def check_finite_lp(J: int, K: int, n: int, exact: bool) -> Callable:
    @_checked
    def check(res: CliOutput, _outputs):
        d = _json(res)
        (row,) = d["rows"]
        want = ref.P_STAR[(J, K, n)]
        p = row["p_star"]
        return _first(
            None if (d["J"], d["K"], row["n"]) == (J, K, n) else "wrong (J, K, n)",
            (None if p == float(want) else f"exact P*_{n} = {p!r}, expected {want}")
            if exact
            else _off(f"P*_{n}", p, want, 1e-9),
            _off("cp_star", d["cp_star"], ref.PAYOFF_JK[(J, K)], 1e-9),
            _off("gap", row["gap"], p - d["cp_star"], 1e-12),
        )

    return check


def finite_lp_jobs(seed: int, pass_no: int, smoke: bool, prep) -> list[Job]:
    floats = [(1, 1, 50), (2, 2, 100)] if smoke else LP_FLOAT
    exacts = LP_EXACT[:1] if smoke else LP_EXACT
    jobs = []
    for cases, mode in ((floats, "float"), (exacts, "exact")):
        for J, K, n in cases:
            argv = ["finite-lp", "--J", str(J), "--K", str(K), "--n", str(n),
                    "--mode", mode, "--format", "json"]
            jobs.append(cli_job(argv, check_finite_lp(J, K, n, mode == "exact"), units=1,
                                weight=lp_weight(J, K, n, mode)))
    return jobs


# -- simulate -----------------------------------------------------------------

# (J, K, n, trials per job); per-trial cost grows with K ln n
SIM_CASES = [(2, 2, 10_000, 2000), (2, 2, 10**9, 1000), (4, 4, 10**9, 400)]
SIM_SEEDS_PER_CASE = 4
SMOKE_SIM_CASES = [(2, 2, 10_000, 200), (4, 4, 10**9, 50)]
FINITE_N_ALLOWANCE = 0.005  # payoff shift at n = 1e4, as in the acceptance suite


def fanout_workers() -> int:
    """Workers the fan-out job requests: min(2, nproc)."""
    return min(2, os.cpu_count() or 1)


def check_simulate(J: int, K: int, n: int, trials: int, sim_seed: int) -> Callable:
    @_checked
    def check(res: CliOutput, _outputs):
        d = _json(res)
        mean, se = d["mean"], d["stderr"]
        window = 5.0 * se + (FINITE_N_ALLOWANCE if n <= 10_000 else 0.0)
        return _first(
            None
            if (d["J"], d["K"], d["n"], d["trials"], d["seed"]) == (J, K, n, trials, sim_seed)
            else "echoed parameters differ from the request",
            _off("mean payoff", mean, ref.PAYOFF_JK[(J, K)], window),
            _off("ci99 low", d["ci99"][0], mean - Z_99 * se, 1e-12),
            _off("ci99 high", d["ci99"][1], mean + Z_99 * se, 1e-12),
        )

    return check


def check_fanout(twin: str) -> Callable:
    def check(res: CliOutput, outputs):
        if res.code != 0:
            return f"exit {res.code}: {res.err.strip()[:200]}"
        return None if res.out == outputs[twin].out else "output differs from workers=1 run"

    return check


def simulate_jobs(seed: int, pass_no: int, smoke: bool, prep) -> list[Job]:
    rng = random.Random(f"simulate:{seed}:{pass_no}")
    cases = SMOKE_SIM_CASES if smoke else SIM_CASES
    jobs = []
    for J, K, n, trials in cases:
        for _ in range(1 if smoke else SIM_SEEDS_PER_CASE):
            s = rng.randrange(2**31)
            argv = ["simulate", "--J", str(J), "--K", str(K), "--n", str(n),
                    "--trials", str(trials), "--seed", str(s), "--workers", "1",
                    "--format", "json"]
            jobs.append(cli_job(argv, check_simulate(J, K, n, trials, s), units=trials))
    twin = jobs[0]
    argv = twin.label.split()
    argv[argv.index("--workers") + 1] = str(fanout_workers())
    jobs.append(cli_job(argv, check_fanout(twin.label), parallel=True))
    return jobs


# -- replay -------------------------------------------------------------------

REPLAY_PAIRS = [(2, 2), (4, 4)]
REPLAY_SIZES = [(10_000, 8), (100_000, 4)]  # (n, instances per pass and pair)
SMOKE_REPLAY_SIZES = [(10_000, 1)]


def replay_prepare(lab) -> dict:
    return {pair: lab.dual.construct_dual(*pair).tau for pair in REPLAY_PAIRS}


def check_replay(tau):
    def check(output, _outputs):
        inst, result = output
        J, K = tau.J, tau.K
        times, ranks = inst.times, inst.ranks
        if not (np.all(np.diff(times) >= 0) and times[0] >= 0.0 and times[-1] < 1.0):
            return "arrival times are not sorted in [0, 1)"
        sel = result.selections
        if len(sel) > J:
            return f"{len(sel)} selections for {J} quotas"
        if len({s.position for s in sel}) != len(sel):
            return "an item was selected twice"
        quotas = [s.quota for s in sel]
        if quotas != sorted(quotas, reverse=True) or len(set(quotas)) != len(quotas):
            return f"quotas used out of order: {quotas}"
        payoff = 0
        for s in sel:
            rank = int(ranks[s.position - 1])
            potential = 1 + int(np.count_nonzero(ranks[: s.position - 1] < rank))
            if s.potential != potential or potential > K:
                return f"selection at {s.position} has potential {s.potential}, actual {potential}"
            if s.time != times[s.position - 1] or s.time < tau.threshold(s.quota, s.potential):
                return f"selection at {s.position} precedes its threshold"
            payoff += rank <= K
        return None if payoff == result.payoff else f"payoff {result.payoff}, audit {payoff}"

    return check


def replay_jobs(seed: int, pass_no: int, smoke: bool, prep) -> list[Job]:
    rng = random.Random(f"replay:{seed}:{pass_no}")
    jobs = []
    for pair in REPLAY_PAIRS[:1] if smoke else REPLAY_PAIRS:
        tau = prep[pair]
        for n, count in SMOKE_REPLAY_SIZES if smoke else REPLAY_SIZES:
            for _ in range(count):
                key = rng.randrange(2**63)

                def run(lab, tau=tau, n=n, key=key):
                    gen = np.random.Generator(np.random.Philox(key=key))
                    inst = lab.sim.sample_arrivals(n, gen)
                    return inst, lab.sim.run_threshold_algorithm(tau, inst, detailed=True)

                label = f"replay J={tau.J} K={tau.K} n={n} key={key}"
                jobs.append(Job(label, run, _checked(check_replay(tau)), units=1))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", 9.0, certify_jobs),
        Workload("finite_lp", 2.45, finite_lp_jobs),
        Workload("simulate", 4.5, simulate_jobs),
        Workload("replay", 3.0, replay_jobs, replay_prepare),
    )
}

# Jobs that fail their check at the commit that added the benchmark.  They
# count in `failed`; any other failure also makes the run incorrect.
KNOWN_SEED_FAILURES = frozenset(
    [
        "dual-check --J 8 --K 8 --format json --grid 2000 --tolerance 1e-8",
        "dual-check --J 16 --K 2 --format json --grid 2000 --tolerance 1e-8",
        "dual-check --J 8 --K 6 --format json --grid 2000 --tolerance 1e-8",
        "thresholds --J 16 --K 1 --exact --format json",
    ]
)
