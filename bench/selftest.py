"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, at smoke size:
1. every workload, plain and traced, prints the result keys of the
   contract and exactly the metric names and units listed in
   BENCHMARK.json, and fails no job outside the known seed failures;
2. the deterministic per-layer counts repeat exactly across two traced
   runs with different seeds;
3. a deliberately wrong frozen reference value makes jobs fail, so the
   output checks are known to bite;
4. with no program next to bench/, the runner exits non-zero without
   printing a result.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC = [
    "lp.pivots",
    "lp.bytes_computed",
    "dual.segments",
    "dual.max_coef",
    "dual.verify_points",
    "piecewise.root_evals",
    "theta.numerator_bits",
]

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def smoke(workload: str, seed: int, trace: int) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--smoke"])
    expect(code == 0, f"{workload} trace={trace} exits 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_names_and_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            res = smoke(name, 1, trace)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace], f"{name} trace={trace}: metric names and units")
            expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{name} trace={trace}: numeric values")
            expect(res["correct"] and res["attempted"] >= 1,
                   f"{name} trace={trace}: correct, {res['failed']} known failures")


def check_counts_repeat() -> None:
    for name in ("certify", "finite_lp", "simulate"):
        a, b = (smoke(name, seed, 1)["metrics"] for seed in (1, 2))
        same = all(a[k]["value"] == b[k]["value"] for k in DETERMINISTIC)
        expect(same, f"{name}: deterministic counts repeat across seeds")


def check_wrong_reference_bites() -> None:
    cases = [
        ("finite_lp", reference.P_STAR, (1, 1, 50), 1e-6),
        ("certify", reference.PAYOFF_JK, (2, 2), 1e-6),
        ("simulate", reference.PAYOFF_JK, (4, 4), 2.0),
    ]
    for name, table, key, shift in cases:
        original = table[key]
        table[key] = original + shift
        try:
            res = smoke(name, 1, 0)
        finally:
            table[key] = original
        pass_ratio = res["metrics"]["pass_ratio"]["value"]
        expect(res["failed"] > 0 and not res["correct"] and pass_ratio < 1.0,
               f"{name}: wrong reference {key} fails {res['failed']} job(s)")


def check_fails_without_program() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    check_names_and_units()
    check_counts_repeat()
    check_wrong_reference_bites()
    check_fails_without_program()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
