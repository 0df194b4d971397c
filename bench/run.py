"""secretary-lab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The program is imported from the `src/` directory next to `bench/`.  One
client runs the workload's fixed job list closed-loop in this process, a
pass at a time.  --seconds fixes the pass count, so every run of a
workload with the same --seconds measures the same jobs.  Job times are
scaled to a reference machine speed (see speed.py).  With --trace 0 the
end-to-end metrics are printed; with --trace 1 plain and traced passes
alternate and the per-layer metrics are printed.  The last stdout line is
the result JSON and the line before it the run context.  Both, every job
record and any spans are also written to .bench_out/ under the repository
root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy

import spans
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_ROUNDS = 15
TAIL_BEYOND = 10  # jobs that must lie above the reported tail latency
OVERRUN = 1.6  # no new pass starts after this multiple of --seconds

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "trials_per_s": "1/s",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "theta.generate_s": "s",
    "theta.decimal_s": "s",
    "theta.numerator_bits": "count",
    "dual.construct_s": "s",
    "piecewise.root_s": "s",
    "piecewise.root_evals": "count",
    "dual.verify_s": "s",
    "dual.verify_points": "count",
    "piecewise.value_calls": "count",
    "piecewise.tail_integral_calls": "count",
    "dual.segments": "count",
    "dual.max_coef": "1",
    "lp.build_s": "s",
    "lp.solve_s": "s",
    "lp.pivots": "count",
    "lp.bytes_computed": "bytes",
    "sim.monte_carlo_s": "s",
    "sim.trial_us": "us",
    "sim.trial_rng_us": "us",
    "sim.fanout_eff": "ratio",
    "sim.sample_arrivals_ms": "ms",
    "sim.replay_ms": "ms",
    "sim.replay_selections": "count",
    "trace.overhead": "ratio",
}


class MissingProgram(RuntimeError):
    pass


def load_program() -> SimpleNamespace:
    """Import secretary_lab afresh from src/; modules in a namespace."""
    if not (SRC / "secretary_lab" / "__init__.py").is_file():
        raise MissingProgram(f"no secretary_lab package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "secretary_lab"]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"secretary_lab.{name}")
        for name in ("cli", "dual", "lp", "piecewise", "sim", "theta")
    }
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"secretary_lab was imported from outside {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload, meter):
    """Import plus one-time preparation, repeated.

    Returns the last round's modules and preparation, and the median round
    time, raw and scaled to the reference speed.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        gc.collect()  # a fresh process has no garbage from earlier rounds
        with meter.job() as rec:
            lab = load_program()
            prep = workload.prepare(lab)
        rounds.append(rec)
    return (lab, prep, statistics.median(r["raw"] for r in rounds),
            statistics.median(r["time"] for r in rounds))


def plan_passes(workload, seconds: int, trace: bool, smoke: bool) -> tuple[int, int]:
    """(plain passes, traced passes) fixed by --seconds and the workload's pass time."""
    total = 1 if smoke else max(1, round(seconds / workload.pass_s))
    if not trace:
        return total, 0
    plain = max(1, total // 2)
    return plain, max(1, total - plain)


def run_pass(jobs, lab, meter, tracer) -> dict:
    """Run jobs in order, then check every output; one record per job."""
    outputs, records = {}, []
    t_pass = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = len(tracer.job_scale)
        error = None
        with meter.job(job.weight, sample=not job.parallel) as rec:
            try:
                outputs[job.label] = job.run(lab)
            except Exception:  # a crashing job is a failed job; the run goes on
                error = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if tracer is not None:
            tracer.job_scale.append(rec["time"] / rec["raw"])
        rec.update(label=job.label, units=job.units, failure=error)
        records.append(rec)
    raw_wall = time.perf_counter() - t_pass
    for job, rec in zip(jobs, records):
        if rec["failure"] is None:
            rec["failure"] = job.check(outputs[job.label], outputs)
    return {"raw_wall": raw_wall, "wall": sum(r["time"] for r in records), "jobs": records}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest-percentile latency with TAIL_BEYOND jobs above it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def machine_context(lab) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
        "SECRETARY_LAB_THREADS": os.environ.get("SECRETARY_LAB_THREADS"),
        "sim_worker_cap": lab.sim.worker_cap(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one small pass per mode, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    meter = speed.SpeedMeter()
    try:
        return measure(args, workload, meter)
    except (MissingProgram, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2
    finally:
        meter.close()


def measure(args, workload, meter) -> int:
    lab, prep, raw_setup_s, setup_s = set_up(workload, meter)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_context(lab)}
    plain, traced = plan_passes(workload, args.seconds, bool(args.trace), args.smoke)
    tracer = spans.Tracer() if traced else None
    plain_runs, traced_runs = [], []
    # plain and traced passes alternate, so both see the same warm-up
    schedule = [False, True] * plain + [True] * (traced - plain) if traced else [False] * plain
    t_start = time.perf_counter()
    for pass_no, traced_pass in enumerate(schedule):
        if (plain_runs and (traced_runs or not traced)
                and time.perf_counter() - t_start > OVERRUN * args.seconds):
            break  # the host is far slower than pass_s assumes; keep the run bounded
        jobs = workload.jobs(args.seed, pass_no, args.smoke, prep)
        random.Random(f"order:{args.seed}:{pass_no}").shuffle(jobs)
        if not traced_pass:
            plain_runs.append(run_pass(jobs, lab, meter, None))
        else:
            with spans.instrumented(lab, tracer):
                traced_runs.append(run_pass(jobs, lab, meter, tracer))
            tracer.end_pass()

    all_jobs = [r for p in plain_runs + traced_runs for r in p["jobs"]]
    failures = {r["label"]: r["failure"] for r in all_jobs if r["failure"]}
    failed = sum(1 for r in all_jobs if r["failure"])
    plain_jobs = [r for p in plain_runs for r in p["jobs"]]
    latencies = [r["time"] for r in plain_jobs]
    tail_s, tail_pct = tail(latencies)
    wall_s = statistics.mean(p["wall"] for p in plain_runs)
    unit_jobs = [r for r in plain_jobs if r["units"]]
    context.update(
        passes={"plain": len(plain_runs), "traced": len(traced_runs),
                "jobs_per_pass": len(plain_runs[0]["jobs"])},
        unscaled={"wall_s": statistics.mean(p["raw_wall"] for p in plain_runs),
                  "setup_s": raw_setup_s,
                  "probe_median_s": statistics.median(meter.samples),
                  "probe_ref_s": meter.probe.ref_s},
        job_tail={"percentile": tail_pct, "jobs": len(latencies), "beyond": TAIL_BEYOND},
        fanout_workers=min(workloads.fanout_workers(), lab.sim.worker_cap()),
        outcomes={r["label"]: r["failure"] or "pass"
                  for r in sorted(plain_runs[0]["jobs"], key=lambda r: r["label"])},
        failures=failures,
        known_seed_failures=sorted(workloads.KNOWN_SEED_FAILURES & set(failures)),
    )
    context["machine"]["loadavg_end"] = os.getloadavg()

    if args.trace:
        overhead = statistics.mean(p["wall"] for p in traced_runs) / wall_s
        values = tracer.metrics(len(traced_runs), overhead)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall_s,
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_tail_ms": tail_s * 1e3,
            "trials_per_s": sum(r["units"] for r in unit_jobs)
            / sum(r["time"] for r in unit_jobs),
            "pass_ratio": 1.0 - failed / len(all_jobs),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": set(failures) <= workloads.KNOWN_SEED_FAILURES,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"context": context, "result": result,
                                    "passes": plain_runs + traced_runs,
                                    "spans": tracer.spans if tracer else []}))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
