"""Span tracer and per-layer metrics for the benchmark's traced passes.

`instrumented(lab, tracer)` swaps public module attributes of the program
for wrappers while a traced pass runs and restores them afterwards.  The
program looks these names up at call time, so nothing in the package
changes.  A span is [name, start, end, parent index, job index]; spans stay
in memory until the run writes them out.  Self time is a span's duration
minus the durations of its direct children.  Every duration is scaled by
its job's speed scale (see speed.py), like the end-to-end times.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

DECIMAL_SPANS = ("theta.thresholds", "theta.payoff_k1_decimal")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1  # index into job_scale of the job now running
        self.job_scale: list[float] = []  # speed factor per traced job
        self.counts: Counter = Counter()  # deterministic counters, summed over passes
        self.maxima: Counter = Counter()
        self.mc_single = [0.0, 0]  # monte_carlo seconds and trials at workers=1
        self.fanout_eff: list[float] = []
        self._certs: list = []  # construct_dual results of the current pass
        self._verified: list = []  # (certificate, grid points) of the current pass
        self._mc_runs: list = []  # (span, workers, trials, job key) of the current pass

    def seconds(self, span) -> float:
        return (span[2] - span[1]) * self.job_scale[span[4]]

    def wrap(self, name: str, fn, keep=None):
        """fn inside a span; keep(args, kwargs, result, span) runs after it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                keep(args, kwargs, result, span)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def end_pass(self) -> None:
        """Derive certificate and fan-out figures for the pass just run."""
        for cert in self._certs:
            for fn in _functions(cert):
                self.counts["dual.segments"] += len(fn.segments)
                for seg in fn.segments:
                    for c in seg.terms.values():
                        self.maxima["dual.max_coef"] = max(self.maxima["dual.max_coef"], abs(c))
        for cert, grid in self._verified:
            base = {i / grid for i in range(1, grid + 1)}
            for j in range(1, cert.J + 1):
                diff = cert.r_top(j).combine(cert.r_top(j - 1), 1.0, -1.0)
                self.counts["dual.verify_points"] += cert.K * len(base | set(diff.breakpoints))
        by_key: dict = defaultdict(dict)
        for span, workers, trials, key in self._mc_runs:
            by_key[key][workers] = self.seconds(span)
            if workers == 1:
                self.mc_single[0] += self.seconds(span)
                self.mc_single[1] += trials
        for runs in by_key.values():
            for workers, seconds in runs.items():
                if workers > 1 and 1 in runs:
                    self.fanout_eff.append(runs[1] / (workers * seconds))
        self._certs, self._verified, self._mc_runs = [], [], []

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (self seconds, inclusive seconds, calls)."""
        spans = self.spans
        durations = [self.seconds(s) for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, durations):
            if s[3] >= 0:
                child[s[3]] += d
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for s, d, c in zip(spans, durations, child):
            acc = out[s[0]]
            acc[0] += d - c
            acc[1] += d
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics; times and counts are per traced pass."""
        lt = self.layer_times()

        def self_s(*names):
            return sum(lt.get(n, (0.0, 0.0, 0))[0] for n in names) / passes

        def per_call(name, scale):
            _s, incl, calls = lt.get(name, (0.0, 0.0, 0))
            return incl / calls * scale if calls else 0.0

        c = self.counts
        mc_s, mc_trials = self.mc_single
        return {
            "cli.self_s": self_s("cli"),
            "theta.generate_s": self_s("theta.generate_thetas"),
            "theta.decimal_s": self_s(*DECIMAL_SPANS),
            "theta.numerator_bits": self.maxima["theta.numerator_bits"],
            "dual.construct_s": self_s("dual.construct_dual"),
            "piecewise.root_s": self_s("piecewise.find_largest_root"),
            "piecewise.root_evals": c["piecewise.root_evals"] / passes,
            "dual.verify_s": self_s("dual.verify_certificate"),
            "dual.verify_points": c["dual.verify_points"] / passes,
            "piecewise.value_calls": c["piecewise.value_calls"] / passes,
            "piecewise.tail_integral_calls": c["piecewise.tail_integral_calls"] / passes,
            "dual.segments": c["dual.segments"] / passes,
            "dual.max_coef": self.maxima["dual.max_coef"],
            "lp.build_s": self_s("lp.build_lp"),
            "lp.solve_s": self_s("lp.solve_lp"),
            "lp.pivots": c["lp.pivots"] / passes,
            "lp.bytes_computed": c["lp.bytes_computed"] / passes,
            "sim.monte_carlo_s": self_s("sim.monte_carlo"),
            "sim.trial_us": mc_s / mc_trials * 1e6 if mc_trials else 0.0,
            "sim.trial_rng_us": per_call("sim.trial_rng", 1e6),
            "sim.fanout_eff": statistics.median(self.fanout_eff) if self.fanout_eff else 0.0,
            "sim.sample_arrivals_ms": per_call("sim.sample_arrivals", 1e3),
            "sim.replay_ms": per_call("sim.run_threshold_algorithm", 1e3),
            "sim.replay_selections": c["sim.replay_selections"] / passes,
            "trace.overhead": overhead,
        }


def _functions(cert):
    for row in (*cert.q, *cert.r):
        yield from row


@contextmanager
def instrumented(lab, tracer: Tracer):
    """Install the tracer's wrappers on the program for the duration."""
    t = tracer
    counts = t.counts

    def keep_cert(args, kwargs, cert, span):
        t._certs.append(cert)

    def keep_verify(args, kwargs, report, span):
        t._verified.append((args[0], report.grid_points))

    def keep_solve(args, kwargs, sol, span):
        size = args[0].num_vars  # rows == columns; tableau is rows x (columns + slacks)
        counts["lp.pivots"] += sol.iterations
        counts["lp.bytes_computed"] += 8 * size * (2 * size) * sol.iterations

    def keep_thetas(args, kwargs, ts, span):
        bits = ts.thetas[-1].numerator.bit_length()
        t.maxima["theta.numerator_bits"] = max(t.maxima["theta.numerator_bits"], bits)

    def keep_monte_carlo(args, kwargs, rep, span):
        workers = min(kwargs.get("workers") or 1, lab.sim.worker_cap())
        t._mc_runs.append((span, workers, rep.trials, (rep.J, rep.K, rep.n, rep.trials, rep.seed)))

    def keep_replay(args, kwargs, result, span):
        counts["sim.replay_selections"] += len(result.selections)

    root_search = lab.dual.find_largest_root

    def find_largest_root(fn, *args, **kwargs):
        def evaluate(x):
            counts["piecewise.root_evals"] += 1
            return fn(x)

        return root_search(evaluate, *args, **kwargs)

    pw = lab.piecewise.PiecewiseFunction
    patches = [
        (lab.cli, "main", t.wrap("cli", lab.cli.main)),
        (lab.theta, "generate_thetas",
         t.wrap("theta.generate_thetas", lab.theta.generate_thetas, keep_thetas)),
        (lab.theta, "thresholds", t.wrap("theta.thresholds", lab.theta.thresholds)),
        (lab.theta, "payoff_k1_decimal",
         t.wrap("theta.payoff_k1_decimal", lab.theta.payoff_k1_decimal)),
        (lab.dual, "construct_dual",
         t.wrap("dual.construct_dual", lab.dual.construct_dual, keep_cert)),
        (lab.dual, "verify_certificate",
         t.wrap("dual.verify_certificate", lab.dual.verify_certificate, keep_verify)),
        (lab.dual, "find_largest_root",
         t.wrap("piecewise.find_largest_root", find_largest_root)),
        (pw, "value", t.counted("piecewise.value_calls", pw.value)),
        (pw, "tail_integral", t.counted("piecewise.tail_integral_calls", pw.tail_integral)),
        (lab.lp, "build_lp", t.wrap("lp.build_lp", lab.lp.build_lp)),
        (lab.lp, "solve_lp", t.wrap("lp.solve_lp", lab.lp.solve_lp, keep_solve)),
        (lab.sim, "monte_carlo",
         t.wrap("sim.monte_carlo", lab.sim.monte_carlo, keep_monte_carlo)),
        (lab.sim, "trial_rng", t.wrap("sim.trial_rng", lab.sim.trial_rng)),
        (lab.sim, "sample_arrivals", t.wrap("sim.sample_arrivals", lab.sim.sample_arrivals)),
        (lab.sim, "run_threshold_algorithm",
         t.wrap("sim.run_threshold_algorithm", lab.sim.run_threshold_algorithm, keep_replay)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _new in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
