"""Machine-speed sampling that scales measured times to a reference speed.

On a shared host the speed one process gets drifts by 20-40% within
seconds, while steal time stays near zero.  Interpreter-bound code slows
down most, when a neighbour shares the core.  So each job is timed
against a probe: a fixed interpreter loop with an L1-sized working set.
It runs twice and only the second run is timed, so caches the program
left cold do not count.  The probe runs no program code, so no change to
the program can move it.

The meter probes just before and after each job and, from a SIGALRM
handler, every `tick_s` inside it.  The job's factor is `ref_s` x the
mean probe rate over the job.  A job's scaled time is its wall time minus
the in-job probes, times the factor raised to the job's weight: the share
of its time that is interpreter-bound.  Jobs bound partly by cache
traffic slow down less than the probe does, and scaling them fully
widened their spread.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager


class InterpreterProbe:
    ref_s = 0.0004  # probe time that defines the reference speed
    iterations = 1500

    def __call__(self) -> float:
        x, slots = 0.5, {}
        for _warm_then_timed in range(2):
            t0 = time.perf_counter()
            for i in range(self.iterations):
                x = x * 1.0000001 + math.log(1.5 + (i & 7))
                slots[i & 255] = x
        return time.perf_counter() - t0


class SpeedMeter:
    """Times jobs in reference-speed seconds; close() before the process exits."""

    tick_s = 0.025

    def __init__(self):
        self.probe = InterpreterProbe()
        self.samples: list[float] = []  # every probe time of the run
        self._inside: list[float] | None = None  # in-job samples of the running job
        self.busy = 0.0  # seconds spent in in-job probes
        # installed once: restoring the default action while a SIGALRM is
        # still pending would kill the process
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._inside is None:
            return
        t0 = time.perf_counter()
        self._inside.append(self.probe())
        self.busy += time.perf_counter() - t0

    @contextmanager
    def job(self, weight: float = 1.0, sample: bool = True):
        """Time the body; the yielded dict receives 'raw' and 'time' seconds.

        weight is the exponent on the speed factor.  sample=False skips
        in-job probes, for a job whose own worker processes occupy the
        CPUs a probe would measure.
        """
        rec: dict = {}
        inside: list[float] = []
        before = self.probe()
        busy = self.busy
        if sample:
            self._inside = inside
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._inside = None
            times = [before, *inside, self.probe()]
            self.samples += times
            factor = self.probe.ref_s * sum(1.0 / t for t in times) / len(times)
            rec.update(raw=raw, factor=factor,
                       time=(raw - (self.busy - busy)) * factor**weight)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
