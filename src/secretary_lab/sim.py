"""Monte-Carlo simulation of the threshold selection policy.

Two execution paths share the same policy semantics:

* run_threshold_algorithm replays one explicit n-item instance (sorted
  uniform arrival times plus a rank permutation) arrival by arrival, with
  an order-statistics tree giving each item's potential rank in
  O(log n); it can also return the full selection log for audits.

* monte_carlo uses an event-driven sampler.  Selections and payoff only
  depend on arrivals whose potential rank is at most K (an item already
  pushed below rank K can never re-enter the top K, and only arrivals
  ranked in the current top K can push it further down), and such
  arrivals are O(K log n) per instance.  The sampler draws the gaps
  between them by inverting P(no such arrival in (i, i']) =
  prod_{t<K} (i-t)/(i'-t), their potential ranks uniformly on [K], and
  their times as conditional order statistics, which reproduces the
  explicit model's distribution exactly at a fraction of the cost.

Per-trial randomness comes from a counter-based Philox stream keyed by
(seed, trial index), so any partition of trials over workers yields
bit-identical aggregates (the reduction sums integers).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import ThresholdMatrix

Z_99 = 2.576  # half-width multiplier for the 99% confidence interval

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ArrivalInstance:
    """n items: sorted arrival times and the rank (1 = best) per position."""

    times: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.ranks):
            raise ValueError("times and ranks must have equal length")
        n = len(self.ranks)
        if sorted(int(r) for r in self.ranks) != list(range(1, n + 1)):
            raise ValueError("ranks must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Selection:
    position: int  # arrival order, 1-based
    time: float
    potential: int  # k at selection time
    quota: int  # consumed quota index j


@dataclass(frozen=True)
class RunResult:
    payoff: int
    selections: tuple[Selection, ...]


@dataclass(frozen=True)
class SimReport:
    J: int
    K: int
    n: int
    trials: int
    seed: int
    mean: float
    stderr: float
    ci99: tuple[float, float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "J": self.J,
                "K": self.K,
                "n": self.n,
                "trials": self.trials,
                "seed": self.seed,
                "mean": self.mean,
                "stderr": self.stderr,
                "ci99": list(self.ci99),
            }
        )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; independent of worker layout."""
    key = ((seed & _MASK64) << 64) | (trial & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_arrivals(n: int, rng: np.random.Generator) -> ArrivalInstance:
    """Uniform arrival times (sorted) and a uniform rank permutation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    times = np.sort(rng.random(n))
    ranks = rng.permutation(n) + 1
    return ArrivalInstance(times=times, ranks=ranks)


class _OrderTree:
    """Fenwick tree over ranks: how many seen ranks are below a given one."""

    def __init__(self, n: int):
        self.tree = [0] * (n + 1)

    def add(self, rank: int) -> None:
        i = rank
        while i < len(self.tree):
            self.tree[i] += 1
            i += i & (-i)

    def count_leq(self, rank: int) -> int:
        total = 0
        i = rank
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total


def _pick_quota(tau: ThresholdMatrix, unused: list[bool], k: int, x: float) -> int:
    """Largest unused quota index whose stage-k maturity has passed; 0 if none."""
    for j in range(tau.J, 0, -1):
        if unused[j - 1] and x >= tau.tau[j - 1][k - 1]:
            return j
    return 0


def run_threshold_algorithm(
    tau: ThresholdMatrix, inst: ArrivalInstance, detailed: bool = False
) -> int | RunResult:
    """Replay the policy on one instance; payoff counts selected items whose
    overall rank is at most K."""
    K = tau.K
    tree = _OrderTree(inst.n)
    unused = [True] * tau.J
    selections: list[Selection] = []
    payoff = 0
    for pos in range(inst.n):
        rank = int(inst.ranks[pos])
        k = tree.count_leq(rank - 1) + 1
        tree.add(rank)
        if k > K:
            continue
        x = float(inst.times[pos])
        j = _pick_quota(tau, unused, k, x)
        if j == 0:
            continue
        unused[j - 1] = False
        if rank <= K:
            payoff += 1
        if detailed:
            selections.append(
                Selection(position=pos + 1, time=x, potential=k, quota=j)
            )
        if not any(unused):
            break
    if detailed:
        return RunResult(payoff=payoff, selections=tuple(selections))
    return payoff


def _next_potential(pos: int, n: int, K: int, v: float) -> int | None:
    """Smallest i' > pos whose potential rank is <= K, by inverse transform.

    P(no such arrival in (pos, i']) = prod_{t<K} (pos-t)/(i'-t); returns
    None when the no-arrival probability through n already exceeds v.
    """
    p_pos = 1.0
    p_n = 1.0
    for t in range(K):
        p_pos *= pos - t
        p_n *= n - t
    if v <= 0.0:
        v = 5e-324
    if p_pos >= v * p_n:
        return None
    target = p_pos / v

    def prod_at(m: int) -> float:
        out = 1.0
        for t in range(K):
            out *= m - t
        return out

    m = max(pos + 1, int(target ** (1.0 / K)))
    while prod_at(m) <= target:
        m += 1
    while m > pos + 1 and prod_at(m - 1) > target:
        m -= 1
    return m


def _run_sparse_trial(
    tau_rows: Sequence[Sequence[float]],
    J: int,
    K: int,
    n: int,
    rng: np.random.Generator,
) -> int:
    """One instance via the potential-event process; returns the payoff."""
    pos = 0
    x = 0.0
    unused = [True] * J
    quotas_left = J
    alive: list[int] = []  # current ranks of selected items, all <= K
    while pos < n:
        if pos < K:
            nxt = pos + 1
            k = int(rng.integers(1, nxt + 1))
        else:
            nxt = _next_potential(pos, n, K, float(rng.random()))
            if nxt is None:
                break
            k = int(rng.integers(1, K + 1))
        x += (1.0 - x) * float(rng.beta(nxt - pos, n - nxt + 1))
        pos = nxt
        if alive:
            alive = [r + 1 if k <= r else r for r in alive]
            alive = [r for r in alive if r <= K]
        if quotas_left:
            j = 0
            for jj in range(J, 0, -1):
                if unused[jj - 1] and x >= tau_rows[jj - 1][k - 1]:
                    j = jj
                    break
            if j:
                unused[j - 1] = False
                quotas_left -= 1
                alive.append(k)
        if not quotas_left and not alive:
            break
    return len(alive)


def _chunk_stats(args: tuple) -> tuple[int, int]:
    """Sum and sum-of-squares of payoffs over a contiguous trial range."""
    tau_rows, J, K, n, seed, start, stop = args
    s = 0
    s2 = 0
    for trial in range(start, stop):
        p = _run_sparse_trial(tau_rows, J, K, n, trial_rng(seed, trial))
        s += p
        s2 += p * p
    return s, s2


class ThreadSettingError(ValueError):
    """SECRETARY_LAB_THREADS is set but is not an integer."""


def worker_cap() -> int:
    """Worker limit from SECRETARY_LAB_THREADS (default: unlimited)."""
    raw = os.environ.get("SECRETARY_LAB_THREADS")
    if not raw:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ThreadSettingError(
            f"SECRETARY_LAB_THREADS must be an integer, got {raw!r}"
        ) from None


def monte_carlo(
    tau: ThresholdMatrix,
    n: int = 10_000,
    trials: int = 100_000,
    seed: int = 0,
    workers: int | None = None,
) -> SimReport:
    """Mean payoff over independent instances, with a 99% interval.

    Reproducible for a given seed regardless of worker count: trials use
    per-trial Philox streams and the reduction adds exact integers.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    workers = min(workers or 1, worker_cap())
    tau_rows = tuple(tuple(r) for r in tau.tau)
    if workers <= 1:
        s, s2 = _chunk_stats((tau_rows, tau.J, tau.K, n, seed, 0, trials))
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        jobs = [
            (tau_rows, tau.J, tau.K, n, seed, int(a), int(b))
            for a, b in zip(bounds, bounds[1:])
            if a < b
        ]
        s = 0
        s2 = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cs, cs2 in pool.map(_chunk_stats, jobs):
                s += cs
                s2 += cs2
    mean = s / trials
    if trials > 1:
        var = (s2 - s * s / trials) / (trials - 1)
        stderr = (max(var, 0.0) / trials) ** 0.5
    else:
        stderr = 0.0
    half = Z_99 * stderr
    return SimReport(
        J=tau.J,
        K=tau.K,
        n=n,
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        ci99=(mean - half, mean + half),
    )
