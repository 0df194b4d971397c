"""Monte-Carlo simulation of the threshold selection policy.

Two execution paths share one policy rule, _pick_quota:

* run_threshold_algorithm replays one explicit n-item instance (sorted
  uniform arrival times plus a rank permutation) in O(n): a numpy filter
  makes one comparison per item and keeps O(K log(n/K)) candidates, and
  only those are walked in Python (see _potential_arrivals).  It can also
  return the full selection log for audits.

* monte_carlo uses an event-driven sampler.  Selections and payoff only
  depend on arrivals whose potential rank is at most K (an item already
  pushed below rank K can never re-enter the top K, and only arrivals
  ranked in the current top K can push it further down), and such
  arrivals are O(K log n) per instance.  The sampler draws the gaps
  between them by inverting P(no such arrival in (i, i']) =
  prod_{t<K} (i-t)/(i'-t), their potential ranks uniformly on [K], and
  their times as conditional order statistics, which reproduces the
  explicit model's distribution exactly at a fraction of the cost.  No
  quota can be used before the smallest threshold t0, so each trial
  starts at t0 after one Binomial(n, t0) draw of the items that came
  earlier, and its cost does not depend on n.  A block of BLOCK_TRIALS
  trials advances in lockstep as numpy arrays, one potential arrival per
  trial and step, and finished trials leave the arrays.

Randomness comes from a counter-based Philox stream keyed by
(seed, block), so any partition of blocks over workers yields
bit-identical aggregates (the reduction sums integers).  A worker
process takes at least MIN_POOL_BLOCKS blocks, since a pool costs more
to start than a few blocks cost to run.
"""

from __future__ import annotations

import os
from bisect import bisect_left, insort
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .dual import ThresholdMatrix

Z_99 = 2.576  # half-width multiplier for the 99% confidence interval

BLOCK_TRIALS = 1024  # trials per Philox stream, advanced in lockstep
# Blocks per worker process below which a pool costs more than it saves:
# starting one takes about 13 ms, a block 2-7 ms.
MIN_POOL_BLOCKS = 8
MAX_SEED = (1 << 64) - 1  # a seed fills the high half of the 128-bit Philox key
MAX_N = 1 << 53  # int64 positions and each float64 factor (m - t) stay exact
# sample_arrivals peaks at 18 bytes per item (float64 times, int64 ranks and
# two bool masks while the instance is checked); this keeps it within 1 GiB
MAX_ARRIVALS = (1 << 30) // 18


@dataclass(frozen=True)
class ArrivalInstance:
    """n items: sorted arrival times and the rank (1 = best) per position."""

    times: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        times, ranks = np.asarray(self.times), np.asarray(self.ranks)
        if times.ndim != 1 or times.shape != ranks.shape:
            raise ValueError("times and ranks must be 1-D arrays of equal length")
        n, whole = len(ranks), ranks.dtype.kind in "iu"
        seen = np.zeros(n + 1, dtype=bool)  # n ranks in 1..n fill it if distinct
        if whole and (not n or 1 <= ranks.min() <= ranks.max() <= n):
            seen[ranks] = True
        if not whole or not seen[1:].all():
            raise ValueError("ranks must be an integer permutation of 1..n")
        # NaN fails every comparison, so it cannot pass as ordered
        if n and not (times[0] >= 0 and times[-1] <= 1 and (times[1:] >= times[:-1]).all()):
            raise ValueError("times must be non-decreasing in [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ranks", ranks)

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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream; independent of worker layout.

    monte_carlo passes a block index as the counter `trial`.
    """
    return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))


def sample_arrivals(n: int, rng: np.random.Generator) -> ArrivalInstance:
    """Uniform arrival times (sorted) and a uniform rank permutation."""
    if not 1 <= n <= MAX_ARRIVALS:
        raise ValueError(f"n must lie in [1, {MAX_ARRIVALS}] (MAX_ARRIVALS), got {n}")
    times = rng.random(n)
    times.sort()
    ranks = rng.permutation(n)
    ranks += 1
    return ArrivalInstance(times=times, ranks=ranks)


def _pick_quota(
    tau: np.ndarray, unused: np.ndarray, k: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Per row, the largest unused quota j with x >= tau[j][k]; 0 if none.

    tau holds one row of thresholds per quota, unused is a rows x J mask,
    and k (1-based) and x hold one entry per row.  The one policy rule
    shared by the explicit replay and the sampler.
    """
    ok = unused & (x[:, None] >= tau.T[k - 1])
    return np.where(ok.any(axis=1), ok.shape[1] - ok[:, ::-1].argmax(axis=1), 0)


def _potential_arrivals(ranks: np.ndarray, K: int):
    """Yield (0-based position, potential rank), in order, for each arrival
    with fewer than K smaller predecessors.  Segments [a, 2a) follow a first
    one of 2K items, all candidates; past it, only items ranked below top[-1]
    (the K-th smallest rank before their segment) can be such arrivals, about
    K per segment for a uniform permutation.  One comparison per item, and
    bisect gives each candidate its k.
    """
    top: list[int] = []  # the K smallest ranks so far, ascending
    a, b = 0, min(2 * K, len(ranks))
    while a < b:
        seg = ranks[a:b]
        cand = np.flatnonzero(seg < top[-1]) if a else np.arange(b)
        for pos, rank in zip((cand + a).tolist(), seg[cand].tolist()):
            k = bisect_left(top, rank) + 1
            if k <= K:
                insort(top, rank)
                del top[K:]
                yield pos, k
        a, b = b, min(2 * b, len(ranks))


def run_threshold_algorithm(
    tau: ThresholdMatrix, inst: ArrivalInstance, detailed: bool = False
) -> int | RunResult:
    """Replay the policy on one instance; payoff counts selected items whose
    overall rank is at most K."""
    tau_rows = np.asarray(tau.tau, dtype=float)
    unused = np.ones((1, tau.J), dtype=bool)
    selections: list[Selection] = []
    payoff = 0
    arrivals = list(_potential_arrivals(inst.ranks, tau.K))
    pos, ks = np.array(arrivals, np.intp).reshape(-1, 2).T
    xs = inst.times[pos]
    # unused changes only at a selection: one pick finds the next selection
    while len(pos) and unused.any():
        picks = _pick_quota(tau_rows, unused, ks, xs)
        i = int((picks > 0).argmax())
        j = int(picks[i])
        if j == 0:
            break
        unused[0, j - 1] = False
        if inst.ranks[pos[i]] <= tau.K:
            payoff += 1
        if detailed:
            selections.append(Selection(int(pos[i]) + 1, float(xs[i]), int(ks[i]), j))
        pos, ks, xs = pos[i + 1 :], ks[i + 1 :], xs[i + 1 :]
    if detailed:
        return RunResult(payoff=payoff, selections=tuple(selections))
    return payoff


def _falling(m, K: int, sc: np.ndarray | None = None) -> np.ndarray:
    """prod_{t<K} (m - t) in float64, factors multiplied in order, each
    one times sc when sc is given."""
    out = np.asarray(m, dtype=float) if sc is None else m * sc
    for t in range(1, K):
        out = out * (m - t if sc is None else (m - t) * sc)
    return out


def _next_potential(pos: np.ndarray, n: int, K: int, v: np.ndarray) -> np.ndarray:
    """Per row, the smallest i' > pos >= K whose potential rank is <= K.

    Inverse transform of P(no such arrival in (pos, i']) =
    prod_{t<K} (pos-t)/(i'-t) at the uniform draw v; 0 where the
    no-arrival probability through n already exceeds v.  Where n^K may
    pass the float range, a row's factors are scaled by the power of two
    sc that puts (pos - t) sc in [2^-7, 1); that rounds as the unscaled
    products would, but keeps them in range, and the largest float
    stands in for a p_pos / v that still overflows (a draw of 0).
    """
    v = np.maximum(v, 5e-324)
    sc = None
    if K * int(n).bit_length() > 1000:
        sc = np.ldexp(1.0, -np.frexp(pos.astype(float))[1])
    p_pos = _falling(pos, K, sc)
    out = np.zeros_like(pos)
    # a scaled product past the float range is inf, which compares right
    with nullcontext() if sc is None else np.errstate(over="ignore"):
        go = p_pos < v * _falling(n, K, sc)
        target = p_pos[go] / v[go]
        if sc is not None:
            sc = sc[go]
            np.minimum(target, np.finfo(float).max, out=target)
        lo = pos[go] + 1
        # m(m-1)...(m-K+1) ~ (m - (K-1)/2)^K puts the answer near this
        # start; the loops make it exact
        root = target ** (1.0 / K) if sc is None else target ** (1.0 / K) / sc
        m = np.maximum(lo, (root + (K + 1) / 2).astype(np.int64))
        while (low := _falling(m, K, sc) <= target).any():
            m[low] += 1
        while (high := (m > lo) & (_falling(m - 1, K, sc) > target)).any():
            m[high] -= 1
    out[go] = m
    return out


def _block_stats(
    tau_rows: np.ndarray, K: int, n: int, gen: np.random.Generator, size: int
) -> tuple[int, int]:
    """Sum and sum of squares of payoffs over one block of `size` trials.

    No quota can be used before the smallest threshold t0, so each trial
    starts there: Binomial(n, t0) items came earlier, and the later ones
    arrive iid uniform on [t0, 1] with ranks independent of times.  A trial
    thus takes about K ln(1/t0) steps whatever n is.  alive[:, j] is the
    current rank of quota j's item, K + 1 when it holds none or its item
    left the top K.  A trial leaves the arrays at position n, or once it
    has neither an unused quota nor an item in the top K.
    """
    J = len(tau_rows)
    t0 = tau_rows[:, :K].min()
    pos = gen.binomial(n, t0, size)
    pos = pos[pos < n]  # every item came before t0: payoff 0
    x = np.full(len(pos), t0)
    unused = np.ones((len(pos), J), dtype=bool)
    alive = np.full((len(pos), J), K + 1, dtype=np.int64)
    s = s2 = 0
    while len(pos):
        u, w = gen.random((2, len(pos)))
        nxt = np.where(pos < K, pos + 1, _next_potential(np.maximum(pos, K), n, K, u))
        k = 1 + (w * np.minimum(pos + 1, K)).astype(np.int64)
        # no potential arrival is left: step to n as an arrival of rank K + 1
        last = nxt == 0
        nxt[last] = n
        k[last] = K + 1
        x += (1.0 - x) * gen.beta(nxt - pos, n - nxt + 1)
        pos = nxt
        alive += alive >= k[:, None]
        np.minimum(alive, K + 1, out=alive)
        j = _pick_quota(tau_rows, unused, k, x)
        hit = np.flatnonzero(j)
        unused[hit, j[hit] - 1] = False
        alive[hit, j[hit] - 1] = k[hit]
        top = alive <= K
        done = (pos == n) | ~(unused.any(axis=1) | top.any(axis=1))
        if done.any():
            p = top[done].sum(axis=1)
            s += int(p.sum())
            s2 += int((p * p).sum())
            keep = ~done
            pos, x, unused, alive = pos[keep], x[keep], unused[keep], alive[keep]
    return s, s2


def _chunk_stats(args: tuple) -> tuple[int, int]:
    """Sum and sum of squares of payoffs over the blocks [first, stop)."""
    tau_rows, K, n, seed, trials, first, stop = args
    s = s2 = 0
    for block in range(first, stop):
        size = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        bs, bs2 = _block_stats(tau_rows, K, n, trial_rng(seed, block), size)
        s += bs
        s2 += bs2
    return s, s2


class ThreadSettingError(ValueError):
    """SECRETARY_LAB_THREADS is set but is not an integer."""


def worker_cap() -> int:
    """Worker limit from SECRETARY_LAB_THREADS (default: os.cpu_count())."""
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

    Reproducible for a given seed regardless of worker count: each block of
    BLOCK_TRIALS trials has its own Philox stream, workers take whole
    blocks, and the reduction adds exact integers.  `workers` is an upper
    bound: one process runs per MIN_POOL_BLOCKS blocks, and below
    2 * MIN_POOL_BLOCKS blocks no pool starts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in [1, 2**53], got {n}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    # column K + 1 is +inf: an arrival ranked below the top K takes no quota
    tau_rows = np.hstack([np.asarray(tau.tau, dtype=float), np.full((tau.J, 1), np.inf)])
    blocks = -(-trials // BLOCK_TRIALS)
    workers = max(1, min(workers or 1, worker_cap(), blocks // MIN_POOL_BLOCKS))
    bounds = np.linspace(0, blocks, workers + 1, dtype=int)
    jobs = [
        (tau_rows, tau.K, n, seed, trials, int(a), int(b))
        for a, b in zip(bounds, bounds[1:])
    ]
    if workers <= 1:
        s, s2 = _chunk_stats(jobs[0])
    else:
        s = s2 = 0
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
