"""Monte-Carlo simulation of the threshold selection policy.

With m unused quotas, a k-potential (ranked k-th among the items seen
so far) arriving at time x is taken iff x >= tau_{m,k} and spends quota
m.  No column of a ThresholdMatrix rises in j, so this is "the largest
unused j with x >= tau_{j,k}".  Two paths share it, _pick_quota: the
replay asks it of one arrival's scalars, the sampler of aligned arrays.

* run_threshold_algorithm replays one explicit n-item instance (sorted
  uniform arrival times plus a rank permutation) in O(n): a numpy filter
  makes one comparison per item and keeps O(K log(n/K)) candidates, and
  only those are walked in Python (see _potential_arrivals) until the
  quotas run out.  It can also return the full selection log for audits.

* monte_carlo uses an event-driven sampler.  Selections and payoff only
  depend on arrivals whose potential rank is at most K (an item already
  pushed below rank K can never re-enter the top K, and only arrivals
  ranked in the current top K can push it further down), and such
  arrivals are O(K log n) per instance.  Nor does it matter which quota
  took an item: a trial's state is its unused-quota count and the set of
  top-K ranks its items hold, one int64 bit set (K <= 35) at any J.  The
  sampler draws the gaps between them by inverting P(no such arrival in
  (i, i']) = prod_{t<K} (i-t)/(i'-t), their potential ranks uniformly on
  [K], and their times as conditional order statistics, which reproduces
  the explicit model's distribution exactly at a fraction of the cost.
  No quota can be used before the smallest threshold t0, so each trial
  starts at t0 after one Binomial(n, t0) draw of the items that came
  earlier, and its cost does not depend on n.  Up to GROUP_BLOCKS
  consecutive blocks of BLOCK_TRIALS trials advance in one lockstep pass
  over shared numpy arrays, one potential arrival per trial and step,
  and finished trials leave the arrays.

Randomness comes from a counter-based Philox stream keyed by
(seed, block), and each block draws for its own rows in the order it
would alone, so any grouping and any partition of blocks over workers
yields bit-identical aggregates (the reduction sums integers).  A worker
process takes at least MIN_POOL_BLOCKS blocks, since a pool costs more
to start than a few blocks cost to run.
"""

from __future__ import annotations

import os
from bisect import bisect_left, insort
from collections import namedtuple
from contextlib import nullcontext

import numpy as np

from .value import ThresholdMatrix

Z_99 = 2.576  # half-width multiplier for the 99% confidence interval

BLOCK_TRIALS = 1024  # trials per Philox stream
# Blocks per lockstep pass, holding about GROUP_BLOCKS * 1024 rows of 48
# bytes (0.8 MB) at any J; 8, 16 and 32 ran within 5% of one another
# (100k trials of (2,2), 20k of (4,4) and (8,8), 2 vCPUs)
GROUP_BLOCKS = 16
# Blocks per worker process below which a pool costs more than it saves:
# two workers start in 13-15 ms and a grouped block takes 2-5 ms, so two
# first beat one at about 20 blocks at (2,2) n = 1e4, below 16 at (4,4) n = 1e9
MIN_POOL_BLOCKS = 8
MAX_SEED = (1 << 64) - 1  # a seed fills the high half of the 128-bit Philox key
MAX_N = 1 << 53  # int64 positions and each float64 factor (m - t) stay exact
MAX_TRIALS = 1 << 53  # block numbers and bounds stay int64, counts exact floats
# sample_arrivals peaks at 18 bytes per item (float64 times, int64 ranks and
# two bool masks while the instance is checked); this keeps it within 1 GiB
MAX_ARRIVALS = (1 << 30) // 18


class ArrivalInstance(namedtuple("ArrivalInstance", [
    "times", "ranks",  # np.ndarray
])):
    """n items: sorted arrival times and the rank (1 = best) per position,
    checked however one is made: called, by `_make` or `_replace`, copied
    or unpickled."""

    __slots__ = ()

    def __new__(cls, times, ranks):
        times, ranks = np.asarray(times), np.asarray(ranks)
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
        return super().__new__(cls, times, ranks)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def n(self) -> int:
        return len(self.times)


class Selection(namedtuple("Selection", [
    "position",  # arrival order, 1-based
    "time",  # float
    "potential",  # k at selection time
    "quota",  # consumed quota index j
])):
    __slots__ = ()


class RunResult(namedtuple("RunResult", [
    "payoff",  # int
    "selections",  # tuple[Selection, ...]
])):
    __slots__ = ()


class SimReport(namedtuple("SimReport", [
    "J", "K", "n", "trials", "seed",  # int
    "mean", "stderr",  # float
    "ci99",  # tuple[float, float]
])):
    __slots__ = ()


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


def _policy_rows(tau: ThresholdMatrix) -> np.ndarray:
    """[m, k-1] = tau_{m,k}, under a row (m = 0) and beside a column
    (k = K + 1) of +inf, which take nothing."""
    rows = np.full((tau.J + 1, tau.K + 1), np.inf)
    rows[1:, :-1] = tau.tau
    return rows


def _pick_quota(
    tau_rows: np.ndarray,
    left: int | np.ndarray,
    k: int | np.ndarray,
    x: float | np.ndarray,
) -> np.bool_ | np.ndarray:
    """Whether the k-potential (k 1-based) at time x takes a quota while
    `left` are unused: x >= tau_{left,k} in _policy_rows, so never at
    left = 0.  The one policy rule: the explicit replay asks it of one
    arrival's scalars, the sampler of aligned arrays, a row per trial."""
    return x >= tau_rows[left, k - 1]


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
    tau_rows = _policy_rows(tau)
    selections: list[Selection] = []
    for pos, k in _potential_arrivals(inst.ranks, tau.K):
        left = tau.J - len(selections)
        x = float(inst.times[pos])
        if _pick_quota(tau_rows, left, k, x):
            selections.append(Selection(pos + 1, x, k, left))
            if left == 1:
                break
    payoff = sum(1 for s in selections if inst.ranks[s.position - 1] <= tau.K)
    return RunResult(payoff, tuple(selections)) if detailed else payoff


def _falling(m, K: int, sc: np.ndarray | None = None) -> np.ndarray:
    """prod_{t<K} (m - t) in float64, factors multiplied in order, each
    one times sc when sc is given."""
    out = np.asarray(m, dtype=float) if sc is None else m * sc
    for t in range(1, K):
        out = out * (m - t if sc is None else (m - t) * sc)
    return out


def _next_potential(pos: np.ndarray, n: int, K: int, v: np.ndarray, p_n) -> np.ndarray:
    """Per row, the smallest i' > pos >= K whose potential rank is <= K.

    Inverse transform of P(no such arrival in (pos, i']) =
    prod_{t<K} (pos-t)/(i'-t) at the uniform draw v; 0 where the
    no-arrival probability through n already exceeds v.  p_n is
    _falling(n, K), taken once per run, not computed each step.  Where
    n^K may pass the float range, a row's factors are scaled by the power
    of two sc that puts (pos - t) sc in [2^-7, 1), and p_n is not read;
    that rounds as the unscaled products would, but keeps them in range,
    and the largest float stands in for a p_pos / v that still overflows
    (a draw of 0).  Scaling every row too gives the same bits, 11-26%
    slower on the simulate cases.
    """
    v = np.maximum(v, 5e-324)
    sc = None
    if K * int(n).bit_length() > 1000:
        sc = np.ldexp(1.0, -np.frexp(pos.astype(float))[1])
    p_pos = _falling(pos, K, sc)
    out = np.zeros_like(pos)
    # a scaled product past the float range is inf, which compares right
    with nullcontext() if sc is None else np.errstate(over="ignore"):
        go = p_pos < v * (p_n if sc is None else _falling(n, K, sc))
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


def _group_stats(
    tau_rows: np.ndarray, K: int, n: int, gens: list, sizes: list[int]
) -> tuple[int, int]:
    """Sum and sum of squares of payoffs over blocks of trials, sizes[b]
    of them drawn from gens[b], in one lockstep pass.

    No quota can be used before the smallest threshold t0, so each trial
    starts there: Binomial(n, t0) items came earlier, and the later ones
    arrive iid uniform on [t0, 1] with ranks independent of times.  A trial
    thus takes about K ln(1/t0) steps whatever n is.  Rows stay in block
    order (blk), and each block draws its rows' uniforms and Beta times as
    it would alone.  left counts a row's unused quotas, and bit r - 1 of
    held is set while one of its items is the r-th best so far, r <= K.  A
    trial leaves the arrays at position n, or once left and held are both
    0, and pays the popcount of held.
    """
    J = len(tau_rows) - 1
    t0 = tau_rows[1:, :K].min()
    pos = [g.binomial(n, t0, size) for g, size in zip(gens, sizes)]
    pos = [p[p < n] for p in pos]  # every item came before t0: payoff 0
    blk = np.repeat(np.arange(len(gens)), [len(p) for p in pos])
    pos = np.concatenate(pos)
    x = np.full(len(pos), t0)
    left = np.full(len(pos), J)
    held, top = np.zeros(len(pos), dtype=np.int64), (1 << K) - 1
    with np.errstate(over="ignore"):  # inf only where _next_potential scales
        p_n = _falling(n, K)
    edges = np.arange(len(gens) + 1)  # block b's rows: blk in [b, b + 1)
    warm, s, s2 = True, 0, 0
    while len(pos):
        b = np.searchsorted(blk, edges).tolist()
        cuts = [(g, a, e) for g, a, e in zip(gens, b, b[1:]) if a < e]
        u, w = np.empty((2, len(pos)))
        for g, a, e in cuts:
            g.random(out=u[a:e])
            g.random(out=w[a:e])
        # rows below position K step to the next item; skipped once none is
        if warm := warm and bool((pos < K).any()):
            nxt = np.where(pos < K, pos + 1, _next_potential(np.maximum(pos, K), n, K, u, p_n))
            k = 1 + (w * np.minimum(pos + 1, K)).astype(np.int64)
        else:
            nxt = _next_potential(pos, n, K, u, p_n)
            k = 1 + (w * K).astype(np.int64)
        # no potential arrival is left: step to n as an arrival of rank K + 1
        last = nxt == 0
        nxt[last] = n
        k[last] = K + 1
        sa, sb = nxt - pos, n - nxt + 1
        x += (1.0 - x) * np.concatenate([g.beta(sa[a:e], sb[a:e]) for g, a, e in cuts])
        pos = nxt
        # held ranks k and above move down one; rank K + 1 leaves the top K
        held = (held + (held >> (k - 1) << (k - 1))) & top
        take = _pick_quota(tau_rows, left, k, x)
        left -= take
        held |= take << (k - 1)  # never at k = K + 1, whose threshold is inf
        done = (pos == n) | ((left | held) == 0)
        if done.any():  # the popcount of held: its 8 bytes unpacked per row
            p = np.unpackbits(held[done, None].view(np.uint8), axis=1).sum(axis=1)
            s += int(p.sum())
            s2 += int((p * p).sum())
            keep = np.flatnonzero(~done)
            pos, x, left, held, blk = pos[keep], x[keep], left[keep], held[keep], blk[keep]
    return s, s2


def _chunk_stats(args: tuple) -> tuple[int, int]:
    """Sum and sum of squares of payoffs over the blocks [first, stop),
    GROUP_BLOCKS to a pass."""
    tau_rows, K, n, seed, trials, first, stop = args
    s = s2 = 0
    for a in range(first, stop, GROUP_BLOCKS):
        blocks = range(a, min(a + GROUP_BLOCKS, stop))
        sizes = [min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) for b in blocks]
        gs, gs2 = _group_stats(tau_rows, K, n, [trial_rng(seed, b) for b in blocks], sizes)
        s += gs
        s2 += gs2
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
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2**53], got {trials}")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in [1, 2**53], got {n}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    tau_rows = _policy_rows(tau)
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
        from concurrent.futures import ProcessPoolExecutor  # 11 ms to import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            s, s2 = map(sum, zip(*pool.map(_chunk_stats, jobs)))
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
