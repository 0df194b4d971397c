"""Simulation: instance sampling, policy replay, audits, Monte Carlo."""

import concurrent.futures
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import sim
from secretary_lab.cli import main
from secretary_lab.dual import construct_dual, payoff_jk
from secretary_lab.sim import (
    ArrivalInstance,
    BLOCK_TRIALS,
    MAX_ARRIVALS,
    MAX_N,
    MIN_POOL_BLOCKS,
    MAX_SEED,
    MAX_TRIALS,
    Selection,
    SimReport,
    Z_99,
    monte_carlo,
    run_threshold_algorithm,
    sample_arrivals,
    trial_rng,
    _chunk_stats,
    _falling,
    _group_stats,
    _next_potential,
    _pick_quota,
    _policy_rows,
    _potential_arrivals,
)
from secretary_lab.value import ThresholdMatrix, solve

import reference_values as ref
from oracles import potential_arrivals_by_layers, run_threshold_algorithm_reference


# -- instance sampling ---------------------------------------------------------


def test_single_item_instance():
    inst = sample_arrivals(1, trial_rng(0, 0))
    assert inst.n == 1
    assert inst.ranks.tolist() == [1]
    assert 0.0 <= inst.times[0] <= 1.0


def test_sampling_determinism():
    a = sample_arrivals(50, trial_rng(42, 7))
    b = sample_arrivals(50, trial_rng(42, 7))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.ranks, b.ranks)
    c = sample_arrivals(50, trial_rng(42, 8))
    assert not np.array_equal(a.ranks, c.ranks)


def test_sample_arrivals_stream_is_pinned():
    """The replay bench's instances come from this stream; a new sampling
    method (say sorted exponential spacings) must fail here, not change
    them silently."""
    inst = sample_arrivals(50, trial_rng(42, 7))
    assert inst.ranks[:8].tolist() == [45, 13, 37, 17, 7, 16, 28, 36]
    assert inst.times[:4].tolist() == [
        0.01624537113593727,
        0.024033434407145005,
        0.02879783695885707,
        0.06286740324837614,
    ]
    assert inst.times[-1] == 0.993636229139168


def test_sampled_instances_are_well_formed():
    for trial in range(20):
        inst = sample_arrivals(30, trial_rng(5, trial))
        assert np.all(np.diff(inst.times) > 0)
        assert sorted(inst.ranks.tolist()) == list(range(1, 31))


def test_first_position_holds_best_with_probability_one_over_n():
    n, draws = 5, 20_000
    hits = sum(
        sample_arrivals(n, trial_rng(99, t)).ranks[0] == 1 for t in range(draws)
    )
    p = hits / draws
    sigma = math.sqrt((1 / n) * (1 - 1 / n) / draws)
    assert abs(p - 1 / n) < 3 * sigma


class _NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


@pytest.mark.parametrize("n", [0, -1, MAX_ARRIVALS + 1, 10**12])
def test_sample_arrivals_refuses_before_any_draw_or_allocation(n):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_ARRIVALS"):
            sample_arrivals(n, _NoDraws())
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_arrival_cap_keeps_an_instance_within_its_budget():
    """18 bytes per item at the peak (times, ranks, two check masks), and
    the bench and test sizes (at most 1e5) stay far below the cap."""
    assert MAX_ARRIVALS >= 500 * 100_000
    n = 200_000
    sample_arrivals(10, trial_rng(1, 2))  # one-off allocations of a first call
    tracemalloc.start()
    try:
        sample_arrivals(n, trial_rng(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * n < peak <= 18 * n + (1 << 16)
    assert 18 * MAX_ARRIVALS <= 1 << 30


# -- explicit replay -------------------------------------------------------------


def _instance(times, ranks) -> ArrivalInstance:
    return ArrivalInstance(np.asarray(times, float), np.asarray(ranks, int))


def test_thresholds_at_one_select_nothing():
    tau = ThresholdMatrix(1, 1, ((1.0,),))
    inst = _instance([0.2, 0.5, 0.9], [2, 1, 3])
    assert run_threshold_algorithm(tau, inst) == 0


def test_zero_threshold_two_items_takes_first():
    """With the threshold at 0 the first arrival (always a potential) is
    taken; it wins exactly when position 1 holds rank 1."""
    tau = ThresholdMatrix(1, 1, ((1e-12,),))
    win = run_threshold_algorithm(tau, _instance([0.3, 0.6], [1, 2]))
    lose = run_threshold_algorithm(tau, _instance([0.3, 0.6], [2, 1]))
    assert win == 1 and lose == 0
    # exhaustive mean over both equally likely rank orders
    assert (win + lose) / 2 == 0.5


def test_constructed_miss_pays_zero():
    # best item arrives before the threshold; the later arrival is only a
    # 2-potential and one quota with K=1 cannot take it
    tau = ThresholdMatrix(1, 1, ((0.5,),))
    inst = _instance([0.1, 0.6], [1, 2])
    assert run_threshold_algorithm(tau, inst) == 0


def test_late_potential_is_selected():
    tau = ThresholdMatrix(1, 1, ((0.5,),))
    inst = _instance([0.1, 0.6], [2, 1])
    assert run_threshold_algorithm(tau, inst) == 1


def test_detailed_run_reports_selections():
    tau = ThresholdMatrix(2, 1, ((0.3,), (0.1,)))
    inst = _instance([0.15, 0.5, 0.8], [2, 3, 1])
    result = run_threshold_algorithm(tau, inst, detailed=True)
    # position 1 taken by quota 2 (matured at 0.1); position 2 is only a
    # 2-potential (ineligible for K=1); position 3 taken by quota 1
    assert [s.position for s in result.selections] == [1, 3]
    assert [s.quota for s in result.selections] == [2, 1]
    assert result.payoff == 1  # only the rank-1 item counts


def test_replay_audit_invariants():
    """>= 100 random instances: at most J selections, one per arrival,
    maturity respected, quota indices consumed largest-first."""
    cert = construct_dual(3, 2)
    tau = cert.tau
    audited = 0
    for trial in range(120):
        inst = sample_arrivals(60, trial_rng(2024, trial))
        result = run_threshold_algorithm(tau, inst, detailed=True)
        sels = result.selections
        assert len(sels) <= tau.J
        assert len({s.position for s in sels}) == len(sels)
        assert 0 <= result.payoff <= min(tau.J, tau.K)
        for s in sels:
            assert 1 <= s.potential <= tau.K
            assert s.time >= tau.threshold(s.quota, s.potential)
        quotas = [s.quota for s in sels]
        assert quotas == sorted(quotas, reverse=True)
        audited += 1
    assert audited >= 100


def test_payoff_counts_only_top_k_ranks():
    tau = ThresholdMatrix(2, 2, ((0.1, 0.2), (0.05, 0.1)))
    # positions 1 and 2 are both selected as 1-potentials, but position 1
    # holds rank 3 which lies outside the top K=2
    inst = _instance([0.3, 0.6, 0.9], [3, 2, 1])
    assert run_threshold_algorithm(tau, inst) == 1


def test_instance_validation():
    u64 = np.uint64
    bad = [
        ([0.3, 0.6], [5, 2]),  # not a permutation
        ([0.3], [1, 2]),  # unequal lengths
        ([0.3, 0.6], [1.5, 2.0]),  # float ranks
        ([0.3, 0.6], [1.0, 2.0]),  # float ranks, even when integral
        ([[0.3], [0.6]], [[1], [2]]),  # 2-D
        ([0.9, 0.1, 0.5], [1, 2, 3]),  # unsorted times
        ([0.9, 0.1, 7.0], [1, 2, 3]),  # unsorted, above 1
        ([0.1, 0.5, 7.0], [1, 2, 3]),  # above 1
        ([-0.1, 0.5], [1, 2]),  # below 0
        ([0.1, np.nan], [1, 2]),
        ([0.1, 0.2], [0, 1]),  # rank 0
        ([0.1, 0.2], [1, 3]),  # rank n + 1
        ([0.1, 0.2, 0.3], [1, 3, 3]),  # a duplicate in range
        ([0.1, 0.2], np.array([1, 2**63], u64)),  # beyond int64
        ([0.1, 0.2], np.array([2**64 - 1, 1], u64)),
        ([0.1, 0.2], np.array([True, False])),  # bool ranks
        ([np.nan, 0.2, 0.3], [1, 2, 3]),  # NaN first, middle, last, alone
        ([0.1, np.nan, 0.3], [1, 2, 3]),
        ([0.1, 0.2, np.nan], [1, 2, 3]),
        ([np.nan], [1]),
        ([-5e-324, 0.2], [1, 2]),  # one ulp outside [0, 1]
        ([0.1, np.nextafter(1.0, 2.0)], [1, 2]),
        ([], np.array([], float)),  # empty, but float ranks
    ]
    for times, ranks in bad:
        with pytest.raises(ValueError):
            ArrivalInstance(np.asarray(times, float), np.asarray(ranks))
    good = [
        ([], np.array([], int)),  # empty
        ([0.0, 0.0, 1.0], np.array([3, 1, 2], np.uint8)),  # exactly 0.0 and 1.0
        ([-0.0, 0.5], np.array([2, 1], u64)),  # -0.0 is not below 0
        ([0.5, 1.0, 1.0], np.array([1, 3, 2], np.int8)),
        ([1.0], [1]),
    ]
    for times, ranks in good:
        inst = ArrivalInstance(np.asarray(times, float), np.asarray(ranks))
        assert inst.n == len(ranks)


def _random_tau(rng, J: int, K: int) -> ThresholdMatrix:
    """Thresholds in (0, 1], increasing in k and decreasing in j."""
    t = np.maximum.accumulate(1.0 - rng.random((J, K)), axis=1)
    t = np.maximum.accumulate(t[::-1], axis=0)[::-1]
    return ThresholdMatrix(J, K, tuple(map(tuple, t.tolist())))


def test_replay_matches_fenwick_reference():
    """The filtered replay returns the arrival-by-arrival oracle's full
    RunResult on 3000 instances, n from 1 to 300."""
    rng = np.random.default_rng(17)
    taus = [construct_dual(2, 2).tau, construct_dual(4, 4).tau]
    pairs = [(1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (2, 4), (1, 3), (5, 2)]
    taus += [_random_tau(rng, J, K) for J, K in pairs]
    deep = 0
    for t in range(3000):
        tau = taus[t % len(taus)]
        inst = sample_arrivals(int(rng.integers(1, 301)), trial_rng(606, t))
        got = run_threshold_algorithm(tau, inst, detailed=True)
        assert got == run_threshold_algorithm_reference(tau, inst, detailed=True)
        assert run_threshold_algorithm(tau, inst) == got.payoff
        deep += sum(s.potential > 1 for s in got.selections)
    assert deep > 100


@pytest.mark.parametrize(
    "rows, times, ranks, picks, payoff",
    [
        # n = 1
        (((0.1, 0.2), (0.05, 0.1)), [0.5], [1], [(1, 1, 2)], 1),
        # n < K: both arrivals are 1-potentials
        (((0.1,) * 4, (0.1,) * 4), [0.2, 0.7], [2, 1], [(1, 1, 2), (2, 1, 1)], 2),
        # J > n
        (((0.1,),) * 3, [0.2, 0.7], [2, 1], [(1, 1, 3), (2, 1, 2)], 1),
        # thresholds at 1.0 take only an arrival at time 1.0
        (((1.0,),), [0.2, 0.5, 1.0], [2, 3, 1], [(3, 1, 1)], 1),
        # a time equal to tau is taken, one ulp below it is not
        (((0.5,),), [0.1, 0.5], [2, 1], [(2, 1, 1)], 1),
        (((0.5,),), [0.1, np.nextafter(0.5, 0.0)], [2, 1], [], 0),
    ],
)
def test_replay_edge_cases(rows, times, ranks, picks, payoff):
    """(position, potential, quota) per selection, and the oracle agrees."""
    tau = ThresholdMatrix(len(rows), len(rows[0]), rows)
    inst = _instance(times, ranks)
    got = run_threshold_algorithm(tau, inst, detailed=True)
    assert [(s.position, s.potential, s.quota) for s in got.selections] == picks
    assert got.payoff == payoff
    assert got == run_threshold_algorithm_reference(tau, inst, detailed=True)


def test_replay_stops_once_every_quota_is_used(monkeypatch):
    calls = []
    pick = sim._pick_quota
    monkeypatch.setattr(sim, "_pick_quota", lambda *a: calls.append(a) or pick(*a))
    drawn = []
    arrivals = sim._potential_arrivals
    monkeypatch.setattr(
        sim, "_potential_arrivals", lambda *a: (drawn.append(i) or i for i in arrivals(*a))
    )
    tau = ThresholdMatrix(1, 1, ((1e-12,),))
    # every arrival is a 1-potential, but the one quota goes to the first
    inst = _instance([0.2, 0.4, 0.6, 0.8], [4, 3, 2, 1])
    got = run_threshold_algorithm(tau, inst, detailed=True)
    assert got.selections == (Selection(position=1, time=0.2, potential=1, quota=1),)
    assert len(calls) == 1
    assert drawn == [(0, 1)]  # the later arrivals are never drawn


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(1, 8),
)
@example(list(range(1, 301)), 8)  # position m has m - 1 smaller predecessors
@example(list(range(300, 0, -1)), 8)  # every arrival is a 1-potential
def test_potential_filter_is_exact(perm, K):
    """Every position with fewer than K smaller predecessors is yielded,
    with 1 + that count as its potential rank, and no other position."""
    ranks = np.array(perm, dtype=np.int64)
    smaller = [int(np.count_nonzero(ranks[:pos] < r)) for pos, r in enumerate(ranks)]
    want = [(pos, c + 1) for pos, c in enumerate(smaller) if c < K]
    assert list(_potential_arrivals(ranks, K)) == want


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("K", [1, 2, 4, 16, 35])
def test_potential_filter_matches_layer_oracle_at_bench_sizes(n, K):
    ranks = sample_arrivals(n, trial_rng(n, K)).ranks
    got = list(_potential_arrivals(ranks, K))
    assert got == list(potential_arrivals_by_layers(ranks, K))
    assert got[-1][0] >= 2 * K  # past the first segment, where all are candidates


_SEGMENT_EDGES = {
    "2K-1": lambda K: 2 * K - 1,
    "2K": lambda K: 2 * K,
    "2K+1": lambda K: 2 * K + 1,
    "4K": lambda K: 4 * K,
    "4K+1": lambda K: 4 * K + 1,
    "K>n": lambda K: K // 2,
}


@pytest.mark.parametrize("K", [1, 2, 3, 5, 16, 35])
@pytest.mark.parametrize("edge", list(_SEGMENT_EDGES))
def test_potential_filter_at_segment_edges(K, edge):
    """Segments end at 2K, 4K, 8K, ...: n one short of, at and one past an
    edge, and n < K, where every arrival is a potential one."""
    n = _SEGMENT_EDGES[edge](K)
    rng = np.random.default_rng(100 * K + n)
    perms = [np.arange(1, n + 1), np.arange(n, 0, -1)]
    perms += [rng.permutation(n) + 1 for _ in range(20)]
    for ranks in perms:
        assert list(_potential_arrivals(ranks, K)) == list(
            potential_arrivals_by_layers(ranks, K)
        )


# -- sparse event path -----------------------------------------------------------


def test_next_potential_inverse_transform_matches_direct_simulation():
    """Gap law check: P(next potential position > m) for K=2 equals
    pos(pos-1)/(m(m-1)); compare the sampler to the closed form."""
    K, pos, n = 2, 6, 40
    draws = 30_000
    rng = trial_rng(31, 0)
    nxt = _next_potential(np.full(draws, pos), n, K, rng.random(draws), _falling(n, K))
    counts = np.bincount(nxt, minlength=n + 1)  # 0: no potential arrival by n
    assert counts[1 : pos + 1].sum() == 0

    def survival(m):
        return (pos * (pos - 1)) / (m * (m - 1))

    for m in (7, 9, 12, 20):
        want = survival(m - 1) - survival(m)
        got = counts[m] / draws
        sigma = math.sqrt(want * (1 - want) / draws)
        assert abs(got - want) < 4 * sigma
    none_rate = counts[0] / draws
    want_none = survival(n)
    sigma = math.sqrt(want_none * (1 - want_none) / draws)
    assert abs(none_rate - want_none) < 4 * sigma


def _falling_int(m, K):
    out = 1
    for t in range(K):
        out *= m - t
    return out


@pytest.mark.parametrize("K", [2, 20, 35])
def test_next_potential_matches_exact_arithmetic_at_largest_n(K):
    """At n = 2^53 the unscaled float products overflow from K = 20 on.
    Each answer m must bracket the exact inverse transform,
    F(m) v > F(pos) >= F(m - 1) v with F(m) = m(m-1)...(m-K+1), up to
    one rounding of the ratio (a tie at K = 2, pos = 2, v = 0.1 lands
    one past the exact answer); 0 means F(n) v <= F(pos)."""
    n = MAX_N
    eps = Fraction(1, 1 << 50)
    with np.errstate(over="ignore"):
        p_n = _falling(n, K)
    for pos in (K, 1 << 40, n - 1):
        for v in (0.9, 0.1, 1e-300, 5e-324):
            got = int(_next_potential(np.array([pos]), n, K, np.array([v]), p_n)[0])
            fv, fpos = Fraction(v), _falling_int(pos, K)
            if got == 0:
                assert _falling_int(n, K) * fv <= fpos * (1 + eps), (pos, v)
                continue
            assert pos < got <= n, (pos, v)
            assert _falling_int(got, K) * fv > fpos * (1 - eps), (pos, v, got)
            if got > pos + 1:
                assert _falling_int(got - 1, K) * fv <= fpos * (1 + eps), (pos, v, got)


def test_next_potential_ends_when_target_overflows():
    """A draw of 0 at K = 35 from pos = 2^10 overflows p_pos / v even
    after scaling; the answer still lies in (pos, n]."""
    with np.errstate(over="ignore"):
        p_n = _falling(MAX_N, 35)
    got = _next_potential(np.array([1 << 10]), MAX_N, 35, np.array([0.0]), p_n)
    assert 1 << 10 < got[0] <= MAX_N


@pytest.mark.parametrize("K", [20, 35])
def test_largest_n_runs_at_large_k(K):
    """(2, K) at n = 2^53 finishes and its mean sits near the payoff."""
    tau = construct_dual(2, K).tau
    t0 = time.monotonic()
    rep = monte_carlo(tau, n=MAX_N, trials=3000, seed=5)
    assert time.monotonic() - t0 < 20
    assert abs(rep.mean - payoff_jk(tau)) <= 5 * rep.stderr + 1e-3


def _pick_quota_reference(tau, unused, k, x):
    """The largest unused quota j with x >= tau_{j,k}, 0 if none."""
    for j in range(len(tau), 0, -1):
        if unused[j - 1] and x >= tau[j - 1][k - 1]:
            return j
    return 0


def test_pick_quota_rows_match_reference():
    """With columns that do not rise in j and unused quotas {1..left},
    taking iff x >= tau_{left,k} spends the quota the mask scan finds."""
    rng = np.random.default_rng(8)
    for J, K in ((1, 1), (3, 2), (4, 5)):
        tau = -np.sort(-rng.random((J, K)), axis=0)  # columns non-increasing in j
        tau[:, 0] = tau[0, 0]  # a column with equal entries
        tau_rows = np.pad(tau, ((1, 0), (0, 1)), constant_values=np.inf)
        rows = 500
        left = rng.integers(0, J + 1, rows)
        left[20:40] = 0  # no quota left: never takes
        k = rng.integers(1, K + 1, rows)
        x = rng.random(rows)
        x[:20] = tau[rng.integers(0, J, 20), k[:20] - 1]  # ties: x == tau
        got = _pick_quota(tau_rows, left, k, x)
        # the replay asks one arrival's scalars: the same verdict, ties included
        scalars = zip(left.tolist(), k.tolist(), x.tolist())  # int, int, float
        assert [_pick_quota(tau_rows, *a) for a in scalars] == got.tolist()
        unused = np.arange(J) < left[:, None]
        want = [_pick_quota_reference(tau, u, kk, xx) for u, kk, xx in zip(unused, k, x)]
        assert np.where(got, left, 0).tolist() == want
        assert 0 < np.count_nonzero(got) < rows
        assert not got[20:40].any()


def test_sparse_trial_bounds_and_determinism():
    tau = construct_dual(2, 2).tau
    rows = _policy_rows(tau)
    size = 300
    s, s2 = _group_stats(rows, 2, 500, [trial_rng(5, 11)], [size])
    assert (s, s2) == _group_stats(rows, 2, 500, [trial_rng(5, 11)], [size])
    assert (s, s2) != _group_stats(rows, 2, 500, [trial_rng(5, 12)], [size])
    assert 0 <= s <= s2 <= 2 * s <= 4 * size


@pytest.mark.parametrize(
    "J, K, n, block_trials, last",
    [
        # the scaled _next_potential path; blocks of 32 keep K = 35 quick,
        # and the grouping reads no block size
        (16, 35, MAX_N, 32, 20),
        (3, 5, 7, BLOCK_TRIALS, 300),  # rows below position K: the warm-up
        (2, 2, 10_000, BLOCK_TRIALS, 1000),
        (2, 2, 1, BLOCK_TRIALS, 1),  # a block with no live trial, as below
    ],
)
def test_grouping_leaves_the_sums_unchanged(monkeypatch, J, K, n, block_trials, last):
    """(s, s^2) over 1, 2, G, G + 1 and 2G + 3 blocks, the last one
    holding `last` trials, are the same with GROUP_BLOCKS at 1, 2 and 3
    as at its default G.  At n = 1 the thresholds start at 0.98, so at
    seed 0 each run's one-trial last block starts with no live row, and
    blocks end at different steps in the other cases."""
    monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    if n == 1:
        tau = ThresholdMatrix(2, 2, ((0.99, 1.0), (0.98, 1.0)))
    else:
        tau = solve(J, K).tau
    rows, G = _policy_rows(tau), sim.GROUP_BLOCKS
    # steps at K = 35 cost the most: there, only 1, 2 and G + 1 blocks
    for blocks in (1, 2, G + 1) if K == 35 else (1, 2, G, G + 1, 2 * G + 3):
        trials = (blocks - 1) * block_trials + last
        if n == 1:  # Binomial(1, t0) = 1: the trial came before t0
            assert trial_rng(0, blocks - 1).binomial(1, 0.98, 1)[0] == 1
        args = (rows, K, n, 0, trials, 0, blocks)
        monkeypatch.setattr(sim, "GROUP_BLOCKS", G)
        want = _chunk_stats(args)
        for group in (1, 2, 3):
            monkeypatch.setattr(sim, "GROUP_BLOCKS", group)
            assert _chunk_stats(args) == want, (blocks, group)


def _literal_tau(J: int, K: int) -> ThresholdMatrix:
    """tau_{j,k} = (k + J - j) / (J + K + 1): rows rise in k, columns fall
    in j, and no bit depends on value.solve."""
    return ThresholdMatrix(J, K, tuple(
        tuple((k + J - j) / (J + K + 1) for k in range(1, K + 1)) for j in range(1, J + 1)
    ))


# (s, s^2) of _chunk_stats at seed 3, recorded with numpy 2.4.6 and
# CPython 3.11 while the sampler kept one current rank per quota.  Should
# another numpy draw other Binomial or Beta streams, pin its sums apart;
# a tolerance would hide a changed payoff.
@pytest.mark.parametrize(
    "J, K, n, trials, rows, want",
    [
        # the bench's three simulate cases
        (2, 2, 10_000, 3000, None, (2831, 3887)),
        (2, 2, 10**9, 3000, None, (2909, 4057)),
        (4, 4, 10**9, 2000, None, (4751, 12667)),
        (1, 1, 10_000, 3000, None, (1082, 1082)),
        (3, 5, 7, 3000, None, (7191, 18441)),  # rows below position K
        # the second block's one trial came before t0 = 0.98: no live row
        (2, 2, 1, BLOCK_TRIALS + 1, ((0.99, 1.0), (0.98, 1.0)), (18, 18)),
        # the scaled _next_potential path; takes at k = K set the top rank
        (16, 35, MAX_N, 400, None, (5937, 88809)),
    ],
)
def test_sampler_sums_are_pinned(J, K, n, trials, rows, want):
    """A change to how the sampler tracks held ranks, drops them from
    the top K or ends a trial must fail here, not shift the payoff."""
    tau = _literal_tau(J, K) if rows is None else ThresholdMatrix(J, K, rows)
    blocks = -(-trials // BLOCK_TRIALS)
    assert _chunk_stats((_policy_rows(tau), K, n, 3, trials, 0, blocks)) == want


def _assert_block_kernel_matches_replay(J, K, n, trials, replay_seed, sim_seed):
    """Same payoff distribution from the explicit replay and the block
    kernel behind monte_carlo (4-sigma gates on E[p] and E[p^2])."""
    tau = construct_dual(J, K).tau
    explicit = [
        run_threshold_algorithm(tau, sample_arrivals(n, trial_rng(replay_seed, t)))
        for t in range(trials)
    ]
    rep = monte_carlo(tau, n=n, trials=trials, seed=sim_seed)
    sigma = math.sqrt(np.var(explicit) / trials + rep.stderr**2)
    assert abs(np.mean(explicit) - rep.mean) < 4 * sigma
    # second moment, which feeds stderr and ci99: the kernel's sum of
    # squares over trials, recovered from its mean and stderr; the
    # replay's variance of p^2 stands in for both sides'
    second = rep.stderr**2 * (trials - 1) + rep.mean**2
    squares = np.square(explicit)
    sigma2 = math.sqrt(2 * np.var(squares) / trials)
    assert abs(np.mean(squares) - second) < 4 * sigma2


def test_sparse_agrees_with_explicit_replay():
    _assert_block_kernel_matches_replay(2, 2, 120, 6000, 77, 78)


def test_sparse_agrees_with_explicit_replay_k1():
    _assert_block_kernel_matches_replay(1, 1, 100, 6000, 123, 124)


@pytest.mark.parametrize(
    "J, K, n, trials",
    [
        (3, 2, 500, 2000),
        (2, 2, 1, 3000),  # n = 1
        (2, 3, 2, 3000),  # n < K
        (4, 4, 2000, 3000),  # trials start deep in the instance
    ],
)
def test_block_kernel_agrees_with_explicit_replay(J, K, n, trials):
    _assert_block_kernel_matches_replay(J, K, n, trials, 55, 56)


def test_trials_start_at_the_smallest_threshold(monkeypatch):
    """No quota is consulted before tau_{J,1}, the smallest threshold."""
    tau = construct_dual(4, 4).tau
    t0 = tau.threshold(4, 1)
    assert t0 == min(map(min, tau.tau))
    low = [np.inf]  # smallest x passed; stays inf if never called
    pick = sim._pick_quota

    def spy(tau_rows, left, k, x):
        low[0] = min(low[0], x.min())
        return pick(tau_rows, left, k, x)

    monkeypatch.setattr(sim, "_pick_quota", spy)
    monte_carlo(tau, n=10**9, trials=2000, seed=5)
    assert t0 <= low[0] < 1.0


@pytest.mark.parametrize("n", [1, 3, 500])
def test_thresholds_at_one_pay_nothing(n):
    """Every item arrives before t0 = 1.0, so every trial ends before its
    first step."""
    tau = ThresholdMatrix(2, 2, ((1.0, 1.0), (1.0, 1.0)))
    rep = monte_carlo(tau, n=n, trials=3000, seed=8)
    assert (rep.mean, rep.stderr) == (0.0, 0.0)


# -- monte carlo -------------------------------------------------------------------


def test_monte_carlo_report_shape():
    tau = construct_dual(1, 1).tau
    rep = monte_carlo(tau, n=300, trials=2000, seed=9)
    assert rep.trials == 2000 and rep.seed == 9 and rep.n == 300
    assert 0.0 <= rep.mean <= 1.0
    lo, hi = rep.ci99
    assert hi - rep.mean == pytest.approx(Z_99 * rep.stderr, rel=1e-12)
    assert rep.mean - lo == pytest.approx(Z_99 * rep.stderr, rel=1e-12)


def test_monte_carlo_interval_contains_known_value():
    tau = construct_dual(1, 1).tau
    rep = monte_carlo(tau, n=2000, trials=20_000, seed=3)
    assert abs(rep.mean - math.exp(-1.0)) < 5 * rep.stderr + 0.01


def test_monte_carlo_deterministic_across_worker_counts(monkeypatch, pool_sizes):
    monkeypatch.setenv("SECRETARY_LAB_THREADS", "8")
    tau = construct_dual(2, 2).tau
    # enough blocks for 8 processes; the last block is partial
    trials = 8 * MIN_POOL_BLOCKS * BLOCK_TRIALS - 500
    reports = [
        monte_carlo(tau, n=500, trials=trials, seed=11, workers=w) for w in (1, 2, 3, 8)
    ]
    assert all(r == reports[0] for r in reports[1:])
    assert pool_sizes == [2, 3, 8]


def test_single_block_runs_without_pool(monkeypatch):
    """Below 2 * MIN_POOL_BLOCKS blocks, workers=2 runs in-process and
    prints what workers=1 prints."""
    tau = construct_dual(2, 2).tau
    runs = {}
    for blocks in (1, 2, 2 * MIN_POOL_BLOCKS - 1):
        trials = (blocks - 1) * BLOCK_TRIALS + 400
        runs[trials] = monte_carlo(tau, n=500, trials=trials, seed=11, workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("fewer than 2 * MIN_POOL_BLOCKS blocks started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for trials, one in runs.items():
        two = monte_carlo(tau, n=500, trials=trials, seed=11, workers=2)
        assert two == one, trials


def test_monte_carlo_json_round_trip(capsys):
    tau = construct_dual(1, 2).tau
    rep = monte_carlo(tau, n=200, trials=500, seed=4)
    argv = ["--J", "1", "--K", "2", "--n", "200", "--trials", "500", "--seed", "4"]
    assert main(["simulate", *argv, "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert list(parsed) == ["J", "K", "n", "trials", "seed", "mean", "stderr", "ci99"]
    assert parsed["J"] == 1 and parsed["K"] == 2
    assert parsed["mean"] == rep.mean


def test_monte_carlo_rejects_bad_trials():
    tau = construct_dual(1, 1).tau
    with pytest.raises(ValueError):
        monte_carlo(tau, n=10, trials=0, seed=1)


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**23])
def test_monte_carlo_refuses_too_many_trials_before_drawing(monkeypatch, trials):
    """10**23 trials would overflow the int64 block bounds."""

    def no_draw(*args):
        raise AssertionError("drew trials")

    monkeypatch.setattr(sim, "trial_rng", no_draw)
    tau = construct_dual(1, 1).tau
    with pytest.raises(ValueError, match="trials"):
        monte_carlo(tau, n=10, trials=trials, seed=1)


@pytest.mark.parametrize(
    "n, seed", [(0, 1), (MAX_N + 1, 1), (10, -1), (10, MAX_SEED + 1)]
)
def test_monte_carlo_rejects_out_of_range_n_and_seed(n, seed):
    tau = construct_dual(1, 1).tau
    with pytest.raises(ValueError):
        monte_carlo(tau, n=n, trials=10, seed=seed)


def test_monte_carlo_range_edges_run():
    tau = construct_dual(2, 2).tau
    top = monte_carlo(tau, n=MAX_N, trials=200, seed=MAX_SEED)
    assert 0.0 < top.mean <= 2.0
    assert top != monte_carlo(tau, n=MAX_N, trials=200, seed=0)


def test_mean_bounded_by_min_j_k():
    tau = construct_dual(3, 2).tau
    rep = monte_carlo(tau, n=300, trials=1500, seed=6)
    assert 0.0 <= rep.mean <= 2.0


def test_local_optimality_smoke():
    """At the constructed thresholds the simulated mean reaches the analytic
    payoff, and shifting any single threshold by +-0.1 never helps."""
    cert = construct_dual(2, 2)
    tau = cert.tau

    base = monte_carlo(tau, n=10_000, trials=12_000, seed=314, workers=2)
    assert base.mean > payoff_jk(tau) - 3 * base.stderr - 0.01
    seed = 2718
    for j in range(2):
        for k in range(2):
            for delta in (0.1, -0.1):
                rows = [list(r) for r in tau.tau]
                rows[j][k] += delta
                bumped = ThresholdMatrix(2, 2, tuple(tuple(r) for r in rows))
                seed += 1
                rep = monte_carlo(bumped, n=10_000, trials=12_000, seed=seed,
                                  workers=2)
                sigma = math.hypot(rep.stderr, base.stderr)
                assert rep.mean <= base.mean + 3 * sigma


def test_worker_env_cap(monkeypatch):
    from secretary_lab import sim

    monkeypatch.setenv("SECRETARY_LAB_THREADS", "1")
    assert sim.worker_cap() == 1
    tau = construct_dual(1, 1).tau
    one = monte_carlo(tau, n=100, trials=400, seed=2, workers=8)
    monkeypatch.delenv("SECRETARY_LAB_THREADS")
    many = monte_carlo(tau, n=100, trials=400, seed=2, workers=2)
    assert one == many
