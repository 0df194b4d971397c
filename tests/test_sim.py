"""Simulation: instance sampling, policy replay, audits, Monte Carlo."""

import json
import math

import numpy as np
import pytest

from secretary_lab import sim
from secretary_lab.dual import ThresholdMatrix, construct_dual
from secretary_lab.sim import (
    ArrivalInstance,
    BLOCK_TRIALS,
    MAX_N,
    MAX_SEED,
    SimReport,
    Z_99,
    monte_carlo,
    run_threshold_algorithm,
    sample_arrivals,
    trial_rng,
    _block_stats,
    _next_potential,
    _pick_quota,
)

import reference_values as ref


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
    with pytest.raises(ValueError):
        _instance([0.3, 0.6], [5, 2])
    with pytest.raises(ValueError):
        _instance([0.3], [1, 2])


# -- sparse event path -----------------------------------------------------------


def test_next_potential_inverse_transform_matches_direct_simulation():
    """Gap law check: P(next potential position > m) for K=2 equals
    pos(pos-1)/(m(m-1)); compare the sampler to the closed form."""
    K, pos, n = 2, 6, 40
    draws = 30_000
    rng = trial_rng(31, 0)
    nxt = _next_potential(np.full(draws, pos), n, K, rng.random(draws))
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


def _pick_quota_reference(tau_rows, unused, k, x):
    for j in range(len(tau_rows), 0, -1):
        if unused[j - 1] and x >= tau_rows[j - 1][k - 1]:
            return j
    return 0


def test_pick_quota_rows_match_reference():
    rng = np.random.default_rng(8)
    for J, K in ((1, 1), (3, 2), (4, 5)):
        tau = rng.random((J, K))
        rows = 500
        unused = rng.random((rows, J)) < 0.6
        k = rng.integers(1, K + 1, rows)
        x = rng.random(rows)
        x[:20] = tau[rng.integers(0, J, 20), k[:20] - 1]  # ties: x == tau
        got = _pick_quota(tau, unused, k, x)
        want = [_pick_quota_reference(tau, u, kk, xx) for u, kk, xx in zip(unused, k, x)]
        assert got.tolist() == want
        assert 0 < np.count_nonzero(got) < rows


def test_sparse_trial_bounds_and_determinism():
    tau = construct_dual(2, 2).tau
    rows = np.hstack([np.asarray(tau.tau), np.full((2, 1), np.inf)])
    size = 300
    s, s2 = _block_stats(rows, 2, 500, trial_rng(5, 11), size)
    assert (s, s2) == _block_stats(rows, 2, 500, trial_rng(5, 11), size)
    assert (s, s2) != _block_stats(rows, 2, 500, trial_rng(5, 12), size)
    assert 0 <= s <= s2 <= 2 * s <= 4 * size


def _assert_block_kernel_matches_replay(J, K, n, trials, replay_seed, sim_seed):
    """Same payoff distribution from the explicit replay and the block
    kernel behind monte_carlo (4-sigma gate)."""
    tau = construct_dual(J, K).tau
    explicit = [
        run_threshold_algorithm(tau, sample_arrivals(n, trial_rng(replay_seed, t)))
        for t in range(trials)
    ]
    rep = monte_carlo(tau, n=n, trials=trials, seed=sim_seed)
    sigma = math.sqrt(np.var(explicit) / trials + rep.stderr**2)
    assert abs(np.mean(explicit) - rep.mean) < 4 * sigma


def test_sparse_agrees_with_explicit_replay():
    _assert_block_kernel_matches_replay(2, 2, 120, 6000, 77, 78)


def test_sparse_agrees_with_explicit_replay_k1():
    _assert_block_kernel_matches_replay(1, 1, 100, 6000, 123, 124)


@pytest.mark.parametrize(
    "J, K, n, trials",
    [(3, 2, 500, 2000), (2, 2, 1, 3000), (2, 3, 2, 3000)],  # n = 1 and n < K edges
)
def test_block_kernel_agrees_with_explicit_replay(J, K, n, trials):
    _assert_block_kernel_matches_replay(J, K, n, trials, 55, 56)


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
    trials = 8 * BLOCK_TRIALS - 500
    reports = [
        monte_carlo(tau, n=500, trials=trials, seed=11, workers=w) for w in (1, 2, 3, 8)
    ]
    blobs = {r.to_json() for r in reports}
    assert len(blobs) == 1
    assert pool_sizes == [2, 3, 8]


def test_single_block_runs_without_pool(monkeypatch):
    tau = construct_dual(2, 2).tau
    one = monte_carlo(tau, n=500, trials=400, seed=11, workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a single block must not start a process pool")

    monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
    assert monte_carlo(tau, n=500, trials=400, seed=11, workers=2).to_json() == one.to_json()


def test_monte_carlo_json_round_trip():
    tau = construct_dual(1, 2).tau
    rep = monte_carlo(tau, n=200, trials=500, seed=4)
    parsed = json.loads(rep.to_json())
    assert list(parsed) == ["J", "K", "n", "trials", "seed", "mean", "stderr", "ci99"]
    assert parsed["J"] == 1 and parsed["K"] == 2
    assert parsed["mean"] == rep.mean


def test_monte_carlo_rejects_bad_trials():
    tau = construct_dual(1, 1).tau
    with pytest.raises(ValueError):
        monte_carlo(tau, n=10, trials=0, seed=1)


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
    assert top.to_json() != monte_carlo(tau, n=MAX_N, trials=200, seed=0).to_json()


def test_mean_bounded_by_min_j_k():
    tau = construct_dual(3, 2).tau
    rep = monte_carlo(tau, n=300, trials=1500, seed=6)
    assert 0.0 <= rep.mean <= 2.0


def test_local_optimality_smoke():
    """At the constructed thresholds the simulated mean reaches the analytic
    payoff, and shifting any single threshold by +-0.1 never helps."""
    cert = construct_dual(2, 2)
    tau = cert.tau
    from secretary_lab.dual import payoff_jk

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
    assert one.to_json() == many.to_json()
