"""The value-function threshold solver against every reference there is:
exact K = 1 thetas, the K = 2 closed forms, the same equation integrated
by DOP853, the certified construction, the payoff formula and the
finite-n DP's own thresholds."""

import functools
import math
import warnings

import numpy as np
import pytest

from oracles import alpha, dp_thresholds, k2_closed_forms, tau_dop853
from reference_values import EXP_NEG_47_24
from secretary_lab import dp, dual, theta, value
from secretary_lab.cli import EXIT_NUMERIC, main

# The pairs of the benchmark's certify workload.
CERTIFY_PAIRS = [(J, K) for J in range(1, 5) for K in range(1, 5)] + [
    (6, 6), (4, 8), (8, 4), (2, 16), (16, 1), (8, 8), (16, 2), (8, 6)
]
DP_N = 4000
DP_PAIRS = CERTIFY_PAIRS + [(12, 11), (12, 12), (16, 16)]
# The DP's rows r <= J do not depend on J: one run per K serves every pair.
DP_J = {K: max(J for J, k in DP_PAIRS if k == K) for _, K in DP_PAIRS}


@functools.cache
def solved(J: int, K: int) -> value.Solution:
    return value.solve(J, K)


@functools.cache
def dp_run(K: int) -> tuple[float, list[list[float]], bool]:
    return dp_thresholds(DP_N, DP_J[K], K)


def test_k1_thresholds_are_exp_minus_theta():
    """K = 1, every row up to the J cap, against the exact thetas."""
    want = theta.thresholds(theta.generate_thetas(theta.MAX_J))
    got = [row[0] for row in solved(theta.MAX_J, 1).tau.tau]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_k1_threshold_3_is_the_frozen_reference():
    """t_3 = exp(-47/24), rounded once from the working precision, is the
    frozen 60-digit value's double; the solver's tau_{3,1} is within 1e-12."""
    assert theta.thresholds(theta.generate_thetas(3))[2] == EXP_NEG_47_24
    assert abs(value.solve(3, 1).tau.threshold(3, 1) - EXP_NEG_47_24) <= 1e-12


def test_k2_closed_forms():
    ref = k2_closed_forms()
    one, two = solved(1, 2), solved(2, 2)
    assert abs(one.tau.threshold(1, 1) - ref["tau11"]) <= 1e-12
    assert abs(one.tau.threshold(1, 2) - ref["tau12"]) <= 1e-12
    assert abs(one.payoff - ref["payoff12"]) <= 1e-12
    got = [two.tau.threshold(j, k) for j in (1, 2) for k in (1, 2)]
    want = [ref[name] for name in ("tau11", "tau12", "tau21", "tau22")]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    assert abs(two.payoff - ref["payoff22"]) <= 1e-12


@pytest.mark.parametrize(
    "J, K", [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (2, 8), (16, 1), (16, 2)]
)
def test_thresholds_match_the_dop853_integration(J, K):
    """The value-function equation integrated by scipy's DOP853, with one
    event per (r, k), gives every tau_{r,k} within 1e-9."""
    got = np.array(solved(J, K).tau.tau)
    assert np.max(np.abs(got - np.array(tau_dop853(J, K)))) <= 1e-9


@pytest.mark.parametrize("J, K", CERTIFY_PAIRS)
def test_matches_the_certified_construction(J, K):
    """The certificate is built at the solver's own thresholds, from its
    cells, and passes at grid 2000 and tolerance 1e-8: each q_{j|k}
    vanishes at tau_{j,k} within 1e-12."""
    cert = dual.construct_dual(J, K)
    assert cert.tau == solved(J, K).tau
    report = dual.verify_certificate(cert)
    assert report.ok, report.first_violation
    assert report.max_threshold_residual <= 1e-12


@pytest.mark.parametrize(
    "J, K", CERTIFY_PAIRS + [(12, 12), (16, 16), (1, 35), (16, 35)]
)
def test_payoff_is_the_value_at_zero(J, K):
    """W_J(0+) equals J - sum_j (1 - tau_{j,1})^K of the solver's own tau."""
    sol = solved(J, K)
    assert abs(sol.payoff - dual.payoff_jk(sol.tau)) <= 1e-12


@pytest.mark.parametrize("J, K", CERTIFY_PAIRS + [(16, 16), (1, 35), (16, 35)])
def test_threshold_order_at_the_envelope_edges(J, K):
    """Rows rise in k and columns fall in j, exactly, as ThresholdMatrix
    requires.  With no column rising, the policy's "take iff
    x >= tau_{m,k} with m unused quotas" (sim._pick_quota) is the rule
    "take the largest unused quota j with x >= tau_{j,k}"."""
    tau = np.array(solved(J, K).tau.tau)
    assert (np.diff(tau, axis=1) >= 0).all()
    assert (np.diff(tau, axis=0) <= 0).all()
    assert (tau > 0).all() and (tau <= 1).all()


def test_threshold_matrix_order_has_no_slack():
    """A column rising or a row falling by 1e-13 is out of order; equal
    neighbours are in order."""
    with pytest.raises(value.MonotonicityError, match="column 1 not decreasing in j at j=1"):
        value.ThresholdMatrix(2, 1, ((0.4,), (0.4 + 1e-13,)))
    with pytest.raises(value.MonotonicityError, match="row 1 not increasing in k at k=1"):
        value.ThresholdMatrix(1, 2, ((0.4, 0.4 - 1e-13),))
    value.ThresholdMatrix(2, 2, ((0.4, 0.4), (0.4, 0.4)))


def test_threshold_matrix_shape_is_checked():
    """A matrix with too few rows, or a row with too few entries, is refused
    before any entry is read."""
    for tau in (((0.5, 0.6),), ((0.5, 0.6), (0.4,))):
        with pytest.raises(ValueError, match="^threshold matrix shape mismatch$"):
            value.ThresholdMatrix(2, 2, tau)


def solve_fails(capsys, message: str) -> value.ValueSolveError:
    """value.solve(2, 2) raises ValueSolveError with the message, and
    `thresholds --J 2 --K 2`, which solves through construct_dual, exits 3
    printing it as its one error line; returns the solve's error."""
    with pytest.raises(value.ValueSolveError) as info:
        value.solve(2, 2)
    assert str(info.value) == message
    assert main(["thresholds", "--J", "2", "--K", "2"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    return info.value


def test_solve_refuses_to_run_below_the_floor(monkeypatch, capsys):
    """With the floor at t = -0.01, the first cell ends below it with
    thresholds still to find."""
    monkeypatch.setattr(value, "T_FLOOR", -0.01)
    solve_fails(capsys, "no threshold found above x=1e-09")


def test_solve_refuses_a_lower_pair_turning_first(monkeypatch, capsys):
    """With alpha's rows swapped, x alpha_1 is the smaller gain near x = 1,
    so pair (1, 1) turns non-positive before row 1's candidate (1, 2)."""
    rows = value.alphas
    monkeypatch.setattr(value, "alphas", lambda K, x: rows(K, x)[::-1])
    solve_fails(capsys, "row 1: a pair below k=2 turns non-positive first, at x=0.656022")


def test_solve_reports_an_unordered_matrix_as_its_own_failure(monkeypatch, capsys):
    """A threshold matrix out of order is a ValueSolveError, an
    ArithmeticError, chained to the MonotonicityError that found it."""

    def unordered(J, K, tau):
        raise value.MonotonicityError("column 1 not decreasing in j at j=1")

    monkeypatch.setattr(value, "ThresholdMatrix", unordered)
    error = solve_fails(capsys, "column 1 not decreasing in j at j=1")
    assert isinstance(error.__cause__, value.MonotonicityError)


@pytest.mark.parametrize(
    "J, K, message",
    [(17, 1, "J=17 exceeds the cap 16"), (17, 2, "J=17 exceeds the cap 16"),
     (1, 36, "K=36 exceeds the cap 35"), (0, 1, "J and K must be positive")],
)
def test_sizes_refused_as_the_construction_refuses_them(J, K, message):
    for solver in (value.solve, dual.construct_dual):
        with pytest.raises(ValueError) as info:
            solver(J, K)
        assert str(info.value) == message


def test_alphas_rows_are_alpha_bit_for_bit():
    rng = np.random.default_rng(7)
    xs = np.concatenate(
        [[0.0, 1.0, 0.5, 1e-9], rng.random(200), np.exp(-20 * rng.random(200))]
    )
    for K in range(1, value.MAX_K + 1):
        rows = value.alphas(K, xs)
        for k in range(1, K + 1):
            want = alpha(k, K, xs)
            assert rows[k - 1].tobytes() == want.tobytes(), (K, k)


def test_alphas_rows_do_not_depend_on_the_batch():
    """One point, two, a cell's 28 nodes or a strided view: each row of
    alphas has the bits of the whole batch, so einsum's sum over d keeps
    its order at every length."""
    xs = np.random.default_rng(8).random(301)
    for K in (1, 2, 3, 8, value.MAX_K):
        whole = value.alphas(K, xs)
        for at in (slice(0, 1), slice(5, 7), slice(3, 31), slice(None, None, 3)):
            assert value.alphas(K, xs[at]).tobytes() == whole[:, at].tobytes(), (K, at)


def test_solve_keeps_no_state():
    """No two of a solve's cell arrays share memory, writing into one
    solve's arrays leaves a second solve bitwise unchanged, and alphas'
    coefficient blocks are read-only."""
    names = ("bps", "tops", "w", "gain", "active")
    first = value.solve(3, 3)
    arrays = [getattr(first, name) for name in names]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :]), names[i]
    want = [a.tobytes() for a in arrays]
    for a in arrays:
        a[...] = -1
    second = value.solve(3, 3)
    assert (second.tau, second.payoff, second.half) == first[:3]
    assert [getattr(second, name).tobytes() for name in names] == want
    for K in (1, 3, value.MAX_K):
        block = value._term_coef(K)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 2.0


@pytest.mark.parametrize("J,K", [(1, 1), (2, 1), (4, 4), (16, 35)])
def test_solve_returns_its_cells_ascending_without_zero_widths(J, K):
    """The cells come as the certificate's arrays, ascending in x: each
    cell end is math.exp of a cell top, from tau_{J,1} up to 1, and
    strictly increasing, so no cell of zero width in x is kept ((2,1)
    has one in the solve)."""
    sol = solved(J, K)
    n = len(sol.tops)
    assert sol.bps.shape == (n + 1,)
    assert sol.w.shape == (n, J + 1, value.NODES)
    assert sol.gain.shape == (n, K, value.NODES)
    assert sol.active.shape == (n, J)
    assert np.all(np.diff(sol.tops) > 0)
    assert sol.bps[1:].tolist() == [math.exp(t) for t in sol.tops.tolist()]
    assert sol.bps[0] == sol.tau.threshold(J, 1)
    assert sol.bps[-1] == 1.0
    assert np.all(np.diff(sol.bps) > 0)


def test_interpolation_on_a_node_is_exact_and_silent():
    """A Newton iterate or root landing on a node divides by nothing."""
    values = np.random.default_rng(3).random((3, value.NODES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, s in enumerate(value.CHEB_S.tolist()):
            c = value._weights(s)
            assert (values @ c / c.sum()).tolist() == values[:, i].tolist()
        assert value._root(value.CHEB_S - value.CHEB_S[14], 14) == value.CHEB_S[14]


# -- the finite-n DP's thresholds -------------------------------------------


@pytest.mark.parametrize(
    "n, J, K", [(1, 1, 1), (2, 3, 4), (3, 5, 2), (57, 2, 3), (300, 3, 3), (200, 4, 1)]
)
def test_dp_thresholds_run_the_p_star_recursion(n, J, K):
    assert dp_thresholds(n, J, K)[0] == dp.p_star(n, J, K)


@pytest.mark.parametrize("J, K", DP_PAIRS)
def test_solver_within_2_over_n_of_the_dp_thresholds(J, K):
    """tau_n from the DP at n = 4000 lies within 2/n of tau, and every
    acceptance set of the DP is one interval ending at n."""
    _, tau_n, intervals = dp_run(K)
    assert intervals
    gap = np.max(np.abs(np.array(solved(J, K).tau.tau) - np.array(tau_n[:J])))
    assert DP_N * gap <= 2.0


def test_construction_within_2_over_n_of_the_dp_thresholds():
    """construct_dual's thresholds lie within 2/n of the DP's at the pairs
    where a root scan of a global x^m (ln x)^p construction missed them
    (by 3.3e-3 at tau_{12,11} and 1.4e-2 at tau_{12,12}) or found no root
    ((16,16))."""
    for J, K in [(12, 11), (12, 12), (16, 16)]:
        tau_n = np.array(dp_run(K)[1][:J])
        gap = np.max(np.abs(np.array(dual.construct_dual(J, K).tau.tau) - tau_n))
        assert DP_N * gap <= 2.0, (J, K)
