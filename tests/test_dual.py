"""General (J,K) construction: alpha/gamma, the dual rows on the value
function's cells, the K = 2 closed-form oracle and certificate
verification."""

import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from secretary_lab.dual import (
    MAX_GRID_POINTS,
    construct_dual,
    payoff_jk,
    perturbed,
    verify_certificate,
)
from secretary_lab import dual, theta
from secretary_lab.cli import main
from secretary_lab.piecewise import PiecewiseFunction, _series
from secretary_lab.theta import generate_thetas, thresholds
from secretary_lab.value import MonotonicityError, ThresholdMatrix

import reference_values as ref
from oracles import (
    alpha,
    construct_dual_combine,
    gamma,
    k2_closed_forms,
    quadrature,
    scalar_tail,
    scalar_value,
    tail_integral_by_segment,
    values_by_segment,
    verify_certificate_rows,
    verify_certificate_scalar,
)


# -- alpha / gamma ----------------------------------------------------------


def test_alpha_top_rank_is_power():
    rng = random.Random(3)
    for _ in range(60):
        K = rng.randint(1, 6)
        x = rng.random()
        assert alpha(K, K, x) == pytest.approx(x ** (K - 1), rel=1e-13)


def test_alpha_hand_value():
    assert alpha(1, 2, 0.25) == pytest.approx(1.75)


def test_alpha_k1_is_constant_one():
    for x in (0.0, 0.3, 1.0):
        assert alpha(1, 1, x) == 1.0


def test_alpha_zero_power_convention():
    # 0**0 = 1 makes alpha_1(0) = K and alpha_k(0) = 0 for k > 1
    assert alpha(1, 3, 0.0) == 3.0
    assert alpha(2, 3, 0.0) == 0.0


def test_gamma_top_is_identically_K():
    rng = random.Random(4)
    for _ in range(60):
        K = rng.randint(1, 6)
        x = rng.random()
        assert gamma(K, K, x) == pytest.approx(K, rel=1e-13)


def test_gamma_first_is_alpha_and_hand_value():
    assert gamma(1, 4, 0.37) == pytest.approx(alpha(1, 4, 0.37))
    assert gamma(2, 2, 0.3) == pytest.approx(2.0)


def test_gamma_at_zero_is_K():
    for K in range(1, 6):
        for k in range(1, K + 1):
            assert gamma(k, K, 0.0) == pytest.approx(K)


def test_alpha_bounds_validation():
    with pytest.raises(ValueError):
        alpha(0, 2, 0.5)
    with pytest.raises(ValueError):
        alpha(3, 2, 0.5)


def _x_alpha_slope(k: int, K: int, x: Fraction) -> Fraction:
    """(x alpha_k(x))' exactly: x alpha_k = sum_l C(l-1, k-1) (1-x)^(l-k) x^k."""
    return sum(
        comb(el - 1, k - 1)
        * (k * x ** (k - 1) * (1 - x) ** (el - k) - (el - k) * x**k * (1 - x) ** (el - k - 1))
        for el in range(k, K + 1)
    )


def test_monotone_properties_of_alpha():
    """(x alpha_k(x))' > 0 and alpha_k > alpha_(k+1) on (0,1)."""
    rng = random.Random(17)
    checked = 0
    for _ in range(150):
        K = rng.randint(2, 6)
        k = rng.randint(1, K)
        x = rng.uniform(1e-3, 1.0 - 1e-3)
        assert _x_alpha_slope(k, K, Fraction(x)) > 0
        if k < K:
            assert alpha(k, K, x) > alpha(k + 1, K, x)
        checked += 1
    assert checked >= 100


# -- the dual functions in closed form -----------------------------------------


def test_solver_base_case_closed_form():
    """J = 1: on [tau_{1,K}, 1] every pair is active and W_1 solves
    W' = K W / x - K with W(1) = 0, so r_{1|K} = -W' is
    K^2/(K-1) x^(K-1) - K/(K-1)."""
    for K in (2, 3, 4):
        cert = construct_dual(1, K)
        t = cert.tau.threshold(1, K)
        for x in (t, 0.5 * (t + 1.0), 0.95, 1.0):
            want = K * K / (K - 1) * x ** (K - 1) - K / (K - 1)
            assert cert.r_top(1).value(x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_solver_reproduces_log_solution():
    """J = K = 1: W_1 = -x ln x above 1/e, so q_{1|1} = 1 + ln x there."""
    q = construct_dual(1, 1).q[0][0]
    assert q.lo == pytest.approx(math.exp(-1.0), abs=1e-15)
    for x in (math.exp(-1.0), 0.4, 0.85, 1.0):
        assert q.value(x) == pytest.approx(1.0 + math.log(x), abs=1e-12)
    assert q.value(0.3) == 0.0


def test_solver_boundary_value_zero():
    """Each q_{j|k} starts at its threshold with value zero, and stays
    positive above it."""
    cert = construct_dual(3, 3)
    for j in range(1, 4):
        for k in range(1, 4):
            q, t = cert.q[j - 1][k - 1], cert.tau.threshold(j, k)
            assert q.lo == t
            assert abs(q.value(t)) <= 1e-14
            assert (q.values(np.linspace(t, 1.0, 200)[1:]) > 0.0).all(), (j, k)


def test_solver_residual_with_piecewise_g():
    """Substituting the functions back into q_{j|k}(x) + (1/x) int_x^1
    [r_{j|K} - r_{j-1|K}] = alpha_k(x) leaves machine-level residuals,
    with q and the integrals evaluated one point at a time by the oracles,
    on the breakpoints too."""
    cert = construct_dual(4, 3)
    for j in range(1, 5):
        diff = cert.r_top(j).combine(cert.r_top(j - 1), 1.0, -1.0)
        tail = scalar_tail(diff)
        for k in range(1, 4):
            q = scalar_value(cert.q[j - 1][k - 1])
            t = cert.tau.threshold(j, k)
            for x in [t, 0.3, 0.55, 0.8, 1.0] + diff.breakpoints:
                if x >= t:
                    assert abs(q(x) + tail(x) / x - alpha(k, 3, x)) < 1e-12, (j, k, x)


def test_solver_integrals_cross_checked_by_quadrature():
    """Integrals of the dual functions against adaptive quadrature of
    their values, across cells."""
    cert = construct_dual(2, 3)
    for f in (cert.q[1][0], cert.r_top(2), cert.r[0][1]):
        for a, b in ((0.3, 1.0), (f.lo, 0.7), (0.05, 0.5)):
            want = quadrature(f.value, max(a, f.lo), b, tol=1e-13)
            assert f.integral(a, b) == pytest.approx(want, abs=1e-10)


# -- construction -----------------------------------------------------------


def test_construct_12_matches_closed_form():
    cert = construct_dual(1, 2)
    assert cert.tau.threshold(1, 2) == pytest.approx(ref.TAU_1_2, abs=1e-9)
    assert cert.tau.threshold(1, 1) == pytest.approx(ref.TAU_1_1, abs=1e-9)
    assert payoff_jk(cert.tau) == pytest.approx(ref.PAYOFF_12, abs=1e-9)


def test_construct_22_matches_closed_form():
    cert = construct_dual(2, 2)
    assert cert.tau.threshold(2, 2) == pytest.approx(ref.TAU_2_2, abs=1e-9)
    assert cert.tau.threshold(2, 1) == pytest.approx(ref.TAU_2_1, abs=1e-9)
    assert payoff_jk(cert.tau) == pytest.approx(ref.PAYOFF_22, abs=1e-9)


def test_construct_k1_matches_exact_thresholds():
    tvals = thresholds(generate_thetas(3))
    cert = construct_dual(3, 1)
    for j in range(1, 4):
        assert cert.tau.threshold(j, 1) == pytest.approx(tvals[j - 1], abs=1e-12)


def test_k1_calls_no_theta_function(monkeypatch):
    """K = 1 runs the one float construction: nothing of theta is called."""

    def refuse(*args, **kwargs):
        raise AssertionError("construct_dual called into theta")

    for name, value in vars(theta).items():
        if callable(value) and getattr(value, "__module__", None) == theta.__name__:
            monkeypatch.setattr(theta, name, refuse)
    cert = construct_dual(5, 1)
    assert cert.J == 5 and len(cert.q) == 5


def _assert_same_function(got: PiecewiseFunction, want: PiecewiseFunction, where):
    """The same breakpoints and cells, and each Chebyshev coefficient within
    1e-12 of the reference, relative to the segment's largest (or 1): the
    certificate drops the coefficients under dual.CHOP of the largest."""
    assert got.breakpoints == want.breakpoints, where
    for mine, theirs in zip(got.segments, want.segments, strict=True):
        assert (mine.top, mine.half) == (theirs.top, theirs.half), where
        kept = len(mine.coef)
        scale = max(1.0, np.abs(theirs.coef).max())
        assert np.abs(mine.coef - theirs.coef[:kept]).max() <= 1e-12 * scale, where
        assert np.abs(theirs.coef[kept:]).max(initial=0.0) <= dual.CHOP * 100 * scale, where


@pytest.mark.parametrize(
    "J,K", [(2, 2), (3, 3), (4, 8), (8, 6), (8, 8), (16, 2), (2, 16)]
)
def test_rows_match_combine_reference(J, K):
    """The rows built for all cells at once equal the rows built one cell
    at a time and joined by combine chains, at value.solve's thresholds."""
    got = construct_dual(J, K)
    want = construct_dual_combine(J, K)
    assert got.tau == want.tau
    for j in range(1, J + 1):
        for k in range(K):
            _assert_same_function(got.q[j - 1][k], want.q[j - 1][k], (j, k + 1))
        _assert_same_function(got.r_top(j), want.r_top(j), j)


@pytest.mark.parametrize("J,K", [(8, 8), (12, 12)])
def test_construction_builds_little_below_each_threshold(J, K):
    """Nothing is built below a threshold: q_{j|k} starts at tau_{j,k} and
    the running sums at tau_{j,1}, each on the solve's cells above."""
    cert = construct_dual(J, K)
    tops = {math.exp(cell.top) for cell in cert.cells}
    for j in range(1, J + 1):
        for k in range(1, K + 1):
            q = cert.q[j - 1][k - 1]
            assert q.lo == cert.tau.threshold(j, k), (j, k)
            assert set(q.breakpoints) <= tops | {q.lo}, (j, k)
            assert cert.r[j - 1][k - 1].breakpoints == cert.q[j - 1][0].breakpoints


@pytest.mark.parametrize("J,K", [(2, 2), (3, 3), (4, 8), (8, 6)])
def test_running_sums_match_q_rows(J, K):
    """r_{j|k} = q_{j|1} + ... + q_{j|k}, segment by segment, for every k:
    each q_{j|l} lies on the top cells of r_{j|k}, and each Chebyshev
    coefficient is within 1e-12 of the sum, relative to the segment's
    largest coefficient."""
    cert = construct_dual(J, K)
    for j in range(1, J + 1):
        row = cert.q[j - 1]
        for k in range(1, K + 1):
            r = cert.r[j - 1][k - 1]
            assert r.breakpoints == row[0].breakpoints, (j, k)
            segs = r.segments
            total = np.zeros((len(segs), len(segs[0].coef)))
            for q in row[:k]:
                n = len(q.segments)
                assert q.breakpoints == r.breakpoints[len(segs) - n :], (j, k)
                for i, part in enumerate(q.segments, len(segs) - n):
                    assert (part.top, part.half) == (segs[i].top, segs[i].half), (j, k)
                    total[i] += part.coef
            for seg, want in zip(segs, total):
                scale = max(1.0, np.abs(seg.coef).max())
                assert np.abs(seg.coef - want).max() <= 1e-12 * scale, (j, k)


def _no_rows(cert):
    raise AssertionError("dual rows built")


def _no_arrays(cert):
    raise AssertionError("dual arrays built")


def test_threshold_readers_build_no_rows(monkeypatch, capsys):
    """tau, simulate and finite-lp build no cell arrays and read no q or
    r row; reading q or r builds. K = 1 keeps its rows as cells too."""
    monkeypatch.setattr(dual, "_cell_rows", _no_rows)
    monkeypatch.setattr(dual, "_cell_arrays", _no_arrays)
    for J, K in ((4, 4), (3, 1)):
        cert = construct_dual(J, K)
        assert len(cert.tau.tau) == J
        argv = ["--J", str(J), "--K", str(K)]
        assert main(["simulate", *argv, "--n", "1000", "--trials", "300"]) == 0
        assert main(["finite-lp", *argv, "--n", "20"]) == 0
        for name in ("q", "r"):
            with pytest.raises(AssertionError, match="dual rows built"):
                getattr(cert, name)


@pytest.mark.parametrize("J,K", [(3, 3), (2, 4), (4, 2)])
def test_rows_built_on_read_match_combine_reference(J, K):
    """q and r, built on the first read of either (r first here), equal the
    one-cell-at-a-time reference, and a perturbed copy of an unread
    certificate builds the same rows."""
    want = construct_dual_combine(J, K)
    got = construct_dual(J, K)
    shifted = perturbed(construct_dual(J, K), 0.01)
    for name in ("r", "q"):
        for cert in (got, shifted):
            for row_got, row_want in zip(getattr(cert, name), getattr(want, name)):
                for f_got, f_want in zip(row_got, row_want, strict=True):
                    _assert_same_function(f_got, f_want, name)
    assert shifted.tau.threshold(1, 1) == got.tau.threshold(1, 1) + 0.01
    copy = perturbed(got, 0.01)  # builds its own rows on read
    assert "_rows" not in vars(copy) and "_arrays" not in vars(copy)
    assert not verify_certificate(shifted, grid_points=500).ok


def test_dual_functions_12_match_hand_solution():
    """q_{1|1} = x and q_{1|2} = 3x-2 above 2/3; q_{1|1} = 2 ln(3x/2) - 2x + 2
    between the thresholds."""
    cert = construct_dual(1, 2)
    q1, q2 = cert.q[0]
    for x in (0.7, 0.85, 1.0):
        assert q1.value(x) == pytest.approx(x, abs=1e-10)
        assert q2.value(x) == pytest.approx(3 * x - 2, abs=1e-10)
    for x in (0.4, 0.5, 0.6):
        assert q1.value(x) == pytest.approx(
            2 * math.log(1.5 * x) - 2 * x + 2, abs=1e-10
        )
        assert q2.value(x) == 0.0


def test_threshold_matrix_monotonicity_held_everywhere():
    for J, K in ((1, 3), (2, 2), (3, 2), (2, 3)):
        tau = construct_dual(J, K).tau
        for j in range(1, J + 1):
            for k in range(1, K):
                assert tau.threshold(j, k) <= tau.threshold(j, k + 1)
        for k in range(1, K + 1):
            for j in range(1, J):
                assert tau.threshold(j + 1, k) <= tau.threshold(j, k)


def test_threshold_matrix_rejects_bad_orderings():
    with pytest.raises(MonotonicityError):
        ThresholdMatrix(2, 1, ((0.2,), (0.4,)))  # column must decrease
    with pytest.raises(MonotonicityError):
        ThresholdMatrix(1, 2, ((0.5, 0.3),))  # row must increase
    with pytest.raises(MonotonicityError):
        ThresholdMatrix(1, 1, ((0.0,),))


def test_q_dominance_within_rows():
    cert = construct_dual(2, 3)
    for j in range(1, 3):
        for k in range(2, 4):
            t = cert.tau.threshold(j, k)
            for i in range(1, 200):
                x = t + (1.0 - t) * i / 200
                if x >= 1.0:
                    continue
                assert cert.q[j - 1][k - 2].value(x) > cert.q[j - 1][k - 1].value(x)


def test_running_sum_dominance_across_rows():
    cert = construct_dual(3, 2)
    for j in range(2, 4):
        t = cert.tau.threshold(j, 1)
        for i in range(1, 300):
            x = t + (1.0 - t) * i / 301
            assert cert.r_top(j).value(x) > cert.r_top(j - 1).value(x) - 1e-12


def test_payoff_formula_k1_reduces_to_threshold_sum():
    cert = construct_dual(4, 1)
    tvals = [cert.tau.threshold(j, 1) for j in range(1, 5)]
    assert payoff_jk(cert.tau) == pytest.approx(sum(tvals), rel=1e-12)


def test_quoted_payoffs():
    assert payoff_jk(construct_dual(1, 2).tau) == pytest.approx(
        ref.PAYOFF_12_QUOTED, abs=1e-6
    )
    assert payoff_jk(construct_dual(2, 2).tau) == pytest.approx(
        ref.PAYOFF_22_QUOTED, abs=1e-5
    )


# -- closed forms -----------------------------------------------------------


def test_closed_form_12_values():
    cf = k2_closed_forms()
    assert cf["payoff12"] == pytest.approx(ref.PAYOFF_12_QUOTED, abs=1e-6)
    assert cf["tau11"] == pytest.approx(ref.TAU_1_1_QUOTED, abs=1e-6)
    assert cf["tau12"] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_closed_form_12_payoff_identity():
    cf = k2_closed_forms()
    assert cf["payoff12"] == pytest.approx(1.0 - (1.0 - cf["tau11"]) ** 2, rel=1e-14)


def test_closed_form_12_lambert_relation():
    cf = k2_closed_forms()
    w = -cf["tau11"]
    assert abs(w * math.exp(w) - (-2.0 / (3.0 * math.e))) <= 1e-12


def test_closed_form_22_values():
    cf = k2_closed_forms()
    assert cf["tau22"] == pytest.approx(ref.TAU_2_2_QUOTED, abs=1e-5)
    assert cf["tau21"] == pytest.approx(ref.TAU_2_1_QUOTED, abs=1e-5)
    assert cf["payoff22"] == pytest.approx(ref.PAYOFF_22_QUOTED, abs=1e-5)
    # high-precision frozen oracle values
    assert cf["tau22"] == pytest.approx(ref.TAU_2_2, abs=1e-12)
    assert cf["tau21"] == pytest.approx(ref.TAU_2_1, abs=1e-12)
    assert cf["payoff22"] == pytest.approx(ref.PAYOFF_22, abs=1e-12)


# -- verification -----------------------------------------------------------


def test_verify_12_certificate_tight():
    report = verify_certificate(construct_dual(1, 2), grid_points=1500, tol=1e-8)
    assert report.ok
    assert report.max_equality_residual <= 1e-10


def test_verify_22_objective():
    report = verify_certificate(construct_dual(2, 2), grid_points=1500, tol=1e-8)
    assert report.ok
    assert report.dual_objective == pytest.approx(ref.PAYOFF_22_QUOTED, abs=1e-5)
    assert report.objective_gap <= 1e-9


def test_verify_flags_perturbed_certificate():
    cert = perturbed(construct_dual(2, 2), 0.01)
    report = verify_certificate(cert, grid_points=500, tol=1e-8)
    assert not report.ok
    assert report.first_violation is not None
    assert report.max_threshold_residual > 1e-4


REPORT_FLOATS = (
    "max_equality_residual",
    "min_inequality_slack",
    "max_threshold_residual",
    "min_q_value",
    "dual_objective",
    "objective_gap",
)


@pytest.mark.parametrize(
    "J, K, perturb",
    [(1, 2, 0.0), (3, 3, 0.0), (2, 4, 0.0), (2, 2, 0.01), (16, 2, 0.0),
     (6, 6, 0.0), (2, 2, 0.0)],
)
def test_array_verifier_matches_scalar_oracle(J, K, perturb):
    """Same verdict and first violation as the point-by-point check, which
    evaluates the cells by another recurrence and numpy's chebint;
    residuals agree to 1e-12 absolute."""
    cert = construct_dual(J, K)
    if perturb:
        cert = perturbed(cert, perturb)
    got = verify_certificate(cert, grid_points=2000, tol=1e-8)
    want = verify_certificate_scalar(cert, grid_points=2000, tol=1e-8)
    assert got.ok == want.ok
    assert got.first_violation == want.first_violation
    for field in REPORT_FLOATS:
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
    assert (got.J, got.K, got.tolerance, got.grid_points, got.payoff) == (
        want.J, want.K, want.tolerance, want.grid_points, want.payoff
    )


@pytest.mark.parametrize(
    "J, K, perturb",
    [(2, 2, 0.0), (4, 8, 0.0), (8, 8, 0.0), (16, 2, 0.0), (2, 16, 0.0),
     (16, 1, 0.0), (2, 2, 0.01)],
)
def test_verify_equals_per_segment_oracles(monkeypatch, J, K, perturb):
    """The per-cell array check gives the verdict and first violation of
    the row-by-row check, run on the rows with per-segment evaluation;
    residuals agree to 1e-12 absolute."""
    cert = construct_dual(J, K)
    if perturb:
        cert = perturbed(cert, perturb)
    got = verify_certificate(cert)
    monkeypatch.setattr(PiecewiseFunction, "values", values_by_segment)
    monkeypatch.setattr(PiecewiseFunction, "tail_integral", tail_integral_by_segment)
    want = verify_certificate_rows(cert)
    assert (got.ok, got.first_violation) == (want.ok, want.first_violation)
    for field in REPORT_FLOATS:
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
    assert got == verify_certificate(cert)


@pytest.mark.parametrize("J, K, perturb", [(2, 2, 0.0), (8, 8, 0.0), (4, 4, 0.01)])
def test_report_does_not_depend_on_the_chunk_size(monkeypatch, J, K, perturb):
    """Chunks of a few points (61 values: 10 points at (2,2), 2 at (8,8)),
    which split cells and the grid, give the report that the default
    chunks give, field for field."""
    cert = construct_dual(J, K)
    if perturb:
        cert = perturbed(cert, perturb)
    whole = verify_certificate(cert)
    monkeypatch.setattr(dual, "CHUNK_VALUES", 61)
    assert verify_certificate(cert) == whole


@pytest.mark.parametrize("J, K", [(2, 2), (8, 8), (2, 16), (16, 1)])
def test_series_values_do_not_depend_on_the_batch(J, K):
    """Every point's series values have the same bits in the whole set,
    in random sub-batches, alone and shuffled: for the certificate's cell
    arrays and for one of their rows laid out degree-contiguous, as a
    PiecewiseFunction holds its coefficients (a lone point with a
    contiguous basis column would take einsum's unrolled sum)."""
    arr = construct_dual(J, K)._arrays
    rng = np.random.default_rng(100 * J + K)
    x = np.sort(np.concatenate([rng.uniform(arr.bps[0], 1.0, 600), arr.bps]))
    cell, s, _ = arr.locate(x)
    one_row = np.ascontiguousarray(arr.coef[:, 0].T).T
    for coef in (arr.coef, one_row):
        whole = _series(coef, cell, s)
        for size in [1] * 30 + rng.integers(2, len(x), 30).tolist():
            at = np.sort(rng.choice(len(x), size, replace=False))
            assert _series(coef, cell[at], s[at]).tobytes() == whole[..., at].tobytes()
        shuffled = rng.permutation(len(x))
        assert _series(coef, cell[shuffled], s[shuffled]).tobytes() == (
            whole[..., shuffled].tobytes()
        )


@pytest.mark.parametrize("grid", [7, 2000])
@pytest.mark.parametrize("J, K", [(1, 1), (1, 4), (4, 4)])
def test_points_below_the_lowest_cell_match_the_row_by_row_check(monkeypatch, J, K, grid):
    """Below the lowest cell the check evaluates no series; its report is
    still the row-by-row check's (same verdict and first violation,
    residuals within 1e-12), and NaN in the lowest cell's gain row still
    fails.  Grid 7 puts no point below (4,4)'s lowest cell, at 0.1305."""
    cert = construct_dual(J, K)
    arr = cert._arrays
    assert (1 / grid < arr.bps[0]) == ((J, K, grid) != (4, 4, 7))
    got = verify_certificate(cert, grid_points=grid)
    with monkeypatch.context() as patch:
        patch.setattr(PiecewiseFunction, "values", values_by_segment)
        patch.setattr(PiecewiseFunction, "tail_integral", tail_integral_by_segment)
        want = verify_certificate_rows(cert, grid_points=grid)
    assert (got.ok, got.first_violation) == (want.ok, want.first_violation)
    for field in REPORT_FLOATS:
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
    arr.coef[:, 0, 0] = math.nan
    planted = verify_certificate(cert, grid_points=grid)
    assert not planted.ok
    assert planted.first_violation.endswith("nan"), planted.first_violation


# The pairs of the benchmark's certify workload.
CERTIFY_PAIRS = [(J, K) for J in range(1, 5) for K in range(1, 5)] + [
    (6, 6), (4, 8), (8, 4), (2, 16), (16, 1), (8, 8), (16, 2), (8, 6)
]


@pytest.mark.parametrize("J, K", CERTIFY_PAIRS)
def test_report_passes_iff_it_names_no_violation(J, K):
    """ok is exactly "no violation named", for passing and failing
    certificates alike."""
    cert = construct_dual(J, K)
    for delta in (0.0, 0.01, -0.01, -0.001):
        try:
            shifted = perturbed(cert, delta) if delta else cert
        except MonotonicityError:
            continue  # tau_{1,1} + delta leaves (0, 1] or breaks the order
        for grid in (1, 7, 2000):
            for tol in (0.0, 1e-8):
                report = verify_certificate(shifted, grid_points=grid, tol=tol)
                assert report.ok == (report.first_violation is None), (
                    delta, grid, tol, report
                )


# Edges of the (J, K) envelope: J = 1..12 at K = 1 and 12, K = 1..12 at
# J = 1 and 12, the corner J = K = 16, and K = MAX_K.
ENVELOPE_PAIRS = sorted(
    {(J, K) for J in range(1, 13) for K in (1, 12)}
    | {(J, K) for K in range(1, 13) for J in (1, 12)}
    | {(8, 8), (16, 2), (2, 16), (16, 16), (2, 35)}
)


@pytest.mark.parametrize("J, K", ENVELOPE_PAIRS)
def test_certificate_passes_at_the_envelope_edges(J, K):
    """At the defaults of dual-check (grid 2000, tolerance 1e-8), with the
    dual objective within 1e-11 of the payoff (7.6e-13 at (16,35))."""
    report = verify_certificate(construct_dual(J, K))
    assert report.ok, report.first_violation
    assert report.objective_gap <= 1e-11


def test_equality_residual_at_16_2_is_that_of_its_float_certificate():
    """Row differences integrated on the shared cells' coefficients keep
    the (16,2) residual at 8.26e-13, the exact residual of its float
    coefficients; summing each row's own integrals gave 1.09e-12."""
    report = verify_certificate(construct_dual(16, 2))
    assert report.max_equality_residual <= 9e-13


def test_nan_objective_gap_fails_with_a_named_violation(monkeypatch):
    monkeypatch.setattr(dual, "payoff_jk", lambda tau: math.nan)
    report = verify_certificate(construct_dual(2, 2))
    assert math.isnan(report.objective_gap)
    assert not report.ok
    assert report.first_violation.startswith("dual objective")


@pytest.mark.parametrize(
    "plant, want",
    [("gain", "q[1][2] at its threshold"),
     ("drop", "slackness equality (j=1, k=1,"),
     ("tail", "dual feasibility (j=1, k=1,")],
)
def test_nan_in_a_dual_function_never_verifies(plant, want):
    """NaN fails every comparison, so each check must read it as broken:
    NaN in the whole gain row of k = 2 (seen at q_{1|2}'s threshold), in
    the top cell of drop row 1 (seen on q_{1|1}'s grid points above its
    threshold's cell) or in the tail sum that row 1's points in the cell below
    tau_{1,1} add (seen below the threshold only).  The report's max/min
    fields skip NaN."""
    cert = construct_dual(2, 2)
    arr = cert._arrays
    if plant == "gain":
        arr.coef[:, 1, :] = math.nan
    elif plant == "drop":
        assert arr.first[0, 0] < len(arr.tops) - 1
        arr.coef[:, cert.K, -1] = math.nan
    else:
        below = arr.first[0, 0] - 1
        assert below >= 0
        arr.suffix[0, below + 1] = math.nan
    report = verify_certificate(cert)
    assert not report.ok
    assert report.first_violation.startswith(want), report.first_violation
    assert report.first_violation.endswith("nan"), report.first_violation
    for field in ("max_equality_residual", "max_threshold_residual", "min_q_value"):
        assert math.isfinite(getattr(report, field)), field


def test_verify_rejects_a_tolerance_outside_zero_to_inf():
    """A NaN tolerance would pass every comparison: with tau_{1,2} shifted
    by 0.02 (which the objective, reading only tau_{j,1}, cannot see) the
    check fails at the default tolerance and refuses NaN, inf and -1."""
    cert = construct_dual(2, 2)
    rows = [list(r) for r in cert.tau.tau]
    rows[0][1] += 0.02
    shifted = replace(cert, tau=ThresholdMatrix(2, 2, tuple(map(tuple, rows))))
    assert not verify_certificate(shifted).ok
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="outside"):
            verify_certificate(shifted, tol=bad)
    assert verify_certificate(cert, tol=0.0).tolerance == 0.0


# Peak traced memory of the check at the largest grid: chunks of
# CHUNK_VALUES values keep it near 16 MB.
MAX_GRID_PEAK_BYTES = 32 << 20


def test_verify_memory_is_bounded_at_the_largest_grid():
    cert = construct_dual(2, 2)
    tracemalloc.start()
    try:
        report = verify_certificate(cert, grid_points=MAX_GRID_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak <= MAX_GRID_PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"


def test_verify_rejects_empty_or_oversized_grid():
    cert = construct_dual(1, 2)
    for bad in (0, -5, MAX_GRID_POINTS + 1):
        with pytest.raises(ValueError):
            verify_certificate(cert, grid_points=bad)


def test_construct_rejects_bad_sizes():
    with pytest.raises(ValueError):
        construct_dual(0, 1)
    with pytest.raises(ValueError):
        construct_dual(1, 0)
    for K in (1, 2):  # one J cap for every K
        with pytest.raises(ValueError, match="^J=17 exceeds the cap 16$"):
            construct_dual(17, K)
