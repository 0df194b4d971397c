"""General (J,K) construction: alpha/gamma, the integral-equation solver,
the K = 2 closed-form oracle and certificate verification."""

import math
import random
import tracemalloc

import pytest

from secretary_lab.dual import (
    MAX_GRID_POINTS,
    MonotonicityError,
    ThresholdMatrix,
    alpha,
    alpha_poly,
    construct_dual,
    payoff_jk,
    perturbed,
    solve_integral_equation,
    verify_certificate,
)
from secretary_lab import dual, theta
from secretary_lab.cli import main
from secretary_lab.piecewise import LogLinComb, PiecewiseFunction
from secretary_lab.theta import generate_thetas, thresholds

import reference_values as ref
from oracles import (
    construct_dual_combine,
    gamma,
    gamma_poly,
    k2_closed_forms,
    over_power,
    quadrature,
    restrict,
    tail_integral_by_segment,
    values_by_segment,
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


def test_polynomials_match_scalar_functions():
    rng = random.Random(9)
    for _ in range(120):
        K = rng.randint(1, 6)
        k = rng.randint(1, K)
        x = rng.uniform(1e-6, 1.0)
        assert alpha_poly(k, K)(x) == pytest.approx(alpha(k, K, x), abs=1e-12)
        assert gamma_poly(k, K)(x) == pytest.approx(gamma(k, K, x), abs=1e-12)


def test_gamma_poly_top_collapses_to_constant():
    """The last running sum of the alpha polynomials is the constant K."""
    for K in range(1, 7):
        assert gamma_poly(K, K).terms == {(0, 0): float(K)}


def test_alpha_bounds_validation():
    with pytest.raises(ValueError):
        alpha(0, 2, 0.5)
    with pytest.raises(ValueError):
        alpha(3, 2, 0.5)


def test_monotone_properties_of_alpha():
    """(x alpha_k(x))' > 0 and alpha_k > alpha_(k+1) on (0,1)."""
    rng = random.Random(17)
    checked = 0
    for _ in range(150):
        K = rng.randint(2, 6)
        k = rng.randint(1, K)
        x = rng.uniform(1e-3, 1.0 - 1e-3)
        d = alpha_poly(k, K).shift_xpow(1).derivative()
        assert d(x) > 0.0
        if k < K:
            assert alpha(k, K, x) > alpha(k + 1, K, x)
        checked += 1
    assert checked >= 100


# -- integral-equation solver ------------------------------------------------


def test_solver_base_case_closed_form():
    """g = 0, gamma = K, b = 1, c = 0 gives K^2/(K-1) x^(K-1) - K/(K-1)."""
    for K in (2, 3, 4):
        f = solve_integral_equation(
            1.0, 0.0, K, PiecewiseFunction.zero(), LogLinComb.const(float(K))
        )
        for x in (0.05, 0.3, 0.61, 1.0):
            want = K * K / (K - 1) * x ** (K - 1) - K / (K - 1)
            assert f.value(x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_solver_reproduces_log_solution():
    """g = 0, gamma = 1, N = 1, b = 1, c = 0 gives 1 + ln x."""
    f = solve_integral_equation(
        1.0, 0.0, 1, PiecewiseFunction.zero(), LogLinComb.const(1.0)
    )
    for x in (0.01, 0.2, 0.85, 1.0):
        assert f.value(x) == pytest.approx(1.0 + math.log(x), abs=1e-12)


def test_solver_boundary_value_zero():
    """c = b*gamma(b) forces f(b) = 0."""
    gamma_fn = gamma_poly(1, 2)  # 2 - x
    b = 0.7
    f = solve_integral_equation(b, b * gamma_fn(b), 1, PiecewiseFunction.zero(), gamma_fn)
    assert f.value(b) == pytest.approx(0.0, abs=1e-14)


def _residual(f, g, gamma_fn, b, c, N, x):
    tail_f = f.integral(x, b)
    tail_g = g.integral(x, b)
    return f.value(x) + N / x * (tail_f - tail_g) + c / x - gamma_fn(x)


def test_solver_residual_with_piecewise_g():
    """Substituting the solution back leaves ~machine-level residuals."""
    g = PiecewiseFunction(
        [0.4, 0.7, 1.0],
        [LogLinComb.from_ln_poly([2.0, 2.0]), LogLinComb.from_x_poly([-2.0, 4.0])],
    )
    b, c, N = 0.9, 0.15, 2
    gamma_fn = gamma_poly(2, 3)
    f = solve_integral_equation(b, c, N, g, gamma_fn)
    for x in (0.05, 0.25, 0.4, 0.55, 0.7, 0.83, 0.9):
        assert abs(_residual(f, g, gamma_fn, b, c, N, x)) < 1e-11


def test_solver_integrals_cross_checked_by_quadrature():
    g = PiecewiseFunction([0.5, 1.0], [LogLinComb.from_x_poly([0.0, 1.0])])
    f = solve_integral_equation(1.0, 0.0, 2, g, LogLinComb.const(2.0))
    got = over_power(f, 2).integral(0.3, 1.0)
    want = quadrature(lambda y: f.value(y) / y**2, 0.3, 1.0, tol=1e-13)
    assert got == pytest.approx(want, abs=1e-10)


def test_solver_rejects_bad_inputs():
    z = PiecewiseFunction.zero()
    with pytest.raises(ValueError):
        solve_integral_equation(0.0, 0.0, 1, z, LogLinComb.const(1.0))
    with pytest.raises(ValueError):
        solve_integral_equation(0.5, 0.0, 0, z, LogLinComb.const(1.0))


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


def _pieces(fn: PiecewiseFunction):
    return fn.breakpoints, [list(s.terms.items()) for s in fn.segments]


@pytest.mark.parametrize(
    "J,K", [(2, 2), (3, 3), (4, 8), (8, 6), (8, 8), (16, 2), (2, 16)]
)
def test_rows_match_combine_reference(J, K):
    """Cells solved down to their thresholds and the one-pass cell join
    give the rows of whole-function candidates and combine chains bit for
    bit, at value.solve's thresholds."""
    got = construct_dual(J, K)
    want = construct_dual_combine(J, K)
    assert got.tau == want.tau
    for j in range(1, J + 1):
        for k in range(K):
            assert _pieces(got.q[j - 1][k]) == _pieces(want.q[j - 1][k]), (j, k + 1)
        assert _pieces(got.r_top(j)) == _pieces(want.r_top(j)), j


@pytest.mark.parametrize("J,K", [(8, 8), (12, 12)])
def test_construction_builds_little_below_each_threshold(monkeypatch, J, K):
    """Each cell is solved from b down to its threshold only: every segment
    built is kept (building every candidate down to X_FLOOR takes 889
    against 288 kept at (8,8))."""
    built = []
    anti = LogLinComb.antiderivative

    def counted(self):
        built.append(self)
        return anti(self)

    monkeypatch.setattr(LogLinComb, "antiderivative", counted)
    cert = construct_dual(J, K)
    kept = sum(len(cell.segments) for row in cert.cells for cell in row)
    assert len(built) == kept, (len(built), kept)


def test_partial_solution_matches_whole_solve():
    """A solution built only down to lo has the bits of the whole solve
    clipped to [lo, b], wherever lo falls among g's breakpoints."""
    g = PiecewiseFunction(
        [0.2, 0.4, 0.7, 1.0],
        [
            LogLinComb.from_ln_poly([1.0, 0.5]),
            LogLinComb.from_ln_poly([2.0, 2.0]),
            LogLinComb.from_x_poly([-2.0, 4.0]),
        ],
    )
    b, c, N = 0.9, 0.15, 2
    gamma_fn = gamma_poly(2, 3)
    whole = solve_integral_equation(b, c, N, g, gamma_fn)
    for lo in (0.85, 0.7, 0.55, 0.4, 0.3, 0.2, 0.1, 1e-6, b):
        part = solve_integral_equation(b, c, N, g, gamma_fn, lo)
        assert _pieces(part) == _pieces(restrict(whole, lo, b)), lo


@pytest.mark.parametrize("J,K", [(2, 2), (3, 3), (4, 8), (8, 6)])
def test_running_sums_match_q_rows(J, K):
    """r_{j|k} = q_{j|1} + ... + q_{j|k}, segment by segment, for every k.

    Compared term by term: each coefficient within 1e-12 of the symbolic
    sum, relative to the segment's largest coefficient.  (Point values
    are no measure here: at (8,6) the coefficients reach 7e7, so evaluating
    the two sides rounds them apart by 1e-8.)
    """
    cert = construct_dual(J, K)
    for j in range(1, J + 1):
        row = cert.q[j - 1]
        for k in range(1, K + 1):
            r = cert.r[j - 1][k - 1]
            assert r.breakpoints == row[0].breakpoints, (j, k)
            for a, b, seg in zip(r.breakpoints, r.breakpoints[1:], r.segments):
                total = LogLinComb.zero()
                for q in row[:k]:
                    part = q.segment_at(0.5 * (a + b))
                    if part is not None:
                        total = total + part
                scale = max([1.0] + [abs(c) for c in seg.terms.values()])
                for key in set(seg.terms) | set(total.terms):
                    diff = seg.terms.get(key, 0.0) - total.terms.get(key, 0.0)
                    assert abs(diff) <= 1e-12 * scale, (j, k, key)


def _no_rows(cert):
    raise AssertionError("dual rows built")


def test_threshold_readers_build_no_rows(monkeypatch, capsys):
    """tau, simulate and finite-lp read no q or r row; reading q or r
    builds. K = 1 keeps its rows as cells too."""
    monkeypatch.setattr(dual, "_dual_rows", _no_rows)
    for J, K in ((4, 4), (3, 1)):
        cert = construct_dual(J, K)
        assert len(cert.tau.tau) == J
        argv = ["--J", str(J), "--K", str(K)]
        assert main(["simulate", *argv, "--n", "1000", "--trials", "300"]) == 0
        assert main(["finite-lp", *argv, "--n", "20"]) == 0
        for name in ("q", "r"):
            with pytest.raises(AssertionError, match="dual rows built"):
                getattr(cert, name)


def test_verifier_builds_q_rows_only(monkeypatch):
    built = []
    real = dual._dual_rows

    def counted(cert):
        built.append(cert)
        return real(cert)

    monkeypatch.setattr(dual, "_dual_rows", counted)
    for J, K in ((3, 3), (3, 1)):
        built.clear()
        cert = construct_dual(J, K)
        assert verify_certificate(cert).ok
        cert.q  # built once, then kept
        assert len(built) == 1 and built[0] is cert, (J, K)
        assert "r" not in vars(cert), (J, K)


@pytest.mark.parametrize("J,K", [(3, 3), (2, 4), (4, 2)])
def test_rows_built_on_read_match_combine_reference(J, K):
    """q and r, each built on its first read (r first here), equal the
    combine chains term for term, and a perturbed copy of an unread
    certificate builds the same rows."""
    want = construct_dual_combine(J, K)
    got = construct_dual(J, K)
    shifted = perturbed(construct_dual(J, K), 0.01)
    for name in ("r", "q"):
        for cert in (got, shifted):
            for row_got, row_want in zip(getattr(cert, name), getattr(want, name)):
                assert [_pieces(f) for f in row_got] == [_pieces(f) for f in row_want]
    assert shifted.tau.threshold(1, 1) == got.tau.threshold(1, 1) + 0.01
    copy = perturbed(got, 0.01)  # builds its own rows on read
    assert "q" not in vars(copy) and "r" not in vars(copy)
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


@pytest.mark.parametrize(
    "J, K, perturb",
    [(1, 2, 0.0), (3, 3, 0.0), (2, 4, 0.0), (2, 2, 0.01), (16, 2, 0.0),
     (6, 6, 0.0)],
)
def test_array_verifier_matches_scalar_oracle(J, K, perturb):
    """Same verdict and first violation as the point-by-point check;
    residuals agree to 1e-10 absolute (array and scalar libm calls may
    round differently in the last place)."""
    cert = construct_dual(J, K)
    if perturb:
        cert = perturbed(cert, perturb)
    got = verify_certificate(cert, grid_points=2000, tol=1e-8)
    want = verify_certificate_scalar(cert, grid_points=2000, tol=1e-8)
    assert got.ok == want.ok
    assert got.first_violation == want.first_violation
    for field in (
        "max_equality_residual",
        "min_inequality_slack",
        "max_threshold_residual",
        "min_q_value",
        "dual_objective",
        "objective_gap",
    ):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-10, field
    assert (got.J, got.K, got.tolerance, got.grid_points, got.payoff) == (
        want.J, want.K, want.tolerance, want.grid_points, want.payoff
    )


@pytest.mark.parametrize(
    "J, K, perturb",
    [(2, 2, 0.0), (4, 8, 0.0), (8, 8, 0.0), (16, 2, 0.0), (2, 16, 0.0),
     (16, 1, 0.0), (2, 2, 0.01)],
)
def test_verify_equals_per_segment_oracles(monkeypatch, J, K, perturb):
    """The packed kernel gives the report the per-segment evaluation gives,
    field for field."""
    cert = construct_dual(J, K)
    if perturb:
        cert = perturbed(cert, perturb)
    got = verify_certificate(cert)
    # verify_certificate hands the functions PowerRows; the oracles take
    # its points
    monkeypatch.setattr(
        PiecewiseFunction, "values", lambda f, rows: values_by_segment(f, rows.xs)
    )
    monkeypatch.setattr(
        PiecewiseFunction,
        "tail_integral",
        lambda f, rows: tail_integral_by_segment(f, rows.xs),
    )
    assert got == verify_certificate(cert)


# The pairs of the benchmark's certify workload; (8,8) and (16,2) fail.
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


def test_nan_objective_gap_fails_with_a_named_violation(monkeypatch):
    monkeypatch.setattr(dual, "payoff_jk", lambda tau: math.nan)
    report = verify_certificate(construct_dual(2, 2))
    assert math.isnan(report.objective_gap)
    assert not report.ok
    assert report.first_violation.startswith("dual objective")


# Peak traced memory of the check at the largest grid.  The per-segment
# evaluation it replaced peaked at 83 MB for (2, 2); chunks of CHUNK_POINTS
# points keep this one near 16 MB.
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
