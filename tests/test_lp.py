"""Finite LP: builder structure, the exact simplex, and P*_n from the DP
checked against it, against HiGHS and along its convergence."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from secretary_lab.dp import p_star

import reference_values as ref
from simplex import (
    EXACT_SIZE_CAP,
    FiniteLPInstance,
    LPSizeError,
    build_lp,
    coefficient_row_sum,
    objective_coefficient,
    solve_lp,
)


def evaluate_objective(inst: FiniteLPInstance, z):
    """Plain weighted sum of a candidate point; no feasibility checking."""
    if len(z) != inst.num_vars:
        raise ValueError(f"expected {inst.num_vars} values, got {len(z)}")
    return sum(o * v for o, v in zip(inst.objective, z))


def check_feasibility(inst: FiniteLPInstance, z):
    """Largest constraint violation of z (0 means feasible); exact when z is."""
    worst = 0
    for j, k, i in inst.iter_rows():
        row, rhs = inst.row_exact(j, k, i)
        worst = max(worst, sum(v * z[col] for col, v in row.items()) - rhs)
    return max(worst, *(-v for v in z))


def dense_lp(inst: FiniteLPInstance):
    """(A, b, c) for max c.z subject to A z <= b, z >= 0, from the exact rows."""
    a = np.zeros((inst.num_rows, inst.num_vars))
    b = np.zeros(inst.num_rows)
    for r, (j, k, i) in enumerate(inst.iter_rows()):
        row, rhs = inst.row_exact(j, k, i)
        for col, v in row.items():
            a[r, col] = float(v)
        b[r] = float(rhs)
    return a, b, np.array([float(v) for v in inst.objective])


def skip_policy_value(n: int, r: int) -> Fraction:
    """Exact payoff of 'pass the first r items, then take the first
    potential' on n items; the best such policy attains P*_n for one quota
    and one payoff rank.  Independent enumeration oracle for the solver."""
    if r == 0:
        return Fraction(1, n)
    return Fraction(r, n) * sum(Fraction(1, i - 1) for i in range(r + 1, n + 1))


def best_skip_policy(n: int) -> Fraction:
    return max(skip_policy_value(n, r) for r in range(n))


# -- builder ----------------------------------------------------------------


def test_build_2_1_1_structure():
    inst = build_lp(2, 1, 1)
    assert inst.objective == (Fraction(1, 2), Fraction(1, 2))
    row1, rhs1 = inst.row_exact(1, 1, 1)
    assert row1 == {0: Fraction(1)} and rhs1 == 1
    row2, rhs2 = inst.row_exact(1, 1, 2)
    assert row2 == {1: Fraction(1), 0: Fraction(1)} and rhs2 == 1


def test_build_3_1_1_objective_uniform():
    inst = build_lp(3, 1, 1)
    assert all(c == Fraction(1, 3) for c in inst.objective)


def test_inner_quota_rows_reference_next_quota():
    inst = build_lp(3, 2, 1)
    row, rhs = inst.row_exact(1, 1, 3)
    assert rhs == 0
    # + z_{1|1}(3), + sum_{m<3} z_{1|1}(m)/m, - sum_{m<3} z_{2|1}(m)/m
    assert row[inst.var_index(1, 1, 3)] == 1
    assert row[inst.var_index(1, 1, 1)] == 1
    assert row[inst.var_index(1, 1, 2)] == Fraction(1, 2)
    assert row[inst.var_index(2, 1, 1)] == -1
    assert row[inst.var_index(2, 1, 2)] == Fraction(-1, 2)


def test_row_sum_identity_10_3():
    for i in range(1, 11):
        assert coefficient_row_sum(10, 3, i) == 3


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4), st.data())
def test_row_sum_identity_randomized(n, K, data):
    i = data.draw(st.integers(min_value=1, max_value=n))
    assert coefficient_row_sum(n, K, i) == min(K, n)


def test_objective_independent_of_quota():
    inst = build_lp(6, 2, 2)
    for k in (1, 2):
        for i in range(1, 7):
            assert (
                inst.objective[inst.var_index(1, k, i)]
                == inst.objective[inst.var_index(2, k, i)]
                == objective_coefficient(6, 2, k, i)
            )


def test_build_size_cap():
    with pytest.raises(LPSizeError):
        build_lp(EXACT_SIZE_CAP // 4 + 1, 2, 2)
    assert build_lp(EXACT_SIZE_CAP // 4, 2, 2).num_vars == EXACT_SIZE_CAP


# -- objective evaluation -----------------------------------------------------


def test_evaluate_objective_zero_and_hand_case():
    inst = build_lp(2, 1, 1)
    assert evaluate_objective(inst, [0.0, 0.0]) == 0.0
    assert evaluate_objective(inst, [Fraction(0), Fraction(1)]) == Fraction(1, 2)


def test_evaluate_objective_dimension_mismatch():
    inst = build_lp(2, 1, 1)
    with pytest.raises(ValueError):
        evaluate_objective(inst, [1.0])


def test_solution_objective_consistent_with_reevaluation():
    inst = build_lp(8, 1, 2)
    sol = solve_lp(inst)
    assert evaluate_objective(inst, sol.values) == sol.objective


# -- exact backend ------------------------------------------------------------


def test_exact_small_optima():
    for n, want in ((2, Fraction(1, 2)), (3, Fraction(1, 2))):
        sol = solve_lp(build_lp(n, 1, 1))
        assert sol.status == "optimal"
        assert sol.objective == want


def test_exact_p10_matches_policy_enumeration():
    sol = solve_lp(build_lp(10, 1, 1))
    assert sol.objective == best_skip_policy(10) == ref.P_STAR_1_1[10]
    assert float(sol.objective) > 1.0 / np.e  # finite n beats the limit


def test_exact_feasibility_and_duality():
    inst = build_lp(10, 1, 1)
    sol = solve_lp(inst)
    assert check_feasibility(inst, sol.values) == 0
    assert sol.dual_objective == sol.objective


def test_exact_matches_policy_oracle_across_n():
    for n in range(2, 14):
        sol = solve_lp(build_lp(n, 1, 1))
        assert sol.objective == best_skip_policy(n)


def test_exact_size_cap():
    with pytest.raises(LPSizeError):
        solve_lp(build_lp(EXACT_SIZE_CAP + 1, 1, 1))


# -- the DP's P*_n against the LP -------------------------------------------


def test_dp_equals_exact_simplex():
    """Bit-exact on every n <= 6 with J, K <= 3 and on every J*K*n <= 24,
    covering n < K and J > n."""
    cases = {(n, J, K) for n in range(1, 7) for J in range(1, 4) for K in range(1, 4)}
    cases |= {(n, J, K) for J in range(1, 25) for K in range(1, 24 // J + 1)
              for n in range(1, 24 // (J * K) + 1)}
    for n, J, K in sorted(cases):
        sol = solve_lp(build_lp(n, J, K))
        assert sol.status == "optimal"
        assert p_star(n, J, K, "exact") == sol.objective, (n, J, K)


def test_float_agrees_with_exact():
    for n, J, K in ((10, 1, 1), (8, 2, 1), (7, 1, 2), (5, 2, 2)):
        se = solve_lp(build_lp(n, J, K))
        assert p_star(n, J, K) == pytest.approx(float(se.objective), abs=1e-14)


def test_float_against_scipy_highs():
    for n, J, K in ((30, 1, 2), (25, 2, 1)):
        a, b, c = dense_lp(build_lp(n, J, K))
        res = scipy.optimize.linprog(-c, A_ub=a, b_ub=b, method="highs")
        assert res.status == 0
        assert p_star(n, J, K) == pytest.approx(-res.fun, abs=1e-8)


def test_iteration_limit_status():
    sol = solve_lp(build_lp(6, 1, 1), max_iter=1)
    assert sol.status == "iteration-limit"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        p_star(2, 1, 1, mode="rational")


# -- convergence ---------------------------------------------------------------


def test_convergence_1_1_toward_inverse_e():
    cp = 1.0 / np.e
    gaps = [p_star(n, 1, 1) - cp for n in (10, 50, 120)]
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.01


def test_convergence_1_2_approaches_quoted_value():
    p10, p60 = p_star(10, 1, 2), p_star(60, 1, 2)
    assert p10 > p60 > ref.PAYOFF_12
    assert p60 == pytest.approx(ref.PAYOFF_12, abs=0.02)


def test_convergence_2_1_approaches_quoted_value():
    assert p_star(10, 2, 1) > p_star(60, 2, 1) > 0.591010
