"""The value-function threshold solver against every reference there is:
exact K = 1 thetas, the K = 2 closed forms, the same equation integrated
by DOP853, the certified construction, the payoff formula and the
finite-n DP's own thresholds."""

import functools
import warnings

import numpy as np
import pytest

from oracles import alpha, dp_thresholds, k2_closed_forms, tau_dop853
from secretary_lab import dp, dual, theta, value

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


@pytest.mark.parametrize("J, K", [(16, 16), (1, 35), (16, 35)])
def test_threshold_order_at_the_envelope_edges(J, K):
    """Rows rise in k and columns fall in j, exactly (ThresholdMatrix
    allows 1e-12)."""
    tau = np.array(solved(J, K).tau.tau)
    assert (np.diff(tau, axis=1) >= 0).all()
    assert (np.diff(tau, axis=0) <= 0).all()
    assert (tau > 0).all() and (tau <= 1).all()


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
