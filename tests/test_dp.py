"""Backward induction for P*_n: weights, exact and float modes, size caps."""

from fractions import Fraction
from math import comb

import pytest

from secretary_lab.dp import (
    EXACT_SIZE_CAP,
    FLOAT_SIZE_CAP,
    DPSizeError,
    convergence_experiment,
    p_star,
    weights,
)

import reference_values as ref


def classical_p_star(n: int) -> Fraction:
    """One quota, one payoff rank: max over r of (r-1)/n sum_{i=r..n} 1/(i-1)."""
    best = Fraction(1, n)  # r = 1: take the first item
    for r in range(2, n + 1):
        best = max(best, Fraction(r - 1, n) * sum(Fraction(1, i - 1) for i in range(r, n + 1)))
    return best


def test_weights_match_rank_sum():
    """w(k, i) = sum_{l=k..K} C(l-1, k-1) C(n-l, i-k) / C(n, i), including K > n."""
    for n in range(1, 9):
        for K in range(1, 5):
            for i in range(1, n + 1):
                want = [
                    sum(
                        Fraction(comb(el - 1, k - 1) * comb(n - el, i - k), comb(n, i))
                        for el in range(k, min(K, n) + 1)
                    )
                    for k in range(1, min(K, i) + 1)
                ]
                assert weights(n, K, i, Fraction(1)) == want, (n, K, i)


def test_exact_matches_classical_formula():
    for n in (1, 2, 3, 10, 57, 200):
        assert p_star(n, 1, 1, "exact") == classical_p_star(n)
    assert p_star(10, 1, 1, "exact") == ref.P_STAR_1_1[10]


def test_quotas_beyond_items_take_everything():
    assert p_star(3, 5, 2, "exact") == 2  # all three items picked, two pay
    assert p_star(2, 3, 4, "exact") == 2


def test_float_matches_exact_at_large_n():
    for n, J, K in ((300, 3, 3), (2000, 1, 1)):
        exact = p_star(n, J, K, "exact")
        assert abs(p_star(n, J, K) - exact) < 1e-12, (n, J, K)


def test_size_caps():
    with pytest.raises(DPSizeError):
        p_star(FLOAT_SIZE_CAP + 1, 1, 1)
    with pytest.raises(DPSizeError):
        p_star(EXACT_SIZE_CAP // 2 + 1, 2, 1, "exact")
    with pytest.raises(DPSizeError):
        convergence_experiment(1, 1, [10, FLOAT_SIZE_CAP + 1], 0.0)


def test_float_underflow_refused():
    # C(8000, 200) > 2**1000: float w(1, 200) would come out 0.0, not 0.994
    with pytest.raises(DPSizeError, match="exact mode"):
        p_star(8000, 1, 200)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        p_star(0, 1, 1)
    with pytest.raises(ValueError):
        p_star(5, 0, 1, "exact")
