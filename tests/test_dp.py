"""Backward induction for P*_n: weights, exact and float modes, size caps."""

import operator
from fractions import Fraction
from math import comb, factorial, perm
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import dp
from secretary_lab.dp import (
    EXACT_SIZE_CAP,
    FLOAT_SIZE_CAP,
    DPSizeError,
    p_star,
    weights,
)

import reference_values as ref
from oracles import dp_thresholds, dp_weights


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
                assert dp_weights(n, K, i, Fraction(1)) == want, (n, K, i)


def bits(x):
    """x's type and value, a float's to the bit."""
    return type(x), x.hex() if isinstance(x, float) else x


@pytest.mark.parametrize("one", [1.0, Fraction(1), "n!/(n-K)!"])
def test_block_weights_match_one_position(one):
    """A block of positions i >= K gets, column by column, the weights of
    each position on its own, bit for bit.  On exact mode's integer scale,
    `one` = n!/(n-K)!, every entry is the int `one` times the Fraction
    weight."""
    for n, K in ((1, 1), (7, 3), (40, 9), (1000, 4), (3000, 1), (285, 35)):
        K = min(K, n)
        unit = perm(n, K) if one == "n!/(n-K)!" else one
        block = np.arange(n, K - 1, -1, dtype=float if isinstance(one, float) else object)
        columns = np.column_stack(weights(n, K, block, unit)).tolist()

        def want(i):
            if unit is one:
                return dp_weights(n, K, i, one)
            scaled = [unit * x for x in dp_weights(n, K, i, Fraction(1))]
            return [x.numerator if x.denominator == 1 else x for x in scaled]

        for i, row in zip(range(n, K - 1, -1), columns):
            assert list(map(bits, row)) == list(map(bits, want(i))), (n, K, i)
        for i in range(1, K):  # one position at a time below K
            assert weights(n, K, i, unit) == want(i)


class ExactInt(int):
    """An int whose sums, differences and products stay ExactInt, with an
    array element by element, and whose divisions, floor or true, are exact
    or fail."""

    divisions = 0  # divisions checked so far

    def _wrap(op):
        def method(self, other):
            if isinstance(other, np.ndarray):  # numpy would take self as a plain int
                return np.frompyfunc(lambda x: method(self, x), 1, 1)(other)
            if not isinstance(other, int):
                return NotImplemented
            return ExactInt(op(int(self), int(other)))

        return method

    __add__ = __radd__ = _wrap(operator.add)
    __sub__ = _wrap(operator.sub)
    __rsub__ = _wrap(lambda a, b: b - a)
    __mul__ = __rmul__ = _wrap(operator.mul)

    def __floordiv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        quotient, rest = divmod(int(self), int(other))
        assert rest == 0, f"{int(self)} // {other} leaves {rest}"
        ExactInt.divisions += 1
        return ExactInt(quotient)

    __truediv__ = __floordiv__


def exact_reference(n: int, J: int, K: int) -> Fraction:
    """P*_n by the recursion over the oracle's weights, in Fractions."""
    v = [Fraction(0)] * (J + 1)
    for i in range(n, 0, -1):
        w = dp_weights(n, K, i, Fraction(1))
        for r in range(J, 0, -1):
            keep = v[r] - v[r - 1]
            v[r] += sum((x - keep for x in w if x > keep), Fraction(0)) / i
    return v[J]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    J=st.integers(1, 6),
    K=st.integers(1, 9),
    block=st.sampled_from([1, 2, 3, 7, dp._BLOCK]),
)
@example(n=1, J=1, K=1, block=dp._BLOCK)
@example(n=1, J=3, K=9, block=dp._BLOCK)
@example(n=5, J=2, K=9, block=2)  # n < K
@example(n=13, J=6, K=9, block=3)  # K <= n < 2K
@example(n=80, J=6, K=9, block=dp._BLOCK)
def test_p_star_matches_the_one_position_recursion(n, J, K, block):
    """Float P*_n has the oracle recursion's bits and exact P*_n its
    Fraction, whatever the block size.  Exact mode runs on integers: with
    `perm` and `factorial` returning ExactInt, the weights and every value
    of the recursion built from them are ExactInt, the weights' divisions
    leave no remainder, and the recursion itself divides nowhere."""
    want = exact_reference(n, J, K)

    def fraction(numerator, denominator):
        assert isinstance(numerator, ExactInt) and isinstance(denominator, ExactInt)
        return Fraction(int(numerator), int(denominator))

    with mock.patch.object(dp, "_BLOCK", block):
        assert p_star(n, J, K).hex() == dp_thresholds(n, J, K)[0].hex()
        assert p_star(n, J, K, "exact") == want
        start = ExactInt.divisions
        list(dp._rows(n, min(K, n), ExactInt(perm(n, min(K, n)))))  # the weights alone
        in_weights, start = ExactInt.divisions - start, ExactInt.divisions
        with mock.patch.multiple(dp, perm=lambda a, b: ExactInt(perm(a, b)),
                                 factorial=lambda m: ExactInt(factorial(m)), Fraction=fraction):
            assert p_star(n, J, K, "exact") == want
        assert ExactInt.divisions - start == in_weights  # none outside `weights`


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


@pytest.mark.parametrize("J, K, n", [(4, 4, 625), (16, 1, 625), (1, 35, 285)])
def test_exact_mode_at_its_cap(J, K, n):
    """The largest accepted exact instances (J*K*n at or just below the
    cap) run, and agree with float mode."""
    assert EXACT_SIZE_CAP - J * K < J * K * n <= EXACT_SIZE_CAP
    exact = p_star(n, J, K, "exact")
    assert isinstance(exact, Fraction)
    assert abs(p_star(n, J, K) - exact) < 1e-12


def test_size_caps():
    with pytest.raises(DPSizeError):
        p_star(FLOAT_SIZE_CAP + 1, 1, 1)
    with pytest.raises(DPSizeError):
        p_star(EXACT_SIZE_CAP // 2 + 1, 2, 1, "exact")


def test_float_underflow_refused():
    # C(8000, 200) > 2**1000: float w(1, 200) would come out 0.0, not 0.994
    with pytest.raises(DPSizeError, match="exact mode"):
        p_star(8000, 1, 200)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        p_star(0, 1, 1)
    with pytest.raises(ValueError):
        p_star(5, 0, 1, "exact")
