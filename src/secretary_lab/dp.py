"""The finite-n optimum P*_n by backward induction.

The value of a pick is fixed when it is made: relative ranks at different
positions are independent, so a k-potential (the k-th best so far) taken at
position i ends among the overall K best with a probability w(k, i) that
no later arrival changes.  With V(i, r) the expected payoff of positions
i..n holding r unused quotas (Gilbert & Mosteller, JASA 1966),

    V(n+1, r) = V(i, 0) = 0,
    V(i, r) = V(i+1, r) + (1/i) sum_{k <= min(K, i)} max(0, w(k, i) + V(i+1, r-1) - V(i+1, r)),

and P*_n = V(1, J), the optimum of the finite selection LP in `lp`.  One
recursion serves both modes: it runs in float or in exact Fraction
arithmetic, depending only on the number type it starts from.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Union

Number = Union[Fraction, float]

# Largest J*K*n each mode accepts.  The slowest accepted inputs take about
# 4.4 s in float ((1,1) n=1.6e6) and 2.7 s in exact ((2,1) n=5000) on a
# 2-vCPU Xeon under CPython 3.11; (4,4) n=1e5 takes 0.8 s in float.
FLOAT_SIZE_CAP = 1_600_000
EXACT_SIZE_CAP = 10_000

_UNIT = {"float": 1.0, "exact": Fraction(1)}
_CAP = {"float": FLOAT_SIZE_CAP, "exact": EXACT_SIZE_CAP}


class DPSizeError(ValueError):
    """Instance exceeds the size cap of the requested mode."""


def _check(n: int, J: int, K: int, mode: str) -> None:
    if mode not in _UNIT:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1 or J < 1 or K < 1:
        raise ValueError("n, J, K must be positive")
    if J * K * n > _CAP[mode]:
        raise DPSizeError(f"J*K*n = {J * K * n} exceeds the {mode} cap {_CAP[mode]}")
    # every float weight starts from a value >= 1/C(n, min(K, n//2)); past
    # 2**1000 that value would be subnormal and the weights would lose all precision
    if mode == "float" and comb(n, min(K, n // 2)).bit_length() > 1000:
        raise DPSizeError(f"float weights underflow at n={n}, K={K}; use exact mode")


def weights(n: int, K: int, i: int, one: Number) -> list[Number]:
    """[w(1, i), ..., w(min(K, i), i)] in the number type of `one`.

    The k-th best of the first i items is among the overall K best iff at
    least k of the K best arrived by i, so w(k, i) = P(H >= k) for H
    hypergeometric (i draws, K marked of n).  The masses
    h(m) = C(K, m) C(n-K, i-m) / C(n, i) are summed from m = min(K, i) down
    through h(m-1) / h(m) = m (n-K-i+m) / ((K-m+1)(i-m+1)).
    """
    K = min(K, n)
    top = min(K, i)
    h = one
    for t in range(top):  # h(top) = prod_t (max(K, i) - t) / (n - t)
        h = h * (max(K, i) - t) / (n - t)
    tail = [h]
    for m in range(top, 1, -1):
        h = h * (m * (n - K - i + m)) / ((K - m + 1) * (i - m + 1))
        tail.append(tail[-1] + h)
    tail.reverse()
    return tail


def p_star(n: int, J: int, K: int, mode: str = "float") -> Number:
    """P*_n for n items, J quotas and K payoff ranks; a Fraction in exact mode."""
    _check(n, J, K, mode)
    one = _UNIT[mode]
    zero = one - one
    v = [zero] * (J + 1)  # v[r] = V(i+1, r)
    for i in range(n, 0, -1):
        w = weights(n, K, i, one)
        for r in range(J, 0, -1):  # descending, so v[r-1] is still V(i+1, r-1)
            keep = v[r] - v[r - 1]
            v[r] += sum((x - keep for x in w if x > keep), zero) / i
    return v[J]
