"""The finite-n optimum P*_n by backward induction.

The value of a pick is fixed when it is made: relative ranks at different
positions are independent, so a k-potential (the k-th best so far) taken at
position i ends among the overall K best with a probability w(k, i) that
no later arrival changes.  With V(i, r) the expected payoff of positions
i..n holding r unused quotas (Gilbert & Mosteller, JASA 1966),

    V(n+1, r) = V(i, 0) = 0,
    V(i, r) = V(i+1, r) + (1/i) sum_{k <= min(K, i)} max(0, w(k, i) + V(i+1, r-1) - V(i+1, r)),

and P*_n = V(1, J), the optimum of the finite selection LP, whose exact
simplex is the test oracle in tests/simplex.py.  One recursion serves both
modes: it runs in float or in exact Fraction arithmetic, depending only on
the number type it starts from.

`weights` builds the rows [w(1, i), ..., w(min(K, i), i)] of a block of
positions at once, as numpy columns over i, bit for bit the one-position
values; positions i < K go one at a time.  The blocks, of at most _BLOCK
weights, walk down from n, so memory does not grow with n, and each r's
positive gains are added left to right from zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Union

import numpy as np

Number = Union[Fraction, float]

# Largest J*K*n each mode accepts, bounds on work.  The slowest accepted
# inputs take about 0.8 s in float ((1,1) n=1.6e6) and 2.5 s in exact
# ((2,1) n=5000) on a 2-vCPU Xeon under CPython 3.11 (best of 3); (4,4)
# n=1e5 takes 0.12 s in float.
FLOAT_SIZE_CAP = 1_600_000
EXACT_SIZE_CAP = 10_000

_UNIT = {"float": 1.0, "exact": Fraction(1)}
_CAP = {"float": FLOAT_SIZE_CAP, "exact": EXACT_SIZE_CAP}
_BLOCK = 1 << 12  # weights per block of positions


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


def weights(n: int, K: int, i: int | np.ndarray, one: Number) -> list:
    """[w(1, i), ..., w(top, i)] in the number type of `one`, top = min(K, i).

    The k-th best of the first i items is among the overall K best iff at
    least k of the K best arrived by i, so w(k, i) = P(H >= k) for H
    hypergeometric (i draws, K marked of n).  The masses
    h(m) = C(K, m) C(n-K, i-m) / C(n, i) are summed from m = top down
    through h(m-1) / h(m) = m (n-K-i+m) / ((K-m+1)(i-m+1)).

    i may be an array of positions >= min(K, n), float64 for a float `one`
    and object (ints) for a Fraction: each w(k, .) is then a column over i,
    by the same operations in the same order (every integer factor is
    below 2**53, so exact in float).
    """
    K = min(K, n)
    top, a = (min(K, i), max(K, i)) if isinstance(i, int) else (K, i)
    h = one
    for t in range(top):  # h(top) = prod_t (max(K, i) - t) / (n - t)
        h = h * (a - t) / (n - t)
    tail = [h]
    for m in range(top, 1, -1):
        h = h * (m * (n - K - i + m)) / ((K - m + 1) * (i - m + 1))
        tail.append(tail[-1] + h)
    tail.reverse()
    return tail


def _blocks(n: int, K: int, dtype: type):
    """Positions n, ..., 1 in order: arrays of at most _BLOCK // K positions
    down to K (the top of their weight rows), then each i < K on its own."""
    step = max(1, _BLOCK // K)
    for hi in range(n, K - 1, -step):
        yield np.arange(hi, max(hi - step, K - 1), -1, dtype=dtype)
    yield from range(K - 1, 0, -1)


def p_star(n: int, J: int, K: int, mode: str = "float") -> Number:
    """P*_n for n items, J quotas and K payoff ranks; a Fraction in exact mode."""
    _check(n, J, K, mode)
    one = _UNIT[mode]
    zero = one - one
    K = min(K, n)
    v = [zero] * (J + 1)  # v[r] = V(i+1, r)
    quotas = range(J, 0, -1)  # descending, so v[r-1] is still V(i+1, r-1)
    for block in _blocks(n, K, float if mode == "float" else object):
        rows = np.column_stack(weights(n, K, block, one)).tolist()
        for i, w in zip(np.atleast_1d(block).tolist(), rows):
            for r in quotas:
                keep = v[r] - v[r - 1]
                gain = zero
                for x in w:  # w falls in k (each adds a mass >= 0 to the next), in float too
                    if x <= keep:
                        break
                    gain += x - keep
                v[r] += gain / i
    return v[J]
