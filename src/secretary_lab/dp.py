"""The finite-n optimum P*_n by backward induction.

The value of a pick is fixed when it is made: relative ranks at different
positions are independent, so a k-potential (the k-th best so far) taken at
position i ends among the overall K best with a probability w(k, i) that
no later arrival changes.  With V(i, r) the expected payoff of positions
i..n holding r unused quotas (Gilbert & Mosteller, JASA 1966),

    V(n+1, r) = V(i, 0) = 0,
    V(i, r) = V(i+1, r) + (1/i) sum_{k <= min(K, i)} max(0, w(k, i) + V(i+1, r-1) - V(i+1, r)),

and P*_n = V(1, J), the optimum of the finite selection LP, whose exact
simplex is the test oracle in tests/simplex.py.  Float mode runs it in
floats.  Exact mode scales it by n!/(i-1)! and divides nowhere: with
S(i, r) = V(i, r) n!/(i-1)! and W(k, i) = w(k, i) n!/i!, it reads

    S(i, r) = i S(i+1, r) + sum_k max(0, W(k, i) + S(i+1, r-1) - S(i+1, r)).

Each W(k, i) is an integer, as C(n, i) divides n!/i!, so by induction on i
so is each S(i, r), and P*_n = S(1, J) / n!.  The weights are built as
integers on the scale n!/(n-K)!, of at most K log2(n) bits, and lifted by
n!/i!, which gains a factor i per position: the pass carries S n!/(n-K)!.

`weights` builds the rows [w(1, i), ..., w(min(K, i), i)] of a block of
positions at once, as numpy columns over i, bit for bit the one-position
values; positions i < K go one at a time.  The blocks, of at most _BLOCK
weights, walk down from n, so memory does not grow with n, and each r's
positive gains are added left to right from zero.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, factorial, perm

import numpy as np

# Largest J*K*n each mode accepts, bounds on work.  Exact mode makes about
# J*K*n operations on integers of up to log2(n!) bits, so its slowest
# accepted input is the longest.  The slowest take about 0.36 s in float
# ((1,1) n=1.6e6) and 0.14 s in exact ((1,1) n=10000; (2,1) n=5000 takes
# 0.06 s) on a 2-vCPU Xeon under CPython 3.11 (best of 3); (4,4) n=1e5
# takes 0.09 s in float.
FLOAT_SIZE_CAP = 1_600_000
EXACT_SIZE_CAP = 10_000

_CAP = {"float": FLOAT_SIZE_CAP, "exact": EXACT_SIZE_CAP}
_BLOCK = 1 << 12  # weights per block of positions


class DPSizeError(ValueError):
    """Instance exceeds the size cap of the requested mode."""


def _check(n: int, J: int, K: int, mode: str) -> None:
    if mode not in _CAP:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1 or J < 1 or K < 1:
        raise ValueError("n, J, K must be positive")
    if J * K * n > _CAP[mode]:
        raise DPSizeError(f"J*K*n = {J * K * n} exceeds the {mode} cap {_CAP[mode]}")
    # every float weight starts from a value >= 1/C(n, min(K, n//2)); past
    # 2**1000 that value would be subnormal and the weights would lose all precision
    if mode == "float" and comb(n, min(K, n // 2)).bit_length() > 1000:
        raise DPSizeError(f"float weights underflow at n={n}, K={K}; use exact mode")


def weights(n: int, K: int, i: int | np.ndarray, one: int | float) -> list:
    """[w(1, i), ..., w(top, i)] times `one`, top = min(K, i), in the number
    type of `one`; an int `one` must be a multiple of n!/(n-K)!.

    The k-th best of the first i items is among the overall K best iff at
    least k of the K best arrived by i, so w(k, i) = P(H >= k) for H
    hypergeometric (i draws, K marked of n).  The masses
    h(m) = C(K, m) C(n-K, i-m) / C(n, i) are summed from m = top down
    through h(m-1) / h(m) = m (n-K-i+m) / ((K-m+1)(i-m+1)).

    With an int `one` every division is an exact floor division, as the
    partial products one C(a, s) / C(n, s), a = max(K, i), and one h(m) are
    integers: with one = n!/(n-K)! they are a!/(a-s)! (n-s)!/(n-K)! and
    C(K, m) i!/(i-m)! (n-i)!/(n-i-K+m)!.  i may be an array of positions
    >= min(K, n), float64 for a float `one` and object (ints) otherwise:
    each w(k, .) is then a column over i, by the same operations in the
    same order (every integer factor is below 2**53, so exact in float).
    """
    K = min(K, n)
    top, a = (min(K, i), max(K, i)) if isinstance(i, int) else (K, i)
    div = operator.floordiv if isinstance(one, int) else operator.truediv
    h = one
    for t in range(top):  # h(top) = prod_t (max(K, i) - t) / (n - t)
        h = div(h * (a - t), n - t)
    tail = [h]
    for m in range(top, 1, -1):
        h = div(h * (m * (n - K - i + m)), (K - m + 1) * (i - m + 1))
        tail.append(tail[-1] + h)
    tail.reverse()
    return tail


def _rows(n: int, K: int, one: int | float):
    """(positions, rows of `weights` times `one`) for positions n, ..., 1: blocks of
    at most _BLOCK // K down to K (their rows' top), then each i < K alone."""
    step = max(1, _BLOCK // K)
    dtype = float if isinstance(one, float) else object
    for hi in range(n, K - 1, -step):
        block = np.arange(hi, max(hi - step, K - 1), -1, dtype=dtype)
        yield block.tolist(), zip(*[c.tolist() for c in weights(n, K, block, one)])
    for i in range(K - 1, 0, -1):
        yield [i], [weights(n, K, i, one)]


def p_star(n: int, J: int, K: int, mode: str = "float") -> Fraction | float:
    """P*_n for n items, J quotas and K payoff ranks; a Fraction in exact mode."""
    _check(n, J, K, mode)
    K = min(K, n)
    quotas = range(J, 0, -1)  # descending, so v[r-1] is still V(i+1, r-1)
    if mode == "float":
        v = [0.0] * (J + 1)  # v[r] = V(i+1, r)
        for positions, rows in _rows(n, K, 1.0):
            for i, w in zip(positions, rows):
                for r in quotas:
                    keep = v[r] - v[r - 1]
                    gain = 0.0
                    for x in w:  # w falls in k (each adds a mass >= 0 to the next), in float too
                        if x <= keep:
                            break
                        gain += x - keep
                    v[r] += gain / i
        return v[J]
    v = [0] * (J + 1)  # v[r] = V(i+1, r) n!/i! perm(n, K)
    lift = 1  # n!/i!
    for positions, rows in _rows(n, K, perm(n, K)):
        for i, w in zip(positions, rows):
            for r in quotas:
                keep = v[r] - v[r - 1]
                gain = 0
                for x in w:
                    x *= lift
                    if x <= keep:
                        break
                    gain += x - keep
                v[r] = i * v[r] + gain
            lift *= i
    return Fraction(v[J], factorial(n) * perm(n, K))
