"""Thresholds from the value function of the infinite model.

W_r(x) is the expected payoff still to come at time x with r unused
quotas.  With t = ln x, W_0 = 0 and W_r(1) = 0,

    dW_r/dt = -sum_k max(0, g_{r,k}),   g_{r,k} = x alpha_k(x) + W_{r-1} - W_r,

where g_{r,k} is the gain of taking a k-potential with r quotas left (the
limit i/n -> x of the recursion in `dp`; the LP-duality view of such
recursions goes back to Buchbinder, Jain and Singh, IPCO 2010).  tau_{r,k}
is where g_{r,k} turns non-positive going down from x = 1.  tau_{r,k}
rises with k, so row r's active pairs are k = 1..n_r, and between
thresholds the equation is linear with constant coefficients:

    dW_r/dt = n_r (W_r - W_{r-1}) - x sum_{k <= n_r} alpha_k(x).

It is solved at Chebyshev points in t (Trefethen, Spectral Methods in
MATLAB) on cells of fixed length going down from t = 0, rows r = 1..J in
order within a cell, each through its integrating factor and the exact
antiderivative of the node values' interpolant.  The candidate crossing of
row r is the pair (r, n_r), and no other active pair may turn first; a
cell ends at the earliest candidate root, or at its bottom node; W there
seeds the next cell, and the solve stops once no pair is active.  Nothing
is cached across calls but `alphas`' read-only binomial blocks, one per K.
The Chebyshev toolkit comes from `piecewise`.

This is the package's one threshold solver.  The thresholds are not
certified here: the solve returns its cells as the certificate's arrays
(their ends and tops, W and x alpha_k at the nodes, and the active
pairs), ascending in x, with the cells of zero width in x dropped;
`dual.construct_dual` builds the dual functions from them, and
`dual.verify_certificate` decides whether the thresholds are optimal.
The threshold matrix type, the size caps and the batched alpha rows live
here too, so this module imports nothing from `dual`.  Failures raise
ValueSolveError, an ArithmeticError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from math import comb

import numpy as np

from .piecewise import ANTI, CHEB_D, CHEB_S, CHEB_WEIGHTS, NODES
from .theta import MAX_J

# Floor of the solve; far below any reachable threshold (the smallest
# thresholds for J <= MAX_J = 16 sit above 1e-4).
X_FLOOR = 1e-9
# Largest K, a bound on the work: cells are 3/K long in t and a
# certificate checks J*K dual functions.
MAX_K = 35
MAX_CELL = 0.5  # trial cell length in t is min(MAX_CELL, CELL_K / K)
CELL_K = 3.0
NEWTON_STEPS = 8
NEWTON_TOL = 1e-8  # in s; the step after one this small is below rounding
T_FLOOR = math.log(X_FLOOR)  # no threshold lies below this t


class MonotonicityError(ValueError):
    """A threshold matrix violates the required row/column ordering."""


class ThresholdMatrix(namedtuple("ThresholdMatrix", [
    "J", "K",  # int
    "tau",  # tuple[tuple[float, ...], ...]
])):
    """tau[j-1][k-1] = tau_{j,k}: rows non-decreasing in k, columns non-increasing
    in j, checked however one is made: called, by `_make` or `_replace`,
    copied or unpickled."""

    __slots__ = ()

    def __new__(cls, J: int, K: int, tau: tuple[tuple[float, ...], ...]):
        if len(tau) != J or any(len(r) != K for r in tau):
            raise ValueError("threshold matrix shape mismatch")
        for j in range(J):
            for k in range(K):
                t = tau[j][k]
                if not 0.0 < t <= 1.0:
                    raise MonotonicityError(f"tau[{j+1}][{k+1}]={t} not in (0, 1]")
                if k + 1 < K and t > tau[j][k + 1]:
                    raise MonotonicityError(
                        f"row {j+1} not increasing in k at k={k+1}"
                    )
                if j + 1 < J and tau[j + 1][k] > t:
                    raise MonotonicityError(
                        f"column {k+1} not decreasing in j at j={j+1}"
                    )
        return super().__new__(cls, J, K, tau)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def threshold(self, j: int, k: int) -> float:
        """1-based accessor for tau_{j,k}."""
        return self.tau[j - 1][k - 1]


def check_size(J: int, K: int) -> None:
    """Refuse K above MAX_K and J above MAX_J, before any work.

    MAX_J is theta's K = 1 cap.  For K >= 2 it keeps to where every pair
    verifies (all 560 with K <= 35): with the cap raised, (24,4) through
    (48,4) verified, (48,4) at residual 5e-9 against the 1e-8 tolerance,
    but (64,2) failed at 3.1e-6 near tau_{64,1} = 8.6e-10, because the
    check divides by x."""
    if J < 1 or K < 1:
        raise ValueError("J and K must be positive")
    if K > MAX_K:
        raise ValueError(f"K={K} exceeds the cap {MAX_K}")
    if J > MAX_J:
        raise ValueError(f"J={J} exceeds the cap {MAX_J}")


@lru_cache(maxsize=MAX_K)
def _term_coef(K: int) -> np.ndarray:
    """Read-only: [d, k-1] = C(k+d-1, d), the coefficient of alpha_k's term
    (1-x)^d x^(k-1), where k + d <= K, else 0."""
    block = np.array([[comb(k + d - 1, d) * (k + d <= K) for k in range(1, K + 1)]
                      for d in range(K)], float)
    block.flags.writeable = False
    return block


def alphas(K: int, x: np.ndarray) -> np.ndarray:
    """Rows alpha(1, K, x), ..., alpha(K, K, x) of a 1-D float array x,
    for K <= MAX_K.

    One einsum contracts the masked C(k+d-1, d) block with the rows
    (1-x)^d, d < K, adding the terms for d ascending as the nested float
    sum of one alpha_k does (the mask's zeros come last and change nothing
    for x in [0, 1]); times x^(k-1), row k equals that sum bit for bit.
    The powers are one np.power call, elementwise as `u ** d`, but for
    d = 2 that is numpy's square, u * u, and so is row 2.
    """
    base = np.array((1.0 - x, x))[:, None]
    powers = base ** np.arange(K)[:, None]
    powers[:, 2:3] = base * base
    return np.einsum("dk,dn->kn", _term_coef(K), powers[0]) * powers[1]


_NODE_LIST = CHEB_S.tolist()
_NODE_AT = {s: i for i, s in enumerate(_NODE_LIST)}


class ValueSolveError(ArithmeticError):
    """The collocation solve left the form its thresholds must have."""


class Solution(namedtuple("Solution", [
    "tau",  # ThresholdMatrix
    "payoff",  # W_J(0+), the expected payoff of the optimal policy
    "half",  # dt/ds on every cell
    "bps",  # the n + 1 cell ends in x, from tau_{J,1} up to 1
    "tops",  # the top of each cell in t = ln x
    "w",  # (n, J + 1, NODES): W_0..W_J at the nodes
    "gain",  # (n, K, NODES): x alpha_k at the nodes, rows k = 1..K
    "active",  # (n, J): row r's active pairs are k = 1..active[c, r-1]
])):
    """The solve's n cells ascending in x, each s in [s(lo), 1] of its trial
    cell [top - 2 half, top]; those of zero width in x are dropped."""

    __slots__ = ()


def _weights(s: float) -> np.ndarray:
    """Barycentric weights at s, unnormalised: the interpolant of node
    values v is (v @ c) / c.sum().  On a node, a unit vector."""
    if s in _NODE_AT:
        return (CHEB_S == s) * 1.0
    return CHEB_WEIGHTS / (s - CHEB_S)


def _root(g: np.ndarray, i: int) -> float:
    """The zero of g's interpolant between nodes i - 1 and i, where g turns
    from > 0 to <= 0: the secant between them, then Newton steps."""
    hi, lo = _NODE_LIST[i - 1], _NODE_LIST[i]
    g_hi, g_lo = g[i - 1 : i + 1].tolist()
    s = hi - g_hi * (hi - lo) / (g_hi - g_lo)
    both = np.array([g, np.dot(CHEB_D, g)])  # g and dg/ds at the nodes
    for _ in range(NEWTON_STEPS):
        p, dp = np.dot(both, _weights(s)).tolist()  # the normalisation cancels
        if dp == 0.0:
            break
        step = p / dp
        s = min(max(s - step, lo), hi)
        if abs(step) < NEWTON_TOL:
            break
    return s


def solve(J: int, K: int) -> Solution:
    """tau and W_J(0+) for the (J,K) problem; sizes as `check_size`."""
    check_size(J, K)
    half = 0.5 * min(MAX_CELL, CELL_K / K)  # dt/ds on a cell
    # Between thresholds row r has dW_r/dt = n W_r - f_r, with
    # f_r = n W_{r-1} + S_n and S_n = sum_{k <= n} x alpha_k, so on a cell
    # with t = t_top + (s - 1) h and E_n(s) = exp(n (t - t_top))
    #     W_r = E_n (W_r(top) + h int_s^1 f_r / E_n ds).
    # Row n of `decay` is E_n at the nodes, and `carry[n]` maps f to
    # h E_n int_s^1 f / E_n ds; n = 0 keeps W_r constant.  n h <= 3/2 keeps
    # E_n within [e^-3, 1] on a cell.
    t_nodes = (CHEB_S - 1.0) * half  # node times relative to the cell top
    decay = np.exp(np.arange(K + 1)[:, None] * t_nodes)
    carry = half * decay[:, :, None] * ANTI / decay[:, None, :]
    prev = np.arange(K + 1)[:, None, None] * carry  # the response to W_{r-1}
    n_active = np.full(J, K)  # row r's active pairs are k = 1..n_active[r-1]
    tau = np.zeros((J, K))
    w_top = np.zeros(J + 1)
    t_top, x_top = 0.0, 1.0
    # g at the nodes is x alpha_k + W_{r-1} - W_r.  edge[0, n] holds
    # x alpha_n, row r's candidate (r, n) term, and edge[1, n] the least
    # x alpha_k over its other active pairs k < n (+inf where there is none)
    edge = np.full((2, K + 1, NODES), math.inf)
    gain_sums = np.zeros((K + 1, NODES))  # S_n = sum_{k <= n} x alpha_k
    left = J * K  # thresholds still to find
    hit = np.ones(NODES + 1, bool)  # hit[NODES] stays True: no root cuts at NODES
    # Each cell is solved in place in the next free slot, from the end of
    # these arrays down, so the kept cells [kept:] come out ascending in x.
    # A cell ends at a threshold or spans 2 half in t above T_FLOOR, so no
    # more than `room` cells are solved.
    room = J * K + int(-T_FLOOR / (2 * half)) + 2
    cell_w = np.empty((room, J + 1, NODES))
    cell_gain = np.empty((room, K, NODES))
    cell_active = np.empty((room, J), n_active.dtype)
    kept = room
    ends, tops = [], []  # the kept cells' tops in x and t, from x = 1 down
    while left:
        if t_top < T_FLOOR:
            raise ValueSolveError(f"no threshold found above x={X_FLOOR}")
        x = np.exp(t_top + t_nodes)
        gain = np.multiply(x, alphas(K, x), out=cell_gain[kept - 1])
        edge[0, 1:] = gain
        np.minimum.accumulate(gain[:-1], axis=0, out=edge[1, 2:])
        gain.cumsum(axis=0, out=gain_sums[1:])
        fixed = decay[n_active] * w_top[1:, None]
        fixed += (carry @ gain_sums[:, :, None])[n_active, :, 0]
        w = cell_w[kept - 1]
        w[0] = 0.0  # W_0
        for r, n in enumerate(n_active.tolist(), start=1):  # np.dot: @'s gemv, less overhead
            w[r] = np.dot(prev[n], w[r - 1]) + fixed[r - 1]
        g = edge[:, n_active] + (w[:-1] - w[1:])  # candidates, then the others
        down = g <= 0.0
        down[0].any(axis=0, out=hit[:NODES])
        cut = int(hit.argmax())  # the first node at or past a root, else NODES
        early = down[1, :, :cut]
        if early.any():
            r, i = np.argwhere(early)[0]
            raise ValueSolveError(
                f"row {r + 1}: a pair below k={n_active[r]} turns non-positive "
                f"first, at x={math.exp(t_top + t_nodes[i]):.6f}"
            )
        # The cell ends at its earliest root, or at its bottom node s = -1,
        # where c is a unit vector and t_lo is t_top - 2 half exactly.
        best, best_s = -1, -1.0
        for r in down[0, :, cut : cut + 1].nonzero()[0].tolist():  # none if cut == NODES
            s = 1.0 if cut == 0 else _root(g[0, r], cut)
            if best < 0 or s > best_s:  # a root at s = -1 counts
                best, best_s = r, s
        c = _weights(best_s)
        w_top = np.dot(w, c) / c.sum()
        t_lo = t_top + (best_s - 1.0) * half
        x_lo = math.exp(t_lo)
        if x_lo < x_top:  # else the cell has zero width in x, and its slot is reused
            kept -= 1
            cell_active[kept] = n_active
            ends.append(x_top)
            tops.append(t_top)
        t_top, x_top = t_lo, x_lo
        if best >= 0:
            n_active[best] -= 1
            tau[best, n_active[best]] = x_top
            left -= 1
    try:
        matrix = ThresholdMatrix(J, K, tuple(map(tuple, tau.tolist())))
    except MonotonicityError as exc:
        raise ValueSolveError(str(exc)) from exc
    return Solution(matrix, float(w_top[J]), half, np.array((x_top, *ends[::-1])),
                    np.array(tops[::-1]), cell_w[kept:], cell_gain[kept:], cell_active[kept:])
