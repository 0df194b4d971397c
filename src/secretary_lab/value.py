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
cell ends at the earliest candidate root, where W seeds the next cell, and
the solve stops once no pair is active.  Nothing is cached across calls.

The thresholds are not certified: `dual.construct_dual` builds the
certificate that `dual-check` verifies.  Failures raise ValueSolveError,
an ArithmeticError.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import dual

NODES = 28  # Chebyshev points per cell
MAX_CELL = 0.5  # trial cell length in t is min(MAX_CELL, CELL_K / K)
CELL_K = 3.0
NEWTON_STEPS = 8
NEWTON_TOL = 1e-8  # in s; the step after one this small is below rounding
T_FLOOR = math.log(dual.X_FLOOR)  # no threshold lies below this t


def _cheb(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points s_i = cos(i pi / m), i = 0..m (descending from 1), the
    differentiation matrix at them and their barycentric weights."""
    s = np.sin(np.pi * np.arange(m, -m - 1, -2) / (2 * m))
    c = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    c[[0, -1]] *= 2.0
    ds = s[:, None] - s[None, :]
    d = np.outer(c, 1.0 / c) / (ds + np.eye(m + 1))
    d -= np.diag(d.sum(axis=1))
    return s, d, 1.0 / c


def _antiderivative(m: int) -> np.ndarray:
    """The matrix taking node values v to the node values of int_s^1 p,
    p the interpolant of v (Trefethen, Spectral Methods in MATLAB, ch. 12).

    With p = sum_k a_k T_k, a from a cosine sum over the nodes, an
    antiderivative is sum_k b_k T_k with b_k = (c a_{k-1} - a_{k+1}) / (2k)
    (c = 2 for k = 1, else 1), and int_s^1 p = sum_k b_k (1 - T_k(s)).
    """
    cos = np.cos(np.outer(np.arange(m + 2), np.pi * np.arange(m + 1) / m))
    to_coef = cos[: m + 1] * (2.0 / m)  # a = to_coef @ v
    to_coef[:, [0, -1]] /= 2.0
    to_coef[[0, -1]] /= 2.0
    integrate = np.zeros((m + 2, m + 1))  # b = integrate @ a
    k = np.arange(1, m + 2)
    integrate[k, k - 1] = np.where(k == 1, 1.0, 0.5 / k)
    integrate[k[:-2], k[:-2] + 1] = -0.5 / k[:-2]
    return (1.0 - cos.T) @ integrate @ to_coef


_S, _D, _BARY = _cheb(NODES - 1)
_ANTI = _antiderivative(NODES - 1)
_NODE_LIST = _S.tolist()
_NODE_AT = {s: i for i, s in enumerate(_NODE_LIST)}


class ValueSolveError(ArithmeticError):
    """The collocation solve left the form its thresholds must have."""


class Solution(NamedTuple):
    tau: dual.ThresholdMatrix
    payoff: float  # W_J(0+), the expected payoff of the optimal policy


def _weights(s: float) -> np.ndarray:
    """Barycentric weights at s, unnormalised: the interpolant of node
    values v is (v @ c) / c.sum().  On a node, a unit vector."""
    i = _NODE_AT.get(s)
    if i is not None:
        return np.eye(NODES)[i]
    return _BARY / (s - _S)


def _root(g: np.ndarray, i: int) -> float:
    """The zero of g's interpolant between nodes i - 1 and i, where g turns
    from > 0 to <= 0: the secant between them, then Newton steps."""
    hi, lo = _NODE_LIST[i - 1], _NODE_LIST[i]
    g_hi, g_lo = g[i - 1].item(), g[i].item()
    s = hi - g_hi * (hi - lo) / (g_hi - g_lo)
    both = np.array([g, _D @ g])  # g and dg/ds at the nodes
    for _ in range(NEWTON_STEPS):
        p, dp = (both @ _weights(s)).tolist()  # the normalisation cancels
        if dp == 0.0:
            break
        step = p / dp
        s = min(max(s - step, lo), hi)
        if abs(step) < NEWTON_TOL:
            break
    return s


def solve(J: int, K: int) -> Solution:
    """tau and W_J(0+) for the (J,K) problem; sizes as `dual.check_size`."""
    dual.check_size(J, K)
    half = 0.5 * min(MAX_CELL, CELL_K / K)  # dt/ds on a cell
    # Between thresholds row r has dW_r/dt = n W_r - f_r, with
    # f_r = n W_{r-1} + S_n and S_n = sum_{k <= n} x alpha_k, so on a cell
    # with t = t_top + (s - 1) h and E_n(s) = exp(n (t - t_top))
    #     W_r = E_n (W_r(top) + h int_s^1 f_r / E_n ds).
    # Row n of `decay` is E_n at the nodes, and `carry[n]` maps f to
    # h E_n int_s^1 f / E_n ds; n = 0 keeps W_r constant.  n h <= 3/2 keeps
    # E_n within [e^-3, 1] on a cell.
    t_nodes = (_S - 1.0) * half  # node times relative to the cell top
    decay = np.exp(np.arange(K + 1)[:, None] * t_nodes)
    carry = half * decay[:, :, None] * _ANTI / decay[:, None, :]
    prev = np.arange(K + 1)[:, None, None] * carry  # the response to W_{r-1}
    n_active = np.full(J, K)  # row r's active pairs are k = 1..n_active[r-1]
    tau = np.zeros((J, K))
    w = np.zeros((J + 1, NODES))  # row 0 is W_0 = 0
    w_top = np.zeros(J + 1)
    t_top = 0.0
    # g at the nodes is x alpha_k + W_{r-1} - W_r.  edge[0, n] holds
    # x alpha_n, row r's candidate (r, n) term, and edge[1, n] the least
    # x alpha_k over its other active pairs k < n (+inf where there is none)
    edge = np.full((2, K + 1, NODES), math.inf)
    gain_sums = np.zeros((K + 1, NODES))  # S_n = sum_{k <= n} x alpha_k
    left = J * K  # thresholds still to find
    while left:
        if t_top < T_FLOOR:
            raise ValueSolveError(f"no threshold found above x={dual.X_FLOOR}")
        x = np.exp(t_top + t_nodes)
        gain = edge[0, 1:]
        gain[:] = x * dual.alphas(K, x)
        np.minimum.accumulate(gain[:-1], axis=0, out=edge[1, 2:])
        np.cumsum(gain, axis=0, out=gain_sums[1:])
        fixed = decay[n_active] * w_top[1:, None]
        fixed += (carry @ gain_sums[:, :, None])[n_active, :, 0]
        for r, n in enumerate(n_active.tolist(), start=1):
            w[r] = prev[n] @ w[r - 1] + fixed[r - 1]
        g = edge[:, n_active] + (w[:-1] - w[1:])  # candidates, then the others
        down = g <= 0.0
        hit = down[0].any(axis=0)
        cut = int(hit.argmax())  # the first node at or past a root
        if not hit[cut]:
            cut = NODES
        early = down[1, :, :cut]
        if early.any():
            r, i = np.argwhere(early)[0]
            raise ValueSolveError(
                f"row {r + 1}: a pair below k={n_active[r]} turns non-positive "
                f"first, at x={math.exp(t_top + t_nodes[i]):.6f}"
            )
        if cut == NODES:  # no root in the cell
            w_top = w[:, -1].copy()
            t_top -= 2.0 * half
            continue
        best, best_s = -1, -math.inf
        for r in np.flatnonzero(down[0, :, cut]):
            s = 1.0 if cut == 0 else _root(g[0, r], cut)
            if s > best_s:
                best, best_s = r, s
        c = _weights(best_s)
        w_top = w @ c / c.sum()
        t_top += (best_s - 1.0) * half
        n_active[best] -= 1
        tau[best, n_active[best]] = math.exp(t_top)
        left -= 1
    try:
        matrix = dual.ThresholdMatrix(J, K, tuple(map(tuple, tau.tolist())))
    except dual.MonotonicityError as exc:
        raise ValueSolveError(str(exc)) from exc
    return Solution(matrix, float(w_top[J]))
