"""General (J,K) dual certificates for the optimal thresholds.

For J selection quotas and payoff counted over the K overall-best items,
the optimal policy is a threshold matrix tau[j][k]: quota j may take a
k-potential (k-th best seen so far) from time tau[j][k] on, and the unused
quota with the largest index is consumed first.  tau comes from value.py's
solver, the package's one threshold solver, and the dual functions that
certify it are that solve's value function W (after Buchbinder, Jain and
Singh, IPCO 2010): on each Chebyshev cell, x q_{j|k}(x) is gain_k + drop_j
(gain_k = x alpha_k, drop_j = W_{j-1} - W_j) above tau_{j,k} and zero
below, and r_{j|k} = q_{j|1} + ... + q_{j|k}.  They certify optimality if
they meet the complementary-slackness equalities above each threshold and
the dual inequalities below it, vanish at the threshold, and integrate to
the payoff J - sum_j (1 - tau[j][1])**K.  verify_certificate checks that
on a grid, against alpha_k computed afresh, so a wrong tau shows up as
|q(tau)| > tol.  The check and the JSON dump evaluate K gain and J drop
series per point from per-cell arrays with piecewise's one evaluator (a
cell at a time, no BLAS: a point's values do not depend on its batch);
the q and r rows are built from those arrays only when read.  Every K,
K = 1 included, runs this one double-precision construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import value
from .piecewise import (
    NODES, TO_COEF, PiecewiseFunction, _antiderivative, _cell_integrals, _series,
)
# Unused here: the benchmark's traced passes wrap dual.find_largest_root.
from .piecewise import find_largest_root  # noqa: F401
from .value import ThresholdMatrix, alphas

# Largest verification grid: the check sorts this many points once.
MAX_GRID_POINTS = 1_000_000
# Certificate check: grid and tolerance defaults (the CLI's too), the largest
# accepted |dual objective - payoff|, samples per q in JSON, and values per
# chunk (points x (K + 2 J) series rows), which bounds each chunk's arrays.
DEFAULT_GRID_POINTS = 2000
DEFAULT_TOLERANCE = 1e-8
OBJECTIVE_TOL = 1e-9
CERT_SAMPLES = 50
CHUNK_VALUES = 3 << 13
# Relative size below which the dual functions' top Chebyshev coefficients
# are dropped (at 1e-14, 10-18 of the 28 are kept for J, K <= 35).
CHOP = 1e-14


def payoff_jk(tau: ThresholdMatrix) -> float:
    """Optimal expected payoff J - sum_j (1 - tau_{j,1})^K."""
    return tau.J - sum((1.0 - row[0]) ** tau.K for row in tau.tau)


# -- certificate construction ----------------------------------------------


@dataclass(frozen=True, eq=False)
class DualCertificateJK:
    """Thresholds plus the dual functions that certify their optimality.

    q[j-1][k-1] is the dual function for (quota j, potential rank k),
    supported on [tau_{j,k}, 1]; r[j-1][k-1] is the running sum
    q_{j|1} + ... + q_{j|k}.  value.solve's cells (`half` is their dt/ds)
    become cell arrays when the certificate is first checked or dumped,
    and rows when q or r is first read; reading tau builds neither.
    """

    tau: ThresholdMatrix
    half: float
    cells: tuple[value.Cell, ...]

    @property
    def J(self) -> int:
        return self.tau.J

    @property
    def K(self) -> int:
        return self.tau.K

    @cached_property
    def _arrays(self) -> CellArrays:
        return _cell_arrays(self)

    @cached_property
    def _rows(self) -> tuple:
        return _cell_rows(self)

    @property
    def q(self) -> tuple[tuple[PiecewiseFunction, ...], ...]:
        return self._rows[0]

    @property
    def r(self) -> tuple[tuple[PiecewiseFunction, ...], ...]:
        return self._rows[1]

    def r_top(self, j: int) -> PiecewiseFunction:
        """r_{j|K}, with r_{0|K} identically zero."""
        if j == 0:
            return PiecewiseFunction.zero()
        return self.r[j - 1][-1]


class CellArrays(NamedTuple):
    """The dual functions on the solve's n cells, ascending in x.

    On cell c, y q_{j|k}(y) = gain_k + drop_j if k <= active[c, j-1], else
    0; q_{j|k} lives on cells first[j-1, k-1] and up.  coef[d, row, c] is
    degree-major: K gain rows, J drop rows (top degree 0), then J
    antiderivatives in s of y [r_{j|K} - r_{j-1|K}], each tail_top[j-1, c]
    at the top of cell c and integrating to suffix[j-1, c] over cells c..
    """

    bps: np.ndarray  # the n + 1 cell ends in x, the last 1
    tops: np.ndarray  # the top of each cell in t = ln x
    half: float
    active: np.ndarray  # (n, J)
    first: np.ndarray  # (J, K)
    coef: np.ndarray  # (degrees + 1, K + 2 J, n)
    tail_top: np.ndarray  # (J, n)
    suffix: np.ndarray  # (J, n + 1)

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each point's cell, its s there and active[i, j-1] (0 below cell 0)."""
        cell = np.searchsorted(self.bps, x, side="right") - 1
        np.clip(cell, 0, len(self.tops) - 1, out=cell)
        s = 1.0 + (np.log(x) - self.tops[cell]) / self.half
        return cell, s, self.active[cell] * (x >= self.bps[0])[:, None]


def _cell_arrays(cert: DualCertificateJK) -> CellArrays:
    """The solve's node values as Chebyshev coefficients, once per cell;
    cells of zero width in x (a threshold on a cell top) are dropped."""
    J, K, half = cert.J, cert.K, cert.half
    cells = [c for c in reversed(cert.cells) if math.exp(c.lo) < math.exp(c.top)]
    n = len(cells)
    bps = np.array([math.exp(cells[0].lo)] + [math.exp(c.top) for c in cells])
    tops = np.array([c.top for c in cells])
    active = np.array([c.active for c in cells])
    gain = np.array([c.gain for c in cells]) @ TO_COEF.T
    drop = np.array([c.w[:-1] - c.w[1:] for c in cells]) @ TO_COEF.T
    # degrees whose coefficients stay below CHOP of their cell's largest are
    # the solve's rounding noise: evaluating them changes no verdict
    scale = CHOP * np.maximum(abs(gain).max(axis=(1, 2)), abs(drop).max(axis=(1, 2)))
    big = [(abs(a) > scale[:, None, None]).any(axis=(0, 1)) for a in (gain, drop)]
    degrees = NODES - int(np.argmax((big[0] | big[1])[::-1]))
    gain, drop = gain[..., :degrees], drop[..., :degrees]
    # y r_{j|K} = gain_1 + ... + gain_m + m drop_j with m active pairs;
    # its row differences are integrated on the coefficients
    sums = np.zeros((n, K + 1, degrees))
    np.cumsum(gain, axis=1, out=sums[:, 1:])
    r_top = sums[np.arange(n)[:, None], active] + active[..., None] * drop
    coef = np.zeros((degrees + 1, K + 2 * J, n))
    coef[:degrees, :K], coef[:degrees, K : K + J] = gain.T, drop.T
    coef[:, K + J :] = _antiderivative(np.diff(r_top, axis=1, prepend=0.0).T)
    first = n - (active[..., None] > np.arange(K)).sum(axis=0)
    tail_top, suffix = _cell_integrals(coef[:, K + J :], bps, tops, half)
    return CellArrays(bps, tops, half, active, first, coef, tail_top, suffix)


def _cell_rows(cert: DualCertificateJK) -> tuple:
    """(q rows, r rows) from the cell arrays: where row j's active pairs
    are k = 1..m, y r_{j|k} = sum_{l <= min(k, m)} (gain_l + drop_j)."""
    a, K = cert._arrays, cert.K
    gain, drop = a.coef[:-1, :K].T, a.coef[:-1, K : K + cert.J].T  # (cells, rows, degrees)
    sums = np.cumsum(gain, axis=1)
    every = np.arange(len(gain))[:, None]

    def on_top(first: int, coef: np.ndarray) -> PiecewiseFunction:
        return PiecewiseFunction(a.bps[first:], a.tops[first:], a.half, coef)

    q_rows, r_rows = [], []
    for j, first in enumerate(a.first):
        q_rows.append(tuple(on_top(f, gain[f:, k] + drop[f:, j]) for k, f in enumerate(first)))
        m = np.minimum.outer(a.active[:, j], np.arange(1, K + 1))  # nonzero q per cell
        r = sums[every, m - 1] + m[..., None] * drop[:, j, None]
        r_rows.append(tuple(on_top(first[0], r[first[0] :, k]) for k in range(K)))
    return tuple(q_rows), tuple(r_rows)


def construct_dual(J: int, K: int) -> DualCertificateJK:
    """Dual functions for the (J,K) problem at value.solve's thresholds and
    on its cells; value.solve checks the sizes before any work."""
    sol = value.solve(J, K)
    return DualCertificateJK(sol.tau, sol.half, sol.cells)


def _sorted_union(*arrays: np.ndarray) -> np.ndarray:
    """Ascending distinct values of the arrays (not np.union1d, whose
    np.unique imports numpy.ma: 1.5 MB of resident memory)."""
    xs = np.sort(np.concatenate(arrays))
    return xs[np.diff(xs, prepend=-np.inf) != 0]


def _q_at(arr: CellArrays, x: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """q_{j|k}(x) for aligned arrays of points and 0-based j and k, from
    one evaluation of the gain and drop series at the points' sorted union."""
    points = _sorted_union(x)
    cell, s, active = arr.locate(points)
    J, K = arr.first.shape
    values = _series(arr.coef[:, : K + J], cell, s)
    at = np.searchsorted(points, x)
    return np.where(k < active[at, j], (values[k, at] + values[K + j, at]) / x, 0.0)


# -- certificate verification ----------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    J: int
    K: int
    ok: bool
    tolerance: float
    grid_points: int
    max_equality_residual: float
    min_inequality_slack: float
    max_threshold_residual: float
    min_q_value: float
    dual_objective: float
    payoff: float
    objective_gap: float
    first_violation: str | None


def verify_certificate(
    cert: DualCertificateJK,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_TOLERANCE,
) -> CertificateReport:
    """Check the slackness system, feasibility and the objective identity.

    For every (j, k) and every grid x the constraint left-hand side
    q_{j|k}(x) + (1/x) int_x^1 [r_{j|K} - r_{j-1|K}] must equal alpha_k(x)
    on [tau_{j,k}, 1] (residual <= tol) and weakly exceed it below
    (slack >= -tol); q_{j|k} must vanish at its threshold and stay
    non-negative; the dual objective must match the payoff within
    OBJECTIVE_TOL.  The points, i/grid_points and every cell end, go
    CHUNK_VALUES / (K + 2 J) at a time: the gain, drop and tail series are
    evaluated once per chunk, in the cells only, and q a row j at a time
    as (K, points) arrays, searched for a violation only when its extremes
    break tol.  A NaN anywhere is a violation.  first_violation names the
    first bound broken in the order j, k, threshold, then x ascending
    (equality before q >= 0).
    """
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points={grid_points} outside [1, {MAX_GRID_POINTS}]")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol={tol} outside [0, inf)")
    J, K, arr, tau = cert.J, cert.K, cert._arrays, np.array(cert.tau.tau)
    max_eq, min_slack, min_q = 0.0, math.inf, math.inf
    # notes[j-1][k-1]: the first broken bound of (j, k), its threshold first
    notes: list[list[str | None]] = [[None] * K for _ in range(J)]
    roots = abs(_q_at(arr, tau.ravel(), *np.divmod(np.arange(J * K), K))).reshape(J, K)
    for (j, k), root in np.ndenumerate(roots):
        if not root <= tol:
            notes[j][k] = f"q[{j + 1}][{k + 1}] at its threshold: |q|={root:.3e}"
    points = _sorted_union(np.arange(1, grid_points + 1) / grid_points, arr.bps)
    # Chunks ascend in x, so each (j, k) meets its points in ascending order.
    step = max(1, CHUNK_VALUES // (K + 2 * J))
    for a in range(0, len(points), step):
        x = points[a : a + step]
        cell, s, active = arr.locate(x)
        lo = int(np.searchsorted(x, arr.bps[0]))  # below: q is 0, tails are suffix sums
        values = np.zeros((arr.coef.shape[1], len(x)))
        values[:, lo:] = _series(arr.coef, cell[lo:], s[lo:])
        # (1/x) int_x^1 [r_{j|K} - r_{j-1|K}], rows j = 1..J
        tails = arr.suffix[:, cell + 1] + arr.half * (arr.tail_top[:, cell] - values[K + J :])
        tails[:, x <= arr.bps[0]] = arr.suffix[:, :1]  # at x = 1, s = 1 and they are 0
        tails /= x
        alpha_rows = alphas(K, x)
        for j, row_notes in enumerate(notes):
            live = np.arange(1, K + 1)[:, None] <= active[:, j]  # pairs (j, k) active at x
            qv = np.where(live, (values[:K] + values[K + j]) / x, 0.0)
            slack = qv + tails[j] - alpha_rows
            res = np.abs(slack)
            above = x >= tau[j][:, None]
            # fmax/fmin skip NaN, so a row holding NaN is searched as well
            eq = float(np.fmax.reduce(res, axis=None, where=above, initial=0.0))
            q_lo = float(np.fmin.reduce(qv, axis=None, where=above, initial=math.inf))
            slack_lo = float(np.fmin.reduce(slack, axis=None, where=~above, initial=math.inf))
            max_eq, min_q, min_slack = max(max_eq, eq), min(min_q, q_lo), min(min_slack, slack_lo)
            if eq <= tol and q_lo >= -tol and slack_lo >= -tol and not np.isnan(slack).any():
                continue
            bad = np.where(above, ~(res <= tol) | ~(qv >= -tol), ~(slack >= -tol))
            for k in np.flatnonzero(bad.any(axis=1)):
                if row_notes[k] is not None:
                    continue
                i = int(bad[k].argmax())
                at = f"(j={j + 1}, k={k + 1}, x={x[i]:.6f})"
                if not above[k, i]:
                    row_notes[k] = f"dual feasibility {at}: slack {slack[k, i]:.3e}"
                elif not res[k, i] <= tol:
                    row_notes[k] = f"slackness equality {at}: residual {res[k, i]:.3e}"
                else:
                    row_notes[k] = f"q[{j + 1}][{k + 1}]({x[i]:.6f}) = {qv[k, i]:.3e} < 0"
    violation = next((n for row in notes for n in row if n is not None), None)
    objective = math.fsum(arr.suffix[:, 0].tolist())  # int_0^1 r_{J|K}
    payoff = payoff_jk(cert.tau)
    gap = abs(objective - payoff)
    if violation is None and not gap <= OBJECTIVE_TOL:  # a NaN gap fails too
        violation = f"dual objective {objective} vs payoff {payoff}"
    max_root = float(np.fmax.reduce(roots, axis=None, initial=0.0))
    return CertificateReport(J, K, violation is None, tol, grid_points, max_eq, min_slack,
                             max_root, min_q, objective, payoff, gap, violation)


def perturbed(cert: DualCertificateJK, delta: float) -> DualCertificateJK:
    """Copy of cert with tau_{1,1} shifted by delta (functions untouched),
    a deliberately broken certificate for verify_certificate's failure path."""
    rows = [list(r) for r in cert.tau.tau]
    rows[0][0] += delta
    return replace(cert, tau=ThresholdMatrix(cert.J, cert.K, tuple(map(tuple, rows))))


def certificate_to_dict(
    cert: DualCertificateJK, report: CertificateReport | None = None
) -> dict:
    """JSON-ready dump: thresholds, breakpoints and sampled dual values.

    Each q_{j|k} is sampled at its breakpoints and evenly between them,
    about CERT_SAMPLES points in all, from one evaluation at every sample.
    """
    arr = cert._arrays
    a, b, firsts = arr.bps[:-1], arr.bps[1:], arr.first.ravel().tolist()
    per_cell = [max(1, CERT_SAMPLES // max(1, len(a) - f)) for f in firsts]
    every = {}  # points per cell -> samples in every cell, then x = 1
    for m in set(per_cell):
        every[m] = np.append(a[:, None] + np.arange(m + 1) * ((b - a) / (m + 1))[:, None], 1.0)
    samples = [every[m][f * (m + 1) :] for f, m in zip(firsts, per_cell)]
    sizes = [len(xs) for xs in samples]
    xs = np.concatenate(samples)
    pairs = np.divmod(np.repeat(np.arange(len(firsts)), sizes), cert.K)
    rows = np.column_stack((xs, _q_at(arr, xs, *pairs))).tolist()
    ends, bps = np.cumsum(sizes).tolist(), arr.bps.tolist()
    out: dict = {
        "J": cert.J,
        "K": cert.K,
        "tau": [list(row) for row in cert.tau.tau],
        "payoff": payoff_jk(cert.tau),
        "q": [
            dict(j=j + 1, k=k + 1, breakpoints=bps[f:], samples=rows[end - n : end])
            for (j, k), f, n, end in zip(np.ndindex(arr.first.shape), firsts, sizes, ends)
        ],
    }
    if report is not None:
        out["verification"] = {name: getattr(report, name) for name in (
            "ok", "max_equality_residual", "min_inequality_slack",
            "max_threshold_residual", "dual_objective", "objective_gap")}
    return out
