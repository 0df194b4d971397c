"""General (J,K) dual certificates for the optimal thresholds.

For J selection quotas and payoff counted over the K overall-best items,
the optimal policy is a threshold matrix tau[j][k]: with m quotas unused,
a k-potential (k-th best seen so far) at time x is taken iff x >= tau[m][k]
and spends quota m; no column of tau rises in j, so that is the largest
unused quota j with x >= tau[j][k].  tau comes from value.py's
solver, the package's one threshold solver, and the dual functions that
certify it are that solve's value function W (after Buchbinder, Jain and
Singh, IPCO 2010): on each Chebyshev cell, x q_{j|k}(x) is gain_k + drop_j
(gain_k = x alpha_k, drop_j = W_{j-1} - W_j) above tau_{j,k} and zero
below, and r_{j|k} = q_{j|1} + ... + q_{j|k}.  They certify optimality if
they meet the complementary-slackness equalities above each threshold and
the dual inequalities below it, vanish at the threshold, and integrate to
the payoff J - sum_j (1 - tau[j][1])**K.  verify_certificate checks that
on a grid, against alpha_k computed afresh, so a wrong tau shows up as
|q(tau)| > tol.  construct_dual turns the solve's node arrays into
Chebyshev coefficients, from which the check and the JSON dump evaluate
K gain and J drop series per point with piecewise's one cell locator and
one evaluator (no BLAS: a point's values do not depend on its batch), and
the q and r rows are built when read; certificate_json renders each
distinct x once.
Every K, K = 1 included, runs this one double-precision construction.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import value
from .piecewise import (
    NODES, TO_COEF, PiecewiseFunction, _antiderivative, _cell_integrals, _locate, _series,
)
from .value import ThresholdMatrix, alphas

# Called by nothing: the benchmark's traced passes wrap the name (ROADMAP item 1 drops it).
find_largest_root = None

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
    """Optimal expected payoff J - sum_j (1 - tau_{j,1})^K, summed left to right."""
    total = 0.0
    for row in tau.tau:
        total += (1.0 - row[0]) ** tau.K
    return tau.J - total


# -- certificate construction ----------------------------------------------


class DualCertificateJK(namedtuple("DualCertificateJK", [
    "tau",  # ThresholdMatrix
    "bps",  # the n + 1 cell ends in x, the last 1
    "tops",  # the top of each cell in t = ln x
    "half",  # float
    "active",  # (n, J)
    "first",  # (J, K)
    "coef",  # (degrees + 1, K + 2 J, n)
    "tail_top",  # (J, n)
    "suffix",  # (J, n + 1)
])):
    """Thresholds plus the dual functions that certify their optimality.

    q[j-1][k-1] is the dual function for (quota j, potential rank k),
    supported on [tau_{j,k}, 1]; r[j-1][k-1] is the running sum
    q_{j|1} + ... + q_{j|k}.  construct_dual stores them as arrays on the
    solve's n cells, ascending in x (`half` is their dt/ds): on cell c,
    y q_{j|k}(y) = gain_k + drop_j if k <= active[c, j-1], else 0, and
    q_{j|k} lives on cells first[j-1, k-1] and up.  coef[d, row, c] is
    degree-major: K gain rows, J drop rows (top degree 0), then J
    antiderivatives in s of y [r_{j|K} - r_{j-1|K}], each tail_top[j-1, c]
    at the top of cell c and integrating to suffix[j-1, c] over cells c..
    The q and r rows are built from the arrays only when first read, and
    kept in the instance's __dict__.  Its fields are arrays, so it equals
    and hashes as itself only.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def J(self) -> int:
        return self.tau.J

    @property
    def K(self) -> int:
        return self.tau.K

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

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each point's cell and its s there (piecewise's `_locate`), and
        active[i, j-1] (0 below cell 0)."""
        cell, s = _locate(self.bps, self.tops, self.half, x)
        return cell, s, self.active[cell] * (x >= self.bps[0])[:, None]


def _cell_rows(cert: DualCertificateJK) -> tuple:
    """(q rows, r rows) from the cell arrays: where row j's active pairs
    are k = 1..m, y r_{j|k} = sum_{l <= min(k, m)} (gain_l + drop_j)."""
    K = cert.K
    gain, drop = cert.coef[:-1, :K].T, cert.coef[:-1, K : K + cert.J].T  # (cells, rows, degrees)
    sums = np.cumsum(gain, axis=1)
    every = np.arange(len(gain))[:, None]

    def on_top(first: int, coef: np.ndarray) -> PiecewiseFunction:
        return PiecewiseFunction(cert.bps[first:], cert.tops[first:], cert.half, coef)

    q_rows, r_rows = [], []
    for j, first in enumerate(cert.first):
        q_rows.append(tuple(on_top(f, gain[f:, k] + drop[f:, j]) for k, f in enumerate(first)))
        m = np.minimum.outer(cert.active[:, j], np.arange(1, K + 1))  # nonzero q per cell
        r = sums[every, m - 1] + m[..., None] * drop[:, j, None]
        r_rows.append(tuple(on_top(first[0], r[first[0] :, k]) for k in range(K)))
    return tuple(q_rows), tuple(r_rows)


def construct_dual(J: int, K: int) -> DualCertificateJK:
    """Dual functions for the (J,K) problem at value.solve's thresholds: its
    node values as Chebyshev coefficients on its cells.  value.solve checks
    sizes."""
    tau, _, half, bps, tops, w, gain, active = value.solve(J, K)
    n = len(tops)
    gain = gain @ TO_COEF.T
    drop = (w[:, :-1] - w[:, 1:]) @ TO_COEF.T
    del w  # 2 MB at (16,35), not needed past here
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
    return DualCertificateJK(tau, bps, tops, half, active, first, coef, tail_top, suffix)


def _sorted_union(*arrays: np.ndarray) -> np.ndarray:
    """Ascending distinct values of the arrays (not np.union1d, whose
    np.unique imports numpy.ma: 1.5 MB of resident memory)."""
    xs = np.sort(np.concatenate(arrays))
    return xs[np.diff(xs, prepend=-np.inf) != 0]


def _q_at(cert: DualCertificateJK, x: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """q_{j|k}(x) for aligned arrays of points and 0-based j and k, from
    one evaluation of the gain and drop series at the points' sorted union."""
    points = _sorted_union(x)
    cell, s, active = cert.locate(points)
    J, K = cert.J, cert.K
    values = _series(cert.coef[:, : K + J], cell, s)
    at = np.searchsorted(points, x)
    return np.where(k < active[at, j], (values[k, at] + values[K + j, at]) / x, 0.0)


# -- certificate verification ----------------------------------------------


class CertificateReport(namedtuple("CertificateReport", [
    "J", "K",  # int
    "ok",  # bool
    "tolerance",  # float
    "grid_points",  # int
    "max_equality_residual", "min_inequality_slack", "max_threshold_residual",
    "dual_objective", "payoff", "objective_gap",  # float
    "first_violation",  # str | None
])):
    __slots__ = ()


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
    J, K, tau = cert.J, cert.K, np.array(cert.tau.tau)
    max_eq, min_slack = 0.0, math.inf
    # notes[j-1][k-1]: the first broken bound of (j, k), its threshold first
    notes: list[list[str | None]] = [[None] * K for _ in range(J)]
    roots = abs(_q_at(cert, tau.ravel(), *np.divmod(np.arange(J * K), K))).reshape(J, K)
    for (j, k), root in np.ndenumerate(roots):
        if not root <= tol:
            notes[j][k] = f"q[{j + 1}][{k + 1}] at its threshold: |q|={root:.3e}"
    points = _sorted_union(np.arange(1, grid_points + 1) / grid_points, cert.bps)
    # Chunks ascend in x, so each (j, k) meets its points in ascending order.
    step = max(1, CHUNK_VALUES // (K + 2 * J))
    for a in range(0, len(points), step):
        x = points[a : a + step]
        cell, s, active = cert.locate(x)
        lo = int(np.searchsorted(x, cert.bps[0]))  # below: q is 0, tails are suffix sums
        values = np.zeros((cert.coef.shape[1], len(x)))
        values[:, lo:] = _series(cert.coef, cell[lo:], s[lo:])
        # (1/x) int_x^1 [r_{j|K} - r_{j-1|K}], rows j = 1..J
        tails = cert.suffix[:, cell + 1] + cert.half * (cert.tail_top[:, cell] - values[K + J :])
        tails[:, x <= cert.bps[0]] = cert.suffix[:, :1]  # at x = 1, s = 1 and they are 0
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
            max_eq, min_slack = max(max_eq, eq), min(min_slack, slack_lo)
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
    objective = math.fsum(cert.suffix[:, 0].tolist())  # int_0^1 r_{J|K}
    payoff = payoff_jk(cert.tau)
    gap = abs(objective - payoff)
    if violation is None and not gap <= OBJECTIVE_TOL:  # a NaN gap fails too
        violation = f"dual objective {objective} vs payoff {payoff}"
    max_root = float(np.fmax.reduce(roots, axis=None, initial=0.0))
    return CertificateReport(J, K, violation is None, tol, grid_points, max_eq, min_slack,
                             max_root, objective, payoff, gap, violation)


def perturbed(cert: DualCertificateJK, delta: float) -> DualCertificateJK:
    """Copy of cert with tau_{1,1} shifted by delta (functions untouched),
    a deliberately broken certificate for verify_certificate's failure path."""
    rows = [list(r) for r in cert.tau.tau]
    rows[0][0] += delta
    return cert._replace(tau=ThresholdMatrix(cert.J, cert.K, tuple(map(tuple, rows))))


def certificate_json(cert: DualCertificateJK, report: CertificateReport) -> str:
    """JSON text of thresholds, breakpoints, sampled dual values and verification.

    A q_{j|k} over c cells gets CERT_SAMPLES + 2 samples from one
    evaluation at every sample: each cell is cut into p = ceil(m / c)
    equal parts, m = CERT_SAMPLES + 1, and of those c p part starts the
    ones at index floor(i c p / m), i < m, are taken, then x = 1.  So
    q's first breakpoint (index 0) and x = 1 are always among them; that
    breakpoint is tau_{j,k} as solved, which a perturbed tau does not move.

    The text is json.dumps's of the record, byte for byte.  But the x's and
    cell ends are rendered once per distinct value (all are > 0, and only
    0.0 and -0.0 are equal floats of two texts), by one json.dumps of a list.
    """
    m = CERT_SAMPLES + 1
    first = cert.first.reshape(-1, 1)
    c = len(cert.tops) - first
    p = -(-m // c)
    idx = np.arange(m) * (c * p) // m
    cell = first + idx // p
    xs = np.ones((len(first), m + 1))
    xs[:, :m] = cert.bps[cell] + (idx % p) * (np.diff(cert.bps)[cell] / p)
    q = _q_at(cert, xs.ravel(), *np.divmod(np.arange(xs.size) // (m + 1), cert.K))
    every = np.concatenate((cert.bps, xs.ravel()))
    distinct = _sorted_union(every)
    rendered = np.array(json.dumps(distinct.tolist())[1:-1].split(", "), dtype=object)
    texts = rendered[np.searchsorted(distinct, every)].tolist()
    ends, xs_text = texts[: len(cert.bps)], texts[len(cert.bps) :]
    joined = ", ".join(ends)  # q's breakpoints from cell f on: joined[start[f]:]
    start = list(accumulate([len(s) + 2 for s in ends], initial=0))
    pairs = list(map(", ".join, zip(xs_text, json.dumps(q.tolist())[1:-1].split(", "))))
    q_text = ", ".join(
        f'{{"j": {j + 1}, "k": {k + 1}, "breakpoints": [{joined[start[f]:]}], "samples": [['
        + "], [".join(pairs[i * (m + 1) : (i + 1) * (m + 1)]) + "]]}"
        for i, ((j, k), f) in enumerate(zip(np.ndindex(cert.J, cert.K), cert.first.flat))
    )
    verification = {name: getattr(report, name) for name in (
        "ok", "max_equality_residual", "min_inequality_slack",
        "max_threshold_residual", "dual_objective", "objective_gap")}
    if report.min_inequality_slack == math.inf:  # no checked point lies below a threshold
        verification["min_inequality_slack"] = None  # strict JSON has no Infinity
    record = {"J": cert.J, "K": cert.K, "tau": [list(row) for row in cert.tau.tau],
              "payoff": payoff_jk(cert.tau), "q": [], "verification": verification}
    head, tail = json.dumps(record).split('"q": []')
    return f'{head}"q": [{q_text}]{tail}'
