"""General (J,K) dual certificates for the optimal thresholds.

For J selection quotas and payoff counted over the K overall-best items,
the optimal policy is a threshold matrix tau[j][k]: quota j may take a
k-potential (k-th best seen so far) from time tau[j][k] on, and the unused
quota with the largest index is consumed first.  tau is the primal
solution and comes from value.py's solver, the package's one threshold
solver.  The dual functions that certify it are that solve's value
function W (after Buchbinder, Jain and Singh, IPCO 2010): on each of its
Chebyshev cells, x q_{j|k}(x) is the gain g_{j,k} = x alpha_k + W_{j-1} -
W_j above tau_{j,k} and zero below, and r_{j|k} = q_{j|1} + ... + q_{j|k},
so that (1/x) int_x^1 [r_{j|K} - r_{j-1|K}] = (W_j - W_{j-1})/x.  The
functions q[j][k] certify optimality if they satisfy the
complementary-slackness equalities above each threshold, the dual
inequalities below it, vanish at the threshold, and their total integral
equals the payoff

    J - sum_j (1 - tau[j][1])**K.

verify_certificate checks all of that on a grid, against alpha_k computed
afresh, so a wrong tau shows up as |q(tau)| > tol.  Every K, K = 1
included, runs this one double-precision construction; theta.py keeps the
exact rational thetas that the printed K = 1 values come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import value
from .piecewise import NODES, TO_COEF, PiecewiseFunction
# Unused here: the benchmark's traced passes wrap dual.find_largest_root.
from .piecewise import find_largest_root  # noqa: F401
from .value import ThresholdMatrix, alphas

# Largest verification grid: a few arrays of this many floats per (j, k).
MAX_GRID_POINTS = 1_000_000
# Certificate check: grid and tolerance defaults (the CLI's too), the
# largest accepted |dual objective - payoff|, samples per q in JSON, and
# points per chunk of the check.
DEFAULT_GRID_POINTS = 2000
DEFAULT_TOLERANCE = 1e-8
OBJECTIVE_TOL = 1e-6
CERT_SAMPLES = 50
CHUNK_POINTS = 8192
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
    q_{j|1} + ... + q_{j|k}.  Both are built from value.solve's cells
    (`half` is their dt/ds) the first time either is read, so a caller
    that reads only tau builds neither.
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


def _cell_rows(cert: DualCertificateJK) -> tuple:
    """(q rows, r rows) on the solve's cells.

    On a cell where row j's active pairs are k = 1..n, y q_{j|k}(y) is the
    gain g_{j,k} = y alpha_k + W_{j-1} - W_j for k <= n and zero for k > n,
    so y r_{j|k} = sum_{l <= min(k, n)} g_{j,l} and r_{j|K} = -dW_j/dy.
    Each cell's node values go to Chebyshev coefficients once; cells of
    zero width in x (a threshold on a cell top) are dropped.
    """
    cells = [c for c in reversed(cert.cells) if math.exp(c.lo) < math.exp(c.top)]
    bps = [math.exp(cells[0].lo)] + [math.exp(c.top) for c in cells]
    tops = np.array([c.top for c in cells])
    active = np.array([c.active for c in cells])  # ascending in x
    gain = np.array([c.gain for c in cells]) @ TO_COEF.T  # y alpha_k
    drop = np.array([c.w[:-1] - c.w[1:] for c in cells]) @ TO_COEF.T  # W_{j-1} - W_j
    # degrees whose coefficients stay below CHOP of their cell's largest
    # are the solve's rounding noise: evaluating them costs time and
    # changes no verdict
    scale = CHOP * np.maximum(abs(gain).max(axis=(1, 2)), abs(drop).max(axis=(1, 2)))
    big = [(abs(a) > scale[:, None, None]).any(axis=(0, 1)) for a in (gain, drop)]
    degrees = NODES - int(np.argmax((big[0] | big[1])[::-1]))
    gain, drop = gain[..., :degrees], drop[..., :degrees]
    sums = np.cumsum(gain, axis=1)  # y (alpha_1 + ... + alpha_k)

    def on_top(first: int, coef: np.ndarray) -> PiecewiseFunction:
        return PiecewiseFunction(bps[first:], tops[first:], cert.half, coef)

    q_rows, r_rows = [], []
    for j, n in enumerate(active.T):
        # q_{j|k} lives on the cells from first[k-1] up, r_{j|k} on those of q_{j|1}
        first = [len(cells) - np.count_nonzero(n >= k) for k in range(1, cert.K + 1)]
        lo = first[0]
        q_rows.append(tuple(on_top(f, gain[f:, k] + drop[f:, j]) for k, f in enumerate(first)))
        counts = np.minimum.outer(n[lo:], np.arange(1, cert.K + 1))  # nonzero q per cell
        r_rows.append(tuple(
            on_top(lo, sums[np.arange(lo, len(cells)), m - 1] + m[:, None] * drop[lo:, j])
            for m in counts.T
        ))
    return tuple(q_rows), tuple(r_rows)


def construct_dual(J: int, K: int) -> DualCertificateJK:
    """Dual functions for the (J,K) problem at value.solve's thresholds,
    built from the cells of that solve when first read.  Sizes are checked
    by value.solve before any work."""
    sol = value.solve(J, K)
    return DualCertificateJK(sol.tau, sol.half, sol.cells)


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


def _sorted_union(*arrays: np.ndarray) -> np.ndarray:
    """Ascending distinct values of the arrays.

    Not np.union1d, whose np.unique imports numpy.ma (1.5 MB of resident
    memory).
    """
    xs = np.sort(np.concatenate(arrays))
    return xs[np.diff(xs, prepend=-np.inf) != 0]


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
    non-negative; the dual objective must match the payoff formula
    within OBJECTIVE_TOL.

    The certificate's points are i/grid_points (i = 1..grid_points) plus
    the breakpoints of every r_{j|K}; every row is checked on all of them,
    as arrays a chunk of CHUNK_POINTS points at a time, and reads
    int_x^1 [r_{j|K} - r_{j-1|K}] as the difference of the two rows' tail
    integrals.  A NaN anywhere counts as a violation.  first_violation
    names the first bound broken in the order j, k, threshold, then x
    ascending (equality before q >= 0 at the same x).
    """
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points={grid_points} outside [1, {MAX_GRID_POINTS}]"
        )
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol={tol} outside [0, inf)")
    J, K = cert.J, cert.K
    max_eq = 0.0
    min_slack = math.inf
    min_q = math.inf
    # notes[j-1][k-1]: the first broken bound of (j, k), its threshold first
    notes: list[list[str | None]] = [[None] * K for _ in range(J)]
    roots = abs(np.array([
        [cert.q[j - 1][k - 1].value(cert.tau.threshold(j, k)) for k in range(1, K + 1)]
        for j in range(1, J + 1)
    ]))
    for (j, k), root in np.ndenumerate(roots):
        if not root <= tol:
            notes[j][k] = f"q[{j + 1}][{k + 1}] at its threshold: |q|={root:.3e}"
    points = _sorted_union(
        np.arange(1, grid_points + 1) / grid_points,
        *(np.array(cert.r_top(j).breakpoints) for j in range(1, J + 1)),
    )
    # Chunks ascend in x, so each row meets its points in ascending order.
    # Every function of every row on a chunk shares its alpha_k values.
    for a in range(0, len(points), CHUNK_POINTS):
        x = points[a : a + CHUNK_POINTS]
        alpha_rows = alphas(K, x)
        below = np.zeros(len(x))  # int_x^1 r_{j-1|K}
        for j, row_notes in enumerate(notes, 1):
            upper = cert.r_top(j).tail_integral(x)
            tail = (upper - below) / x
            below = upper
            for k in range(1, K + 1):
                qv = cert.q[j - 1][k - 1].values(x)
                slack = qv + tail - alpha_rows[k - 1]
                res = np.abs(slack)
                above = x >= cert.tau.threshold(j, k)
                # fmax/fmin skip NaN; the violation test below does not
                max_eq = float(np.fmax.reduce(res[above], initial=max_eq))
                min_q = float(np.fmin.reduce(qv[above], initial=min_q))
                min_slack = float(np.fmin.reduce(slack[~above], initial=min_slack))
                if row_notes[k - 1] is not None:
                    continue
                bad = np.flatnonzero(
                    np.where(above, ~(res <= tol) | ~(qv >= -tol), ~(slack >= -tol))
                )
                if not bad.size:
                    continue
                i = bad[0]
                if not above[i]:
                    row_notes[k - 1] = (
                        f"dual feasibility (j={j}, k={k}, x={x[i]:.6f}): "
                        f"slack {slack[i]:.3e}"
                    )
                elif not res[i] <= tol:
                    row_notes[k - 1] = (
                        f"slackness equality (j={j}, k={k}, x={x[i]:.6f}): "
                        f"residual {res[i]:.3e}"
                    )
                else:
                    row_notes[k - 1] = f"q[{j}][{k}]({x[i]:.6f}) = {qv[i]:.3e} < 0"
    violation = next((n for row in notes for n in row if n is not None), None)
    objective = cert.r_top(J).integral(0.0, 1.0)
    payoff = payoff_jk(cert.tau)
    gap = abs(objective - payoff)
    if violation is None and not gap <= OBJECTIVE_TOL:  # a NaN gap fails too
        violation = f"dual objective {objective} vs payoff {payoff}"
    return CertificateReport(
        J=J,
        K=K,
        ok=violation is None,
        tolerance=tol,
        grid_points=grid_points,
        max_equality_residual=max_eq,
        min_inequality_slack=min_slack,
        max_threshold_residual=float(np.fmax.reduce(roots, axis=None, initial=0.0)),
        min_q_value=min_q,
        dual_objective=objective,
        payoff=payoff,
        objective_gap=gap,
        first_violation=violation,
    )


def perturbed(cert: DualCertificateJK, delta: float) -> DualCertificateJK:
    """Copy of cert with tau_{1,1} shifted by delta (functions untouched).

    Deliberately breaks the certificate; used to exercise the failure path
    of verify_certificate.
    """
    rows = [list(r) for r in cert.tau.tau]
    rows[0][0] += delta
    tau = ThresholdMatrix(cert.J, cert.K, tuple(tuple(r) for r in rows))
    return replace(cert, tau=tau)


def certificate_to_dict(
    cert: DualCertificateJK, report: CertificateReport | None = None
) -> dict:
    """JSON-ready dump: thresholds, breakpoints and sampled dual values."""
    out: dict = {
        "J": cert.J,
        "K": cert.K,
        "tau": [list(row) for row in cert.tau.tau],
        "payoff": payoff_jk(cert.tau),
        "q": [],
    }
    for j in range(1, cert.J + 1):
        for k in range(1, cert.K + 1):
            qf = cert.q[j - 1][k - 1]
            xs = qf.grid(max(1, CERT_SAMPLES // max(1, len(qf.breakpoints) - 1)))
            out["q"].append(
                {
                    "j": j,
                    "k": k,
                    "breakpoints": list(qf.breakpoints),
                    "samples": [list(p) for p in zip(xs, qf.values(xs).tolist())],
                }
            )
    if report is not None:
        out["verification"] = {
            "ok": report.ok,
            "max_equality_residual": report.max_equality_residual,
            "min_inequality_slack": report.min_inequality_slack,
            "max_threshold_residual": report.max_threshold_residual,
            "dual_objective": report.dual_objective,
            "objective_gap": report.objective_gap,
        }
    return out
