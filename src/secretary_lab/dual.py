"""General (J,K) dual certificates for the optimal thresholds.

For J selection quotas and payoff counted over the K overall-best items,
the optimal policy is a threshold matrix tau[j][k]: quota j may take a
k-potential (k-th best seen so far) from time tau[j][k] on, and the unused
quota with the largest index is consumed first.  tau is the primal
solution and comes from value.py's solver, the package's one threshold
solver.  The dual functions that certify it are built here: for each
quota row j, working from k = K down to 1, the cell [tau_{j,k}, b] of the
row's running sum r solves the integral equation

    f(x) + (N/x) int_x^b [f(y) - g(y)] dy + c/x = gamma(x)

in closed form (solve_integral_equation), and the candidate
q_{j|k} = (r - gamma_k)/k + alpha_k.  The resulting functions q[j][k]
certify optimality if they satisfy the complementary-slackness equalities
above each threshold, the dual inequalities below it, vanish at the
threshold, and their total integral equals the payoff

    J - sum_j (1 - tau[j][1])**K.

verify_certificate checks all of that, so a wrong tau shows up as
|q(tau)| > tol.  Every K, K = 1 included, runs this one double-precision
construction; theta.py keeps the exact rational thetas that the printed
K = 1 values come from.  The construction's x^m (ln x)^p terms cancel at
large J and K, so certificates there fail verification while tau stays
value.py's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from math import comb

import numpy as np

from . import value
from .piecewise import CHUNK_POINTS, LogLinComb, PiecewiseFunction, PowerRows
# Unused here: the benchmark's traced passes wrap dual.find_largest_root.
from .piecewise import find_largest_root  # noqa: F401
from .value import (  # noqa: F401  re-exported as dual.*
    MAX_K,
    X_FLOOR,
    MonotonicityError,
    ThresholdMatrix,
    alphas,
    check_size,
)

# Largest verification grid: a few arrays of this many floats per (j, k).
MAX_GRID_POINTS = 1_000_000
# Certificate check: grid and tolerance defaults (the CLI's too), the
# largest accepted |dual objective - payoff|, and samples per q in JSON.
DEFAULT_GRID_POINTS = 2000
DEFAULT_TOLERANCE = 1e-8
OBJECTIVE_TOL = 1e-6
CERT_SAMPLES = 50


# -- alpha / gamma ---------------------------------------------------------


# alpha has two forms.  This nested float form is the accurate one, and the
# certificate check compares against it.  alpha_poly's expanded coefficients
# alternate in sign: on the points i/2000 it is off by up to 2.5e-10 at
# K = 16 and 8.0e-4 at K = 30, while alpha stays within 3e-14 of the exact
# value.  alpha_poly serves only the symbolic construction.
def alpha(k: int, K: int, x: float | np.ndarray) -> float | np.ndarray:
    """sum_{l=k}^{K} C(l-1, k-1) (1-x)^(l-k) x^(k-1), with 0**0 = 1.

    Element-wise when x is an array.
    """
    if not 1 <= k <= K:
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={K}")
    total = 0.0
    for el in range(k, K + 1):
        total += comb(el - 1, k - 1) * (1.0 - x) ** (el - k)
    return total * x ** (k - 1)


def alpha_poly(k: int, K: int) -> LogLinComb:
    """alpha_k as a polynomial in x (coefficients are exact small integers).

    The running sums of alpha_poly(1, K), ..., alpha_poly(K, K) are
    gamma_k = alpha_1 + ... + alpha_k, identically K at k = K.
    """
    coeffs = [0.0] * K
    for el in range(k, K + 1):
        base = comb(el - 1, k - 1)
        for u in range(el - k + 1):
            coeffs[k - 1 + u] += base * comb(el - k, u) * (-1.0) ** u
    return LogLinComb.from_x_poly(coeffs)


def payoff_jk(tau: ThresholdMatrix) -> float:
    """Optimal expected payoff J - sum_j (1 - tau_{j,1})^K."""
    return tau.J - sum((1.0 - row[0]) ** tau.K for row in tau.tau)


# -- integral-equation solver (closed form) --------------------------------


def solve_integral_equation(
    b: float,
    c: float,
    N: int,
    g: PiecewiseFunction,
    gamma_fn: LogLinComb,
    lo: float = X_FLOOR,
) -> PiecewiseFunction:
    """Continuous f on [lo, b] (lo >= X_FLOOR; zero if lo >= b) solving
    f(x) + (N/x) int_x^b [f(y) - g(y)] dy + c/x = gamma(x).

    The solution is
        f(x) = x^(N-1) [ (b g(b) - c)/b^N - int_x^b ((y gamma)' - N g(y)) / y^N dy ]
    evaluated segment by segment with exact antiderivatives; g's breakpoints
    inside (lo, b) become breakpoints of f.  f on [x, b] depends on g above
    x alone, so segments are built from b down, the tail integral summed as
    they go: f on [lo, b] has the bits of a solve down to X_FLOOR clipped.
    """
    if not 0.0 < b <= 1.0:
        raise ValueError(f"b={b} outside (0, 1]")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if X_FLOOR >= b:
        raise ValueError("b must lie above X_FLOOR")
    if lo >= b:
        return PiecewiseFunction.zero()
    a_const = (b * gamma_fn(b) - c) / b**N
    dpoly = gamma_fn.shift_xpow(1).derivative()  # (y*gamma(y))'
    cuts = sorted({lo, b} | {p for p in g.breakpoints if lo < p < b})
    segments = []
    tail = 0.0  # int_{cuts[n + 1]}^b h(y) dy
    for n in range(len(cuts) - 2, -1, -1):
        x0, x1 = cuts[n], cuts[n + 1]
        g_seg = g.segment_at(0.5 * (x0 + x1))
        h = dpoly if g_seg is None else dpoly - g_seg.scale(N)
        anti = h.shift_xpow(-N).antiderivative()
        top = anti(x1)
        # int_x^b h = tail + H(x1) - H(x)
        segments.append((anti + LogLinComb.const(a_const - tail - top)).shift_xpow(N - 1))
        tail += top - anti(x0)
    return PiecewiseFunction(cuts, segments[::-1])


# -- certificate construction ----------------------------------------------


@dataclass(frozen=True)
class DualCertificateJK:
    """Thresholds plus the dual functions that certify their optimality.

    q[j-1][k-1] is the dual function for (quota j, potential rank k),
    supported on [tau_{j,k}, 1]; r[j-1][k-1] is the running sum
    q_{j|1} + ... + q_{j|k}, and tops[j-1] is r_{j|K}.  Row j is kept as
    its cells, r_{j|K} on [tau_{j,k}, tau_{j,k+1}] for k = 1..K (ascending
    in x).  q is built from the cells the first time it is read and r from
    q, so a caller that reads only tau builds neither.
    """

    tau: ThresholdMatrix
    tops: tuple[PiecewiseFunction, ...]
    cells: tuple[tuple[PiecewiseFunction, ...], ...]

    @property
    def J(self) -> int:
        return self.tau.J

    @property
    def K(self) -> int:
        return self.tau.K

    @cached_property
    def q(self) -> tuple[tuple[PiecewiseFunction, ...], ...]:
        return _dual_rows(self)

    @cached_property
    def r(self) -> tuple[tuple[PiecewiseFunction, ...], ...]:
        return tuple(
            (*accumulate(row[:-1], PiecewiseFunction.combine), top)
            for row, top in zip(self.q, self.tops)
        )

    def r_top(self, j: int) -> PiecewiseFunction:
        """r_{j|K}, with r_{0|K} identically zero."""
        if j == 0:
            return PiecewiseFunction.zero()
        return self.tops[j - 1]


def _dual_rows(cert: DualCertificateJK) -> tuple[tuple[PiecewiseFunction, ...], ...]:
    """q rows from the construction's cells.

    On the cell of rank k, q_{j|l} = (r_{j|K} - gamma_k)/k + alpha_l for
    l <= k and zero for l > k.
    """
    K = cert.K
    alpha_polys = [alpha_poly(k, K) for k in range(1, K + 1)]
    gammas = list(accumulate(alpha_polys))
    out = []
    for cells in cert.cells:
        parts: list[list[PiecewiseFunction]] = [[] for _ in range(K)]
        for k, cell in enumerate(cells, start=1):
            scaled = [s.scale(1.0 / k) for s in cell.segments]
            shift = gammas[k - 1].scale(1.0 / k)
            for el in range(1, k + 1):
                sh = alpha_polys[el - 1] - shift
                parts[el - 1].append(
                    PiecewiseFunction(cell.breakpoints, [s + sh for s in scaled])
                )
        out.append(tuple(PiecewiseFunction.join(p) for p in parts))
    return tuple(out)


def construct_dual(J: int, K: int) -> DualCertificateJK:
    """Dual functions for the (J,K) problem at value.solve's thresholds.

    Induction over quota rows j = 1..J, inner loop k = K..1.  With
    b = tau_{j,k+1} (b = 1 for k = K), the cell [tau_{j,k}, b] of the
    running sum r_{j|K} solves the integral equation against the previous
    row's r_{j-1|K}, with N = k, gamma_k and c = k b alpha_{k+1}(b); on it
    q_{j|k} = (r - gamma_k)/k + alpha_k.  The row's cells, ascending in x,
    join into r_{j|K}; q and the running sums r_{j|k<K} are built only
    when read.  Sizes are checked by value.solve before any work.
    """
    tau = value.solve(J, K).tau
    gammas = list(accumulate(alpha_poly(k, K) for k in range(1, K + 1)))
    tops: list[PiecewiseFunction] = []
    row_cells: list[tuple[PiecewiseFunction, ...]] = []
    r_prev = PiecewiseFunction.zero()  # r_{j-1|K}
    for taus in tau.tau:
        cells: list[PiecewiseFunction] = []  # r on the cell of each k
        b = 1.0
        for k in range(K, 0, -1):
            cval = 0.0 if k == K else k * b * alpha(k + 1, K, b)
            cells.append(
                solve_integral_equation(b, cval, k, r_prev, gammas[k - 1], lo=taus[k - 1])
            )
            b = taus[k - 1]
        cells.reverse()  # ascending x
        r_prev = PiecewiseFunction.join(cells)
        tops.append(r_prev)
        row_cells.append(tuple(cells))
    return DualCertificateJK(tau, tuple(tops), tuple(row_cells))


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
    the breakpoints of every row's r_{j|K} - r_{j-1|K}; every row is
    checked on all of them, as arrays a chunk of CHUNK_POINTS points at a
    time.  first_violation names the first bound broken in the order j,
    k, threshold, then x ascending (equality before q >= 0 at the same x).
    """
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points={grid_points} outside [1, {MAX_GRID_POINTS}]"
        )
    J, K = cert.J, cert.K
    max_eq = 0.0
    min_slack = math.inf
    max_root = 0.0
    min_q = math.inf
    violation: str | None = None

    def note(msg: str):
        nonlocal violation
        if violation is None:
            violation = msg

    diffs: list[PiecewiseFunction | None] = [
        cert.r_top(j).combine(cert.r_top(j - 1), 1.0, -1.0) for j in range(1, J + 1)
    ]
    points = _sorted_union(
        np.arange(1, grid_points + 1) / grid_points,
        *(np.array(diff.breakpoints) for diff in diffs),
    )
    grid_notes: list[list[str | None]] = [[None] * K for _ in range(J)]
    # Chunks ascend in x, so each row meets its points in ascending order.
    # Every function of every row on a chunk shares its powers of x and
    # ln x, and its alpha_k values.
    for a in range(0, len(points), CHUNK_POINTS):
        rows = PowerRows(points[a : a + CHUNK_POINTS])
        x = rows.xs
        alpha_rows = alphas(K, x)
        for j in range(1, J + 1):
            tail = diffs[j - 1].tail_integral(rows) / x
            if a + CHUNK_POINTS >= len(points):
                diffs[j - 1] = None  # free its antiderivatives before row j + 1
            notes = grid_notes[j - 1]
            for k in range(1, K + 1):
                qv = cert.q[j - 1][k - 1].values(rows)
                slack = qv + tail - alpha_rows[k - 1]
                res = np.abs(slack)
                above = x >= cert.tau.threshold(j, k)
                # fmax/fmin skip NaN, as the comparisons of a scalar scan would
                max_eq = float(np.fmax.reduce(res[above], initial=max_eq))
                min_q = float(np.fmin.reduce(qv[above], initial=min_q))
                min_slack = float(np.fmin.reduce(slack[~above], initial=min_slack))
                if notes[k - 1] is not None:
                    continue
                bad = np.flatnonzero(
                    np.where(above, (res > tol) | (qv < -tol), slack < -tol)
                )
                if not bad.size:
                    continue
                i = bad[0]
                if not above[i]:
                    notes[k - 1] = (
                        f"dual feasibility (j={j}, k={k}, x={x[i]:.6f}): "
                        f"slack {slack[i]:.3e}"
                    )
                elif res[i] > tol:
                    notes[k - 1] = (
                        f"slackness equality (j={j}, k={k}, x={x[i]:.6f}): "
                        f"residual {res[i]:.3e}"
                    )
                else:
                    notes[k - 1] = f"q[{j}][{k}]({x[i]:.6f}) = {qv[i]:.3e} < 0"
    for j in range(1, J + 1):
        for k in range(1, K + 1):
            root_res = abs(cert.q[j - 1][k - 1].value(cert.tau.threshold(j, k)))
            max_root = max(max_root, root_res)
            if root_res > tol:
                note(f"q[{j}][{k}] at its threshold: |q|={root_res:.3e}")
            if grid_notes[j - 1][k - 1] is not None:
                note(grid_notes[j - 1][k - 1])
    objective = cert.r_top(J).integral(0.0, 1.0)
    payoff = payoff_jk(cert.tau)
    gap = abs(objective - payoff)
    if not gap <= OBJECTIVE_TOL:  # a NaN gap fails too
        note(f"dual objective {objective} vs payoff {payoff}")
    return CertificateReport(
        J=J,
        K=K,
        ok=violation is None,
        tolerance=tol,
        grid_points=grid_points,
        max_equality_residual=max_eq,
        min_inequality_slack=min_slack,
        max_threshold_residual=max_root,
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
            xs = qf.grid(max(1, CERT_SAMPLES // max(1, len(qf.segments))))
            out["q"].append(
                {
                    "j": j,
                    "k": k,
                    "breakpoints": list(qf.breakpoints),
                    "samples": [[x, qf.value(x)] for x in xs],
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
