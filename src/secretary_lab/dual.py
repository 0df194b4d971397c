"""General (J,K) threshold construction with dual certificates.

For J selection quotas and payoff counted over the K overall-best items,
the optimal policy is a threshold matrix tau[j][k]: quota j may take a
k-potential (k-th best seen so far) from time tau[j][k] on, and the unused
quota with the largest index is consumed first.  The thresholds come out
of an inductive construction: for each quota row j, working from k = K
down to 1, the next dual function candidate solves the integral equation

    f(x) + (N/x) int_x^b [f(y) - g(y)] dy + c/x = gamma(x)

(whose closed form is implemented in solve_integral_equation), and
tau[j][k] is the largest zero of the induced candidate below the previous
thresholds.  The resulting functions q[j][k] certify optimality: they
satisfy the complementary-slackness equalities above each threshold, the
dual inequalities below it, and their total integral equals the payoff

    J - sum_j (1 - tau[j][1])**K.

K = 1 routes to the exact rational machinery in theta.py; everything here
is double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from math import comb

import numpy as np

from . import theta as theta_mod
from .piecewise import (
    CHUNK_POINTS,
    LogLinComb,
    PiecewiseFunction,
    PowerRows,
    find_largest_root,
)

# Floor for piecewise supports; far below any reachable threshold (the
# smallest thresholds for J <= 16 sit above 1e-4).
X_FLOOR = 1e-9
# Downward scan step and bisection tolerance of the threshold root search.
SCAN_STEP = 1e-3
ROOT_TOL = 1e-13
# Largest K the float construction reaches: from K = 36 on, x**(-K) at
# X_FLOOR overflows (checked at J = 1..4).
MAX_K = 35
# Largest verification grid: a few arrays of this many floats per (j, k).
MAX_GRID_POINTS = 1_000_000
# Certificate check: grid and tolerance defaults (the CLI's too), the
# largest accepted |dual objective - payoff|, and samples per q in JSON.
DEFAULT_GRID_POINTS = 2000
DEFAULT_TOLERANCE = 1e-8
OBJECTIVE_TOL = 1e-6
CERT_SAMPLES = 50


class MonotonicityError(ValueError):
    """A threshold matrix violates the required row/column ordering."""


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


# -- threshold matrix ------------------------------------------------------


@dataclass(frozen=True)
class ThresholdMatrix:
    """tau[j-1][k-1] = tau_{j,k}; rows ordered j = 1..J (later quotas lower)."""

    J: int
    K: int
    tau: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.tau) != self.J or any(len(r) != self.K for r in self.tau):
            raise ValueError("threshold matrix shape mismatch")
        eps = 1e-12
        for j in range(self.J):
            for k in range(self.K):
                t = self.tau[j][k]
                if not 0.0 < t <= 1.0:
                    raise MonotonicityError(f"tau[{j+1}][{k+1}]={t} not in (0, 1]")
                if k + 1 < self.K and t > self.tau[j][k + 1] + eps:
                    raise MonotonicityError(
                        f"row {j+1} not increasing in k at k={k+1}"
                    )
                if j + 1 < self.J and self.tau[j + 1][k] > t + eps:
                    raise MonotonicityError(
                        f"column {k+1} not decreasing in j at j={j+1}"
                    )

    def threshold(self, j: int, k: int) -> float:
        """1-based accessor for tau_{j,k}."""
        return self.tau[j - 1][k - 1]


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
) -> PiecewiseFunction:
    """Continuous f on (X_FLOOR, b] solving
    f(x) + (N/x) int_x^b [f(y) - g(y)] dy + c/x = gamma(x).

    The solution is
        f(x) = x^(N-1) [ (b g(b) - c)/b^N - int_x^b ((y gamma)' - N g(y)) / y^N dy ]
    evaluated segment by segment with exact antiderivatives; g's breakpoints
    inside (X_FLOOR, b) become breakpoints of f.
    """
    if not 0.0 < b <= 1.0:
        raise ValueError(f"b={b} outside (0, 1]")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if X_FLOOR >= b:
        raise ValueError("b must lie above X_FLOOR")
    a_const = (b * gamma_fn(b) - c) / b**N
    dpoly = gamma_fn.shift_xpow(1).derivative()  # (y*gamma(y))'
    cuts = sorted(
        {X_FLOOR, b} | {p for p in g.breakpoints if X_FLOOR < p < b}
    )
    antis: list[LogLinComb] = []
    for lo, hi in zip(cuts, cuts[1:]):
        g_seg = g.segment_at(0.5 * (lo + hi))
        integrand = dpoly if g_seg is None else dpoly - g_seg.scale(N)
        antis.append(integrand.shift_xpow(-N).antiderivative())
    # tail constants: C_i = int_{hi_i}^{b} h(y) dy accumulated from the top
    segs: list[LogLinComb] = []
    tail_above = 0.0
    for i in range(len(antis) - 1, -1, -1):
        lo, hi = cuts[i], cuts[i + 1]
        # int_x^b h = tail_above + H_i(hi) - H_i(x)
        const = a_const - tail_above - antis[i](hi)
        segs.append((antis[i] + LogLinComb.const(const)).shift_xpow(N - 1))
        tail_above += antis[i](hi) - antis[i](lo)
    segs.reverse()
    return PiecewiseFunction(cuts, segs)


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
    alphas = [alpha_poly(k, K) for k in range(1, K + 1)]
    gammas = list(accumulate(alphas))
    out = []
    for cells in cert.cells:
        parts: list[list[PiecewiseFunction]] = [[] for _ in range(K)]
        for k, cell in enumerate(cells, start=1):
            scaled = [s.scale(1.0 / k) for s in cell.segments]
            shift = gammas[k - 1].scale(1.0 / k)
            for el in range(1, k + 1):
                sh = alphas[el - 1] - shift
                parts[el - 1].append(
                    PiecewiseFunction(cell.breakpoints, [s + sh for s in scaled])
                )
        out.append(tuple(PiecewiseFunction.join(p) for p in parts))
    return tuple(out)


def _certificate_k1(J: int) -> DualCertificateJK:
    """Exact-route certificate for K = 1, converted to float piecewise form."""
    ts, rows = theta_mod.recursion(J)
    tvals = theta_mod.thresholds(ts)  # t_1 > t_2 > ... > t_J
    tau = ThresholdMatrix(J, 1, tuple((tvals[j],) for j in range(J)))
    tops = []  # for K = 1, r_{j|1} = q_{j|1}
    for j in range(1, J + 1):
        # ascending x: pieces k = j (lowest interval) down to k = 1
        bps = [tvals[k - 1] for k in range(j, 0, -1)] + [1.0]
        # ascending powers of ln x: the float evaluation sums terms in this order
        segs = [
            LogLinComb({t: float(c) for t, c in sorted(poly.terms.items())})
            for poly in reversed(rows[j - 1])
        ]
        tops.append(PiecewiseFunction(bps, segs))
    return DualCertificateJK(tau, tuple(tops), tuple((top,) for top in tops))


def construct_dual(J: int, K: int) -> DualCertificateJK:
    """Build thresholds and dual functions for the (J,K) problem.

    K = 1 takes the exact rational route of theta.py; every other K runs
    the double-precision construction below.  K above MAX_K is refused.
    """
    if J < 1 or K < 1:
        raise ValueError("J and K must be positive")
    if K > MAX_K:
        raise ValueError(f"K={K} exceeds the cap {MAX_K}")
    if K == 1:
        return _certificate_k1(J)
    return _construct_general(J, K)


def _construct_general(J: int, K: int) -> DualCertificateJK:
    """The double-precision construction, valid for any K >= 1.

    Induction over quota rows j = 1..J, inner loop k = K..1.  On each step
    the candidate below b = tau_{j,k+1} (b = 1 for k = K) is

        q(x) = (r(x) - gamma_k(x))/k + alpha_k(x)

    with r from solve_integral_equation against the previous row's top
    running sum; tau_{j,k} is the largest zero of q below
    min(b, tau_{j-1,k}).  A missing bracket is a numerical failure (the
    construction guarantees existence) and raises RootBracketError.

    The cell [tau_{j,k}, b] keeps r, and r_{j|K} joins the row's cells;
    q and the running sums r_{j|k<K} are built only when read.
    """
    alphas = [alpha_poly(k, K) for k in range(1, K + 1)]
    gammas = list(accumulate(alphas))
    tau_rows: list[list[float]] = []
    tops: list[PiecewiseFunction] = []
    row_cells: list[tuple[PiecewiseFunction, ...]] = []
    r_prev = PiecewiseFunction.zero()  # r_{j-1|K}
    for j in range(1, J + 1):
        taus = [0.0] * K
        cells: list[PiecewiseFunction] = []  # r on the cell of each k
        b = 1.0
        for k in range(K, 0, -1):
            gpoly = gammas[k - 1]
            cval = 0.0 if k == K else k * b * alpha(k + 1, K, b)
            r_cand = solve_integral_equation(b, cval, k, r_prev, gpoly)
            shift_k = alphas[k - 1] - gpoly.scale(1.0 / k)
            q_cand = r_cand.map_segments(
                lambda s, sh=shift_k: s.scale(1.0 / k) + sh
            )
            hat = b if j == 1 else min(b, tau_rows[j - 2][k - 1])
            root = find_largest_root(
                q_cand.value, hat, lo=X_FLOOR, scan_step=SCAN_STEP, tol=ROOT_TOL
            )
            taus[k - 1] = root
            cells.append(r_cand.restrict(root, b))
            b = root
        cells.reverse()  # ascending x
        r_prev = PiecewiseFunction.join(cells)
        tau_rows.append(taus)
        tops.append(r_prev)
        row_cells.append(tuple(cells))
    tau = ThresholdMatrix(J, K, tuple(tuple(r) for r in tau_rows))
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
        alphas = [alpha(k, K, x) for k in range(1, K + 1)]
        for j in range(1, J + 1):
            tail = diffs[j - 1].tail_integral(rows) / x
            if a + CHUNK_POINTS >= len(points):
                diffs[j - 1] = None  # free its antiderivatives before row j + 1
            notes = grid_notes[j - 1]
            for k in range(1, K + 1):
                qv = cert.q[j - 1][k - 1].values(rows)
                slack = qv + tail - alphas[k - 1]
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
