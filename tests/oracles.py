"""Independent reference implementations used only by the tests.

* `quadrature`: adaptive Simpson integration, the numeric cross-check for
  the closed-form antiderivatives in `secretary_lab.piecewise`.
* `map_segments`, `restrict`: a piecewise function mapped segment by
  segment, and clipped to an interval; the eager whole-function steps
  `construct_dual_combine` builds each candidate and cell with.
* `over_power`: f(y)/y^m as a piecewise function, whose `integral` is the
  weighted integral the construction applies symbolically.
* `gamma`: alpha_1 + ... + alpha_k summed in floats, the reference for
  the running sums of `secretary_lab.dual.alpha_poly`.
* `gamma_poly`: gamma_k as the k-th running sum of `alpha_poly`, the form
  `secretary_lab.dual` builds its gammas in, for the solver tests and
  `construct_dual_combine`.
* `k2_closed_forms`: the (1,2) and (2,2) thresholds and payoffs from their
  Lambert-W closed forms (scipy `lambertw` and `brentq`), a reference that
  shares no code with `secretary_lab.dual.construct_dual`.
* `values_by_segment`, `tail_integral_by_segment`: array evaluation of a
  `PiecewiseFunction` one segment at a time, each segment's terms summed
  over its own points in dict order; the reference for the packed-table
  kernel behind `PiecewiseFunction.values` and `tail_integral`, which must
  match it bit for bit.
* `verify_certificate_scalar`: the certificate check point by point in
  plain Python floats, the reference for the array evaluation in
  `secretary_lab.dual.verify_certificate`.  Tail integrals come from the
  scalar `PiecewiseFunction.integral`, a code path separate from the
  cached suffix sums of `tail_integral`.
* `find_largest_root_pointwise`: the threshold root search reading every
  point of its downward grid, the reference for the coarse-to-fine scan
  of `secretary_lab.piecewise.find_largest_root`.
* `construct_dual_combine`: the general (J,K) construction with every
  candidate solved down to X_FLOOR by `solve_integral_equation` and mapped
  whole, each row assembled by chains of `PiecewiseFunction.combine`, and
  roots from `find_largest_root_pointwise`; the reference for the top-down
  candidates, the one-pass cell join and the root search in
  `secretary_lab.dual.construct_dual`.
* `q_at_theta`, `integral_q_from`, `dual_objective_k1`,
  `constraint_lhs_k1`: exact K = 1 certificate checks over the rows of
  `secretary_lab.theta.recursion`, in rationals and high-precision
  Decimal.
* `run_threshold_algorithm_reference`: the policy replayed arrival by
  arrival, with a Fenwick tree counting each item's smaller predecessors,
  the reference for the filtered replay in
  `secretary_lab.sim.run_threshold_algorithm`.
* `potential_arrivals_by_layers`: the potential-rank filter as K layers of
  left-to-right minima over all n ranks, the reference for the one-pass
  segment filter `secretary_lab.sim._potential_arrivals`.
* `dp_thresholds`: the finite-n thresholds tau_n read off the recursion of
  `secretary_lab.dp.p_star`, the n -> infinity reference for the
  thresholds of `secretary_lab.value.solve` and
  `secretary_lab.dual.construct_dual`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw

from secretary_lab.dp import weights
from secretary_lab.dual import (
    ROOT_TOL,
    SCAN_STEP,
    X_FLOOR,
    CertificateReport,
    DualCertificateJK,
    ThresholdMatrix,
    alpha,
    alpha_poly,
    payoff_jk,
    solve_integral_equation,
)
from secretary_lab.piecewise import (
    LogLinComb,
    PiecewiseFunction,
    RootBracketError,
    bisect_root,
)
from secretary_lab.sim import ArrivalInstance, RunResult, Selection, _pick_quota
from secretary_lab.theta import (
    DEFAULT_PRECISION_BITS,
    ThetaSequence,
    exp_neg,
    working_context,
)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the bad subinterval."""

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(f"{message} on [{interval[0]!r}, {interval[1]!r}]")
        self.interval = interval


def quadrature(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson integration of fn over [a, b] to absolute tol."""
    if a == b:
        return 0.0
    if a > b:
        return -quadrature(fn, b, a, tol, max_depth)

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        # Richardson: |left+right-whole|/15 estimates the refined error
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        if depth <= 0:
            raise QuadratureError("quadrature did not converge", (lo, hi))
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(mid), fn(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, max_depth)


def map_segments(
    f: PiecewiseFunction, fn: Callable[[LogLinComb], LogLinComb]
) -> PiecewiseFunction:
    """fn applied to every segment of f, with the same breakpoints."""
    return PiecewiseFunction(f.breakpoints, [fn(s) for s in f.segments])


def restrict(f: PiecewiseFunction, lo: float, hi: float) -> PiecewiseFunction:
    """f with its support clipped to [lo, hi], segments kept as they are."""
    if f.is_zero():
        return f
    lo = max(lo, f.lo)
    hi = min(hi, f.hi)
    if lo >= hi:
        return PiecewiseFunction.zero()
    ia = f._segment_index(lo)
    ib = f._segment_index(hi)
    if hi <= f.breakpoints[ib] and ib > ia:
        ib -= 1  # hi falls exactly on a breakpoint
    bps = [lo] + [b for b in f.breakpoints[ia + 1 : ib + 1] if lo < b < hi] + [hi]
    return PiecewiseFunction(bps, f.segments[ia : ib + 1])


def over_power(f: PiecewiseFunction, m: int) -> PiecewiseFunction:
    """f(y)/y^m, with the same breakpoints."""
    return map_segments(f, lambda s: s.shift_xpow(-m))


def gamma(k: int, K: int, x: float) -> float:
    """Partial sum alpha_1 + ... + alpha_k; identically K when k = K."""
    return sum(alpha(el, K, x) for el in range(1, k + 1))


def gamma_poly(k: int, K: int) -> LogLinComb:
    """gamma_k as a polynomial: the k-th running sum of alpha_poly."""
    return list(accumulate(alpha_poly(el, K) for el in range(1, k + 1)))[-1]


def k2_closed_forms() -> dict[str, float]:
    """Thresholds and payoffs of the (1,2) and (2,2) problems from their
    Lambert-W closed forms: tau12 = 2/3 and tau11 = -W(-2/(3e)) for both J;
    tau22 is the root of f22 (one sign change in (0, 1], near 0.517) and
    tau21 = -W(-exp(-c/2)); payoff_J = sum_j 2 tau_j1 - tau_j1^2."""
    big_l = math.log(2.0 / 3.0)
    tau11 = -lambertw(-2.0 / (3.0 * math.e)).real

    def f22(x: float) -> float:
        return x * math.log(x) + math.log(x) - (2.0 + 3.0 * big_l) * x + 1.0 - big_l

    tau22 = brentq(f22, 0.3, 0.9, xtol=1e-16)
    lt1, lt2 = math.log(tau11), math.log(tau22)
    c = -lt1**2 + 2 * big_l * lt1 + lt2**2 - 2 * big_l * lt2 - 2 * tau22 + 4 - 2 * big_l
    tau21 = -lambertw(-math.exp(-c / 2.0)).real
    payoff12 = 2.0 * tau11 - tau11**2
    return dict(tau11=tau11, tau12=2.0 / 3.0, payoff12=payoff12, tau21=tau21,
                tau22=tau22, payoff22=payoff12 + 2.0 * tau21 - tau21**2)


def _comb_values(comb: LogLinComb, xs: np.ndarray) -> np.ndarray:
    """comb at every point of xs (all > 0), terms summed in dict order."""
    ln = np.log(xs)
    total = np.zeros_like(xs)
    for (m, p), c in comb.terms.items():
        total += c * xs**m * ln**p
    return total


def _by_segment(
    f: PiecewiseFunction, xs: np.ndarray, inside: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """(segment, positions in xs) for the points of xs[inside], each point
    in the segment `PiecewiseFunction.value` picks for it."""
    idx = np.searchsorted(f.breakpoints, xs, side="right") - 1
    np.minimum(idx, len(f.segments) - 1, out=idx)
    idx[~inside] = -1
    order = np.argsort(idx, kind="stable")
    cuts = np.searchsorted(idx[order], np.arange(len(f.segments) + 1))
    for i in range(len(f.segments)):
        if cuts[i] < cuts[i + 1]:
            yield i, order[cuts[i] : cuts[i + 1]]


def values_by_segment(f: PiecewiseFunction, xs: np.ndarray) -> np.ndarray:
    """f at every point of the float array xs, one segment at a time."""
    out = np.zeros_like(xs)
    if f.is_zero():
        return out
    inside = (xs >= f.lo) & (xs <= f.hi)
    for i, at in _by_segment(f, xs, inside):
        out[at] = _comb_values(f.segments[i], xs[at])
    return out


def tail_integral_by_segment(f: PiecewiseFunction, xs: np.ndarray) -> np.ndarray:
    """int_x^hi f at every point of the float array xs, one segment at a
    time, with whole segments above x summed from the top."""
    out = np.zeros_like(xs)
    if f.is_zero():
        return out
    bps = f.breakpoints
    antis = [s.antiderivative() for s in f.segments]
    suffix = [0.0] * (len(antis) + 1)
    for i in range(len(antis) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (antis[i](bps[i + 1]) - antis[i](bps[i]))
    out[xs <= f.lo] = suffix[0]
    inside = (xs > f.lo) & (xs < f.hi)
    for i, at in _by_segment(f, xs, inside):
        anti = antis[i]
        out[at] = suffix[i + 1] + (anti(bps[i + 1]) - _comb_values(anti, xs[at]))
    return out


def verify_certificate_scalar(
    cert: DualCertificateJK,
    grid_points: int = 2000,
    tol: float = 1e-8,
    objective_tol: float = 1e-6,
) -> CertificateReport:
    """Same checks and report as dual.verify_certificate, one x at a time."""
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

    diffs = [
        cert.r_top(j).combine(cert.r_top(j - 1), 1.0, -1.0) for j in range(1, J + 1)
    ]
    # every row on the same points: the grid plus every row's breakpoints
    xs = sorted(
        {i / grid_points for i in range(1, grid_points + 1)}.union(
            *(diff.breakpoints for diff in diffs)
        )
    )
    for j, diff in enumerate(diffs, 1):
        for k in range(1, K + 1):
            qf = cert.q[j - 1][k - 1]
            t_jk = cert.tau.threshold(j, k)
            root_res = abs(qf.value(t_jk))
            max_root = max(max_root, root_res)
            if root_res > tol:
                note(f"q[{j}][{k}] at its threshold: |q|={root_res:.3e}")
            for x in xs:
                lhs = qf.value(x) + diff.integral(x, diff.hi) / x
                rhs = alpha(k, K, x)
                if x >= t_jk:
                    res = abs(lhs - rhs)
                    if res > max_eq:
                        max_eq = res
                        if res > tol:
                            note(
                                f"slackness equality (j={j}, k={k}, x={x:.6f}): "
                                f"residual {res:.3e}"
                            )
                    qv = qf.value(x)
                    if qv < min_q:
                        min_q = qv
                        if qv < -tol:
                            note(f"q[{j}][{k}]({x:.6f}) = {qv:.3e} < 0")
                else:
                    slack = lhs - rhs
                    if slack < min_slack:
                        min_slack = slack
                        if slack < -tol:
                            note(
                                f"dual feasibility (j={j}, k={k}, x={x:.6f}): "
                                f"slack {slack:.3e}"
                            )
    objective = cert.r_top(J).integral(0.0, 1.0)
    payoff = payoff_jk(cert.tau)
    gap = abs(objective - payoff)
    if gap > objective_tol:
        note(f"dual objective {objective} vs payoff {payoff}")
    ok = (
        max_eq <= tol
        and min_slack >= -tol
        and max_root <= tol
        and min_q >= -tol
        and gap <= objective_tol
    )
    return CertificateReport(
        J=J,
        K=K,
        ok=ok,
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


def find_largest_root_pointwise(
    fn: Callable[[float], float],
    hi: float,
    lo: float = 0.0,
    scan_step: float = 1e-3,
    tol: float = 1e-13,
) -> float:
    """Largest zero of fn below hi, scanning every grid point.

    Reads fn at hi, hi - scan_step, hi - 2 scan_step, ... (one more
    subtraction per point) until the first value <= 0 above lo, then
    bisects that point and the one above it, reading both ends again.
    """
    x_hi = hi
    f_hi = fn(x_hi)
    if f_hi == 0.0:
        return x_hi
    if f_hi < 0.0:
        raise RootBracketError(f"function already negative at scan start {hi}")
    x = x_hi - scan_step
    while x > lo:
        fx = fn(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            return bisect_root(fn, x, x_hi, fn(x), fn(x_hi), tol)
        x_hi = x
        x -= scan_step
    raise RootBracketError(f"no sign change found in ({lo}, {hi})")


def construct_dual_combine(J: int, K: int) -> DualCertificateJK:
    """The general construction, rows joined by combine chains.

    Every q_{j|l} candidate is mapped over the whole unrestricted solver
    output and restricted afterwards; q rows are chains of `combine` over
    the cells, r_{j|k} for k < K running `combine` sums of the q row, and
    r_{j|K} a chain over the restricted solver outputs.
    """
    tau_rows: list[list[float]] = []
    q_rows: list[tuple[PiecewiseFunction, ...]] = []
    r_rows: list[tuple[PiecewiseFunction, ...]] = []
    r_prev = PiecewiseFunction.zero()
    for j in range(1, J + 1):
        taus = [0.0] * K
        pieces: list[list[PiecewiseFunction]] = [[] for _ in range(K)]
        r_pieces: list[PiecewiseFunction] = []
        b = 1.0
        for k in range(K, 0, -1):
            gpoly = gamma_poly(k, K)
            cval = 0.0 if k == K else k * b * alpha(k + 1, K, b)
            r_cand = solve_integral_equation(b, cval, k, r_prev, gpoly)
            shift_k = alpha_poly(k, K) - gpoly.scale(1.0 / k)
            q_cand = map_segments(r_cand, lambda s, sh=shift_k: s.scale(1.0 / k) + sh)
            hat = b if j == 1 else min(b, tau_rows[j - 2][k - 1])
            root = find_largest_root_pointwise(
                q_cand.value, hat, lo=X_FLOOR, scan_step=SCAN_STEP, tol=ROOT_TOL
            )
            taus[k - 1] = root
            for el in range(1, k + 1):
                shift_el = alpha_poly(el, K) - gpoly.scale(1.0 / k)
                q_el = map_segments(r_cand, lambda s, sh=shift_el: s.scale(1.0 / k) + sh)
                pieces[el - 1].append(restrict(q_el, root, b))
            r_pieces.append(restrict(r_cand, root, b))
            b = root
        q_row = []
        for el in range(K):
            fn = PiecewiseFunction.zero()
            for part in pieces[el]:
                fn = fn.combine(part)
            q_row.append(fn)
        r_row = []
        running = PiecewiseFunction.zero()
        for el in range(K):
            running = running.combine(q_row[el])
            r_row.append(running)
        r_top = PiecewiseFunction.zero()
        for part in r_pieces:
            r_top = r_top.combine(part)
        r_row[K - 1] = r_top
        tau_rows.append(taus)
        q_rows.append(tuple(q_row))
        r_rows.append(tuple(r_row))
        r_prev = r_top
    tau = ThresholdMatrix(J, K, tuple(tuple(r) for r in tau_rows))
    tops = tuple(row[-1] for row in r_rows)
    cert = DualCertificateJK(tau, tops, ())
    vars(cert).update(q=tuple(q_rows), r=tuple(r_rows))  # built here, not from cells
    return cert


# -- exact K = 1 checks over theta.recursion rows ----------------------------
# rows[j-1][k-1] is q_j on x in [t_k, t_(k-1)], i.e. theta in
# [theta_(k-1), theta_k], as a polynomial in ln x with Fraction coefficients.


def rational_to_decimal(q: Fraction, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """Round q to the nearest representable value at the given precision."""
    ctx = working_context(bits)
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def q_at_theta(ts: ThetaSequence, rows, j: int, theta: Fraction) -> Fraction:
    """Exact q_j at x = exp(-theta); zero for j = 0 and for theta > theta_j."""
    if j == 0 or theta > ts.theta(j):
        return Fraction(0)
    for k, poly in enumerate(rows[j - 1], start=1):
        if ts.theta(k - 1) <= theta <= ts.theta(k):
            return poly.at_ln(-theta)
    raise ValueError(f"theta {theta} outside [0, theta_{j}]")


def integral_q_from(
    ts: ThetaSequence,
    rows,
    j: int,
    theta_from: Fraction,
    bits: int = DEFAULT_PRECISION_BITS,
    weight_over_x: bool = False,
) -> Decimal:
    """int q_j(y) dy (or q_j(y)/y dy) for y from exp(-theta_from) to 1.

    The per-piece antiderivatives are exact; only the exp(-theta) endpoint
    values carry rounding, at the working precision.
    """
    if j == 0:
        return Decimal(0)
    theta_from = min(theta_from, ts.theta(j))
    with localcontext(working_context(bits)):
        total = Decimal(0)
        for k, poly in enumerate(rows[j - 1], start=1):
            lo = ts.theta(k - 1)
            if lo >= theta_from:
                break
            hi = min(ts.theta(k), theta_from)
            if weight_over_x:
                anti = poly.shift_xpow(-1).antiderivative()
                total += rational_to_decimal(anti.at_ln(-lo) - anti.at_ln(-hi), bits)
            else:
                # int p(ln x) dx = x * B(ln x)
                b = poly.antiderivative().shift_xpow(-1)
                upper = rational_to_decimal(b.at_ln(-lo), bits) * exp_neg(lo, bits)
                lower = rational_to_decimal(b.at_ln(-hi), bits) * exp_neg(hi, bits)
                total += upper - lower
        return total


def dual_objective_k1(
    ts: ThetaSequence, rows, bits: int = DEFAULT_PRECISION_BITS
) -> float:
    """int_0^1 q_J(y) dy; must equal payoff_k1 up to final rounding."""
    return float(integral_q_from(ts, rows, ts.J, ts.theta(ts.J), bits))


def constraint_lhs_k1(
    ts: ThetaSequence,
    rows,
    j: int,
    theta: Fraction,
    bits: int = DEFAULT_PRECISION_BITS,
) -> Decimal:
    """q_j(x) + (1/x) int_x^1 [q_j - q_(j-1)] dy at x = exp(-theta).

    Equals 1 on [t_j, 1] and strictly exceeds 1 below t_j.
    """
    with localcontext(working_context(bits)):
        q_here = rational_to_decimal(q_at_theta(ts, rows, j, theta), bits)
        tail = integral_q_from(ts, rows, j, theta, bits) - integral_q_from(
            ts, rows, j - 1, theta, bits
        )
        return q_here + tail / exp_neg(theta, bits)


class _OrderTree:
    """Fenwick tree over ranks: how many seen ranks are below a given one."""

    def __init__(self, n: int):
        self.tree = [0] * (n + 1)

    def add(self, rank: int) -> None:
        i = rank
        while i < len(self.tree):
            self.tree[i] += 1
            i += i & (-i)

    def count_leq(self, rank: int) -> int:
        total = 0
        i = rank
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total


def run_threshold_algorithm_reference(
    tau: ThresholdMatrix, inst: ArrivalInstance, detailed: bool = False
) -> int | RunResult:
    """Replay the policy on every arrival of one instance; payoff counts
    selected items whose overall rank is at most K."""
    K = tau.K
    tau_rows = np.asarray(tau.tau, dtype=float)
    tree = _OrderTree(inst.n)
    unused = np.ones((1, tau.J), dtype=bool)
    selections: list[Selection] = []
    payoff = 0
    for pos in range(inst.n):
        rank = int(inst.ranks[pos])
        k = tree.count_leq(rank - 1) + 1
        tree.add(rank)
        if k > K:
            continue
        x = float(inst.times[pos])
        j = int(_pick_quota(tau_rows, unused, np.array([k]), np.array([x]))[0])
        if j == 0:
            continue
        unused[0, j - 1] = False
        if rank <= K:
            payoff += 1
        if detailed:
            selections.append(
                Selection(position=pos + 1, time=x, potential=k, quota=j)
            )
        if not unused.any():
            break
    if detailed:
        return RunResult(payoff=payoff, selections=tuple(selections))
    return payoff


def potential_arrivals_by_layers(ranks: np.ndarray, K: int):
    """Yield (0-based position, potential rank), in order, for each arrival
    with fewer than K smaller predecessors.  Layer m of left-to-right minima
    has m - 1 or more, so K layers hold all of them, and no other arrival
    ever joins the K smallest ranks seen, which bisect reads k from.
    """
    keep, rest = np.zeros(len(ranks), dtype=bool), ranks.astype(np.int64)
    for _ in range(K):
        low = rest == np.minimum.accumulate(rest)
        keep |= low
        rest[low] = len(ranks) + 1  # above every rank: in no later layer
    kept = np.flatnonzero(keep)
    top: list[int] = []  # the K smallest ranks so far, ascending
    for pos, rank in zip(kept.tolist(), ranks[kept].tolist()):
        k = bisect_left(top, rank) + 1
        if k <= K:
            insort(top, rank)
            del top[K:]
            yield pos, k


def dp_thresholds(n: int, J: int, K: int) -> tuple[float, list[list[float]], bool]:
    """(P*_n, tau_n, intervals) from the recursion of `dp.p_star` in float.

    g_{r,k}(i) = w(k, i) + V(i+1, r-1) - V(i+1, r) is the gain of taking a
    k-potential at position i with r unused quotas.  tau_n[r-1][k-1] is
    i*/n, with i* the first change of g_{r,k} from > 0 to <= 0 as i walks
    down from n, interpolated linearly between i + 1 and i (a pair still
    taken at i = k, the last position with a k-potential, gets k/n).
    w(k, i) falls in k, so the taken ranks at (i, r) are k = 1..m; intervals
    is whether m never grows as i falls, i.e. whether every acceptance set
    {i : g_{r,k}(i) > 0} is one interval ending at n.  P*_n is computed
    as `dp.p_star` computes it, bit for bit.
    """
    v = [0.0] * (J + 1)  # v[r] = V(i+1, r)
    tau = [[k / n for k in range(1, K + 1)] for _ in range(J)]
    taken = [K] * (J + 1)  # m at i + 1, per r
    intervals = True
    v_above, w_above = v[:], []  # V(i+2, .) and w(., i+1)
    for i in range(n, 0, -1):
        w = weights(n, K, i, 1.0)
        v_here = v[:]
        for r in range(J, 0, -1):
            keep = v[r] - v[r - 1]
            gains = [x - keep for x in w if x > keep]
            m = len(gains)
            if m != taken[r]:
                intervals &= m < taken[r]
                for k in range(m + 1, min(taken[r], len(w)) + 1):  # off at i
                    g_hi = w_above[k - 1] - (v_above[r] - v_above[r - 1])
                    g_lo = w[k - 1] - keep
                    tau[r - 1][k - 1] = (i + g_lo / (g_lo - g_hi)) / n
                taken[r] = min(m, taken[r])
            v[r] += sum(gains, 0.0) / i
        v_above, w_above = v_here, w
    return v[J], tau, intervals
