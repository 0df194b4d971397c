"""Independent reference implementations used only by the tests.

* `quadrature`: adaptive Simpson integration, the numeric cross-check for
  closed-form and Chebyshev antiderivatives.
* `alpha`: alpha_k(x) as the nested float sum over l = k..K, the reference
  for the batched rows of `secretary_lab.value.alphas`; `gamma`:
  alpha_1 + ... + alpha_k summed in floats.
* `exp_neg_decimal`: exp(-theta) with theta's terms converted to
  `Decimal` and divided in the working context, the reference for the
  integer quotient of `secretary_lab.theta.exp_neg`.  It and the K = 1
  certificate checks take a precision `bits`, built into a context by
  `working_context`; the runtime has one precision only.
* `chebyshev_function`: a function given point by point, interpolated as
  a `PiecewiseFunction` on given breakpoints (y f(y) at NODES Chebyshev
  points of each segment in t = ln y); `restrict` clips one to an
  interval, keeping its cells.
* `k2_closed_forms`: the (1,2) and (2,2) thresholds and payoffs from their
  Lambert-W closed forms (scipy `lambertw` and `brentq`), a reference that
  shares no code with `secretary_lab.value.solve`.
* `values_by_segment`, `tail_integral_by_segment`: array evaluation of a
  `PiecewiseFunction` one segment at a time, in plain numpy arithmetic,
  the reference for the cell-by-cell `einsum` evaluation behind
  `PiecewiseFunction.values` and `tail_integral`, which must match it bit
  for bit.
* `scalar_value`, `scalar_tail`: a `PiecewiseFunction` one point at a time
  in Python floats, with numpy's `chebint` in place of the antiderivative
  matrix of `secretary_lab.piecewise`.
* `verify_certificate_scalar`: the certificate check point by point in
  plain Python floats with `alpha`, `scalar_value` and `scalar_tail`, the
  reference for the array evaluation in
  `secretary_lab.dual.verify_certificate`.
* `verify_certificate_rows`: the certificate check one q function and
  one r_{j|K} tail integral at a time, through `PiecewiseFunction.values`,
  `value` and `tail_integral` of the rows that `cert.q` and `cert.r`
  build; the reference for the per-cell array check of
  `secretary_lab.dual.verify_certificate`.
* `construct_dual_combine`: the dual rows of `value.solve`'s cells built
  one cell at a time, each q row a chain of `PiecewiseFunction.combine`
  over its one-cell functions and each r_{j|k} a `combine` sum of the q
  row; the reference for the batched rows of
  `secretary_lab.dual.construct_dual`.
* `certificate_to_dict`: the `dual-check` JSON record as a dict, whose
  `json.dumps` is the byte oracle for `secretary_lab.dual.certificate_json`
  (same sample points and q values, every float rendered by `json.dumps`).
* `_at`, `_integral`, `fraction_recursion`: the K = 1 recursion in
  `Fraction` arithmetic (Horner evaluation, the antiderivative in
  y = ln x + theta_k, and the loop), the reference for the gcd-free
  arithmetic of `secretary_lab.theta.generate_thetas` and the only
  home of the exact dual rows q_j, which the runtime never builds.
* `ln_poly_at`, `ln_derivative`, `plain_antiderivative`: polynomials in
  ln x as tuples of coefficients (entry p multiplies (ln x)^p): a Horner
  loop of its own, the exact derivative in ln x, and B with
  int p(ln y) dy = y B(ln y).
* `theta_at`: theta_j of a `secretary_lab.theta.ThetaSequence`, with
  theta_0 = 0.
* `ln_rows`: the rows of `fraction_recursion`, whose piece k is a
  polynomial in y = ln x + theta_k, Taylor-shifted back to ln x in
  exact arithmetic.
* `q_at_theta`, `integral_q_from`, `dual_objective_k1`,
  `constraint_lhs_k1`: exact K = 1 certificate checks over `ln_rows`, in
  rationals and high-precision Decimal.
* `run_threshold_algorithm_reference`: the policy replayed arrival by
  arrival, with a Fenwick tree counting each item's smaller predecessors,
  the reference for the filtered replay in
  `secretary_lab.sim.run_threshold_algorithm`.
* `potential_arrivals_by_layers`: the potential-rank filter as K layers of
  left-to-right minima over all n ranks, the reference for the one-pass
  segment filter `secretary_lab.sim._potential_arrivals`.
* `dp_weights`: the weights w(k, i) of the finite-n DP for one position in
  scalar arithmetic (float or Fraction), the reference for the blocks of
  positions `secretary_lab.dp.weights` builds as numpy columns.
* `dp_thresholds`: the finite-n thresholds tau_n read off the recursion of
  `secretary_lab.dp.p_star` over `dp_weights`, one position at a time,
  the reference for its float P*_n bit for bit, and the n -> infinity
  reference for the thresholds of `secretary_lab.value.solve` and
  `secretary_lab.dual.construct_dual`.
* `tau_dop853`: the thresholds from the value-function equation integrated
  by scipy's DOP853 with one event per (r, k), a reference for
  `secretary_lab.value.solve` that shares neither its Chebyshev
  collocation nor the DP.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import Callable, Iterator
from unittest import mock

import numpy as np
from numpy.polynomial.chebyshev import chebint
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import lambertw

from secretary_lab import value as value_module
from secretary_lab.dual import (
    CERT_SAMPLES,
    OBJECTIVE_TOL,
    CertificateReport,
    DualCertificateJK,
    _q_at,
    construct_dual,
    payoff_jk,
)
from secretary_lab.piecewise import (
    CHEB_S,
    NODES,
    TO_COEF,
    PiecewiseFunction,
    _antiderivative,
)
from secretary_lab.sim import (
    ArrivalInstance,
    RunResult,
    Selection,
    _pick_quota,
    _policy_rows,
)
from secretary_lab.theta import DEFAULT_PRECISION_BITS, MAX_J, ThetaSequence
from secretary_lab.value import ThresholdMatrix, alphas, solve


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


def working_context(bits: int) -> Context:
    """Decimal context holding bits of significand plus guard digits, as
    `secretary_lab.theta.WORKING_CONTEXT` holds DEFAULT_PRECISION_BITS."""
    return Context(prec=math.ceil(bits * math.log10(2)) + 5)


def exp_neg_decimal(theta: Fraction, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """exp(-theta), -theta the quotient of theta's terms as Decimals."""
    ctx = working_context(bits)
    return ctx.exp(ctx.divide(Decimal(-theta.numerator), Decimal(theta.denominator)))


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


def gamma(k: int, K: int, x: float) -> float:
    """Partial sum alpha_1 + ... + alpha_k; identically K when k = K."""
    return sum(alpha(el, K, x) for el in range(1, k + 1))


def chebyshev_function(
    fn: Callable[[float], float], breakpoints: list[float]
) -> PiecewiseFunction:
    """fn on [breakpoints[0], breakpoints[-1]] as a PiecewiseFunction whose
    segment i is its own cell: y fn(y) interpolated at the NODES Chebyshev
    points of t = ln y on [ln breakpoints[i], ln breakpoints[i+1]]."""
    tops, halves, coefs = [], [], []
    for a, b in zip(breakpoints, breakpoints[1:]):
        top, half = math.log(b), 0.5 * (math.log(b) - math.log(a))
        ys = np.exp(top + (CHEB_S - 1.0) * half)
        coefs.append(TO_COEF @ np.array([y * fn(y) for y in ys.tolist()]))
        tops.append(top)
        halves.append(half)
    return PiecewiseFunction(breakpoints, tops, halves, np.array(coefs).reshape(-1, NODES))


def restrict(f: PiecewiseFunction, lo: float, hi: float) -> PiecewiseFunction:
    """f with its support clipped to [lo, hi], cells kept as they are."""
    lo, hi = max(lo, f.lo), min(hi, f.hi)
    if f.is_zero() or lo >= hi:
        return PiecewiseFunction.zero()
    bps = f.breakpoints
    keep = [i for i in range(len(bps) - 1) if bps[i] < hi and bps[i + 1] > lo]
    cells = [f.segments[i] for i in keep]
    cuts = [lo] + [bps[i + 1] for i in keep[:-1]] + [hi]
    return PiecewiseFunction(
        cuts, [c.top for c in cells], [c.half for c in cells], [c.coef for c in cells]
    )


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


def _series_rows(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(s) for one segment's coefficients, in the steps
    the cell-by-cell evaluation takes at every point: T_k(s) by its
    three-term recurrence, then the degrees added in order from 0.0."""
    basis = [np.ones(len(s)), s]
    for _ in range(2, len(coef)):
        basis.append((s + s) * basis[-1] - basis[-2])
    total = np.zeros(len(s))
    for c, t in zip(coef.tolist(), basis):
        total = total + c * t
    return total


def _s(cell, xs: np.ndarray) -> np.ndarray:
    return 1.0 + (np.log(xs) - cell.top) / cell.half


def values_by_segment(f: PiecewiseFunction, xs: np.ndarray) -> np.ndarray:
    """f at every point of the float array xs, one segment at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros_like(xs)
    if f.is_zero():
        return out
    inside = (xs >= f.lo) & (xs <= f.hi)
    for i, at in _by_segment(f, xs, inside):
        cell = f.segments[i]
        out[at] = _series_rows(cell.coef, _s(cell, xs[at])) / xs[at]
    return out


def tail_integral_by_segment(f: PiecewiseFunction, xs: np.ndarray) -> np.ndarray:
    """int_x^hi f at every point of the float array xs, one segment at a
    time, with whole segments above x summed from the top."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros_like(xs)
    if f.is_zero():
        return out
    bps, cells = f.breakpoints, f.segments
    antis = [_antiderivative(cell.coef) for cell in cells]
    tops = [
        _series_rows(anti, _s(cell, np.array([b])))
        for anti, cell, b in zip(antis, cells, bps[1:])
    ]
    suffix = [0.0] * (len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        low = _series_rows(antis[i], _s(cells[i], np.array([bps[i]])))
        suffix[i] = suffix[i + 1] + float(cells[i].half * (tops[i] - low)[0])
    out[xs <= f.lo] = suffix[0]
    inside = (xs > f.lo) & (xs < f.hi)
    for i, at in _by_segment(f, xs, inside):
        cell = cells[i]
        part = cell.half * (tops[i] - _series_rows(antis[i], _s(cell, xs[at])))
        out[at] = suffix[i + 1] + part
    return out


def _chebyshev_sum(coef: list[float], s: float) -> float:
    """sum_k coef[k] T_k(s), with T_{k+1} = 2 s T_k - T_{k-1}."""
    total, t_prev, t = coef[0], 1.0, s
    for c in coef[1:]:
        total += c * t
        t_prev, t = t, 2.0 * s * t - t_prev
    return total


def scalar_value(f: PiecewiseFunction) -> Callable[[float], float]:
    """x -> f(x), one point at a time, in the segment `value` picks."""
    bps, cells = f.breakpoints, f.segments
    coefs = [cell.coef.tolist() for cell in cells]

    def at(x: float) -> float:
        if not cells or not bps[0] <= x <= bps[-1]:
            return 0.0
        i = min(bisect_right(bps, x) - 1, len(cells) - 1)
        s = 1.0 + (math.log(x) - cells[i].top) / cells[i].half
        return _chebyshev_sum(coefs[i], s) / x

    return at


def scalar_tail(f: PiecewiseFunction) -> Callable[[float], float]:
    """x -> int_x^hi f(y) dy, one point at a time: numpy's `chebint` per
    segment, whole segments summed from the top."""
    bps, cells = f.breakpoints, f.segments
    antis = [chebint(cell.coef).tolist() for cell in cells]

    def part(i: int, a: float, b: float) -> float:
        top, half = cells[i].top, cells[i].half
        s_a, s_b = (1.0 + (math.log(y) - top) / half for y in (a, b))
        return half * (_chebyshev_sum(antis[i], s_b) - _chebyshev_sum(antis[i], s_a))

    above = [0.0] * (len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        above[i] = above[i + 1] + part(i, bps[i], bps[i + 1])

    def tail(x: float) -> float:
        if not cells or x >= bps[-1]:
            return 0.0
        if x <= bps[0]:
            return above[0]
        i = bisect_right(bps, x) - 1
        return above[i + 1] + part(i, x, bps[i + 1])

    return tail


def verify_certificate_scalar(
    cert: DualCertificateJK,
    grid_points: int = 2000,
    tol: float = 1e-8,
    objective_tol: float = OBJECTIVE_TOL,
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
        tail = scalar_tail(diff)
        tails = [tail(x) / x for x in xs]
        for k in range(1, K + 1):
            q = scalar_value(cert.q[j - 1][k - 1])
            t_jk = cert.tau.threshold(j, k)
            root_res = abs(q(t_jk))
            max_root = max(max_root, root_res)
            if root_res > tol:
                note(f"q[{j}][{k}] at its threshold: |q|={root_res:.3e}")
            for x, tail_x in zip(xs, tails):
                qv = q(x)
                lhs = qv + tail_x
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
    objective = scalar_tail(cert.r_top(J))(0.0)
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
        dual_objective=objective,
        payoff=payoff,
        objective_gap=gap,
        first_violation=violation,
    )


def verify_certificate_rows(
    cert: DualCertificateJK, grid_points: int = 2000, tol: float = 1e-8
) -> CertificateReport:
    """Same checks and report as dual.verify_certificate, a q row at a time.

    Every row is checked on the grid plus every r_{j|K} breakpoint, a
    chunk of 8192 points at a time; int_x^1 [r_{j|K} - r_{j-1|K}] is the
    difference of the two rows' tail integrals, and each q_{j|k} is read
    at its threshold by `value` and on the points by `values`.
    """
    J, K = cert.J, cert.K
    max_eq = 0.0
    min_slack = math.inf
    notes: list[list[str | None]] = [[None] * K for _ in range(J)]
    roots = abs(np.array([
        [cert.q[j - 1][k - 1].value(cert.tau.threshold(j, k)) for k in range(1, K + 1)]
        for j in range(1, J + 1)
    ]))
    for (j, k), root in np.ndenumerate(roots):
        if not root <= tol:
            notes[j][k] = f"q[{j + 1}][{k + 1}] at its threshold: |q|={root:.3e}"
    points = np.array(sorted(
        {i / grid_points for i in range(1, grid_points + 1)}.union(
            *(cert.r_top(j).breakpoints for j in range(1, J + 1))
        )
    ))
    for a in range(0, len(points), 8192):
        x = points[a : a + 8192]
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
                max_eq = float(np.fmax.reduce(res[above], initial=max_eq))
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
    if violation is None and not gap <= OBJECTIVE_TOL:
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
        dual_objective=objective,
        payoff=payoff,
        objective_gap=gap,
        first_violation=violation,
    )


def construct_dual_combine(J: int, K: int) -> DualCertificateJK:
    """The dual rows of `value.solve`'s cells, one cell at a time.

    On a cell where row j's active pairs are k = 1..n, q_{j|k} for k <= n
    is the one-cell function of the gain x alpha_k + W_{j-1} - W_j at the
    nodes; each q row is a chain of `combine` over those, ascending in x,
    and r_{j|k} the running `combine` sum of q_{j|1}, ..., q_{j|k}.  The
    certificate holding them is `construct_dual`'s on the same solve,
    which runs once.
    """
    sol = solve(J, K)
    q_rows: list[tuple[PiecewiseFunction, ...]] = []
    r_rows: list[tuple[PiecewiseFunction, ...]] = []
    for j in range(1, J + 1):
        q_row = [PiecewiseFunction.zero() for _ in range(K)]
        for c, top in enumerate(sol.tops):
            for k in range(1, int(sol.active[c, j - 1]) + 1):
                g = sol.gain[c, k - 1] + sol.w[c, j - 1] - sol.w[c, j]
                one = PiecewiseFunction(sol.bps[c : c + 2], [top], sol.half, [TO_COEF @ g])
                q_row[k - 1] = q_row[k - 1].combine(one)
        r_row, running = [], PiecewiseFunction.zero()
        for q in q_row:
            running = running.combine(q)
            r_row.append(running)
        q_rows.append(tuple(q_row))
        r_rows.append(tuple(r_row))
    with mock.patch.object(value_module, "solve", return_value=sol):
        cert = construct_dual(J, K)
    vars(cert)["_rows"] = (tuple(q_rows), tuple(r_rows))  # built here, not from the arrays
    return cert


def certificate_to_dict(cert: DualCertificateJK, report: CertificateReport) -> dict:
    """JSON-ready dump: thresholds, breakpoints, sampled dual values, verification.

    The samples of `secretary_lab.dual.certificate_json`, by its rule and
    its `_q_at` call, in a dict whose `json.dumps` renders every float,
    each q's breakpoints `bps[first:]` included, on its own.
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
    samples = np.stack((xs, q.reshape(xs.shape)), axis=-1).tolist()
    bps = cert.bps.tolist()
    verification = {name: getattr(report, name) for name in (
        "ok", "max_equality_residual", "min_inequality_slack",
        "max_threshold_residual", "dual_objective", "objective_gap")}
    if report.min_inequality_slack == math.inf:  # no checked point lies below a threshold
        verification["min_inequality_slack"] = None  # strict JSON has no Infinity
    return {
        "J": cert.J,
        "K": cert.K,
        "tau": [list(row) for row in cert.tau.tau],
        "payoff": payoff_jk(cert.tau),
        "q": [
            dict(j=j + 1, k=k + 1, breakpoints=bps[f:], samples=rows)
            for (j, k), f, rows in zip(np.ndindex(cert.J, cert.K), cert.first.flat, samples)
        ],
        "verification": verification,
    }


# -- exact K = 1 checks over fraction_recursion rows -------------------------
# rows[j-1][k-1] is q_j on x in [t_k, t_(k-1)], i.e. theta in
# [theta_(k-1), theta_k]; after `ln_rows`, as a polynomial in ln x: a tuple
# of Fraction coefficients, entry p multiplying (ln x)^p.


def ln_poly_at(poly, ln_x):
    """sum_p poly[p] ln_x^p, by Horner's rule; exact for Fractions."""
    value = 0
    for c in reversed(poly):
        value = value * ln_x + c
    return value


def ln_derivative(poly) -> tuple:
    """d/d(ln x) of a polynomial in ln x: entry p is (p + 1) poly[p + 1]."""
    return tuple((p + 1) * c for p, c in enumerate(poly[1:]))


def plain_antiderivative(poly) -> tuple:
    """B with int poly(ln y) dy = y B(ln y), that is B + B' = poly:
    b_d = p_d, and b_i = p_i - (i + 1) b_(i+1) going down."""
    b = list(poly)
    for i in range(len(b) - 2, -1, -1):
        b[i] = poly[i] - (i + 1) * b[i + 1]
    return tuple(b)


def _at(poly: tuple[Fraction, ...], y: Fraction) -> Fraction:
    """poly[0] + poly[1] y + ... at y, by Horner's rule."""
    acc = 0
    for c in reversed(poly):
        acc = acc * y + c
    return acc


def _integral(poly: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """A with dA/dy = poly and A(0) = 0: for a piece in y = ln x + theta,
    int poly(y) dy/x from its lower end up to height y is A(y)."""
    return (Fraction(0), *(c / (p + 1) for p, c in enumerate(poly)))


def fraction_recursion(J: int) -> tuple[ThetaSequence, list[list[tuple[Fraction, ...]]]]:
    """theta_1..theta_J and the dual rows, every value a Fraction;
    rows[j-1][k-1] is q_j on [t_k, t_(k-1)] (t_0 = 1), a polynomial in
    y = ln x + theta_k given by its coefficients, entry p multiplying
    y^p.  Piece k of q_j has degree j - k + 1, and every row's last piece
    is y.  The loop of `secretary_lab.theta._recursion` in the same order,
    the reference for its gcd-free arithmetic."""
    if not 1 <= J <= MAX_J:
        raise ValueError(f"J={J} outside 1..{MAX_J}")
    thetas: list[Fraction] = [Fraction(1)]
    gaps = thetas[:]  # d_k = theta_k - theta_(k-1), each piece's height
    last = (Fraction(0), Fraction(1))  # q = 1 + ln x = y on the lowest piece
    rows: list[list[tuple[Fraction, ...]]] = [[last]]
    for _ in range(1, J):
        new_row: list[tuple[Fraction, ...]] = []
        acc = Fraction(0)  # int_{t_k}^1 q_j(y)/y dy, through segment k
        for q, theta_k, gap in zip(rows[-1], thetas, gaps):
            anti = _integral(q)  # A(y), A' = q, A(0) = 0
            acc += _at(anti, gap)
            # q_{j+1} = 1 + ln x + acc - A(y) on this segment, ln x = y - theta_k
            new_row.append((1 - theta_k + acc, 1 - anti[1], *(-c for c in anti[2:])))
        thetas.append(1 + acc)
        gaps.append(thetas[-1] - thetas[-2])
        new_row.append(last)
        rows.append(new_row)
    return ThetaSequence(tuple(thetas)), rows


def theta_at(ts: ThetaSequence, j: int) -> Fraction:
    """theta_j with the convention theta_0 = 0."""
    return Fraction(0) if j == 0 else ts.thetas[j - 1]


def ln_rows(ts: ThetaSequence, rows) -> list[list[tuple]]:
    """`fraction_recursion`'s rows in ln x: piece k, a polynomial p in
    y = ln x + theta_k, becomes p(ln x + theta_k), expanded by Horner's
    rule on coefficient lists (multiplying by ln x + theta_k shifts a list
    up one place and adds theta_k times it)."""
    shifted = []
    for row in rows:
        pieces = []
        for k, poly in enumerate(row, start=1):
            theta_k, acc = theta_at(ts, k), []
            for c in reversed(poly):
                acc = [theta_k * a + b for a, b in zip([*acc, 0], [0, *acc])]
                acc[0] += c
            pieces.append(tuple(acc))
        shifted.append(pieces)
    return shifted


def rational_to_decimal(q: Fraction, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """Round q to the nearest representable value at the given precision."""
    ctx = working_context(bits)
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def q_at_theta(ts: ThetaSequence, rows, j: int, theta: Fraction) -> Fraction:
    """Exact q_j at x = exp(-theta); zero for j = 0 and for theta > theta_j."""
    if j == 0 or theta > theta_at(ts, j):
        return Fraction(0)
    for k, poly in enumerate(rows[j - 1], start=1):
        if theta_at(ts, k - 1) <= theta <= theta_at(ts, k):
            return ln_poly_at(poly, -theta)
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
    theta_from = min(theta_from, theta_at(ts, j))
    with localcontext(working_context(bits)):
        total = Decimal(0)
        for k, poly in enumerate(rows[j - 1], start=1):
            lo = theta_at(ts, k - 1)
            if lo >= theta_from:
                break
            hi = min(theta_at(ts, k), theta_from)
            if weight_over_x:
                anti = _integral(poly)
                total += rational_to_decimal(ln_poly_at(anti, -lo) - ln_poly_at(anti, -hi), bits)
            else:
                # int p(ln x) dx = x * B(ln x)
                b = plain_antiderivative(poly)
                upper = rational_to_decimal(ln_poly_at(b, -lo), bits) * exp_neg_decimal(lo, bits)
                lower = rational_to_decimal(ln_poly_at(b, -hi), bits) * exp_neg_decimal(hi, bits)
                total += upper - lower
        return total


def dual_objective_k1(
    ts: ThetaSequence, rows, bits: int = DEFAULT_PRECISION_BITS
) -> float:
    """int_0^1 q_J(y) dy; must equal payoff_k1 up to final rounding."""
    return float(integral_q_from(ts, rows, ts.J, theta_at(ts, ts.J), bits))


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
        return q_here + tail / exp_neg_decimal(theta, bits)


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
    tau_rows = _policy_rows(tau)
    tree = _OrderTree(inst.n)
    left = tau.J
    selections: list[Selection] = []
    payoff = 0
    for pos in range(inst.n):
        rank = int(inst.ranks[pos])
        k = tree.count_leq(rank - 1) + 1
        tree.add(rank)
        if k > K:
            continue
        x = float(inst.times[pos])
        if not _pick_quota(tau_rows, left, k, x):
            continue
        if rank <= K:
            payoff += 1
        if detailed:
            selections.append(
                Selection(position=pos + 1, time=x, potential=k, quota=left)
            )
        left -= 1
        if not left:
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


def dp_weights(n: int, K: int, i: int, one):
    """[w(1, i), ..., w(min(K, i), i)] in the number type of `one`.

    w(k, i) = P(H >= k) for H hypergeometric (i draws, K marked of n): the
    masses h(m) = C(K, m) C(n-K, i-m) / C(n, i) summed from m = min(K, i)
    down through h(m-1) / h(m) = m (n-K-i+m) / ((K-m+1)(i-m+1)).
    """
    K = min(K, n)
    top = min(K, i)
    h = one
    for t in range(top):  # h(top) = prod_t (max(K, i) - t) / (n - t)
        h = h * (max(K, i) - t) / (n - t)
    tail = [h]
    for m in range(top, 1, -1):
        h = h * (m * (n - K - i + m)) / ((K - m + 1) * (i - m + 1))
        tail.append(tail[-1] + h)
    tail.reverse()
    return tail


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
    as `dp.p_star` computes it, bit for bit: each r's positive gains are
    added left to right from zero (not by `sum`, which compensates float
    rounding from CPython 3.12 on).
    """
    v = [0.0] * (J + 1)  # v[r] = V(i+1, r)
    tau = [[k / n for k in range(1, K + 1)] for _ in range(J)]
    taken = [K] * (J + 1)  # m at i + 1, per r
    intervals = True
    v_above, w_above = v[:], []  # V(i+2, .) and w(., i+1)
    for i in range(n, 0, -1):
        w = dp_weights(n, K, i, 1.0)
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
            gain = 0.0
            for g in gains:
                gain += g
            v[r] += gain / i
        v_above, w_above = v_here, w
    return v[J], tau, intervals


def tau_dop853(J: int, K: int) -> list[list[float]]:
    """tau[r-1][k-1] from dW_r/dt = -sum_k max(0, g_{r,k}), t = ln x,
    g_{r,k} = x alpha_k(x) + W_{r-1} - W_r, W = 0 at t = 0 and W_0 = 0,
    integrated down from t = 0 by DOP853 (rtol 1e-13, atol 1e-15):
    tau_{r,k} = e^t at the first root of g_{r,k}, found as an event on its
    fall through zero."""

    def gains(t: float, w: np.ndarray) -> np.ndarray:
        x = math.exp(t)
        a = np.array([x * alpha(k, K, x) for k in range(1, K + 1)])
        return a[None, :] + (np.concatenate(([0.0], w[:-1])) - w)[:, None]

    def rhs(t: float, w: np.ndarray) -> np.ndarray:
        return -np.maximum(gains(t, w), 0.0).sum(axis=1)

    def event(r: int, k: int) -> Callable:
        def g(t: float, w: np.ndarray) -> float:
            return gains(t, w)[r, k]

        g.direction = -1
        return g

    events = [event(r, k) for r in range(J) for k in range(K)]
    sol = solve_ivp(rhs, (0.0, math.log(1e-6)), np.zeros(J), method="DOP853",
                    rtol=1e-13, atol=1e-15, events=events)
    if not sol.success or any(len(ts) == 0 for ts in sol.t_events):
        raise RuntimeError(f"no root for some (r, k) at (J, K) = ({J}, {K})")
    roots = [math.exp(ts[0]) for ts in sol.t_events]
    return [roots[r * K : (r + 1) * K] for r in range(J)]
