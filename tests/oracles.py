"""Independent reference implementations used only by the tests.

* `quadrature`: adaptive Simpson integration, the numeric cross-check for
  the closed-form antiderivatives in `secretary_lab.piecewise`.
* `verify_certificate_scalar`: the certificate check point by point in
  plain Python floats, the reference for the array evaluation in
  `secretary_lab.dual.verify_certificate`.  Tail integrals come from the
  scalar `PiecewiseFunction.integral`, a code path separate from the
  cached suffix sums of `tail_integral`.
"""

from __future__ import annotations

import math
from typing import Callable

from secretary_lab.dual import (
    CertificateReport,
    DualCertificateJK,
    alpha,
    payoff_jk,
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

    base_grid = [i / grid_points for i in range(1, grid_points + 1)]
    for j in range(1, J + 1):
        diff = cert.r_top(j).combine(cert.r_top(j - 1), 1.0, -1.0)
        xs = sorted(set(base_grid) | set(diff.breakpoints))
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
