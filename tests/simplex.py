"""The finite n-item selection LP and its exact simplex.

One variable z_{j|k}(i) per (quota j, potential rank k, arrival position i)
gives the probability that position i is taken by quota j given it is a
k-potential.  Feasible points correspond exactly to selection algorithms on
n items, so the LP optimum P*_n is the best achievable expected payoff; as
n grows it approaches the continuous optimum from above.

The solver is an exact Fraction tableau with Bland's rule: the LP of
record, bit-exact on small instances.  P*_n itself is computed by the
backward induction in `dp`, which this LP cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

# Largest J*K*n the exact simplex accepts: (1,1) n=100 takes about 6 s and
# (2,2) n=25 about 3 s (Python 3.11, one Xeon vCPU), and the time grows
# with the cube of the size.
EXACT_SIZE_CAP = 100


class LPSizeError(ValueError):
    """Instance exceeds the configured size cap."""


class SolverError(RuntimeError):
    """The simplex backend hit a numerical failure."""


def objective_coefficient(n: int, K: int, k: int, i: int) -> Fraction:
    """Exact payoff weight of z_{j|k}(i) (independent of j):
    (1/n) sum_{l=k}^{K} C(n-i, l-k) C(i-1, k-1) / C(n-1, l-1).

    Overall ranks beyond n do not exist, so the sum stops at min(K, n).
    """
    total = Fraction(0)
    for el in range(k, min(K, n) + 1):
        total += Fraction(comb(n - i, el - k) * comb(i - 1, k - 1), comb(n - 1, el - 1))
    return total / n


def coefficient_row_sum(n: int, K: int, i: int) -> Fraction:
    """sum_k sum_{l>=k} C(n-i,l-k) C(i-1,k-1) / C(n-1,l-1).

    Identically K whenever n >= K (and n when n < K: every item pays)."""
    return sum(objective_coefficient(n, K, k, i) for k in range(1, K + 1)) * n


@dataclass(frozen=True)
class FiniteLPInstance:
    """LP data for n items, J quotas, K payoff ranks.

    Variables are flattened as idx = ((j-1)K + (k-1)) n + (i-1); there is one
    inequality row per variable plus nonnegativity bounds.
    """

    n: int
    J: int
    K: int
    objective: tuple[Fraction, ...]

    @property
    def num_vars(self) -> int:
        return self.J * self.K * self.n

    @property
    def num_rows(self) -> int:
        return self.J * self.K * self.n

    def var_index(self, j: int, k: int, i: int) -> int:
        if not (1 <= j <= self.J and 1 <= k <= self.K and 1 <= i <= self.n):
            raise IndexError(f"(j,k,i)=({j},{k},{i}) out of range")
        return ((j - 1) * self.K + (k - 1)) * self.n + (i - 1)

    def row_exact(self, j: int, k: int, i: int) -> tuple[dict[int, Fraction], Fraction]:
        """Constraint row as {column: coefficient} plus right-hand side.

        j < J:  z_{j|k}(i) - sum_{m<i} (1/m) sum_l [z_{j+1|l}(m) - z_{j|l}(m)] <= 0
        j = J:  z_{J|k}(i) + sum_{m<i} (1/m) sum_l z_{J|l}(m) <= 1
        """
        row: dict[int, Fraction] = {self.var_index(j, k, i): Fraction(1)}
        for m in range(1, i):
            w = Fraction(1, m)
            for el in range(1, self.K + 1):
                col = self.var_index(j, el, m)
                row[col] = row.get(col, Fraction(0)) + w
                if j < self.J:
                    col2 = self.var_index(j + 1, el, m)
                    row[col2] = row.get(col2, Fraction(0)) - w
        rhs = Fraction(1) if j == self.J else Fraction(0)
        return row, rhs

    def iter_rows(self):
        for j in range(1, self.J + 1):
            for k in range(1, self.K + 1):
                for i in range(1, self.n + 1):
                    yield (j, k, i)


def build_lp(n: int, J: int, K: int) -> FiniteLPInstance:
    if n < 1 or J < 1 or K < 1:
        raise ValueError("n, J, K must be positive")
    if J * K * n > EXACT_SIZE_CAP:
        raise LPSizeError(f"{J * K * n} variables exceeds the cap {EXACT_SIZE_CAP}")
    obj = []
    per_k = {
        (k, i): objective_coefficient(n, K, k, i)
        for k in range(1, K + 1)
        for i in range(1, n + 1)
    }
    for j in range(1, J + 1):
        for k in range(1, K + 1):
            for i in range(1, n + 1):
                obj.append(per_k[(k, i)])
    return FiniteLPInstance(n=n, J=J, K=K, objective=tuple(obj))


@dataclass(frozen=True)
class LPSolution:
    values: tuple[Fraction, ...]
    objective: Fraction
    status: str  # "optimal" | "iteration-limit"
    dual_objective: Fraction | None
    iterations: int


def solve_lp(inst: FiniteLPInstance, max_iter: int | None = None) -> LPSolution:
    """Optimal basic solution in exact arithmetic, or the basis reached after
    max_iter pivots (status "iteration-limit")."""
    rows = []
    rhs = []
    for j, k, i in inst.iter_rows():
        row, b = inst.row_exact(j, k, i)
        rows.append(row)
        rhs.append(b)
    m = len(rows)
    width = inst.num_vars + m
    # tableau rows over structural + slack columns; slack basis is feasible
    tab = []
    for r, row in enumerate(rows):
        dense = [Fraction(0)] * width
        for col, v in row.items():
            dense[col] = v
        dense[inst.num_vars + r] = Fraction(1)
        tab.append(dense)
    b = list(rhs)
    red = [Fraction(v) for v in inst.objective] + [Fraction(0)] * m
    basis = [inst.num_vars + r for r in range(m)]
    obj_val = Fraction(0)
    limit = max_iter if max_iter is not None else 50 * (m + width)
    it = 0
    while True:
        enter = next((c for c in range(width) if red[c] > 0), None)
        if enter is None:
            break
        if it >= limit:
            return LPSolution(
                values=_basic_values(b, basis, inst.num_vars),
                objective=obj_val,
                status="iteration-limit",
                dual_objective=None,
                iterations=it,
            )
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = b[r] / a
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise SolverError("unbounded exact LP (instance is malformed)")
        r = best[1]
        piv = tab[r][enter]
        tab[r] = [v / piv for v in tab[r]]
        b[r] /= piv
        for rr in range(m):
            if rr != r and tab[rr][enter] != 0:
                f = tab[rr][enter]
                tab[rr] = [v - f * w for v, w in zip(tab[rr], tab[r])]
                b[rr] -= f * b[r]
        delta = red[enter]
        red = [v - delta * w for v, w in zip(red, tab[r])]
        obj_val += delta * b[r]
        basis[r] = enter
        it += 1
    dual_obj = sum(-red[inst.num_vars + r] * rhs[r] for r in range(m))
    return LPSolution(
        values=_basic_values(b, basis, inst.num_vars),
        objective=obj_val,
        status="optimal",
        dual_objective=dual_obj,
        iterations=it,
    )


def _basic_values(b, basis, nv) -> tuple[Fraction, ...]:
    z = [Fraction(0)] * nv
    for r, col in enumerate(basis):
        if col < nv:
            z[col] = b[r]
    return tuple(z)
