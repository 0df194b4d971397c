"""Single-best (K = 1) optimal thresholds, exactly.

The optimal policy with J selection quotas releases quota j at time
t_j = exp(-theta_j), where the theta_j are rational numbers produced by an
O(J^3) recursion over polynomials in ln x:

    theta_1 = 1,   q_1(x) = 1 + ln x            on [t_1, 1]
    theta_{j+1} = 1 + int_{t_j}^1 q_j(y)/y dy
    q_{j+1}(x) = 1 + ln x + int_{max(x, t_j)}^1 q_j(y)/y dy   on [t_{j+1}, 1]

Each q_j is a polynomial in ln x with rational coefficients between
successive thresholds, so the whole construction runs in exact arithmetic;
q_j doubles as an optimality certificate (q_j(t_j) = 0, q_j(1) = 1, and the
piecewise data witnesses the complementary-slackness equalities).  Piece k,
on [t_k, t_(k-1)], is kept in y = ln x + theta_k, where its antiderivative
vanishes at the lower end, so its integral is one Horner evaluation at
theta_k - theta_(k-1).  `recursion` returns the thetas with these rows,
each piece a tuple of Fraction coefficients in y, which the tests shift
back to ln x and check as the exact certificate.  The float K = 1
certificate comes from dual.construct_dual, which builds every K alike and
agrees with exp(-theta_j) within 1e-12.  Floats appear only in the
reporting helpers.  This module imports nothing from the package.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, log10

# Bit growth of the rationals is super-linear in J; larger J is refused.
MAX_J = 16

# Reporting rounds once, at the end. The working precision is given in
# significant bits (64, comfortably above a double) and mapped to decimal
# digits with guard digits for the exp() evaluation.
DEFAULT_PRECISION_BITS = 64


def _digits(n: int) -> str:
    """str(n), split at powers of ten into parts of at most 603 digits:
    below 640, the lowest int-to-str limit Python accepts."""
    if n.bit_length() <= 2000:
        return str(n)
    k = int(n.bit_length() * 0.30103) // 2  # about half of n's digits
    hi, lo = divmod(abs(n), 10**k)
    return "-" * (n < 0) + _digits(hi) + _digits(lo).zfill(k)


def format_rational(q: Fraction) -> str:
    """Serialize as 'p/q' (or plain 'p' for integers), the JSON wire form."""
    p = _digits(q.numerator)
    return p if q.denominator == 1 else f"{p}/{_digits(q.denominator)}"


def working_context(bits: int) -> decimal.Context:
    """Decimal context holding bits of significand plus guard digits."""
    digits = ceil(bits * log10(2)) + 5
    return decimal.Context(prec=digits)


def exp_neg(theta: Fraction | int, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """exp(-theta) for rational theta, correct to the working precision;
    -theta is rounded once from its integer quotient plus a sticky digit."""
    ctx, p, q = working_context(bits), theta.numerator, theta.denominator
    # p / q > 2^(bit lengths' difference - 1): the quotient has prec + 1 digits or more
    shift = max(0, ctx.prec + 1 - floor((p.bit_length() - q.bit_length() - 1) * log10(2)))
    quotient, rest = divmod(abs(p) * 10**shift, q)
    digits = 10 * quotient + (rest != 0)
    return ctx.exp(ctx.create_decimal(f"{-digits if p > 0 else digits}e{-shift - 1}"))


@dataclass(frozen=True)
class ThetaSequence:
    """theta_1 < theta_2 < ... < theta_J, all rational, theta_1 = 1."""

    thetas: tuple[Fraction, ...]

    @property
    def J(self) -> int:
        return len(self.thetas)

    @cached_property
    def exps(self) -> tuple[Decimal, ...]:
        """exp(-theta_j) at the working precision, computed on first use."""
        return tuple(exp_neg(t) for t in self.thetas)


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


def recursion(J: int) -> tuple[ThetaSequence, list[list[tuple[Fraction, ...]]]]:
    """theta_1..theta_J and the dual rows; rows[j-1][k-1] is q_j on [t_k, t_(k-1)].

    Each row entry is a polynomial in y = ln x + theta_k given by its
    Fraction coefficients, entry p multiplying y^p (t_0 = 1); piece k of
    q_j has degree j - k + 1, and every row's last piece is y.  O(J^3)
    rational operations; J above MAX_J is refused.
    """
    return _recursion(J, last_row=True)


def _recursion(J: int, last_row: bool) -> tuple[ThetaSequence, list]:
    """`recursion`, building row J only if last_row (theta_J needs row J - 1)."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if J > MAX_J:
        raise ValueError(f"J={J} exceeds the cap {MAX_J}")
    thetas: list[Fraction] = [Fraction(1)]
    gaps = thetas[:]  # d_k = theta_k - theta_(k-1), each piece's height
    last = (Fraction(0), Fraction(1))  # q = 1 + ln x = y on the lowest piece
    rows: list[list[tuple[Fraction, ...]]] = [[last]]
    for j in range(1, J):
        new_row: list[tuple[Fraction, ...]] = []
        acc = Fraction(0)  # int_{t_k}^1 q_j(y)/y dy, through segment k
        for q, theta_k, gap in zip(rows[-1], thetas, gaps):
            anti = _integral(q)  # A(y), A' = q, A(0) = 0
            acc += _at(anti, gap)
            if last_row or j < J - 1:
                # q_{j+1} = 1 + ln x + acc - A(y) on this segment, ln x = y - theta_k
                new_row.append((1 - theta_k + acc, 1 - anti[1], *(-c for c in anti[2:])))
        thetas.append(1 + acc)
        gaps.append(thetas[-1] - thetas[-2])
        new_row.append(last)
        rows.append(new_row)
    return ThetaSequence(tuple(thetas)), rows


def generate_thetas(J: int) -> ThetaSequence:
    """Exact theta_1..theta_J."""
    return _recursion(J, last_row=False)[0]


def thresholds(ts: ThetaSequence) -> list[float]:
    """t_j = exp(-theta_j), rounded once from the working precision."""
    return [float(e) for e in ts.exps]


def payoff_k1(ts: ThetaSequence) -> float:
    """Optimal expected number of best-item selections: sum of t_j."""
    return float(payoff_k1_decimal(ts))


def payoff_k1_decimal(ts: ThetaSequence) -> Decimal:
    """sum of t_j at the working precision, before any rounding."""
    with localcontext(working_context(DEFAULT_PRECISION_BITS)):
        return sum(ts.exps, Decimal(0))
