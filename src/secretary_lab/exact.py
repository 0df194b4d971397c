"""Exact rational arithmetic and calculus for polynomials in ln x.

Every threshold produced by the single-best generator has the form
x = exp(-theta) with rational theta, so the natural coordinate for exact
work is theta = -ln x.  A polynomial in ln x evaluated at such a point is
a plain rational number, and the two integral operators we need,

    int p(ln y) / y dy      (weight 1/y, used by the threshold recursion)
    int p(ln y) dy          (plain, used for objective values)

both have closed-form antiderivatives that stay inside the ring of
polynomials in ln x.  Nothing in this module ever rounds; floats appear
only through the explicit conversion helpers at the bottom.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import ceil, log10
from typing import Iterable, Union

# Arbitrary-precision rational: stdlib Fraction already guarantees lowest
# terms and positive denominator, which is exactly the invariant we need.
Rational = Fraction

RationalLike = Union[Rational, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegreeOverflowError(ValueError):
    """Antiderivative would exceed the declared coefficient capacity."""


def as_rational(value: RationalLike) -> Rational:
    """Coerce an int, Fraction or 'p/q' string to a Rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def format_rational(q: Rational) -> str:
    """Serialize as 'p/q' (or plain 'p' for integers), the JSON wire form.

    Digits go through Decimal, which is not bound by the interpreter's
    limit on int-to-str conversion (4300 digits by default; theta_16 has more).
    """
    p = str(Decimal(q.numerator))
    return p if q.denominator == 1 else f"{p}/{Decimal(q.denominator)}"


@dataclass(frozen=True)
class LogPolynomial:
    """Polynomial in ln x with rational coefficients.

    coeffs[i] multiplies (ln x)**i.  Stored trimmed: the last coefficient is
    nonzero unless the polynomial is zero (empty tuple).
    """

    coeffs: tuple[Rational, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> "LogPolynomial":
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return LogPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "LogPolynomial":
        return LogPolynomial(())

    @property
    def degree(self) -> int:
        """Degree in ln x; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Rational:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def __add__(self, other: "LogPolynomial") -> "LogPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return LogPolynomial.from_coeffs(
            self.coeff(i) + other.coeff(i) for i in range(n)
        )

    def __sub__(self, other: "LogPolynomial") -> "LogPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return LogPolynomial.from_coeffs(
            self.coeff(i) - other.coeff(i) for i in range(n)
        )

    def scale(self, factor: RationalLike) -> "LogPolynomial":
        f = as_rational(factor)
        return LogPolynomial.from_coeffs(c * f for c in self.coeffs)

    def __call__(self, theta: RationalLike) -> Rational:
        return eval_at_theta(self, theta)


@dataclass(frozen=True)
class IntervalPiece:
    """One polynomial piece of a piecewise function, in theta-space.

    The piece covers theta in [theta_lo, theta_hi], i.e. x in
    [exp(-theta_hi), exp(-theta_lo)].  Successive pieces of one function
    have strictly increasing theta breakpoints (strictly decreasing x).
    """

    theta_lo: Rational
    theta_hi: Rational
    poly: LogPolynomial


def eval_at_theta(p: LogPolynomial, theta: RationalLike) -> Rational:
    """Evaluate p at x = exp(-theta), i.e. substitute ln x = -theta. Exact."""
    t = -as_rational(theta)
    acc = _ZERO
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def antiderivative_over_x(
    p: LogPolynomial, max_len: int | None = None
) -> LogPolynomial:
    """Antiderivative of p(ln x)/x, with d/dx [P(ln x)] = p(ln x)/x.

    Term-wise (ln x)**i / x integrates to (ln x)**(i+1) / (i+1); the result
    has zero constant term.  max_len bounds the coefficient count of the
    result; exceeding it means the caller's degree budget is broken.
    """
    out = [_ZERO] + [c / (i + 1) for i, c in enumerate(p.coeffs)]
    if max_len is not None and len(out) > max_len and any(out[max_len:]):
        raise DegreeOverflowError(
            f"antiderivative needs {len(out)} coefficients, capacity {max_len}"
        )
    return LogPolynomial.from_coeffs(out)


def definite_integral_over_x(
    p: LogPolynomial, theta_lo: RationalLike, theta_hi: RationalLike
) -> Rational:
    """Exact value of int p(ln y)/y dy for x from exp(-theta_hi) to exp(-theta_lo).

    Requires theta_lo <= theta_hi (an x-interval traversed left to right).
    """
    lo = as_rational(theta_lo)
    hi = as_rational(theta_hi)
    if lo > hi:
        raise ValueError(f"need theta_lo <= theta_hi, got {lo} > {hi}")
    anti = antiderivative_over_x(p)
    return eval_at_theta(anti, lo) - eval_at_theta(anti, hi)


def antiderivative_plain(p: LogPolynomial) -> LogPolynomial:
    """Return B with int p(ln x) dx = x * B(ln x).

    Repeated integration by parts gives B_m = sum_{i>=m} (-1)^(i-m) i!/m! p_i.
    """
    n = len(p.coeffs)
    out = []
    for m in range(n):
        acc = _ZERO
        fact = _ONE  # i!/m!, stepped up as i grows
        sign = 1
        for i in range(m, n):
            acc += sign * fact * p.coeffs[i]
            sign = -sign
            fact *= i + 1
        out.append(acc)
    return LogPolynomial.from_coeffs(out)


# -- float / Decimal conversion ------------------------------------------
#
# Reporting rounds once, at the end. The working precision is given in
# significant bits (default 64, comfortably above a double) and mapped to
# decimal digits with guard digits for the exp() evaluation.

DEFAULT_PRECISION_BITS = 64


def working_context(bits: int) -> decimal.Context:
    """Decimal context holding bits of significand plus guard digits."""
    digits = ceil(bits * log10(2)) + 5
    return decimal.Context(prec=digits)


_context = working_context


def rational_to_decimal(q: Rational, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """Round q to the nearest representable value at the given precision."""
    ctx = _context(bits)
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def exp_neg(theta: RationalLike, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """exp(-theta) for rational theta, correct to the working precision."""
    t = as_rational(theta)
    ctx = _context(bits)
    x = ctx.divide(Decimal(-t.numerator), Decimal(t.denominator))
    return ctx.exp(x)
