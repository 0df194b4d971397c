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
theta_k - theta_(k-1).  Only the thetas leave the module; the tests
build the same rows in Fractions (`fraction_recursion` in tests/oracles.py)
and check them as the exact certificate.

The loop needs no gcd.  Its inputs are integers, it adds, subtracts and
multiplies, and it divides only by p + 1 <= MAX_J = 16, so every value
lies in Z[1/30030], 30030 = 2*3*5*7*11*13.  A value is (n, e): n over the
product of p_i^e_i for p_i = 2, 3, 5, 7, 11, 13, e_i in bits 20i..20i+19
of e (no e_i exceeds 32767 at J <= 16).  A product adds the e; a sum
raises both terms to the larger power of each prime by cached factors.
Each new theta is put in lowest terms by trial division, which keeps
later denominators tight (theta_16's is 2^32767 3^7168 5^2048 7^512 11^32
13^8).

The float K = 1 certificate comes from dual.construct_dual, which builds
every K alike and agrees with exp(-theta_j) within 1e-12.  Floats appear
only in the reporting helpers, which round once from exp_neg's values.
Those and the K = 1 payoff's sum are taken in copies of WORKING_CONTEXT,
the one decimal context, built from DEFAULT_PRECISION_BITS: no function
takes a precision.  This module imports nothing from the package.
"""

from __future__ import annotations

import decimal
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property
from math import ceil, floor, log10, prod

# Bit growth of the rationals is super-linear in J, and the recursion's
# arithmetic carries the primes up to 13 only; larger J is refused.
MAX_J = 16

# Reporting rounds once, at the end, from one working precision: 64
# significant bits (comfortably above a double), mapped to decimal digits
# with guard digits for the exp() evaluation.
DEFAULT_PRECISION_BITS = 64
WORKING_CONTEXT = decimal.Context(prec=ceil(DEFAULT_PRECISION_BITS * log10(2)) + 5)


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


def exp_neg(theta: Fraction | int) -> Decimal:
    """exp(-theta) for rational theta, correct to the working precision;
    -theta is rounded once from its integer quotient plus a sticky digit.
    It works in a copy, so WORKING_CONTEXT's flags stay clear."""
    ctx, p, q = WORKING_CONTEXT.copy(), theta.numerator, theta.denominator
    # p / q > 2^(bit lengths' difference - 1): the quotient has prec + 1 digits or more
    shift = max(0, ctx.prec + 1 - floor((p.bit_length() - q.bit_length() - 1) * log10(2)))
    quotient, rest = divmod(abs(p) * 10**shift, q)
    digits = 10 * quotient + (rest != 0)
    return ctx.exp(ctx.create_decimal(f"{-digits if p > 0 else digits}e{-shift - 1}"))


class ThetaSequence(namedtuple("ThetaSequence", [
    "thetas",  # tuple[Fraction, ...]
])):
    """theta_1 < theta_2 < ... < theta_J, all rational, theta_1 = 1
    (no __slots__: the instance's __dict__ keeps exps)."""

    @property
    def J(self) -> int:
        return len(self.thetas)

    @cached_property
    def exps(self) -> tuple[Decimal, ...]:
        """exp(-theta_j) at the working precision, computed on first use."""
        return tuple(exp_neg(t) for t in self.thetas)


# The recursion's values as (n, e) pairs: see the module docstring
_PRIMES = (2, 3, 5, 7, 11, 13)
_ZERO, _ONE = (0, 0), (1, 0)


def _exponents(e: int) -> list[int]:
    return [e >> 20 * i & 0xFFFFF for i in range(6)]


def _packed(exponents) -> int:
    return sum(k << 20 * i for i, k in enumerate(exponents))


@cache  # generate_thetas(MAX_J) meets about 1300 exponents and pairs, 0.2 MB in all
def _power(e: int) -> int:
    return prod(map(pow, _PRIMES, _exponents(e)))


@cache
def _common(e: int, f: int) -> tuple[int, int, int]:
    """The factors that raise e and f to the larger power of each prime, and that power."""
    top = _packed(map(max, _exponents(e), _exponents(f)))
    return _power(top - e), _power(top - f), top


def _add(x: tuple, y: tuple) -> tuple:
    (n, e), (m, f) = x, y
    if not n or not m:
        return x if n else y
    if e != f:
        u, v, e = _common(e, f)
        n, m = n * u, m * v
    return (n + m, e)


def _mul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0], x[1] + y[1])


def _neg(x: tuple) -> tuple:
    return (-x[0], x[1])


def _lowest(x: tuple) -> tuple:
    """x with the primes common to n and the denominator cancelled."""
    n, e = x
    e = _exponents(e)
    for i, p in enumerate(_PRIMES):
        while e[i] and n % p == 0:
            n, e[i] = n // p, e[i] - 1
    return (n, _packed(e))


# 1/(p + 1) at [p] for every degree p < MAX_J a piece reaches, from
# 1/m = (720720 / m) / 720720, 720720 = lcm(1, ..., MAX_J)
_RECIPROCALS = [_lowest((720720 // m, _packed((4, 2, 1, 1, 1, 1)))) for m in range(1, MAX_J + 1)]


def _fraction(x: tuple) -> Fraction:
    """x, in lowest terms, as a Fraction.  Its terms are coprime, so the
    denominator is set directly: the constructor's gcd would about double
    the time of generate_thetas(16)."""
    q = Fraction(x[0])
    q._denominator = _power(x[1])
    return q


def _recursion(J: int) -> list[tuple]:
    """theta_1..theta_J as (n, e) pairs in lowest terms, from rows 1..J-1:
    piece k of row j is q_j on [t_k, t_(k-1)] (t_0 = 1), its coefficients
    in y = ln x + theta_k, entry p multiplying y^p.  J above MAX_J is refused."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if J > MAX_J:
        raise ValueError(f"J={J} exceeds the cap {MAX_J}")
    thetas = [_ONE]
    gaps = thetas[:]  # d_k = theta_k - theta_(k-1), each piece's height
    last = (_ZERO, _ONE)  # q = 1 + ln x = y on the lowest piece
    row: list[tuple] = [last]
    for j in range(1, J):
        new_row = []
        acc = _ZERO  # int_{t_k}^1 q_j(y)/y dy, through segment k
        for q, theta_k, gap in zip(row, thetas, gaps):
            # A(y), A' = q, A(0) = 0: int q dy/x from the piece's lower end to y
            anti = (_ZERO, *map(_mul, q, _RECIPROCALS))
            height = _ZERO  # A(gap), by Horner's rule
            for c in reversed(anti):
                height = _add(_mul(height, gap), c)
            acc = _add(acc, height)
            if j < J - 1:
                # q_{j+1} = 1 + ln x + acc - A(y) on this segment, ln x = y - theta_k
                new_row.append((_add(_add(_ONE, _neg(theta_k)), acc),
                                _add(_ONE, _neg(anti[1])), *map(_neg, anti[2:])))
        thetas.append(_lowest(_add(_ONE, acc)))  # tight denominators from here on
        gaps.append(_add(thetas[-1], _neg(thetas[-2])))
        new_row.append(last)
        row = new_row
    return thetas


def generate_thetas(J: int) -> ThetaSequence:
    """Exact theta_1..theta_J."""
    return ThetaSequence(tuple(map(_fraction, _recursion(J))))


def thresholds(ts: ThetaSequence) -> list[float]:
    """t_j = exp(-theta_j), rounded once from the working precision."""
    return [float(e) for e in ts.exps]


def payoff_k1(ts: ThetaSequence) -> float:
    """Optimal expected number of best-item selections: sum of t_j."""
    return float(payoff_k1_decimal(ts.exps))


def payoff_k1_decimal(exps: tuple[Decimal, ...]) -> Decimal:
    """sum of the t_j in exps (a ThetaSequence's or a prefix), at the working precision."""
    with localcontext(WORKING_CONTEXT):
        return sum(exps, Decimal(0))
