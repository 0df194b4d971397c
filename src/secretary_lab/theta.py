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
piecewise data witnesses the complementary-slackness equalities).  Floats
appear only in the reporting helpers.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, log10

from .piecewise import LogLinComb

# Bit growth of the rationals is super-linear in J; past this point a run
# needs an explicit opt-in.
DEFAULT_MAX_J = 16

# Reporting rounds once, at the end. The working precision is given in
# significant bits (default 64, comfortably above a double) and mapped to
# decimal digits with guard digits for the exp() evaluation.
DEFAULT_PRECISION_BITS = 64


class DegreeOverflowError(ValueError):
    """An antiderivative exceeded the recursion's degree budget in ln x."""


def format_rational(q: Fraction) -> str:
    """Serialize as 'p/q' (or plain 'p' for integers), the JSON wire form.

    Digits go through Decimal, which is not bound by the interpreter's
    limit on int-to-str conversion (4300 digits by default; theta_16 has more).
    """
    p = str(Decimal(q.numerator))
    return p if q.denominator == 1 else f"{p}/{Decimal(q.denominator)}"


def working_context(bits: int) -> decimal.Context:
    """Decimal context holding bits of significand plus guard digits."""
    digits = ceil(bits * log10(2)) + 5
    return decimal.Context(prec=digits)


def rational_to_decimal(q: Fraction, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """Round q to the nearest representable value at the given precision."""
    ctx = working_context(bits)
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def exp_neg(theta: Fraction | int, bits: int = DEFAULT_PRECISION_BITS) -> Decimal:
    """exp(-theta) for rational theta, correct to the working precision."""
    ctx = working_context(bits)
    x = ctx.divide(Decimal(-theta.numerator), Decimal(theta.denominator))
    return ctx.exp(x)


@dataclass(frozen=True)
class IntervalPiece:
    """One polynomial piece of a piecewise function, in theta-space.

    The piece covers theta in [theta_lo, theta_hi], i.e. x in
    [exp(-theta_hi), exp(-theta_lo)], and poly is a polynomial in ln x
    with Fraction coefficients.  Successive pieces of one function have
    strictly increasing theta breakpoints (strictly decreasing x).
    """

    theta_lo: Fraction
    theta_hi: Fraction
    poly: LogLinComb


@dataclass(frozen=True)
class ThetaSequence:
    """theta_1 < theta_2 < ... < theta_J, all rational, theta_1 = 1."""

    thetas: tuple[Fraction, ...]

    @property
    def J(self) -> int:
        return len(self.thetas)

    def theta(self, j: int) -> Fraction:
        """theta_j with the convention theta_0 = 0."""
        return Fraction(0) if j == 0 else self.thetas[j - 1]


@dataclass(frozen=True)
class DualCertificateK1:
    """Exact dual functions q_1..q_J.

    pieces[j-1][k-1] covers x in [t_k, t_(k-1)] (theta in
    [theta_(k-1), theta_k]); q_j is zero below t_j.
    """

    thetas: ThetaSequence
    pieces: tuple[tuple[IntervalPiece, ...], ...]

    @property
    def J(self) -> int:
        return self.thetas.J

    def q_at_theta(self, j: int, theta: Fraction) -> Fraction:
        """Exact q_j evaluated at x = exp(-theta); zero for theta > theta_j."""
        if j == 0:
            return Fraction(0)
        if theta > self.thetas.theta(j):
            return Fraction(0)
        for piece in self.pieces[j - 1]:
            if piece.theta_lo <= theta <= piece.theta_hi:
                return piece.poly.at_ln(-theta)
        raise ValueError(f"theta {theta} outside [0, theta_{j}]")


def _generate(J: int) -> tuple[list[Fraction], list[list[LogLinComb]]]:
    """Run the rational recursion; rows[j-1][k-1] is q_j on [t_k, t_(k-1)]."""
    thetas: list[Fraction] = [Fraction(1)]
    one_plus_ln = LogLinComb.from_ln_poly([Fraction(1), Fraction(1)])
    rows: list[list[LogLinComb]] = [[one_plus_ln]]
    for j in range(1, J):
        bounds = [Fraction(0)] + thetas  # theta_0 .. theta_j
        new_row: list[LogLinComb] = []
        # Running sum of int q_j(y)/y dy over the whole segments above the
        # current one; after segment j it equals int_{t_j}^1 q_j(y)/y dy.
        acc = Fraction(0)
        for k, q in enumerate(rows[-1], start=1):
            anti = q.shift_xpow(-1).antiderivative()  # A(ln x), A' = q
            degree = max((p for _, p in anti.terms), default=0)
            if degree > J:
                raise DegreeOverflowError(
                    f"antiderivative of q_{j} has degree {degree} in ln x, budget {J}"
                )
            top = anti.at_ln(-bounds[k - 1])
            # q_{j+1} = 1 + ln x + [A(-theta_{k-1}) - A(ln x)] + acc on this segment
            new_row.append(one_plus_ln - anti + LogLinComb.const(top + acc))
            acc += top - anti.at_ln(-bounds[k])
        theta_next = 1 + acc
        new_row.append(LogLinComb.from_ln_poly([theta_next, Fraction(1)]))
        thetas.append(theta_next)
        rows.append(new_row)
    return thetas, rows


def generate_thetas(J: int, max_j: int = DEFAULT_MAX_J) -> ThetaSequence:
    """Exact theta_1..theta_J.  O(J^3) rational operations."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if J > max_j:
        raise ValueError(f"J={J} exceeds the cap {max_j}; raise max_j to override")
    thetas, _ = _generate(J)
    return ThetaSequence(tuple(thetas))


def thresholds(
    ts: ThetaSequence, bits: int = DEFAULT_PRECISION_BITS
) -> list[float]:
    """t_j = exp(-theta_j), rounded once from the working precision."""
    return [float(exp_neg(t, bits)) for t in ts.thetas]


def payoff_k1(ts: ThetaSequence, bits: int = DEFAULT_PRECISION_BITS) -> float:
    """Optimal expected number of best-item selections: sum of t_j."""
    return float(payoff_k1_decimal(ts, bits))


def payoff_k1_decimal(
    ts: ThetaSequence, bits: int = DEFAULT_PRECISION_BITS
) -> Decimal:
    with localcontext(working_context(bits)):
        total = Decimal(0)
        for t in ts.thetas:
            total += exp_neg(t, bits)
        return total


def build_dual_certificate(ts: ThetaSequence) -> DualCertificateK1:
    """Dual functions matching ts; regenerated to keep the data exact."""
    thetas, rows = _generate(ts.J)
    if tuple(thetas) != ts.thetas:
        raise ValueError("theta sequence was not produced by generate_thetas")
    all_pieces = []
    for j in range(1, ts.J + 1):
        row = []
        for k in range(1, j + 1):
            lo = Fraction(0) if k == 1 else thetas[k - 2]
            row.append(IntervalPiece(lo, thetas[k - 1], rows[j - 1][k - 1]))
        all_pieces.append(tuple(row))
    return DualCertificateK1(ThetaSequence(tuple(thetas)), tuple(all_pieces))


def integral_q_from(
    cert: DualCertificateK1,
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
    theta_from = min(theta_from, cert.thetas.theta(j))
    with localcontext(working_context(bits)):
        total = Decimal(0)
        for piece in cert.pieces[j - 1]:
            if piece.theta_lo >= theta_from:
                break
            hi_theta = min(piece.theta_hi, theta_from)
            if weight_over_x:
                anti = piece.poly.shift_xpow(-1).antiderivative()
                val = anti.at_ln(-piece.theta_lo) - anti.at_ln(-hi_theta)
                total += rational_to_decimal(val, bits)
            else:
                # int p(ln x) dx = x * B(ln x)
                b = piece.poly.antiderivative().shift_xpow(-1)
                upper = rational_to_decimal(
                    b.at_ln(-piece.theta_lo), bits
                ) * exp_neg(piece.theta_lo, bits)
                lower = rational_to_decimal(
                    b.at_ln(-hi_theta), bits
                ) * exp_neg(hi_theta, bits)
                total += upper - lower
        return total


def dual_objective_k1(
    cert: DualCertificateK1, bits: int = DEFAULT_PRECISION_BITS
) -> float:
    """int_0^1 q_J(y) dy; must equal payoff_k1 up to final rounding."""
    return float(integral_q_from(cert, cert.J, cert.thetas.theta(cert.J), bits))


def constraint_lhs_k1(
    cert: DualCertificateK1,
    j: int,
    theta: Fraction,
    bits: int = DEFAULT_PRECISION_BITS,
) -> Decimal:
    """q_j(x) + (1/x) int_x^1 [q_j - q_(j-1)] dy at x = exp(-theta).

    Equals 1 on [t_j, 1] and strictly exceeds 1 below t_j; used by the
    exact certificate checks.
    """
    with localcontext(working_context(bits)):
        q_here = rational_to_decimal(cert.q_at_theta(j, theta), bits)
        tail = integral_q_from(cert, j, theta, bits) - integral_q_from(
            cert, j - 1, theta, bits
        )
        return q_here + tail / exp_neg(theta, bits)
