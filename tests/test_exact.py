"""Exact calculus on polynomials given by Fraction coefficient tuples, the
form of the K = 1 recursion's pieces (`oracles.fraction_recursion`, in
y = ln x + theta_k; the calculus is the same in ln x), and the exact
rationals' digits."""

import math
import random
import sys
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import theta
from secretary_lab.theta import (
    MAX_J,
    WORKING_CONTEXT,
    _digits,
    exp_neg,
    format_rational,
    generate_thetas,
)

from oracles import (
    _at,
    _integral,
    fraction_recursion,
    ln_derivative,
    ln_poly_at,
    plain_antiderivative,
    quadrature,
    rational_to_decimal,
)
from reference_values import EXP_NEG_1_DIGITS


def ln_poly(*coeffs) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


ONE_PLUS_LN = ln_poly(1, 1)


def test_eval_at_threshold_is_zero():
    assert _at(ONE_PLUS_LN, Fraction(-1)) == 0


def test_eval_at_one():
    assert _at(ONE_PLUS_LN, Fraction(0)) == 1


def test_eval_quadratic_piece():
    # 1 - (ln x)^2 / 2 at x = 1/e
    p = ln_poly(1, 0, Fraction(-1, 2))
    assert _at(p, Fraction(-1)) == Fraction(1, 2)


def test_antiderivative_of_constant():
    assert _integral(ln_poly(1)) == (0, 1)


def test_antiderivative_termwise():
    assert _integral(ONE_PLUS_LN) == (0, 1, Fraction(1, 2))


def test_antiderivative_power_rule():
    assert _integral(ln_poly(0, 0, 1)) == (0, 0, 0, Fraction(1, 3))


def test_recursion_16_row_shapes():
    """Row j has j pieces, piece k has degree j - k + 1 with a nonzero
    leading coefficient, and every coefficient is a Fraction: the degrees
    grow by one per row and no further."""
    _, rows = fraction_recursion(16)
    assert len(rows) == 16
    for j, row in enumerate(rows, start=1):
        assert len(row) == j
        for k, piece in enumerate(row, start=1):
            assert len(piece) - 1 == j - k + 1
            assert piece[-1] != 0
            assert all(type(c) is Fraction for c in piece)


def test_definite_integral_known_value():
    # int (1 + ln y)/y dy over [1/e, 1]
    anti = _integral(ONE_PLUS_LN)
    assert _at(anti, Fraction(0)) - _at(anti, Fraction(-1)) == Fraction(1, 2)


def test_definite_integral_constant_is_theta_length():
    anti = _integral(ln_poly(1))
    assert _at(anti, Fraction(0)) - _at(anti, Fraction(-3, 2)) == Fraction(3, 2)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=50)


@settings(max_examples=150, deadline=None)
@given(poly=st.lists(rationals, max_size=9).map(tuple))
@example(poly=(Fraction(1), Fraction(0), Fraction(5), Fraction(-2, 7)))
def test_round_trip_integral_identity(poly):
    """Differentiating the antiderivative gives back p exactly; the
    antiderivative is 0 at ln x = 0 and its coefficients stay Fractions."""
    anti = _integral(poly)
    assert ln_derivative(anti) == poly
    assert ln_poly_at(anti, Fraction(0)) == 0
    assert all(type(c) is Fraction for c in anti)


def test_definite_integral_cross_checked_by_quadrature():
    p = ln_poly(2, -1, Fraction(1, 3), Fraction(1, 4))

    def integrand(x):
        ln = math.log(x)
        return (2 - ln + ln**2 / 3 + ln**3 / 4) / x

    anti = _integral(p)
    exact = _at(anti, Fraction(-1, 4)) - _at(anti, Fraction(-7, 4))
    numeric = quadrature(integrand, math.exp(-1.75), math.exp(-0.25), tol=1e-13)
    assert abs(float(exact) - numeric) < 1e-11


def test_plain_antiderivative_small_cases():
    # int 1 dx = x;  int ln x dx = x(ln x - 1);  int ln^2 x dx = x(ln^2 - 2ln + 2)
    assert plain_antiderivative(ln_poly(1)) == (1,)
    assert plain_antiderivative(ln_poly(0, 1)) == (-1, 1)
    assert plain_antiderivative(ln_poly(0, 0, 1)) == (2, -2, 1)


def test_plain_antiderivative_against_quadrature():
    b = plain_antiderivative(ln_poly(1, 1, Fraction(-1, 2)))

    def big_f(x):
        return x * float(ln_poly_at(b, math.log(x)))

    def f(x):
        ln = math.log(x)
        return 1 + ln - ln**2 / 2

    numeric = quadrature(f, 0.2, 0.9, tol=1e-13)
    assert abs((big_f(0.9) - big_f(0.2)) - numeric) < 1e-11


def test_polynomial_arithmetic_trims_and_adds():
    """Trailing zero coefficients change no value, the antiderivative adds
    coefficientwise, and coefficients keep their type: no rounding to float
    anywhere."""
    p = ln_poly(1, 2, 3)
    q = ln_poly(0, -2, -3)
    t = Fraction(-5, 7)
    assert _at(ln_poly(1, 2, 3, 0, 0), t) == _at(p, t)
    total = tuple(a + b for a, b in zip(p, q))
    assert _integral(total) == tuple(a + b for a, b in zip(_integral(p), _integral(q)))
    assert _integral(total) == (0, 1, 0, 0)
    scaled = tuple(c * Fraction(1, 3) for c in p)
    assert scaled[2] == 1
    assert all(type(c) is Fraction for c in _integral(scaled))
    assert type(_at(_integral(scaled), t)) is Fraction


# -- the recursion's gcd-free arithmetic on (n, e) pairs, n / prod(p^e_p) ---

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)


def packed(exponents) -> int:
    """The exponents in 20-bit fields, the pairs' e."""
    return sum(k << 20 * i for i, k in enumerate(exponents))


def smooth_value(x: tuple) -> Fraction:
    """An (n, e) pair through Fraction's own reducing constructor."""
    n, e = x
    exponents = [e >> 20 * i & (2**20 - 1) for i in range(len(SMOOTH_PRIMES))]
    return Fraction(n, math.prod(p**k for p, k in zip(SMOOTH_PRIMES, exponents)))


# numerators with up to 300 factors of 2 and exponents of 2 up to 400, so
# both sides of a cancellation of 2s get drawn; small odd exponents
smooth_pairs = st.tuples(
    st.builds(lambda m, k: m << k, st.integers(-(10**12), 10**12), st.integers(0, 300)),
    st.tuples(st.integers(0, 400), *[st.integers(0, 4)] * 5).map(packed),
)


@settings(max_examples=300, deadline=None)
@given(x=smooth_pairs, y=smooth_pairs, same=st.booleans(), m=st.integers(1, MAX_J))
@example(x=(0, 0), y=(-3 << 40, packed((41, 1, 0, 0, 2, 0))), same=False, m=1)
@example(x=(6 << 99, packed((100, 2, 0, 0, 1, 1))), y=(-(6 << 99), 0), same=True, m=16)
@example(x=(-45, packed((0, 2, 1, 0, 0, 0))), y=(7, packed((3, 0, 0, 2, 0, 0))), same=False, m=15)
def test_smooth_arithmetic_matches_fractions(x, y, same, m):
    """Sum, product, negation and division by m <= MAX_J of (n, e) pairs
    equal the Fraction results, and `_fraction` after `_lowest` gives
    their terms exactly: zero, signs, equal (same) and unequal exponents,
    large powers of 2 on either side, and sums that cancel to zero."""
    if same:
        y = (y[0], x[1])
    fx, fy = smooth_value(x), smooth_value(y)
    for got, want in (
        (theta._add(x, y), fx + fy),
        (theta._mul(x, y), fx * fy),
        (theta._neg(x), -fx),
        (theta._mul(x, theta._RECIPROCALS[m - 1]), fx / m),
    ):
        assert smooth_value(got) == want
        q = theta._fraction(theta._lowest(got))
        assert type(q) is Fraction
        assert (q.numerator, q.denominator) == (want.numerator, want.denominator)


def test_format_and_parse_rational():
    assert format_rational(Fraction(47, 24)) == "47/24"
    assert format_rational(Fraction(5)) == "5"
    for q in (Fraction(47, 24), Fraction(-3, 7), Fraction(5)):
        assert Fraction(format_rational(q)) == q


def test_digits_match_decimal_under_the_lowest_str_limit():
    """Halving at powers of ten gives Decimal's digits: for 0, signs,
    10^k and 10^k - 1 (whose lower halves start with zeros) and 300
    random integers of up to 60 000 bits, with the int-to-str limit at
    640 digits, the lowest Python accepts, where str(n) alone fails."""
    rng = random.Random(32)
    cases = [0, 1, -1, 9, -10]
    for k in (602, 603, 604, 639, 640, 641, 1206, 4300, 4301, 9000, 18061):
        cases += [10**k, 10**k - 1, -(10**k) + 1, 10**k + 1]
    cases += [rng.getrandbits(rng.randint(1, 60_000)) * rng.choice((1, -1)) for _ in range(300)]
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.10.7
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        if set_limit:
            set_limit(640)
            with pytest.raises(ValueError):
                str(10**640)
        for n in cases:
            assert _digits(n) == str(Decimal(n))
        thetas = generate_thetas(16).thetas
        for q in (*thetas, -thetas[-1], Fraction(10**5000 - 1, 10**700)):
            want = f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
            assert format_rational(q) == want.removesuffix("/1")
    finally:
        if set_limit:
            set_limit(old)


def test_exp_neg_high_precision_digits():
    """exp(-1) at the working precision, 25 digits (64 bits' 20 and 5
    guard digits), is the reference's digits rounded once."""
    got = exp_neg(1)
    assert WORKING_CONTEXT.prec == 25
    assert got.as_tuple() == Context(prec=25).create_decimal(EXP_NEG_1_DIGITS).as_tuple()


def test_exp_neg_leaves_the_working_context_clear():
    """exp_neg works in a copy of WORKING_CONTEXT: its inexact exp()
    raises no flag on the module's one context."""
    exp_neg(Fraction(47, 24))
    assert not any(WORKING_CONTEXT.flags.values())


def test_exp_neg_matches_double_exp():
    for t in (Fraction(1), Fraction(3, 2), Fraction(47, 24)):
        assert math.isclose(float(exp_neg(t)), math.exp(-float(t)), rel_tol=1e-15)


def test_rational_to_decimal_rounding():
    assert rational_to_decimal(Fraction(1, 2)) == Decimal("0.5")
    third = rational_to_decimal(Fraction(1, 3), bits=16)
    assert abs(third - Decimal(1) / Decimal(3)) < Decimal("1e-9")
