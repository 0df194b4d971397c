"""Exact calculus on polynomials in ln x: the Fraction coefficient tuples
that the K = 1 recursion (`secretary_lab.theta.recursion`) runs on."""

import math
from decimal import Decimal
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab.theta import (
    _at,
    _integral,
    exp_neg,
    format_rational,
    recursion,
)

from oracles import (
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
    _, rows = recursion(16)
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


def test_format_and_parse_rational():
    assert format_rational(Fraction(47, 24)) == "47/24"
    assert format_rational(Fraction(5)) == "5"
    for q in (Fraction(47, 24), Fraction(-3, 7), Fraction(5)):
        assert Fraction(format_rational(q)) == q


def test_exp_neg_high_precision_digits():
    got = exp_neg(1, bits=160)
    assert str(got).startswith(EXP_NEG_1_DIGITS[:40])


def test_exp_neg_matches_double_exp():
    for t in (Fraction(1), Fraction(3, 2), Fraction(47, 24)):
        assert math.isclose(float(exp_neg(t)), math.exp(-float(t)), rel_tol=1e-15)


def test_rational_to_decimal_rounding():
    assert rational_to_decimal(Fraction(1, 2)) == Decimal("0.5")
    third = rational_to_decimal(Fraction(1, 3), bits=16)
    assert abs(third - Decimal(1) / Decimal(3)) < Decimal("1e-9")
