"""Exact calculus on x^m (ln x)^p terms: LogLinComb with Fraction coefficients."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import theta
from secretary_lab.piecewise import LogLinComb
from secretary_lab.theta import (
    DegreeOverflowError,
    exp_neg,
    format_rational,
    generate_thetas,
)

from oracles import derivative, log_lin_value, quadrature, rational_to_decimal
from reference_values import EXP_NEG_1_DIGITS


def ln_poly(*coeffs) -> LogLinComb:
    return LogLinComb.from_ln_poly([Fraction(c) for c in coeffs])


def over_x(p: LogLinComb) -> LogLinComb:
    """Antiderivative of p(x)/x."""
    return p.shift_xpow(-1).antiderivative()


ONE_PLUS_LN = ln_poly(1, 1)


def test_eval_at_threshold_is_zero():
    assert ONE_PLUS_LN.at_ln(Fraction(-1)) == 0


def test_eval_at_one():
    assert ONE_PLUS_LN.at_ln(Fraction(0)) == 1


def test_eval_quadratic_piece():
    # 1 - (ln x)^2 / 2 at x = 1/e
    p = ln_poly(1, 0, Fraction(-1, 2))
    assert p.at_ln(Fraction(-1)) == Fraction(1, 2)


def test_at_ln_rejects_x_powers():
    with pytest.raises(ValueError):
        LogLinComb({(1, 0): Fraction(1)}).at_ln(Fraction(0))


def test_antiderivative_of_constant():
    assert over_x(ln_poly(1)).terms == {(0, 1): 1}


def test_antiderivative_termwise():
    assert over_x(ONE_PLUS_LN).terms == {(0, 1): 1, (0, 2): Fraction(1, 2)}


def test_antiderivative_power_rule():
    assert over_x(ln_poly(0, 0, 1)).terms == {(0, 3): Fraction(1, 3)}


def test_antiderivative_capacity_guard(monkeypatch):
    """The theta recursion refuses an antiderivative past its degree budget."""
    generate_thetas(3)  # within budget: no error
    exact = LogLinComb.antiderivative
    monkeypatch.setattr(
        LogLinComb,
        "antiderivative",
        lambda self: exact(self) + LogLinComb({(0, 4): Fraction(1)}),
    )
    with pytest.raises(DegreeOverflowError):
        theta.recursion(3)


def test_definite_integral_known_value():
    # int (1 + ln y)/y dy over [1/e, 1]
    anti = over_x(ONE_PLUS_LN)
    assert anti.at_ln(Fraction(0)) - anti.at_ln(Fraction(-1)) == Fraction(1, 2)


def test_definite_integral_constant_is_theta_length():
    anti = over_x(ln_poly(1))
    assert anti.at_ln(Fraction(0)) - anti.at_ln(Fraction(-3, 2)) == Fraction(3, 2)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=50)
term_keys = st.tuples(st.integers(min_value=-4, max_value=3), st.integers(0, 5))


@settings(max_examples=150, deadline=None)
@given(terms=st.dictionaries(term_keys, rationals, max_size=9))
@example(terms={(-1, 0): Fraction(1), (-1, 3): Fraction(-2, 7), (-3, 2): Fraction(5)})
def test_round_trip_integral_identity(terms):
    """Differentiating the antiderivative gives back f exactly, m = -1 included."""
    f = LogLinComb(terms)
    assert derivative(f.antiderivative()).terms == f.terms


def test_definite_integral_cross_checked_by_quadrature():
    p = ln_poly(2, -1, Fraction(1, 3), Fraction(1, 4))

    def integrand(x):
        ln = math.log(x)
        return (2 - ln + ln**2 / 3 + ln**3 / 4) / x

    anti = over_x(p)
    exact = anti.at_ln(Fraction(-1, 4)) - anti.at_ln(Fraction(-7, 4))
    numeric = quadrature(integrand, math.exp(-1.75), math.exp(-0.25), tol=1e-13)
    assert abs(float(exact) - numeric) < 1e-11


def test_plain_antiderivative_small_cases():
    # int 1 dx = x;  int ln x dx = x(ln x - 1);  int ln^2 x dx = x(ln^2 - 2ln + 2)
    assert ln_poly(1).antiderivative().terms == {(1, 0): 1}
    assert ln_poly(0, 1).antiderivative().terms == {(1, 0): -1, (1, 1): 1}
    assert ln_poly(0, 0, 1).antiderivative().terms == {
        (1, 0): 2, (1, 1): -2, (1, 2): 1
    }


def test_plain_antiderivative_against_quadrature():
    p = ln_poly(1, 1, Fraction(-1, 2))
    big_f = p.antiderivative()

    def f(x):
        ln = math.log(x)
        return 1 + ln - ln**2 / 2

    numeric = quadrature(f, 0.2, 0.9, tol=1e-13)
    assert abs((log_lin_value(big_f, 0.9) - log_lin_value(big_f, 0.2)) - numeric) < 1e-11


def test_polynomial_arithmetic_trims_and_adds():
    p = ln_poly(1, 2, 3)
    q = ln_poly(0, -2, -3)
    assert (p + q).terms == {(0, 0): 1}
    assert (p - p).terms == {}
    scaled = p.scale(Fraction(1, 3))
    assert scaled.terms[(0, 2)] == 1
    # coefficients keep their type: no rounding to float anywhere
    assert all(type(c) is Fraction for c in over_x(scaled).terms.values())


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
