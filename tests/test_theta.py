"""Exact K=1 thresholds, dual functions and published-value reproduction."""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from secretary_lab import cli
from secretary_lab import theta as theta_mod
from secretary_lab.theta import (
    MAX_J,
    WORKING_CONTEXT,
    ThetaSequence,
    exp_neg,
    format_rational,
    generate_thetas,
    payoff_k1,
    payoff_k1_decimal,
    thresholds,
)

from oracles import (
    constraint_lhs_k1,
    dual_objective_k1,
    exp_neg_decimal,
    fraction_recursion,
    integral_q_from,
    ln_poly_at,
    ln_rows,
    q_at_theta,
    theta_at,
)

from reference_values import (
    EXP_NEG_3_2,
    PAYOFFS_6DP,
    THETA_FRACTIONS,
    THETA_SHA256,
)


@pytest.fixture(scope="module")
def ts8():
    return generate_thetas(8)


@pytest.fixture(scope="module")
def cert6():
    """(thetas, rows) of the J = 6 recursion, the rows shifted to ln x."""
    ts, rows = fraction_recursion(6)
    return ts, ln_rows(ts, rows)


def test_theta_values_exact(ts8):
    for j in range(1, 9):
        assert ts8.thetas[j - 1] == THETA_FRACTIONS[j]


def test_theta_sequence_strictly_increasing(ts8):
    assert ts8.thetas[0] == 1
    assert all(a < b for a, b in zip(ts8.thetas, ts8.thetas[1:]))


def test_prefix_property(ts8):
    for J in range(1, 8):
        assert generate_thetas(J).thetas == ts8.thetas[:J]


def test_generation_is_deterministic():
    assert generate_thetas(7).thetas == generate_thetas(7).thetas


def test_j_cap(monkeypatch):
    """J = 17 is refused before any arithmetic: row 16's antiderivative
    would divide by 17, a prime the recursion's values do not carry.  So
    are J = 0 and J < 0, which have no theta_1."""

    def refuse(*args):
        raise AssertionError("arithmetic ran")

    monkeypatch.setattr(theta_mod, "_add", refuse)
    monkeypatch.setattr(theta_mod, "_mul", refuse)
    with pytest.raises(ValueError, match="exceeds the cap"):
        generate_thetas(17)
    for J in (0, -1):
        with pytest.raises(ValueError, match="^J must be >= 1$"):
            generate_thetas(J)


def test_recursion_equals_the_fraction_oracle():
    """Every theta of generate_thetas(J), J = 1..16, is a Fraction with the
    terms of the Fraction loop's value: equal and in lowest terms."""
    for J in range(1, MAX_J + 1):
        got, want = generate_thetas(J).thetas, fraction_recursion(J)[0].thetas
        assert all(type(t) is Fraction for t in got)
        assert [(t.numerator, t.denominator) for t in got] == [
            (t.numerator, t.denominator) for t in want
        ]


def test_theta_digests_are_pinned():
    """theta_1..theta_16 as printed, pinned by SHA-256 digests taken from the
    Fraction recursion, so no run of the current code vouches for itself."""
    for j, theta in enumerate(generate_thetas(MAX_J).thetas, start=1):
        assert hashlib.sha256(format_rational(theta).encode()).hexdigest() == THETA_SHA256[j]


def is_smooth(d: int, j: int) -> bool:
    """No prime factor of d > 0 exceeds j <= 16: d is odd unless j >= 2, and
    its odd part divides the product over the odd primes p <= j of p to a
    bound on its exponent there."""
    odd = d >> (d & -d).bit_length() - 1
    bound = odd.bit_length()
    m = math.prod(p ** math.ceil(bound / math.log2(p)) for p in (3, 5, 7, 11, 13) if p <= j)
    return (j >= 2 or odd == d) and m % odd == 0


def test_denominators_have_no_prime_above_j():
    """theta_j and every coefficient of row j have denominators with no
    prime factor above j, the closure the recursion's arithmetic rests on:
    its only divisions are by p + 1 <= j."""
    ts, rows = fraction_recursion(MAX_J)
    for j, (theta, row) in enumerate(zip(ts.thetas, rows), start=1):
        for q in (theta, *(c for piece in row for c in piece)):
            assert is_smooth(q.denominator, j), (j, q)


def test_payoffs_round_to_published_values(ts8):
    """Each prefix of one sequence's exps sums, digit for digit, as the
    exps of a ThetaSequence built from that prefix do."""
    for J in range(1, 9):
        payoff = payoff_k1_decimal(ts8.exps[:J])
        assert str(payoff.quantize(Decimal("0.000001"))) == PAYOFFS_6DP[J]
        alone = payoff_k1_decimal(ThetaSequence(ts8.thetas[:J]).exps)
        assert payoff.as_tuple() == alone.as_tuple(), J


def test_thresholds_floats():
    assert thresholds(ThetaSequence((Fraction(1),))) == [math.exp(-1)]
    two = thresholds(ThetaSequence((Fraction(1), Fraction(3, 2))))
    assert two[1] == pytest.approx(EXP_NEG_3_2, abs=1e-15)
    assert thresholds(ThetaSequence((Fraction(0),))) == [1.0]


def test_thresholds_strictly_decreasing(ts8):
    tvals = thresholds(ts8)
    assert all(a > b for a, b in zip(tvals, tvals[1:]))


def test_q1_piece():
    ts, rows = fraction_recursion(1)
    (piece,) = rows[0]
    assert piece == (0, 1)  # y = 1 + ln x
    assert ln_rows(ts, rows) == [[(1, 1)]]
    # the one piece covers theta in [theta_0, theta_1] = [0, 1]
    assert ts.thetas == (1,)


def test_q2_pieces_match_hand_integration():
    ts, rows = fraction_recursion(2)
    # in y = ln x + theta_k: 1/2 + y - y^2/2 on top, then y
    assert rows[1] == [(Fraction(1, 2), 1, Fraction(-1, 2)), (0, 1)]
    top, lower = ln_rows(ts, rows)[1]
    # on [t_1, 1]: 1 - (ln x)^2 / 2
    assert top == (1, 0, Fraction(-1, 2))
    # on [t_2, t_1]: 3/2 + ln x, whose zero recovers theta_2 = 3/2
    assert lower == (Fraction(3, 2), 1)


def test_q_vanishes_at_own_threshold_exactly(cert6):
    ts, rows = cert6
    for j in range(1, 7):
        assert q_at_theta(ts, rows, j, theta_at(ts, j)) == 0


def test_q_at_one_is_one_exactly(cert6):
    ts, rows = cert6
    for j in range(1, 7):
        assert q_at_theta(ts, rows, j, Fraction(0)) == 1


def test_pieces_are_continuous_across_breakpoints(cert6):
    ts, rows = cert6
    for j in range(1, 7):
        pieces = rows[j - 1]
        assert len(pieces) == j
        # pieces k and k + 1 meet at theta_k
        for k, (left, right) in enumerate(zip(pieces, pieces[1:]), start=1):
            joint = theta_at(ts, k)
            assert ln_poly_at(left, -joint) == ln_poly_at(right, -joint)


def test_dominance_on_grid(cert6):
    """q_j > q_(j-1) strictly on 1000 interior points of (t_j, 1).

    Checked in exact arithmetic: near x = 1 the true gap shrinks like
    (1-x)^(j-1)/(j-1)! and drops below double resolution, so floats cannot
    witness strictness there.
    """
    ts, rows = cert6
    for j in range(2, 7):
        theta_j = theta_at(ts, j)
        for i in range(1, 1000):
            theta = theta_j * i / 1000  # x = exp(-theta) sweeps (t_j, 1)
            assert q_at_theta(ts, rows, j, theta) > q_at_theta(ts, rows, j - 1, theta)


def test_recursion_identity(cert6):
    """int_{t_j}^1 q_j - int_{t_(j-1)}^1 q_(j-1) = t_j, at working precision."""
    ts, rows = cert6
    for j in range(1, 7):
        lhs = integral_q_from(ts, rows, j, theta_at(ts, j), bits=128)
        prev = integral_q_from(ts, rows, j - 1, theta_at(ts, j - 1), bits=128)
        t_j = exp_neg_decimal(theta_at(ts, j), bits=128)
        # the comparison itself runs in the default 28-digit context
        assert abs(lhs - prev - t_j) < Decimal("1e-25")


def test_constraint_equality_on_support(cert6):
    """q_j(x) + (1/x) int_x^1 [q_j - q_(j-1)] = 1 on [t_j, 1]."""
    ts, rows = cert6
    for j in range(1, 7):
        theta_j = theta_at(ts, j)
        for num in range(0, 11):
            theta = theta_j * num / 10
            lhs = constraint_lhs_k1(ts, rows, j, theta, bits=128)
            assert abs(lhs - 1) < Decimal("1e-25")


def test_constraint_strict_below_threshold(cert6):
    """Below t_j the constraint holds with strictly positive slack."""
    ts, rows = cert6
    for j in range(1, 7):
        theta_j = theta_at(ts, j)
        for bump in (Fraction(1, 100), Fraction(1, 2), Fraction(2)):
            lhs = constraint_lhs_k1(ts, rows, j, theta_j + bump, bits=96)
            assert lhs - 1 > Decimal("1e-12")


def test_theta_recursion_against_weighted_integral(cert6):
    """theta_(j+1) = 1 + int_{t_j}^1 q_j(y)/y dy, re-derived from the stored
    dual pieces instead of the generator's own accumulator."""
    ts, rows = cert6
    for j in range(1, 6):
        integral = integral_q_from(
            ts, rows, j, theta_at(ts, j), bits=128, weight_over_x=True
        )
        want = Decimal(theta_at(ts, j + 1).numerator) / Decimal(
            theta_at(ts, j + 1).denominator
        )
        assert abs((1 + integral) - want) < Decimal("1e-25")


def test_dual_objective_equals_payoff(cert6):
    for J in range(1, 7):
        ts, rows = fraction_recursion(J)
        assert dual_objective_k1(ts, ln_rows(ts, rows)) == pytest.approx(
            payoff_k1(ts), abs=1e-12
        )


def test_dual_objective_published_values():
    for J, want in ((1, "0.367879"), (2, "0.591010"), (3, "0.732103")):
        ts, rows = fraction_recursion(J)
        assert f"{dual_objective_k1(ts, ln_rows(ts, rows)):.6f}" == want


def test_rows_end_in_y_and_meet_the_piece_below():
    """In y = ln x + theta_k every row's last piece is y, exactly, and a
    piece's value at its lower end (y = 0, its constant) is the value of
    the piece below at that piece's top, y = theta_(k+1) - theta_k."""
    ts, rows = fraction_recursion(16)
    for row in rows:
        assert row[-1] == (0, 1) and all(type(c) is Fraction for c in row[-1])
        for k, (piece, below) in enumerate(zip(row, row[1:]), start=1):
            assert piece[0] == ln_poly_at(below, theta_at(ts, k + 1) - theta_at(ts, k))


def test_runtime_j8_under_a_second():
    import time

    t0 = time.monotonic()
    generate_thetas(8)
    assert time.monotonic() - t0 < 1.0


def test_exp_neg_equals_the_decimal_quotient_form():
    """The integer quotient with a sticky digit rounds -theta as dividing
    Decimal terms does, digit and exponent alike: for theta_1..theta_16,
    for quotients that are exact ties at the working precision (rounded
    half to even, up and down), just above and below a tie, for theta far
    from 1, and for theta 0 and below."""
    prec = WORKING_CONTEXT.prec
    cases = list(generate_thetas(16).thetas)
    for m in (10 ** (prec - 1) + 2, 10 ** (prec - 1) + 3, 3 * 10 ** (prec - 1) + 7):
        for scale in (prec - 2, prec - 1, prec, prec + 1):  # theta from about 100 to 0.1
            tie = Fraction(10 * m + 5, 10**scale)
            cases += [tie, tie + Fraction(1, 3**60), tie - Fraction(1, 3**60)]
    cases += [Fraction(17), Fraction(1, 3), Fraction(7, 10**30), Fraction(10**40 + 1, 7)]
    cases += [Fraction(0), Fraction(-1, 3), Fraction(-7, 2), -cases[15]]  # exp(0), exp(> 0)
    for t in cases:
        got, want = exp_neg(t), exp_neg_decimal(t)
        assert got.as_tuple() == want.as_tuple(), t


def test_thresholds_call_computes_each_exp_once(monkeypatch):
    """A K = 1 `thresholds` run computes exp(-theta_j) once per j; the
    thresholds round each value once and the payoff sums them in order in
    the working context, digit for digit as the per-call forms did."""
    calls = []
    real = theta_mod.exp_neg
    monkeypatch.setattr(theta_mod, "exp_neg", lambda t: calls.append(t) or real(t))
    assert cli.main(["thresholds", "--J", "6", "--K", "1", "--format", "json"]) == 0
    ts = generate_thetas(6)
    assert calls == list(ts.thetas)
    assert thresholds(ts) == [float(real(t)) for t in ts.thetas]
    with localcontext(WORKING_CONTEXT):
        want = Decimal(0)
        for t in ts.thetas:
            want += real(t)
    assert payoff_k1_decimal(ts.exps).as_tuple() == want.as_tuple()
