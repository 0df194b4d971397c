"""Frozen reference values shared across the test suite.

THETA_FRACTIONS and PAYOFFS_6DP are published exact values.  The float
constants were computed once with a 60-digit independent oracle (mpmath:
exp, lambertw, findroot on the defining equations) and frozen here; see the
comments for the defining expression of each.
"""

from fractions import Fraction

THETA_FRACTIONS = {
    1: Fraction(1),
    2: Fraction(3, 2),
    3: Fraction(47, 24),
    4: Fraction(2761, 1152),
    5: Fraction(4162637, 1474560),
    6: Fraction(380537052235603, 117413668454400),
    7: Fraction(
        705040594914523588948186792543, 193003573558876719588311040000
    ),
    8: Fraction(
        302500210177484374840641189918370275991590974715547528765249,
        74500758812993473612938854416966977838930799571763200000000,
    ),
}

PAYOFFS_6DP = {
    1: "0.367879",
    2: "0.591010",
    3: "0.732103",
    4: "0.823121",
    5: "0.882550",
    6: "0.921675",
    7: "0.947588",
    8: "0.964831",
}

# exp(-1), 50 digits
EXP_NEG_1_DIGITS = "0.36787944117144232159552377016146086744581113103177"
# exp(-3/2) rounded to double
EXP_NEG_3_2 = 0.22313016014842982
# exp(-47/24) rounded to double
EXP_NEG_47_24 = 0.14109338070134148

# Closed-form thresholds and payoffs for K = 2 (defining equations:
# tau12 = 2/3; tau11 = -W(-2/(3e)); tau22 solves
# x ln x + ln x - (2 + 3 ln(2/3)) x + 1 - ln(2/3) = 0; tau21 = -W(-e^(-c/2)))
TAU_1_1 = 0.3469816097075798
TAU_1_2 = 2.0 / 3.0
TAU_2_2 = 0.5172966668922171
TAU_2_1 = 0.22778824125416242
PAYOFF_12 = 0.5735669819398963
PAYOFF_22 = 0.9772559815945566

# Published 6-decimal quotes for the same quantities (tau22's published
# value is ~5.7e-6 off the true root of its own defining equation; the
# acceptance tolerance of 1e-5 covers it)
PAYOFF_12_QUOTED = 0.573567
PAYOFF_22_QUOTED = 0.977256
TAU_2_2_QUOTED = 0.517291
TAU_2_1_QUOTED = 0.227788
TAU_1_1_QUOTED = 0.346982

# Exact LP optima for the single-quota single-best case (verified against
# an exhaustive skip-r policy enumeration in test_lp)
P_STAR_1_1 = {2: Fraction(1, 2), 3: Fraction(1, 2), 10: Fraction(3349, 8400)}
