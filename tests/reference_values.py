"""Frozen reference values shared across the test suite.

THETA_FRACTIONS and PAYOFFS_6DP are published exact values; THETA_SHA256
pins theta_1..theta_16 by digest.  The float
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

# SHA-256 of format_rational(theta_j), j = 1..16, as the Fraction recursion
# printed them (commit e2e8e92): theta_9..theta_16 run to 50 000 bits, too
# long to quote
THETA_SHA256 = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "6d27ca189b30af4f85eab024881ab00a37ef4bab14248c18349e900f40510397",
    3: "58c390969b2ebfe49c27942b3e57b615c709bc0ba8349cc7c92995c98729e8dc",
    4: "766dbcc1bdb1869630a287349995a4199316f272d20394e9746db6a9f24832c1",
    5: "9cb4302e8b4e0ebab4abc99c54ab9e7c61f5a1b9d5ad98e7e0ba1ded1611634b",
    6: "685416f92eb60ec14740fb508036dae59c0153f7a46fb31ead9323d3ae08cbba",
    7: "ba331eae34b7ba4bcc54daf52ec1bafab8b75199ff93b32f297b0a2c1dd556a7",
    8: "d13007e9345b9a874dec0f36726b001b27df8d5904d9d9f0899b892a1f80eb77",
    9: "5fdf8681c0ee4e3fb0e26ab3f9f067310744b7ecf72ba8045c1a802664db685a",
    10: "c9b5ff4beabc5567802bb7abdb64b1399b56f9a621728f9f3758cb55a7ffbc0c",
    11: "8f724162de895f244f60f89daaa26c8fe19b28dee0e9c7bb3cb0dfe3a5af5b2f",
    12: "e702e39656550e333e7552d7f08a7f7eba07317d08875cd99f5228bdc8c64285",
    13: "6741c01fc5242dc1ffabdc0723afc168f6d7710016131135134a1d529e36f4ab",
    14: "d796819b140ee979db3c2bfa301da84a3b4b66c66bc544b30b5a84f9b5024a82",
    15: "7f2e5e18ca348bc128160982506906c31bc02f5c55bac1675ca6888c464598d2",
    16: "e59c1c1e941b3f7152a19c0079d1521dc0893756a28ecc2a11067633b7823d24",
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
