"""Frozen reference values the benchmark checks program output against.

Sources:
* THETAS and PAYOFFS_6DP are the published exact K = 1 values.
* The K = 2 closed forms come from a 60-digit evaluation of their defining
  equations (Lambert W and a transcendental root), rounded to double.
* P_STAR holds finite-n optima from the Gilbert-Mosteller backward
  induction, computed in exact rational arithmetic and rounded once; it is
  independent of the simplex the program uses.  For (1,1) it reduces to
  the classical max over r of (r-1)/n * sum_{i=r..n} 1/(i-1).
* PAYOFF_JK for (3,3) and (4,4) is J - sum_j (1 - tau_j1)^K from
  certificates that verify at tolerance 1e-8.
"""

from fractions import Fraction

THETAS = {
    1: Fraction(1),
    2: Fraction(3, 2),
    3: Fraction(47, 24),
    4: Fraction(2761, 1152),
    5: Fraction(4162637, 1474560),
    6: Fraction(380537052235603, 117413668454400),
    7: Fraction(705040594914523588948186792543, 193003573558876719588311040000),
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

# (J, K) -> closed-form thresholds tau[j][k] (1-based keys) and payoff
CLOSED_FORM_TAU = {
    (1, 2): {(1, 1): 0.3469816097075798, (1, 2): 2.0 / 3.0},
    (2, 2): {
        (1, 1): 0.3469816097075798,
        (1, 2): 2.0 / 3.0,
        (2, 1): 0.22778824125416242,
        (2, 2): 0.5172966668922171,
    },
}

PAYOFF_JK = {
    (1, 1): 0.36787944117144233,
    (1, 2): 0.5735669819398963,
    (2, 2): 0.9772559815945566,
    (3, 3): 1.6742636593186027,
    (4, 4): 2.418526421591598,
}

# report rows for K = 2, printed to 6 decimals
REPORT_CLOSED_FORMS = {
    "tau_1_2 (J=1,K=2)": "0.666667",
    "tau_1_1 (J=1,K=2)": "0.346982",
    "payoff (J=1,K=2)": "0.573567",
    "tau_2_2 (J=2,K=2)": "0.517297",
    "tau_2_1 (J=2,K=2)": "0.227788",
    "payoff (J=2,K=2)": "0.977256",
}

# (J, K, n) -> P*_n
P_STAR = {
    (1, 1, 10): Fraction(3349, 8400),
    (2, 2, 6): Fraction(43, 36),
    (1, 1, 50): 0.37427501364792015,
    (1, 1, 100): 0.371042778712643,
    (1, 1, 200): 0.36946059001156406,
    (1, 1, 300): 0.3689351811981373,
    (1, 1, 400): 0.3686710962418691,
    (2, 2, 50): 0.9989521003999122,
    (2, 2, 100): 0.9878869609959692,
    (3, 3, 30): 1.7452862566819938,
    (3, 3, 50): 1.7169781581897912,
}
