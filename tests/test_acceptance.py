"""Acceptance suite: one test per criterion, one printed verdict line each.

The verdict lines bypass pytest's capture, so any invocation shows them as
the criteria complete.  Criterion 6 is the heavy one (four 100k-trial simulations).
"""

import os
import random
import time
from decimal import Decimal
from fractions import Fraction

from secretary_lab.dual import (
    alpha,
    alpha_poly,
    closed_form_12,
    closed_form_22,
    construct_dual,
    gamma,
    payoff_jk,
    verify_certificate,
)
from secretary_lab.exact import (
    LogPolynomial,
    antiderivative_over_x,
    definite_integral_over_x,
    eval_at_theta,
)
from secretary_lab.dp import p_star
from secretary_lab.lp import build_lp, coefficient_row_sum, solve_lp
from secretary_lab.sim import monte_carlo, run_threshold_algorithm, sample_arrivals, trial_rng
from secretary_lab.theta import ThetaSequence, generate_thetas, payoff_k1_decimal, thresholds

import reference_values as ref

WORKERS = min(4, os.cpu_count() or 1)


def _verdict(capfd, num: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    # lift pytest's capture so the verdict line always reaches the terminal
    with capfd.disabled():
        print(f"ACCEPTANCE {num}: {status} ({time.monotonic() - t0:.2f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table_reproduction(capfd):
    t0 = time.monotonic()
    ts = generate_thetas(8)
    fractions_ok = all(
        ts.thetas[j - 1] == ref.THETA_FRACTIONS[j] for j in range(1, 9)
    )
    payoff_ok = True
    for J in range(1, 9):
        payoff = payoff_k1_decimal(ThetaSequence(ts.thetas[:J]), bits=96)
        payoff_ok &= str(payoff.quantize(Decimal("0.000001"))) == ref.PAYOFFS_6DP[J]
    elapsed = time.monotonic() - t0
    _verdict(
        capfd,
        1,
        fractions_ok and payoff_ok and elapsed < 1.0,
        f"8 exact theta fractions, 8 payoffs at 6 decimals, {elapsed:.3f}s",
        t0,
    )


def test_criterion_2_closed_forms(capfd):
    t0 = time.monotonic()
    cf12 = closed_form_12()
    cf22 = closed_form_22()
    ok = (
        abs(cf12.payoff - 0.573567) <= 1e-6
        and abs(cf12.tau11 - 0.346982) <= 1e-6
        and abs(cf22.payoff - 0.977256) <= 1e-5
        and abs(cf22.tau22 - 0.517291) <= 1e-5
        and abs(cf22.tau21 - 0.227788) <= 1e-5
    )
    elapsed = time.monotonic() - t0
    _verdict(
        capfd,
        2,
        ok and elapsed < 1.0,
        f"payoffs {cf12.payoff:.6f}/{cf22.payoff:.6f}, "
        f"tau22={cf22.tau22:.6f}, tau21={cf22.tau21:.6f}",
        t0,
    )


def test_criterion_3_certificates(capfd):
    t0 = time.monotonic()
    worst_residual = 0.0
    worst_gap = 0.0
    ok = True
    for J in (1, 2, 3):
        for K in (1, 2, 3):
            cert = construct_dual(J, K)
            rep = verify_certificate(cert, grid_points=2000, tol=1e-7,
                                     objective_tol=1e-6)
            residual = max(
                rep.max_equality_residual,
                rep.max_threshold_residual,
                max(0.0, -rep.min_inequality_slack),
            )
            worst_residual = max(worst_residual, residual)
            worst_gap = max(worst_gap, rep.objective_gap)
            ok &= rep.ok
    elapsed = time.monotonic() - t0
    _verdict(
        capfd,
        3,
        ok and worst_residual <= 1e-7 and worst_gap <= 1e-6 and elapsed < 30.0,
        f"9 certificates, worst residual {worst_residual:.2e}, "
        f"worst objective gap {worst_gap:.2e}, {elapsed:.1f}s",
        t0,
    )


def test_criterion_4_k1_crosscheck(capfd):
    t0 = time.monotonic()
    worst = 0.0
    for J in range(1, 7):
        tvals = thresholds(generate_thetas(J))
        for route in (
            construct_dual(J, 1),
            construct_dual(J, 1, use_exact_k1=False),
        ):
            for j in range(1, J + 1):
                worst = max(worst, abs(route.tau.threshold(j, 1) - tvals[j - 1]))
    _verdict(
        capfd,
        4,
        worst <= 1e-10,
        f"J <= 6 thresholds vs exp(-theta_j), worst diff {worst:.2e} "
        f"(both the exact route and the generic engine)",
        t0,
    )


def test_criterion_5_finite_lp(capfd):
    t0 = time.monotonic()
    ok = True
    details = []
    for J, K in ((1, 1), (2, 1), (1, 2)):
        cp_star = payoff_jk(construct_dual(J, K).tau)
        gaps = {}
        for n in (10, 50, 200):
            gaps[n] = p_star(n, J, K) - cp_star
            ok &= gaps[n] >= -1e-9
        ok &= gaps[200] < 0.012
        details.append(f"({J},{K}) gap@200={gaps[200]:.4f}")
    for n in (2, 3):
        sol = solve_lp(build_lp(n, 1, 1))
        ok &= sol.objective == Fraction(1, 2)
    elapsed = time.monotonic() - t0
    _verdict(
        capfd,
        5,
        ok and elapsed < 120.0,
        ", ".join(details) + f", exact P*_2 = P*_3 = 1/2, {elapsed:.1f}s",
        t0,
    )


def test_criterion_6_simulation(capfd):
    t0 = time.monotonic()
    targets = {
        (1, 1): 0.367879,
        (2, 1): 0.591010,
        (1, 2): 0.573567,
        (2, 2): 0.977256,
    }
    ok = True
    details = []
    for (J, K), want in targets.items():
        tau = construct_dual(J, K).tau
        rep = monte_carlo(tau, n=10_000, trials=100_000, seed=20240, workers=WORKERS)
        window = 2.576 * rep.stderr + 0.005  # CI99 plus finite-n allowance
        ok &= abs(rep.mean - want) <= window
        details.append(f"({J},{K}) mean={rep.mean:.4f} vs {want:.4f}")
    elapsed = time.monotonic() - t0
    _verdict(
capfd,
6, ok and elapsed < 120.0, ", ".join(details) + f", {elapsed:.0f}s", t0)


def test_criterion_7_property_suites(capfd):
    t0 = time.monotonic()
    rng = random.Random(777)

    # exact antiderivative round-trip
    exact_cases = 0
    for _ in range(120):
        coeffs = [
            Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(rng.randint(0, 9))
        ]
        p = LogPolynomial.from_coeffs(coeffs)
        a = Fraction(rng.randint(0, 120), 40)
        b = a + Fraction(rng.randint(0, 120), 40)
        anti = antiderivative_over_x(p)
        assert definite_integral_over_x(p, a, b) == (
            eval_at_theta(anti, a) - eval_at_theta(anti, b)
        )
        exact_cases += 1

    # alpha/gamma monotonicity grid
    grid_cases = 0
    for _ in range(120):
        K = rng.randint(2, 6)
        k = rng.randint(1, K)
        x = rng.uniform(1e-3, 1 - 1e-3)
        assert alpha_poly(k, K).shift_xpow(1).derivative()(x) > 0
        if k < K:
            assert alpha(k, K, x) > alpha(k + 1, K, x)
        assert abs(gamma(K, K, x) - K) < 1e-12
        grid_cases += 1

    # quota order and replay audit
    tau = construct_dual(3, 2).tau
    audit_cases = 0
    for trial in range(110):
        inst = sample_arrivals(50, trial_rng(4242, trial))
        result = run_threshold_algorithm(tau, inst, detailed=True)
        assert len(result.selections) <= tau.J
        assert len({s.position for s in result.selections}) == len(result.selections)
        for s in result.selections:
            assert s.time >= tau.threshold(s.quota, s.potential)
        quotas = [s.quota for s in result.selections]
        assert quotas == sorted(quotas, reverse=True)
        audit_cases += 1

    # LP row-sum identity
    rowsum_cases = 0
    for _ in range(120):
        K = rng.randint(1, 4)
        n = rng.randint(K, 40)
        i = rng.randint(1, n)
        assert coefficient_row_sum(n, K, i) == K
        rowsum_cases += 1

    counts = (exact_cases, grid_cases, audit_cases, rowsum_cases)
    _verdict(
        capfd,
        7,
        all(c >= 100 for c in counts),
        f"randomized cases: round-trip={counts[0]}, alpha/gamma={counts[1]}, "
        f"replay-audit={counts[2]}, row-sum={counts[3]}, zero failures",
        t0,
    )


def test_criterion_8_determinism(capfd):
    t0 = time.monotonic()
    tau = construct_dual(2, 2).tau
    blobs = {
        monte_carlo(tau, n=2000, trials=4000, seed=99, workers=w).to_json()
        for w in (1, WORKERS if WORKERS > 1 else 2)
    }
    _verdict(
        capfd,
        8,
        len(blobs) == 1,
        f"byte-identical JSON for 1 and {max(2, WORKERS)} workers",
        t0,
    )
