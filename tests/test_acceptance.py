"""Acceptance gates. Run with: pytest tests/test_acceptance.py -v -s

Each check prints one [PASS]/[FAIL] line, and every gate passes. Gate 8b
checks the 95% threshold for 2-user subsets at N=60 against the smallest K
the model gives, which is 6: exactly, P(60,5,2) = 1 - 723901/60^4 =
0.944143... < 0.95 <= P(60,6,2) = 1 - 16954119/60^5 = 0.978197..., and by
Monte Carlo at K=6 under the hard threshold rule. It also keeps the
published claim "5 users suffice" as a check that its Monte Carlo estimate
agrees with the exact K=5 value and lies wholly below 0.95, so the printed
line records the discrepancy. Gate 8a checks the 3-user claim, 11 users at
N=60, exactly from the lap scan's Newton form, P(60,10,3) = 0.930152... <
0.95 <= P(60,11,3) = 0.958721..., and by Monte Carlo at K=11.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from blindalign import (
    build_schedule,
    check_feasible,
    closed_form_solution,
    closed_form_solution_3user,
    enumerate_feasible_patterns,
    exact_count,
    f_2user,
    f_low_3,
    feasible_region,
    gamma_count,
    group_profile,
    monte_carlo_p,
    p_upper_3,
    probability_exact,
    validate_schedule,
    verify_schedule_end_to_end,
    verify_solution,
)
from blindalign.pattern import ChannelConfig
from helpers import (
    brute_force_solve,
    compositions,
    gamma_stirling,
    random_feasible_config,
    random_feasible_gaps,
)


def gate(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_pattern_enumeration():
    mats = [tuple(map(tuple, M)) for M in enumerate_feasible_patterns(3)]
    perms = set()
    for bits in product((0, 1), repeat=9):
        M = np.array(bits).reshape(3, 3)
        if all(M.sum(axis=0) == 1) and all(M.sum(axis=1) == 1):
            perms.add(tuple(map(tuple, M)))
    ok = set(mats) == perms and len(mats) == math.factorial(3) == 6
    gate(1, ok, f"count={math.factorial(3)}, enumerated {len(mats)} "
                f"matrices == 3x3 permutations: {set(mats) == perms}")


def test_c02_region_regression():
    r20, r21 = feasible_region(20), feasible_region(21)
    ok = (r20.count == 42 and r21.count == 20
          and abs(r20.ratio - 0.105) < 1e-15
          and abs(r21.ratio - 20 / 441) < 1e-15)
    gate(2, ok, f"N=20: {r20.count} pts ratio {r20.ratio:.6g}; "
                f"N=21: {r21.count} pts ratio {r21.ratio:.6g}")


def test_c03_oracle_equivalence():
    mismatches = 0
    checked = 0
    for K in (2, 3, 4):
        for N in range(1, 21):
            for s in compositions(N, K):
                checked += 1
                if bool(brute_force_solve(s)) != check_feasible(s):
                    mismatches += 1
    gate(3, mismatches == 0,
         f"{checked} gap vectors (sum<=20, K in 2..4), {mismatches} mismatches "
         "between exhaustive solver and the closed condition")


def test_c04_closed_form_certificates():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(10_000):
        K = int(rng.integers(2, 7))
        s = random_feasible_gaps(rng, K, 10_000)
        lam = closed_form_solution(s)
        if not (verify_solution(s, lam) and min(lam) >= 0):
            failures += 1
        if K == 3:
            lam3 = closed_form_solution_3user(s)
            if not (verify_solution(s, lam3) and min(lam3) >= 0):
                failures += 1
    gate(4, failures == 0,
         f"10^4 random feasible profiles (K<=6, N<=10^4), both constructors, "
         f"{failures} failures")


def test_c05_end_to_end_schedules():
    rng = np.random.default_rng(509)
    configs = [ChannelConfig(4, (0, 1, 2))]
    while len(configs) < 201:
        configs.append(random_feasible_config(rng, int(rng.integers(2, 6)), 60))
    bad = 0
    worst_res, worst_sig = 0.0, np.inf
    for cfg in configs:
        sched = build_schedule(cfg, closed_form_solution(group_profile(cfg)))
        if not validate_schedule(sched).passed:
            bad += 1
            continue
        summary = verify_schedule_end_to_end(cfg, sched, seed=7, trials=100)
        worst_res = max(worst_res, summary.max_residual)
        worst_sig = min(worst_sig, summary.min_singular)
        if not (summary.max_residual < 1e-9 and summary.min_singular > 1e-9):
            bad += 1
    gate(5, bad == 0,
         f"{len(configs)} feasible configs (K in 2..5, N<=60) x 100 seeds: "
         f"{bad} failures; worst residual {worst_res:.2e}, "
         f"worst min singular value {worst_sig:.2e}")


def test_c06_counting_bound():
    ok = True
    details = []
    for N in (8, 12, 16):
        for K in (3, 4, 5):
            lo = f_low_3(N, K).value
            ex = exact_count(N, K, 3).value
            details.append(f"f_low({N},{K})={lo}<=exact={ex}")
            ok &= lo <= ex
    for N in range(2, 25):
        ok &= exact_count(N, 3, 3).value == N**2 - feasible_region(N).count
    gate(6, ok, "; ".join(details[:3]) + " ...; exact(N,3,3)=N^2-|region(N)| for N<=24")


def test_c07_probability_consistency():
    ok = True
    lines = []
    for K in (3, 4, 5):
        p = probability_exact(8, K, 3).p
        est = monte_carlo_p(8, K, 3, trials=1_000_000, seed=71)
        se = math.sqrt(p * (1 - p) / est.trials)
        up = p_upper_3(8, K).p
        ok &= abs(est.p - p) <= 4 * se
        ok &= p <= up + 1e-12
        lines.append(f"K={K}: exact {p:.6f}, mc {est.p:.6f} (4se={4 * se:.6f}), "
                     f"bound {up:.6f}, gap {up - p:.2e}")
    gate(7, ok, " | ".join(lines) + " (bound tightness reported, not gated)")


def _threshold_gate(num, est, label):
    straddles = est.p - est.half_width <= 0.95 <= est.p + est.half_width
    se = est.half_width / 1.959963984540054
    if straddles:
        ok = est.p >= 0.95 - 3 * se
        rule = "CI straddles 0.95, 3-sigma slack applied"
    else:
        ok = est.p >= 0.95
        rule = "hard gate"
    gate(num, ok, f"{label}: p={est.p:.5f} +- {est.half_width:.5f} ({rule})")


def test_c08a_threshold_3user():
    # exactly, from the lap scan's Newton form: K = 11 is the smallest K that
    # reaches 95% at N = 60, as the paper claims
    p10 = 1 - Fraction(exact_count(60, 10, 3).value, 60**9)
    p11 = 1 - Fraction(exact_count(60, 11, 3).value, 60**10)
    gate("8a", p10 < Fraction(95, 100) <= p11,
         f"exact P(60,10,3) = {float(p10):.6f} < 0.95 <= P(60,11,3) = {float(p11):.6f}")
    est = monte_carlo_p(60, 11, 3, trials=100_000, seed=83)
    _threshold_gate("8a", est, "monte_carlo_p(60, 11, 3, 1e5) >= 0.95")


def test_c08b_threshold_2user():
    # The published claim is that 5 users give a feasible pair with 95%
    # probability at N=60. The model gives exactly 1 - 723901/60^4 =
    # 0.944143... at K=5 (closed form, full enumeration and a pairwise
    # distance scan agree), about 8 standard errors below 0.95 at 1e5
    # trials; K=6 is the smallest K that reaches 95%. At K=5 the threshold
    # holds only at N=5 and at the multiples of 3 up to 27, never for N >= 28.
    p5 = 1 - Fraction(f_2user(60, 5).value, 60**4)
    p6 = 1 - Fraction(f_2user(60, 6).value, 60**5)
    claim = monte_carlo_p(60, 5, 2, trials=100_000, seed=83)
    z = (claim.p - p5) / math.sqrt(p5 * (1 - p5) / claim.trials)
    ok = (p5 < Fraction(95, 100) <= p6 and abs(z) <= 4
          and claim.p + claim.half_width < 0.95)
    gate("8b", ok,
         f"the claim says 5 users, the model needs 6: exact P(60,5,2) = "
         f"{float(p5):.6f} < 0.95 <= P(60,6,2) = {float(p6):.6f}; "
         f"monte_carlo_p(60, 5, 2, 1e5) = {claim.p:.5f} +- {claim.half_width:.5f} "
         f"({z:+.1f} se from exact; CI top {claim.p + claim.half_width:.5f})")
    est = monte_carlo_p(60, 6, 2, trials=100_000, seed=83)
    _threshold_gate("8b", est, "monte_carlo_p(60, 6, 2, 1e5) >= 0.95")


def test_c09_non_uniqueness():
    sols = brute_force_solve((3, 3, 5), enumerate_all=True)
    lam2 = {lam[2] for lam in sols}
    ok = len(sols) >= 2 and {2, 3} <= lam2
    gate(9, ok, f"s=(3,3,5): {len(sols)} certificates, lambda_2 values {sorted(lam2)}")


def test_c10_gamma_cross_check():
    ok = True
    for n in range(0, 21):
        for theta in range(0, 9):
            for mu in range(0, min(n, theta) + 1):
                ok &= gamma_count(n, theta, mu) == gamma_stirling(n, theta, mu)
    for n in range(4, 21):
        ok &= gamma_count(n, 2, 3) == 0 and gamma_count(n, 2, 4) == 0
    gate(10, ok, "Stirling form == inclusion-exclusion on n<=20, theta<=8; "
                 "gamma(n,2,3)=gamma(n,2,4)=0")
