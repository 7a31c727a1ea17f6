"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The heavyweight shared state (all towers for
n <= 100 capped at 10^9) is computed once per session.
"""

import math
import time
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from primeth import (
    certify_threshold,
    closed_form_floor,
    count_diag,
    count_tower,
    diag_prime,
    eval_L,
    eval_f,
    eval_g,
    eval_h,
    iterate_prime,
    lower_bound_simple,
    nth_prime,
    prime_count,
    theorem4_residual,
    upper_bound_L1,
)
from primeth.certify import THRESHOLD
from primeth.hpreal import compare_int

from oracle import L_by_decimal, pi_by_sieve, sieve_primes, tower_by_sieve

DIAG_FIXTURE = [2, 5, 31, 277, 5381, 87803, 2269733]
PRIMETH_FIXTURE = [2, 3, 5, 11, 31, 127, 709, 5381, 52711]


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_01_prime_count_oracle_equivalence(primes_1e7):
    ok = all(
        prime_count(x) == pi_by_sieve(x, primes_1e7)
        for x in (10**3, 10**4, 10**5, 10**6, 10**7)
    )
    report("1 prime_count vs full sieve", ok)


def test_criterion_02_nth_prime_vs_sieve_and_enclosure():
    primes = sieve_primes(1_400_000)
    n_max = 10**5
    ok_match = all(nth_prime(n) == int(primes[n - 1]) for n in range(1, n_max + 1))
    n = np.arange(3, n_max + 1, dtype=np.float64)
    p = primes[2:n_max].astype(np.float64)
    nlogn = n * np.log(n)
    ok_bracket = bool(np.all(nlogn < p) and np.all(p < 2 * nlogn))
    report("2 nth_prime vs sieve + enclosure", ok_match and ok_bracket)


def test_criterion_03_iterated_upper_bound_suite(towers_to_1e9):
    violations = 0
    checked = 0
    for n in range(9, 101):
        for k, value in enumerate(towers_to_1e9[n], start=1):
            checked += 1
            sign, _ = compare_int(value, lambda: upper_bound_L1(n, k, mp.dps), 50)
            if sign <= 0:  # bound must exceed the value strictly
                violations += 1
    report("3 upper bound suite", violations == 0, f"{checked} checks")


def test_criterion_04_iterated_lower_bound_suite(towers_to_1e9):
    violations = 0
    checked = 0
    for n in range(2, 101):
        for k, value in enumerate(towers_to_1e9[n], start=1):
            checked += 1
            sign, _ = compare_int(value, lambda: lower_bound_simple(n, k, mp.dps), 50)
            if sign >= 0:  # bound must stay strictly below the value
                violations += 1
    report("4 lower bound suite", violations == 0, f"{checked} checks")


def test_criterion_05_floor_certification():
    value = eval_L(4200, prec=30)
    exceeds = value > mpf("0.32627")
    floor = closed_form_floor(prec=30)
    floor_digits_ok = mp.nstr(floor, 7) == "0.3262768"
    rep = certify_threshold()  # raises ThresholdViolatedError on a violation
    monotone_ok = rep.f_increasing and rep.g_increasing and rep.h_increasing
    report(
        "5 floor certification (threshold, closed form, monotonicity)",
        exceeds and floor_digits_ok and monotone_ok,
    )


def test_criterion_05_literal_leading_digits():
    # The leading digits of L(4200) itself, against tests/oracle.py's
    # stdlib-decimal evaluation.  This test once asserted that L(4200) begins
    # 0.32627, but that string is the prefix of the closed-form floor constant
    # 0.3262768159... (checked by test_criterion_05_floor_certification), not
    # of L(4200).  L(4200) = 0.3262814720539332..., by both the decimal oracle
    # and mpmath's cancellation-free form
    # exp((x+1)(-log1p(1/x) + log1p(-log1p(1/x)/log(x+1)))), which agree to
    # 58 digits.  L increases here, L(4199) = 0.3262803454..., and L(x)
    # begins 0.32627 only for 4190 <= x <= 4198.  The library promises only
    # L(x) > THRESHOLD = 0.32627 for x >= 4200.
    value = eval_L(4200, prec=30)
    with mp.workdps(40):
        reference = mpf(str(L_by_decimal(4200, 40)))
        rel_err = abs(value - reference) / reference
    digits_ok = rel_err < mpf("1e-28")
    man, exp = value.man_exp  # value = man * 2^exp exactly
    above = Fraction(man) * Fraction(2) ** exp > Fraction(*THRESHOLD)
    report(
        "5 (literal) eval_L(4200) begins 0.326281, 28 digits vs decimal oracle",
        digits_ok and mp.nstr(value, 6) == "0.326281" and above,
        f"actual {mp.nstr(value, 10)}, relative error {mp.nstr(rel_err, 3)}",
    )


def test_criterion_06_diagonal_fixtures(cache, primes_3e6):
    sieve_chain = [tower_by_sieve(k, k, primes_3e6)[-1] for k in range(1, 8)]
    values_ok = (
        sieve_chain == DIAG_FIXTURE
        and [diag_prime(k, cache=cache) for k in range(1, 8)] == DIAG_FIXTURE
    )
    brackets_ok = all(
        count_diag(v, cache=cache) == k and count_diag(v - 1, cache=cache) == k - 1
        for k, v in enumerate(DIAG_FIXTURE, start=1)
    )
    report("6 diagonal fixtures + brackets", values_ok and brackets_ok)


def test_criterion_07_tower_fixtures(cache):
    tower = iterate_prime(1, 9, cache=cache)
    ok = (
        tower.values == PRIMETH_FIXTURE
        and count_tower(1, 100, cache=cache) == 5
        and count_tower(1, 10**4, cache=cache) == 8
    )
    report("7 tower fixtures", ok)


def test_criterion_08_diag_dominated_by_towers(cache, towers_to_1e9):
    violations = 0
    checked = 0
    for n in (1, 2, 3, 4):
        p_nn = diag_prime(n, cache=cache)
        for exp in range(2, 10):
            x = 10**exp
            if x < p_nn:
                continue
            checked += 1
            if count_diag(x, cache=cache) > count_tower(n, x, cache=cache):
                violations += 1
    report("8 DiagP(x) <= P_n^T(x)", violations == 0, f"{checked} checks")


def test_criterion_09_ratio_strictly_decreasing(cache):
    tower = iterate_prime(1, 7, cache=cache).values
    ratios = [
        Fraction(tower[k - 1], diag_prime(k, cache=cache))
        for k in range(2, 8)
    ]
    expected = [
        Fraction(3, 5),
        Fraction(5, 31),
        Fraction(11, 277),
        Fraction(31, 5381),
        Fraction(127, 87803),
        Fraction(709, 2269733),
    ]
    ok = ratios == expected and all(a > b for a, b in zip(ratios, ratios[1:]))
    report("9 diagonal ratio trend", ok)


def test_criterion_10_residual_window(cache):
    # k = 9 is the deepest diagonal element within a 2*10^9 value budget
    ok = True
    for k in range(3, 10):
        value = diag_prime(k, budget=2 * 10**9, cache=cache)
        residual = theorem4_residual(k, k, value, prec=50)
        ok = ok and abs(residual) <= 5
    report("10 growth residual window", ok, "k = 3..9")


def test_criterion_11_performance_floor(cache):
    start = time.perf_counter()
    p = nth_prime(10**9)
    elapsed = time.perf_counter() - start
    n = 10**9
    in_bracket = n * math.log(n) < p < 2 * n * math.log(n)
    round_trip = prime_count(p) == n
    # the floor exists to enable diagonal depth >= 9
    diag9 = diag_prime(9, cache=cache)
    diag9_ok = prime_count(diag9) == 77_557_187
    report(
        "11 performance floor",
        elapsed < 300 and in_bracket and round_trip and diag9_ok,
        f"nth_prime(10^9) in {elapsed:.1f}s -> {p}",
    )
