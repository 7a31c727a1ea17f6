import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from primeth import (
    InvalidRangeError,
    SegmentTooLargeError,
    UnsupportedRangeError,
    is_prime,
    nth_prime,
    prime_count,
    sieve_segment,
)
from primeth import engine
from primeth.cli import main

from oracle import pi_by_sieve, primes_in_window, sieve_primes, trial_isprime


class TestSieveSegment:
    def test_small_range(self):
        assert list(sieve_segment(2, 30).primes()) == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_single_prime(self):
        seg = sieve_segment(2, 2)
        assert list(seg.primes()) == [2]
        assert seg.count() == 1

    def test_all_composite_window(self):
        assert list(sieve_segment(24, 28).primes()) == []

    def test_contains(self):
        seg = sieve_segment(90, 110)
        assert 97 in seg and 101 in seg
        assert 91 not in seg and 100 not in seg and 7 not in seg

    def test_invalid_range(self):
        with pytest.raises(InvalidRangeError):
            sieve_segment(10, 5)
        with pytest.raises(InvalidRangeError):
            sieve_segment(1, 5)

    def test_budget(self):
        with pytest.raises(SegmentTooLargeError):
            sieve_segment(3, 1000, budget_bits=10)

    def test_ceiling(self):
        # sieving primes come from the 2^24 table, so hi must stay below 2^48
        top = 2**48 - 1
        assert list(sieve_segment(top - 58, top).primes()) == [
            m for m in range(top - 58, top + 1) if sympy.isprime(m)
        ]
        with pytest.raises(SegmentTooLargeError):
            sieve_segment(2**48, 2**48 + 10)

    def test_ceiling_exits_2_from_cli(self, monkeypatch, capsys):
        # a walk that crosses the ceiling is resource exhaustion: exit 2
        monkeypatch.setattr(engine, "_r_inverse", lambda n: 2**48 - 100)
        monkeypatch.setattr(engine, "prime_count", lambda x: 0)
        assert main(["nth", str(10**8)]) == 2
        assert capsys.readouterr().err.startswith("budget exhausted: sieving primes")

    def test_against_trial_division(self):
        seg = sieve_segment(1000, 1500)
        expected = [m for m in range(1000, 1501) if trial_isprime(m)]
        assert list(seg.primes()) == expected

    def test_high_window_against_trial_division(self):
        lo = 10**9
        seg = sieve_segment(lo, lo + 200)
        expected = [m for m in range(lo, lo + 201) if trial_isprime(m)]
        assert list(seg.primes()) == expected


class TestIsPrime:
    def test_trivial(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_mersenne_against_independent_oracle(self):
        n = 2**61 - 1
        assert is_prime(n)
        assert sympy.isprime(n)

    def test_large_composites(self):
        assert not is_prime(2**61 + 1)
        # strong pseudoprime to several small bases
        assert not is_prime(3215031751)

    def test_rejects_beyond_deterministic_regime(self):
        with pytest.raises(UnsupportedRangeError):
            is_prime(2**64)

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_isprime(n)


class TestPrimeCount:
    def test_examples(self):
        assert prime_count(0) == 0
        assert prime_count(1) == 0
        assert prime_count(2) == 1
        assert prime_count(100) == 25
        assert prime_count(10**6) == 78498

    def test_negative(self):
        with pytest.raises(InvalidRangeError):
            prime_count(-1)

    @given(st.integers(min_value=0, max_value=10**7))
    @settings(max_examples=60, deadline=None)
    def test_matches_sieve(self, primes_1e7, x):
        assert prime_count(x) == pi_by_sieve(x, primes_1e7)

    def test_decades(self):
        # pi(10^k) for k = 7..11, OEIS A006880
        expected = [664579, 5761455, 50847534, 455052511, 4118054813]
        assert [prime_count(10**k) for k in range(7, 12)] == expected

    def test_switch_points(self, primes_1e7):
        # prime p joins the P2 sum at x = p^2, its smalls-gather branch runs
        # from x = 2 p^2 on, it moves into the loop at x = p^3, and its
        # smalls update runs from x = p^4 on
        for p in (2, 3, 5, 7, 11, 47, 53, 997, 2203, 3137):
            for m in (p * p, 2 * p * p, p**3, p**4):
                for x in (m - 1, m, m + 1):
                    if x <= 10**7:
                        assert prime_count(x) == pi_by_sieve(x, primes_1e7), x

    @pytest.mark.parametrize("p", [1009, 2003])
    def test_window_at_loop_cut(self, p):
        # the last 10^5 integers up to p^3 + 1, where p enters the loop
        m = p**3
        assert prime_count(m + 1) - prime_count(m - 10**5) == primes_in_window(
            m - 10**5 + 1, m + 1
        )

    def test_pinned_1e12(self):
        assert prime_count(10**12) == 37607912018  # OEIS A006880

    def test_integer_cube_root(self):
        # m <= 2^16 covers every x < 2^48, where the loop cut is taken
        for m in range(1, 2**16 + 1):
            c = m**3
            assert (engine._icbrt(c - 1), engine._icbrt(c), engine._icbrt(c + 1)) == (
                m - 1, m, m,
            ), m

    def test_ceiling_before_allocating(self):
        # isqrt(x) must stay inside the 2^24 prime table; past it the call
        # raises before it builds any array
        for x in (2**48, 2**62 - 1):
            tracemalloc.start()
            try:
                with pytest.raises(UnsupportedRangeError):
                    prime_count(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_ceiling_exits_3_from_cli(self, capsys):
        assert main(["pi", str(2**48)]) == 3
        assert "2^48" in capsys.readouterr().err


def _r_inverse_by_mpmath(n):
    """Reference seed: the same Newton steps on mpmath's riemannr at 15 digits."""
    x = n * math.log(n)
    with mpmath.workdps(15):
        for _ in range(2):
            x -= (float(mpmath.riemannr(x)) - n) * math.log(x)
    return int(x)


class TestRiemannR:
    def test_float_series_matches_mpmath(self):
        for x in np.geomspace(1e7, 1e12, 11).tolist():
            assert engine._riemann_r(x) == pytest.approx(
                float(mpmath.riemannr(x)), rel=1e-12
            )

    def test_seed_matches_mpmath_seed(self):
        for n in (1077872, 10**8, 455052512, 10**10):
            assert abs(engine._r_inverse(n) - _r_inverse_by_mpmath(n)) <= 1


class TestNthPrime:
    def test_examples(self):
        assert nth_prime(1) == 2
        assert nth_prime(2) == 3
        assert nth_prime(25) == 97

    def test_tenth_prime_inside_bracket(self):
        p = nth_prime(10)
        assert p == 29
        assert 10 * math.log(10) < p < 20 * math.log(10)

    def test_invalid(self):
        with pytest.raises(InvalidRangeError):
            nth_prime(0)

    def test_seed_never_decides_the_answer(self, monkeypatch):
        # seeds below p_n (just past the table, or inside it) and far above
        # it walk both ways through doubling windows to the same prime
        primes = sieve_primes(33_000_000)
        table_size = len(engine._prime_table())
        for n in (table_size + 1, 2_000_000):
            p = int(primes[n - 1])
            for seed in (engine._TABLE_LIMIT + 1, 1000, 3 * p):
                monkeypatch.setattr(engine, "_r_inverse", lambda n, s=seed: s)
                assert nth_prime(n) == p

    def test_table_edge(self):
        primes = sieve_primes(17_000_000)
        n = len(engine._prime_table())
        assert nth_prime(n) == primes[n - 1] == 16777213  # largest p < 2^24
        assert nth_prime(n + 1) == primes[n] == 16777259

    def test_independent_values(self):
        assert nth_prime(10**7) == 179424673
        assert nth_prime(10**8) == 2038074743

    def test_straddles_ten_billion(self):
        assert nth_prime(455052511) == 9999999967
        assert nth_prime(455052512) == 10000000019

    def test_one_exact_count_per_lookup(self, monkeypatch):
        xs = []

        def counting(x):
            xs.append(x)
            return prime_count(x)

        monkeypatch.setattr(engine, "prime_count", counting)
        nth_prime(1000)
        assert xs == []
        nth_prime(3_000_000)
        assert len(xs) == 1

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n):
        assert prime_count(nth_prime(n)) == n

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, x):
        c = prime_count(x)
        assert nth_prime(c) <= x < nth_prime(c + 1)


def test_rosser_enclosure_to_one_million():
    # n log n < p_n for n >= 2 and p_n < 2 n log n for n >= 3, up to n = 10^6
    primes = sieve_primes(16_000_000)
    assert len(primes) >= 10**6
    p = primes[: 10**6].astype(np.float64)
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    nlogn = n * np.log(n)
    assert np.all(nlogn[1:] < p[1:])
    assert np.all(p[2:] < 2 * nlogn[2:])
