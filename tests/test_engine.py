import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from primeth import (
    BudgetExceededError,
    DomainError,
    UnsupportedRangeError,
    is_prime,
    nth_prime,
    prime_count,
    sieve_segment,
)
from primeth import engine
from primeth.cli import main

from oracle import (
    pi_by_sieve,
    primes_in_window,
    sieve_primes,
    tower_by_sieve,
    trial_isprime,
    window_primes,
)


def segment_primes(seg):
    """The primes of a SegmentTable's range, ascending: 2 if it is there, then the flagged odds."""
    two = [2] if seg.lo <= 2 <= seg.hi else []
    return two + (seg.first_odd + 2 * np.flatnonzero(seg.flags)).tolist()


class TestSieveSegment:
    def test_small_range(self):
        assert segment_primes(sieve_segment(2, 30)) == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_single_prime(self):
        assert segment_primes(sieve_segment(2, 2)) == [2]

    def test_all_composite_window(self):
        assert segment_primes(sieve_segment(24, 28)) == []

    def test_contains(self):
        primes = segment_primes(sieve_segment(90, 110))
        assert 97 in primes and 101 in primes
        assert 91 not in primes and 100 not in primes and 7 not in primes

    @given(
        st.integers(min_value=2, max_value=2**40),
        st.integers(min_value=1, max_value=2**17),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_windows(self, lo, n_odd):
        hi = lo + 2 * n_odd - 1  # n_odd odd integers
        assert segment_primes(sieve_segment(lo, hi)) == window_primes(lo, hi).tolist()

    @pytest.mark.parametrize("n_odd", [2**12, 2**16])
    def test_windows_from_a_square_either_side_of_the_batch(self, n_odd):
        # primes p <= n_odd // _STRIKES strike by slices, larger ones in the
        # batch; a window starting at or near p^2 has p's first strike at its
        # first odd integer or just before it
        split = n_odd // engine._STRIKES
        for p in (sympy.prevprime(split + 1), sympy.nextprime(split)):
            for lo in (p * p - 2, p * p, p * p + 2):
                hi = lo + 2 * n_odd - 1
                assert segment_primes(sieve_segment(lo, hi)) == window_primes(lo, hi).tolist()

    def test_batched_prime_strikes_1_to_32_times(self):
        # a window of p (m - 1) + 1 odd integers from an odd multiple of p
        # holds m of its multiples, and p strikes with the batch for each m
        # up to _STRIKES, beside the other batched primes
        for base in (10**7, 10**9):
            for p in (1009, 4099):
                for m in range(1, engine._STRIKES + 1):
                    lo = p * (base // p | 1)
                    hi = lo + 2 * p * (m - 1)
                    assert p > (p * (m - 1) + 1) // engine._STRIKES
                    assert segment_primes(sieve_segment(lo, hi)) == window_primes(lo, hi).tolist()

    def test_batched_strikes_in_several_passes(self):
        # 2^20 odd integers at 10^12: about 75000 batched primes strike about
        # 300000 times, so in 4 passes
        lo, hi = 10**12, 10**12 + 2**21 - 1
        assert segment_primes(sieve_segment(lo, hi)) == window_primes(lo, hi).tolist()

    def test_batched_strikes_stay_small(self):
        # 2^22 odd integers at 10^12: 4 MB of flags, and index arrays that
        # hold at most one multiple of each batched prime at a time
        tracemalloc.start()
        try:
            sieve_segment(10**12, 10**12 + 2**23 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_invalid_range(self):
        with pytest.raises(DomainError, match=r"^lo=10 > hi=5$"):
            sieve_segment(10, 5)
        with pytest.raises(DomainError, match=r"^lo=1 < 2$"):
            sieve_segment(1, 5)

    def test_budget(self):
        # 2^26 + 1 odd integers, one past the segment limit; the call raises
        # before it allocates the 64 MB of flags
        tracemalloc.start()
        try:
            message = r"^segment holds 67108865 odd integers, the limit is 67108864$"
            with pytest.raises(BudgetExceededError, match=message) as exc:
                sieve_segment(3, 3 + 2**27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert exc.value.deepest_level == 0

    def test_ceiling(self):
        # sieving primes come from the 2^24 table, so hi must stay below 2^48
        top = 2**48 - 1
        assert segment_primes(sieve_segment(top - 58, top)) == [
            m for m in range(top - 58, top + 1) if sympy.isprime(m)
        ]
        with pytest.raises(UnsupportedRangeError):
            sieve_segment(2**48, 2**48 + 10)

    def test_ceiling_exits_3_from_cli(self, monkeypatch, capsys):
        # a walk that crosses the ceiling is out of range, like a count above it
        monkeypatch.setattr(engine, "_r_inverse", lambda ns: [2**48 - 100] * len(ns))
        monkeypatch.setattr(engine, "prime_counts", lambda xs: [0] * len(xs))
        assert main(["nth", str(10**8)]) == 3
        assert capsys.readouterr().err.startswith("error: sieving primes")

    def test_against_trial_division(self):
        seg = sieve_segment(1000, 1500)
        expected = [m for m in range(1000, 1501) if trial_isprime(m)]
        assert segment_primes(seg) == expected

    def test_high_window_against_trial_division(self):
        lo = 10**9
        seg = sieve_segment(lo, lo + 200)
        expected = [m for m in range(lo, lo + 201) if trial_isprime(m)]
        assert segment_primes(seg) == expected


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

    def test_rejects_negative(self):
        message = r"^primality is defined for non-negative integers$"
        with pytest.raises(DomainError, match=message):
            is_prime(-1)

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
        with pytest.raises(DomainError, match=r"^prime_count requires x >= 0$"):
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
        # from x = 2 p^2 on, it moves into the loop at x = p^3, and from x =
        # p^4 on its stage drops its multiples and updates smalls; 13 is the
        # last prime the wheel takes and 17 the first the loop does, and
        # x^(1/4) falls between 251 and 257 at x = 2^32
        for p in (2, 3, 5, 7, 11, 13, 17, 47, 53, 251, 257, 997, 2203, 3137):
            for m in (p * p, 2 * p * p, p**3, p**4):
                if m + 1 <= 10**7:
                    for x in (m - 1, m, m + 1):
                        assert prime_count(x) == pi_by_sieve(x, primes_1e7), x
                elif m <= 2**33:
                    self._check_around(m)

    @pytest.mark.parametrize("p", [1009, 2003])
    def test_window_at_loop_cut(self, p):
        # the last 10^5 integers up to p^3 + 1, where p enters the loop
        m = p**3
        assert prime_count(m + 1) - prime_count(m - 10**5) == primes_in_window(
            m - 10**5 + 1, m + 1
        )

    def test_pinned_1e12(self):
        assert prime_count(10**12) == 37607912018  # OEIS A006880

    def test_pinned_1e13(self):
        assert prime_count(10**13) == 346065536839  # OEIS A006880

    @staticmethod
    def _check_around(m):
        # pi(x) - pi(lo) against a sieve of (lo, x], for x = m - 1, m, m + 1
        lo = max(m - 10**5, 1)
        base = prime_count(lo)
        for x in (m - 1, m, m + 1):
            assert prime_count(x) - base == primes_in_window(lo + 1, x), x

    @given(st.integers(min_value=10**9, max_value=2**40))
    @settings(max_examples=8, deadline=None)
    def test_rough_sieve_window(self, x):
        lo = x - 10**5
        assert prime_count(x) - prime_count(lo) == primes_in_window(lo + 1, x)

    @pytest.mark.parametrize("p", [331, 1009, 2003])
    def test_rough_entry_leaves_window(self, p):
        # the count of a prime d > p stops changing once x // p^2 < d, so
        # it leaves the rough sieve's window at x = p^2 d
        d = sympy.nextprime(10**10 // p**2)
        assert d <= math.isqrt(p * p * d)
        self._check_around(p * p * d)

    @pytest.mark.parametrize("p", [131, 317])
    def test_rough_sieve_stops_dropping_multiples(self, p):
        # the rough sieve drops the multiples of p from its set while p^4 <= x
        self._check_around(p**4)

    def test_rough_read_switches_to_smalls(self):
        # the stage of p reads the count of p*d back while p*d <= isqrt(x)
        self._check_around((101 * 991) ** 2)

    def test_both_sides_of_the_wheel_start(self):
        # x < 13^3 reads the prime table, and the sieve takes x = 13^3 on; at
        # x = 13^4 the wheel's last prime would have begun updating smalls
        self._check_around(13**3)
        self._check_around(13**4)

    def test_small_query_builds_a_small_table(self, fresh_table):
        # the table grows only to the power of two above isqrt(x), here 2^10
        tracemalloc.start()
        try:
            assert prime_count(10**6) == 78498
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert engine._TABLE[0] == 1 << 10

    def test_integer_cube_root(self):
        # m <= 2^16 covers every x < 2^48, where the loop cut is taken
        for m in range(1, 2**16 + 1):
            c = m**3
            assert (engine._icbrt(c - 1), engine._icbrt(c), engine._icbrt(c + 1)) == (
                m - 1, m, m,
            ), m

    def test_integer_cube_root_past_2_53(self):
        # floats hold every integer only below 2^53 (m ~ 208064); past it the
        # root must come from integers alone.  Every m to 2^21 + 1 would take
        # seconds, so m runs densely around 2^53 and 2^63 and strided between;
        # the last four m lie where a rounded float cube root is wrong
        ms = [
            *range(2**16, 2**21 + 2, 61),
            *range(207_000, 209_000),
            *range(2**21 - 1000, 2**21 + 2),
            *(2**j + d for j in range(17, 22) for d in (-1, 0, 1)),
            2**52 + 1, 2**60 + 1, 10**40 + 7, 3**200,
        ]
        for m in ms:
            c = m**3
            assert (engine._icbrt(c - 1), engine._icbrt(c), engine._icbrt(c + 1)) == (
                m - 1, m, m,
            ), m

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_integer_cube_root_random(self, x):
        r = engine._icbrt(x)
        assert r**3 <= x < (r + 1) ** 3

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


class TestPrimeCounts:
    """prime_counts counts a batch of x in one rough sieve, a column per x."""

    # the x of TestPrimeCount.test_switch_points
    SWITCH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 47, 53, 251, 257, 997, 2203, 3137)

    def test_unsorted_batch_with_duplicates(self, primes_1e7):
        # x below 13^3 read the table, the others share one sieve; the
        # counts come back in the order given, once per x given
        xs = [10**7, 5, 2197, 0, 2196, 10**7, 2198, 1, 123456, 2, 10**6, 5, 2197]
        assert engine.prime_counts(xs) == [pi_by_sieve(x, primes_1e7) for x in xs]
        assert engine.prime_counts([]) == []
        assert engine.prime_counts(iter([100, 10])) == [25, 4]

    def test_switch_points_in_one_batch(self, primes_1e7):
        # up to 10^7 against the sieve, and past it as differences against a
        # sieved window (lo, x]; every x of a block has its own stop rows
        small, windows = [], []
        for p in self.SWITCH_PRIMES:
            for m in (p * p, 2 * p * p, p**3, p**4):
                if m + 1 <= 10**7:
                    small += [m - 1, m, m + 1]
                elif m <= 2**33:
                    windows.append((m - 10**5, [m - 1, m, m + 1]))
        xs = small + [x for lo, top in windows for x in [lo, *top]]
        counts = dict(zip(xs, engine.prime_counts(xs)))
        assert [counts[x] for x in small] == [pi_by_sieve(x, primes_1e7) for x in small]
        for lo, top in windows:
            for x in top:
                assert counts[x] - counts[lo] == primes_in_window(lo + 1, x), x

    def test_batch_equals_one_by_one(self):
        # 40 x in [13^3, 3*10^8] in blocks, and 13^3 beside 10^11
        rng = np.random.default_rng(3)
        xs = rng.integers(13**3, 3 * 10**8, 40).tolist()
        assert engine.prime_counts(xs) == [prime_count(x) for x in xs]
        assert engine.prime_counts([10**11, 13**3]) == [4118054813, 327]
        # and x from 13^3 to 10^11 in one batch, in blocks by magnitude
        xs = [13**3, *np.geomspace(10**4, 10**11, 22).astype(np.int64).tolist(), 10**11]
        xs += rng.integers(13**3, 10**11, 10).tolist()
        assert engine.prime_counts(xs) == [prime_count(x) for x in xs]

    @given(st.lists(st.integers(min_value=0, max_value=10**7), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_random_batches(self, primes_1e7, xs):
        assert engine.prime_counts(xs) == [pi_by_sieve(x, primes_1e7) for x in xs]

    def test_ceiling_of_any_x(self):
        with pytest.raises(UnsupportedRangeError):
            engine.prime_counts([10, 2**48, 100])
        with pytest.raises(DomainError):
            engine.prime_counts([10, -1])

    def test_nth_primes_in_the_order_given(self):
        ns = [10**7, 25, 3_000_000, 1, 10**7, engine._TABLE_PRIMES + 1]
        assert engine.nth_primes(ns) == [nth_prime(n) for n in ns]
        assert engine.nth_primes(ns)[:2] == [179424673, 97]


def _r_inverse_by_mpmath(n):
    """Reference seed: the same Newton steps on mpmath's riemannr at 15 digits."""
    x = n * math.log(n)
    with mpmath.workdps(15):
        for _ in range(2):
            x -= (float(mpmath.riemannr(x)) - n) * math.log(x)
    return int(x)


class TestRiemannR:
    def test_float_series_matches_mpmath(self):
        with mpmath.workdps(20):
            assert engine._zeta_table() == tuple(float(mpmath.zeta(s)) for s in range(2, 66))
        xs = np.geomspace(1e7, 1e12, 11)
        expected = [float(mpmath.riemannr(x)) for x in xs.tolist()]
        assert engine._riemann_r(xs).tolist() == pytest.approx(expected, rel=1e-12)
        for x, r in zip(xs.tolist(), expected):
            assert engine._riemann_r(x) == pytest.approx(r, rel=1e-12)

    def test_seed_matches_mpmath_seed(self):
        # one batch: fixed n and a seeded sample from 10^4 to 10^13, the
        # counted lookups inside the table's range among them
        rng = np.random.default_rng(5)
        ns = [1077872, 10**8, 455052512, 10**10, *np.geomspace(10**4, 10**13, 40).astype(int)]
        ns += rng.integers(10**4, 10**13, 20).tolist()
        seeds = engine._r_inverse(ns)
        assert len(seeds) == len(ns) and all(type(x) is int for x in seeds)
        for n, x in zip(ns, seeds):
            assert abs(x - _r_inverse_by_mpmath(int(n))) <= 1, n


class TestPrimeTable:
    def test_equals_the_plain_sieve_built_cold_and_extended(self, monkeypatch, fresh_table):
        # every power of two from 2^8 to 2^24, built cold (from the prime 2) and
        # from each smaller table; the windows tile the range, the primes on
        # either side of each window boundary are checked on their own, and
        # the grown table is the only one kept
        ref = sieve_primes(engine._TABLE_LIMIT + 100)
        windows = []

        def recording(lo, hi, **kwargs):
            windows.append((lo, hi))
            return sieve_segment(lo, hi, **kwargs)

        monkeypatch.setattr(engine, "sieve_segment", recording)
        for j in range(8, 25):
            for i in [None, *range(8, j)]:
                fresh_table()
                if i is not None:
                    smaller = weakref.ref(engine._prime_table(1 << i))
                start = 2 if i is None else 1 << i
                windows.clear()
                table = engine._prime_table(1 << j)
                assert np.array_equal(table, ref[: ref.searchsorted(1 << j, side="right")])
                assert table.dtype == np.int64 and not table.flags.writeable
                assert engine._TABLE[0] == 1 << j and engine._TABLE[1] is table
                assert i is None or smaller() is None  # the one table replaced it
                assert [lo - 1 for lo, _ in windows] == [start] + [hi for _, hi in windows[:-1]]
                assert windows[-1][1] == 1 << j
                for _, b in windows:
                    k = int(ref.searchsorted(b, side="right"))
                    below = table.searchsorted(b, side="right")
                    assert table[below - 1] == ref[k - 1]
                    assert below == len(table) or table[below] == ref[k]

    def test_cold_build_stays_small(self, fresh_table):
        # 1 MB windows of flags; the 2^24 table itself is 8.6 MB, in a buffer
        # with room for 11.2 MB that the windows' primes are written into
        tracemalloc.start()
        try:
            assert len(engine._prime_table(engine._TABLE_LIMIT)) == engine._TABLE_PRIMES
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


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
        with pytest.raises(DomainError, match=r"^nth_prime requires n >= 1$"):
            nth_prime(0)

    @pytest.mark.parametrize("n", [2**48, 10**400])
    def test_index_past_the_ceiling(self, n):
        # p_n > n >= 2^48 lies past every sieve, and 10^400 past every float
        with pytest.raises(UnsupportedRangeError, match=r"^nth_prime requires n < 2\^48"):
            nth_prime(n)

    def test_reads_a_smaller_table_already_built(self, fresh_table):
        # the 2^10 table holds p_n for n <= 172, so those n read it; p_173 =
        # 1031 lies past it, and growing the table by 2^10 integers costs less
        # than counting one lookup, so it grows to 2^11, not to 2^24
        engine.base_primes_upto(1000)
        assert [nth_prime(n) for n in (1, 25, 100)] == [2, 97, 541]
        assert engine._TABLE[0] == 1 << 10
        assert nth_prime(173) == 1031
        assert engine._TABLE[0] == 1 << 11

    def test_lookup_at_the_end_of_the_table_reads_it(self, monkeypatch, fresh_table):
        # the table to 2^10 holds pi(2^10) = 172 primes: p_172 is its last, read
        # as it stands; p_173 = 1031 lies past it, which grows it to 2^11
        table = engine._prime_table(1 << 10)
        grown = []
        grow = engine._prime_table
        monkeypatch.setattr(engine, "_prime_table", lambda limit: grown.append(limit) or grow(limit))
        assert nth_prime(len(table)) == 1021 and len(table) == 172
        assert grown == [] and engine._TABLE[1] is table
        assert nth_prime(len(table) + 1) == 1031
        assert grown and engine._TABLE[0] == 1 << 11

    def test_small_limit_slices_a_larger_table_already_built(self, fresh_table):
        # once the 2^24 table exists, a small limit reads a slice of it and
        # builds no 2^13 table; both are views of the table's buffer
        table = engine._prime_table(engine._TABLE_LIMIT)
        primes = engine.base_primes_upto(5000)
        assert engine._TABLE[0] == engine._TABLE_LIMIT and primes.base is table.base
        assert primes.ctypes.data == table.ctypes.data
        assert primes.tolist() == sieve_primes(5000).tolist()

    def test_seed_never_decides_the_answer(self, monkeypatch):
        # seeds below p_n (just past the table, or inside it), several sqrt(p_n)
        # either side of it, and far above it walk both ways through doubling
        # windows to the same prime
        primes = sieve_primes(33_000_000)
        for n in (engine._TABLE_PRIMES + 1, 2_000_000):
            p = int(primes[n - 1])
            r = math.isqrt(p)
            for seed in (engine._TABLE_LIMIT + 1, 1000, p - 5 * r, p + 5 * r, 3 * p):
                monkeypatch.setattr(engine, "_r_inverse", lambda ns, s=seed: [s] * len(ns))
                assert nth_prime(n) == p

    @pytest.mark.parametrize("window", [2, 64])
    def test_prime_at_either_end_of_the_first_window(self, monkeypatch, window):
        # p_n as the first and as the last odd integer of the first window,
        # walking up from x (window [x + 1, x + window]) and down from it
        # (window [x - window + 1, x]); window is below sqrt(p_n)
        n = 2_000_000
        p = int(sieve_primes(33_000_000)[n - 1])
        monkeypatch.setattr(engine, "_WINDOW", window)
        for seed in (p - 1, p - window, p, p + window - 1):
            monkeypatch.setattr(engine, "_r_inverse", lambda ns, s=seed: [s] * len(ns))
            assert nth_prime(n) == p

    def test_table_edge(self):
        primes = sieve_primes(17_000_000)
        n = len(engine._prime_table(engine._TABLE_LIMIT))
        assert n == engine._TABLE_PRIMES
        assert nth_prime(n) == primes[n - 1] == 16777213  # largest p < 2^24
        assert engine._TABLE[0] == engine._TABLE_LIMIT  # the table stops at 2^24
        assert nth_prime(n + 1) == primes[n] == 16777259

    def test_lookup_past_the_table_skips_it(self, fresh_table):
        # n > pi(2^24) is decided before the 2^24 table (16 MB) is built; the
        # count and the sieve walk use small tables
        p = int(sieve_primes(33_000_000)[2_000_000 - 1])
        tracemalloc.start()
        try:
            assert nth_prime(2_000_000) == p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_independent_values(self):
        assert nth_prime(10**7) == 179424673
        assert nth_prime(10**8) == 2038074743

    def test_straddles_ten_billion(self):
        assert nth_prime(455052511) == 9999999967
        assert nth_prime(455052512) == 10000000019

    def test_one_exit_code_either_side_of_the_ceiling(self, monkeypatch, capsys):
        # a seed just below 2^48 makes the walk cross the ceiling; a seed at
        # 2^48 makes the exact count refuse it; both are the same bad request
        counts = engine.prime_counts
        monkeypatch.setattr(
            engine, "prime_counts", lambda xs: [0 if x < 2**48 else counts([x])[0] for x in xs]
        )
        codes = []
        for seed in (2**48 - 100, 2**48):
            monkeypatch.setattr(engine, "_r_inverse", lambda ns, s=seed: [s] * len(ns))
            codes.append(main(["nth", str(10**8)]))
            assert "2^48" in capsys.readouterr().err
        assert codes == [3, 3]

    def test_one_exact_count_per_lookup(self, monkeypatch):
        batches = []
        counts = engine.prime_counts

        def counting(xs):
            batches.append(list(xs))
            return counts(xs)

        monkeypatch.setattr(engine, "prime_counts", counting)
        nth_prime(1000)
        assert [len(batch) for batch in batches if batch] == []
        nth_prime(3_000_000)
        assert [len(batch) for batch in batches if batch] == [1]

    def test_one_count_and_one_window_per_lookup_of_the_sweep(
        self, monkeypatch, capsys, fresh_table
    ):
        # verify all --n-max 100 --k-max 6 from a cold table counts the 44
        # level-5 lookups it finds too sparse to table, then the 78 of level
        # 6: the 61 past pi(2^24) and 17 below it.  One prime_counts call per
        # level counts at their seeds, R^-1 lands within 0.45 sqrt(x) of
        # each, so the first window holds it, and the table stays at 2^22
        batches, windows = [], []
        counts, segment = engine.prime_counts, engine.sieve_segment

        def counting(xs):
            batches.append(list(xs))
            return counts(xs)

        def sieving(lo, hi, **kwargs):
            if not kwargs:  # a walk window, not a table window
                windows.append((lo, hi))
            return segment(lo, hi, **kwargs)

        monkeypatch.setattr(engine, "prime_counts", counting)
        monkeypatch.setattr(engine, "sieve_segment", sieving)
        assert main(["verify", "all", "--n-max", "100", "--k-max", "6", "--no-timestamp"]) == 0
        capsys.readouterr()
        seeds = [x for batch in batches for x in batch]
        assert [len(batch) for batch in batches if batch] == [44, 78]
        assert all(len(set(batch)) == len(batch) for batch in batches)
        assert sum(x > engine._TABLE_LIMIT for x in seeds) == 61
        assert len(windows) == 122
        assert all(min(abs(lo - 1 - x), abs(hi - x)) == 0 for (lo, hi), x in zip(windows, seeds))
        assert engine._TABLE[0] == 1 << 22

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n):
        assert prime_count(nth_prime(n)) == n

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, x):
        c = prime_count(x)
        assert nth_prime(c) <= x < nth_prime(c + 1)


class TestRentOrBuy:
    """nth_primes grows the table only as far as its lookups are dense; the
    other lookups below pi(2^24) are counted like those past it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The x that prime_counts is asked for, one list entry per x."""
        xs, counts = [], engine.prime_counts
        monkeypatch.setattr(engine, "prime_counts", lambda b: xs.extend(b) or counts(b))
        return xs

    def test_sparse_batch_is_counted(self, fresh_table, counted):
        # the 100 level-6 indices of n <= 100, p_n^(5) from 31 to 6415081:
        # 39 are at most pi(2^24), their primes spread up to 2^24, and 61
        # lie past it; from a cold table 94 are counted and the table grows
        # to 2^17
        primes = sieve_primes(6_500_000)
        ns = [tower_by_sieve(n, 5, primes)[-1] for n in range(1, 101)]
        assert sum(n <= engine._TABLE_PRIMES for n in ns) == 39
        got = engine.nth_primes(ns)
        assert engine._TABLE[0] <= 1 << 22
        assert 61 < len(counted) < 100
        # below 2^24 against the plain sieve; from there to 2^25 each prime
        # and the count of primes between it and the one before
        primes = sieve_primes(engine._TABLE_LIMIT)
        pairs = sorted(zip(ns, got))
        assert [p for n, p in pairs if n <= len(primes)] == [
            int(primes[n - 1]) for n, _ in pairs if n <= len(primes)
        ]
        before, below = len(primes), engine._TABLE_LIMIT
        for n, p in (pair for pair in pairs if engine._TABLE_LIMIT < pair[1] < 1 << 25):
            window = window_primes(below + 1, p)
            assert window[-1] == p and len(window) == n - before
            before, below = n, p
        assert before > len(primes)

    def test_dense_batch_grows_the_table(self, fresh_table, counted):
        ns = range(10**6 - 1000, 10**6 + 1000)
        got = engine.nth_primes(ns)
        assert counted == [] and len(engine._TABLE[1]) >= 10**6 + 1000
        assert got == sieve_primes(engine._TABLE_LIMIT)[10**6 - 1001 : 10**6 + 999].tolist()

    def test_dense_levels_grow_the_table_level_by_level(
        self, monkeypatch, capsys, fresh_table, counted
    ):
        # verify for n <= 2000, k <= 3 grows the table once a level, to hold
        # p_2000 = 17389, p_17389 = 192737 and p_192737 = 2642389, and counts none
        tops, grow = [], engine._prime_table

        def growing(limit):
            table = grow(limit)
            if not tops or tops[-1] != engine._TABLE[0]:
                tops.append(engine._TABLE[0])
            return table

        monkeypatch.setattr(engine, "_prime_table", growing)
        argv = ["ineq3", "--n-max", "2000", "--k-max", "3", "--prec", "15", "--no-timestamp"]
        assert main(["verify", *argv]) == 0
        capsys.readouterr()
        assert tops == [1 << 15, 1 << 18, 1 << 22] and counted == []

    def test_ascending_single_lookups_grow_the_table(self, fresh_table, counted):
        primes = sieve_primes(1_300_000)
        assert all(nth_prime(n) == primes[n - 1] for n in range(1, 10**5 + 1))
        assert len(counted) <= 10**3

    def test_random_single_lookups_buy_the_table_in_time(self, fresh_table, counted):
        # each counted lookup adds to what growing the table would save
        primes = sieve_primes(engine._TABLE_LIMIT)
        ns = np.random.default_rng(11).integers(1, 10**6, 3000).tolist()
        assert [nth_prime(n) for n in ns] == primes[np.array(ns) - 1].tolist()
        assert len(counted) <= 150


def test_rosser_enclosure_to_one_million():
    # n log n < p_n for n >= 2 and p_n < 2 n log n for n >= 3, up to n = 10^6
    primes = sieve_primes(16_000_000)
    assert len(primes) >= 10**6
    p = primes[: 10**6].astype(np.float64)
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    nlogn = n * np.log(n)
    assert np.all(nlogn[1:] < p[1:])
    assert np.all(p[2:] < 2 * nlogn[2:])
