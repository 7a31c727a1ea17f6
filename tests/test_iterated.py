import math
import os
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import mp, mpf

from primeth import (
    BudgetExceededError,
    CacheFormatError,
    DomainError,
    TowerCache,
    diag_prime,
    iterate_prime,
    nth_prime,
    ratio_to_diagonal,
)
from primeth import engine, iterated
from primeth.hpreal import DEFAULT_PREC
from primeth.iterated import proved_above, towers

from oracle import dusart_by_decimal, n_log_n_by_decimal, sieve_primes, tower_by_sieve

PRIMETH_RECURRENCE = [2, 3, 5, 11, 31, 127, 709, 5381, 52711]
# caps a relative 2^-40 from the float value of Dusart's lower bound, where a
# float filter would be near its rounding limit, probe the skip
_FLOAT_BAND = 2.0**-40


class _RecordedOs:
    """The os module, recording the descriptors ``os.open`` gives and ``os.close`` takes;
    ``os.write`` raises ``fail`` when set, and writes all but the last byte when ``short``."""

    def __init__(self):
        self.opened, self.closed, self.fail, self.short = [], [], None, False

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, *args):
        self.opened.append(fd := os.open(*args))
        return fd

    def close(self, fd):
        self.closed.append(fd)
        os.close(fd)

    def write(self, fd, data):
        if self.fail is not None:
            raise self.fail
        return os.write(fd, data[:-1] if self.short else data)


class TestIteratePrime:
    def test_depth_two_from_definition(self):
        assert iterate_prime(1, 2).values == [2, 3]

    def test_small_tower(self):
        assert iterate_prime(3, 3).values == [5, 11, 31]

    def test_primeth_recurrence(self, primes_3e6):
        tower = iterate_prime(1, 9)
        assert tower.values == PRIMETH_RECURRENCE
        assert tower.values == tower_by_sieve(1, 9, primes_3e6)
        assert not tower.truncated

    def test_truncation_is_marked(self):
        tower = iterate_prime(1, 20, budget=100)
        assert tower.values == [2, 3, 5, 11, 31]
        assert tower.truncated
        assert tower.depth == 5

    def test_budget_exceeded_at_level_one(self):
        with pytest.raises(BudgetExceededError) as exc:
            iterate_prime(100, 1, budget=100)
        assert exc.value.deepest_level == 0

    def test_invalid_spec(self):
        with pytest.raises(DomainError, match=r"^tower requires n >= 1 and k >= 1$"):
            iterate_prime(0, 1)
        with pytest.raises(DomainError, match=r"^tower requires n >= 1 and k >= 1$"):
            iterate_prime(1, 0)

    def test_strictly_increasing_and_prime_levels(self, cache, primes_3e6):
        for n in range(1, 8):
            values = iterate_prime(n, 5, cache=cache).values
            assert all(a < b for a, b in zip(values, values[1:]))
            prime_set = set(primes_3e6.tolist())
            assert all(v in prime_set for v in values)

    def test_monotone_in_both_indices(self, cache):
        grid = {n: iterate_prime(n, 5, cache=cache).values for n in range(1, 11)}
        for n in range(1, 10):
            for k in range(5):
                assert grid[n][k] < grid[n + 1][k]
        for n in range(1, 11):
            for k in range(4):
                assert grid[n][k] < grid[n][k + 1]


class TestTowers:
    """towers walks all its bases one level at a time, one lookup per level."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        """The index lists of the nth_primes calls towers makes."""
        calls, nth_primes = [], iterated.nth_primes

        def recorded(idxs):
            calls.append(list(idxs))
            return nth_primes(idxs)

        monkeypatch.setattr(iterated, "nth_primes", recorded)
        return calls

    def test_against_the_sieve(self, primes_1e7, lookups):
        # the levels <= 10^7 of each base n <= 300, at most 6: a level is
        # <= 10^7 exactly while its index is at most pi(10^7)
        cache = TowerCache()
        got = towers(range(1, 301), 6, 10**7, cache)
        assert list(got) == list(range(1, 301))
        for n, values in got.items():
            expected, idx = [], n
            while len(expected) < 6 and idx <= len(primes_1e7):
                idx = int(primes_1e7[idx - 1])
                expected.append(idx)
            assert values == expected, n
            if len(values) < 6:  # the level past the cap: stored unless skipped
                idx = values[-1] if values else n
                stored = cache.get(n, len(values) + 1)
                assert (stored is None) == proved_above(idx, 10**7), n
                assert stored is None or stored > 10**7
        assert len(lookups) == 6  # one call per level
        assert all(len(set(idxs)) == len(idxs) for idxs in lookups)

    def test_truncation_skip_and_level_stored_above_the_cap(self):
        # p_1^(12) = p_9737333 = 174440041, and Dusart's lower bound on it is
        # 174003877.97...: at caps 10^8, 1.6e8 and 174003876 the skip decides
        # level 12 unseen; at caps from 174003877, the lower end of its
        # enclosure, up to 174440040 it is computed, stored, and lies above the cap
        for cap, stored in ((10**8, None), (160_000_000, None), (174_003_876, None),
                            (174_003_877, 174440041), (174_440_040, 174440041)):
            cache = TowerCache()
            assert towers([1], 20, cap, cache)[1] == PRIMETH_RECURRENCE + [648391, 9737333]
            assert cache.get(1, 12) == stored
        assert towers([1], 3, 10**9)[1] == [2, 3, 5]

    def test_bases_that_share_an_index(self, lookups):
        # base 2 repeats: it is walked once; p_2 is level 1 of base 2 and level
        # 2 of base 1, p_3 level 1 of base 3 and level 2 of base 2
        cache = TowerCache()
        got = towers([3, 2, 1, 2], 4, 10**6, cache)
        assert got == {3: [5, 11, 31, 127], 2: [3, 5, 11, 31], 1: [2, 3, 5, 11]}
        assert lookups == [[3, 2, 1], [5, 3, 2], [11, 5, 3], [31, 11, 5]]
        assert len(cache) == 12
        lookups.clear()
        assert towers([2, 2, 5], 2, 10**6, cache) == {2: [3, 5], 5: [11, 31]}
        assert lookups == [[5], [11]]  # base 2 is cached

    def test_stores_in_base_and_level_order_also_on_error(self, tmp_path, monkeypatch):
        # the file gets the records sorted by (n, level) in one write, and
        # the levels computed before an error still reach it: level 3 looks
        # up p_17, and the probe fails past p_10
        path = tmp_path / "towers.txt"
        nth_primes = iterated.nth_primes

        def failing(idxs):
            if max(idxs) > 10:
                raise BudgetExceededError("probe", deepest_level=0)
            return nth_primes(idxs)

        monkeypatch.setattr(iterated, "nth_primes", failing)
        with pytest.raises(BudgetExceededError):
            towers([4, 1, 3], 5, 10**6, TowerCache(str(path)))
        assert path.read_text().splitlines() == [
            "T 1 1 2", "T 1 2 3", "T 3 1 5", "T 3 2 11", "T 4 1 7", "T 4 2 17",
        ]


class TestValueCertainlyAbove:
    """``proved_above``, the walker's skip: p_idx > idx, or Dusart's lower
    bound on p_idx, puts p_idx above cap."""

    @staticmethod
    def _lower_and_slack(idx):
        # the decimal lower bound to 40 digits past the point, and the slack
        # TestBrackets allows the integer enclosure of it
        lower = dusart_by_decimal(idx, len(str(idx)) + 40)[0]
        return lower, lower * Decimal(2) ** -60 + 1

    @pytest.mark.parametrize("idx", [18, 10**6, 10**9, 10**12, 10**15, 10**18, 10**400],
                             ids=["18", "1e6", "1e9", "1e12", "1e15", "1e18", "1e400"])
    def test_decided_around_dusarts_lower_bound(self, idx):
        lower, slack = self._lower_and_slack(idx)
        assert proved_above(idx, math.ceil(lower - slack) - 1)
        assert not proved_above(idx, math.ceil(lower))

    def test_skip_implies_value_above_cap(self):
        for idx in range(2, 20001):
            p = nth_prime(idx)
            for cap in (math.floor(n_log_n_by_decimal(idx, 20)), p):
                if proved_above(idx, cap):
                    assert p > cap

    def test_agrees_with_oracle_at_the_float_band_edges(self):
        # caps at the integers around Dusart's lower bound, outside the slack of
        # its enclosure, and a relative 2^-40 from its float value, where a
        # float filter would be near its rounding limit; from 18 on the bound
        # exceeds idx log idx, which the skip once read, and idx itself
        for idx in sorted({int(10 ** (e / 20)) for e in range(26, 361)}):
            lower, slack = self._lower_and_slack(idx)
            approx = idx * (math.log(idx) + math.log(math.log(idx)) - 1)
            caps = {math.ceil(lower - slack) - 1 - j for j in range(3)}
            caps.update(math.ceil(lower) + j for j in range(3))
            for edge in (approx * (1 - _FLOAT_BAND), approx * (1 + _FLOAT_BAND)):
                caps.update(range(int(edge) - 2, int(edge) + 3))
            for cap in caps:
                if not lower - slack <= cap < lower:  # the enclosure decides it
                    assert proved_above(idx, cap) == (cap < lower), (idx, cap)

    def test_cap_beyond_float_range(self):
        # float-int comparisons are exact, so a cap past 1e308 cannot overflow
        assert not proved_above(10**6, 10**400)
        assert iterate_prime(1, 5, budget=10**400).values == [2, 3, 5, 11, 31]

    def test_index_beyond_float_range(self):
        # no float holds the index: Dusart's lower bound on p_(10^400) is
        # about 9.27 * 10^402
        assert proved_above(10**400, 10**400 - 1)
        assert proved_above(10**400, 9 * 10**402)
        assert not proved_above(10**400, 10**403)

    def test_undecided_skip_computes_the_level(self, monkeypatch):
        # an enclosure whose lower end stays at cap leaves the skip undecided,
        # so towers computes level 12 of base 1 (index 9737333), which the
        # real enclosure decides unseen at cap 10^8
        cap = 10**8
        monkeypatch.setattr(iterated, "_dusart", lambda m: cap)
        assert not proved_above(9737333, cap)
        cache = TowerCache()
        assert towers([1], 20, cap, cache)[1] == PRIMETH_RECURRENCE + [648391, 9737333]
        assert cache.get(1, 12) == 174440041


class TestDiagPrime:
    def test_examples(self, cache):
        assert diag_prime(1, cache=cache) == 2
        assert diag_prime(3, cache=cache) == 31
        assert diag_prime(4, cache=cache) == 277

    def test_matches_sieve_chain(self, cache, primes_3e6):
        for k in range(1, 8):
            expected = tower_by_sieve(k, k, primes_3e6)[-1]
            assert diag_prime(k, cache=cache) == expected

    def test_budget_error_reports_deepest_level(self, cache):
        with pytest.raises(BudgetExceededError) as exc:
            diag_prime(20, budget=10**6, cache=cache)
        assert 0 < exc.value.deepest_level < 20


def ratios_by_k(n, k_max, cache):
    return {k: ratio for k, _, _, ratio in ratio_to_diagonal(n, k_max, cache=cache)}


class TestRatioToDiagonal:
    def test_k1_is_one(self, cache):
        [(k, numerator, denominator, ratio)] = ratio_to_diagonal(1, 1, cache=cache)
        assert k == 1 and ratio == 1
        assert numerator == denominator == 2

    def test_rows_carry_both_sides(self, cache):
        for n in (1, 2, 5):
            rows = ratio_to_diagonal(n, 7, cache=cache)
            assert [row[0] for row in rows] == list(range(1, 8))
            for k, numerator, denominator, ratio in rows:
                assert numerator == iterate_prime(n, k, cache=cache).values[k - 1]
                assert denominator == diag_prime(k, cache=cache)
                with mp.workdps(DEFAULT_PREC):
                    assert ratio == mpf(numerator) / denominator

    def test_small_ratios(self, cache):
        ratios = ratios_by_k(1, 5, cache)
        assert abs(ratios[3] - float(Fraction(5, 31))) < 1e-12
        assert abs(ratios[5] - float(Fraction(31, 5381))) < 1e-12

    def test_proposition_trend(self, cache):
        # for n <= 3 and feasible k > p_n: domination by the next tower level
        # and strict decrease of the ratio sequence
        for n in (1, 2, 3):
            p_n = nth_prime(n)
            tower = iterate_prime(n, 9, cache=cache).values
            ratios = ratios_by_k(n, 8, cache)
            for k in sorted(ratios):
                if k <= p_n or k + 1 not in ratios:
                    continue
                assert ratios[k] < tower[k - 1] / tower[k]  # p_n^(k)/p_n^(k+1)
                assert ratios[k + 1] < ratios[k]

    def test_domination_at_n4(self, cache):
        # k = 8 > p_4 = 7: p_4^(8)/p_8^(8) < p_4^(8)/p_4^(9)
        tower = iterate_prime(4, 9, cache=cache).values
        ratio = ratios_by_k(4, 8, cache)[8]
        assert ratio < float(Fraction(tower[7], tower[8]))


def _level_error_by_loop(path, store, primes):
    """The CacheFormatError message of TowerCache on store, written in its
    order, or None, as the loop over one record at a time decided it: the
    first line with a field of 19 or more digits, else the level checks.

    primes are the primes up to 10^7, above every value of store below 2^24.
    """
    for lineno, ((n, level), value) in enumerate(store.items(), start=1):
        if max(n, level, value) >= 10**18:
            return f"{path}:{lineno}: bad record 'T {n} {level} {value}'"
    small = [v for v in store.values() if v < 2**24]
    table = primes[: np.searchsorted(primes, max(small, default=1), side="right")].tolist()
    tabled, listed = len(table), set(table)
    below, mismatch = {}, None
    for (n, level), value in sorted(store.items()):
        floor = below.get(n, n)
        if not (value in listed if value < 2**24 else sympy.isprime(value)):
            return f"{path}: p_{n}^({level}) = {value} is not prime"
        if value <= floor:
            return f"{path}: p_{n}^({level}) = {value} is not above {floor}"
        below[n] = value
        idx = n if level == 1 else store.get((n, level - 1), 0)
        if 0 < idx <= tabled:
            if mismatch is None and value != table[idx - 1]:
                mismatch = f"{path}: p_{n}^({level}) = {value} is not p_{idx} = {table[idx - 1]}"
        elif idx > tabled and (idx <= engine._TABLE_PRIMES or value < 2**24):
            return f"{path}: p_{n}^({level}) = {value} is not p_{idx}"
    return mismatch


class TestTowerCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        iterate_prime(3, 4, cache=cache)
        reloaded = TowerCache(str(path))
        assert reloaded.get(3, 1) == 5
        assert reloaded.get(3, 4) == 127
        assert len(reloaded) == 4

    def test_file_format(self, tmp_path):
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        cache.put(3, 1, 5)
        assert path.read_text() == "T 3 1 5\n"

    @pytest.mark.parametrize(
        "line",
        ["X 1 1 2", "T 1 1", "T 1 1 2 3", "T a 1 2", "T 1 1 -5", "T 0 1 2", f"T 1 1 {2**64}",
         # int() once read p_6 = 13 from these two, though no store writes them
         "T 6 1 1_3", "T +6 1 +13",
         # bytes past ASCII, once a UnicodeDecodeError: a traceback, and exit 1
         "T 1 1 \u0662", "T 1 1 2\u00e9",
         # spellings no store writes, once read line by line
         "", "T  1 1 2", "T 01 1 2", "T 1 1 2\r", "T 1 1 2 ", "T 1 1 1", f"T 1 1 {10**18 + 3}"],
    )
    def test_malformed_lines_are_hard_errors(self, tmp_path, line):
        # the bad line follows a valid record and is quoted whole, a \r or a
        # trailing space too
        path = tmp_path / "towers.txt"
        path.write_text("T 1 1 2\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CacheFormatError) as exc:
            TowerCache(str(path))
        assert str(exc.value) == f"{path}:2: bad record {repr(line.encode())[1:]}"

    def test_empty_file_loads(self, tmp_path):
        path = tmp_path / "towers.txt"
        path.write_text("")
        assert len(TowerCache(str(path))) == 0

    @pytest.mark.parametrize("tail", ["", "T 1 1 3\n", "T 6 1"])
    def test_contradiction_names_its_line(self, tmp_path, tail):
        # the later line of the two; the first such line in the file, though
        # the key of line 4 sorts first; and before a torn last line
        path = tmp_path / "towers.txt"
        path.write_text("T 5 1 11\nT 1 1 2\nT 5 1 13\n" + tail)
        with pytest.raises(CacheFormatError) as exc:
            TowerCache(str(path))
        assert str(exc.value) == f"{path}:3: 'T 5 1 13' contradicts a record"

    def test_torn_last_line_names_its_line(self, tmp_path):
        # before the level checks: 4 is not prime
        path = tmp_path / "towers.txt"
        path.write_text("T 1 1 2\nT 1 2 4\nT 2 1")
        with pytest.raises(CacheFormatError) as exc:
            TowerCache(str(path))
        assert str(exc.value) == f"{path}:3: torn record 'T 2 1'"

    def test_byte_past_ascii_names_its_line(self, tmp_path):
        path = tmp_path / "towers.txt"
        path.write_bytes(b"T 1 1 2\nT 2 1 3\xff\n")
        with pytest.raises(CacheFormatError) as exc:
            TowerCache(str(path))
        assert str(exc.value) == f"{path}:2: bad record 'T 2 1 3\\xff'"

    @pytest.mark.parametrize(
        "lines, reason",
        [
            (["T 1 1 4"], "is not prime"),
            (["T 3 1 4294967297"], "is not prime"),  # 641 * 6700417, above the table
            (["T 5 1 11", "T 5 2 7"], "is not above 11"),
            (["T 5 1 11", "T 5 3 11"], "is not above 11"),
            (["T 13 1 13"], "is not above 13"),
            (["T 2 1 3", "T 2 1 5"], "contradicts a record"),
            (["T 1 2 3", "T 1 3 7"], "is not p_3 = 5"),  # level 1 absent
        ],
    )
    def test_records_that_are_no_tower_are_hard_errors(self, tmp_path, lines, reason):
        path = tmp_path / "towers.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match=reason):
            TowerCache(str(path))

    @pytest.mark.parametrize(
        "lines",
        [
            ["T 100 1 131"],  # p_100 = 541 lies past the primes up to 131
            ["T 100 1 16777259"],  # p_100 lies below 2^24, the value above it
            ["T 1 1 2", "T 600 1 3571"],  # p_600 = 4409, past the table to 3571
            ["T 3 1 5", "T 3 2 20000003"],  # p_5 = 11 lies below 2^24
            ["T 2000000 1 3000017"],  # p_2000000 = 32452843 lies past the table
        ],
    )
    def test_index_past_a_small_table_is_still_checked(self, tmp_path, fresh_table, lines):
        # the table holds the primes up to the largest value below 2^24, and
        # no record is accepted for lack of the 2^24 table
        path = tmp_path / "towers.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match=r"is not p_\d+"):
            TowerCache(str(path))
        assert engine._TABLE[0] < engine._TABLE_LIMIT

    def test_warm_cache_loads_with_a_small_table(self, tmp_path, fresh_table):
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        for n in range(1, 301):
            iterate_prime(n, 3, cache=cache)
        fresh_table()
        reloaded = TowerCache(str(path))
        assert len(reloaded) == 900 and reloaded.get(300, 3) == 191551
        assert engine._TABLE[0] == 1 << 18

    @pytest.mark.parametrize(
        "lines, reason",
        [
            # the rise and prime checks of a later record come before the
            # tabled prime check of an earlier one: p_5 = 11, not 13
            (["T 9 1 23", "T 9 2 84", "T 3 1 5", "T 3 2 13"], "p_9\\^\\(2\\) = 84 is not prime"),
            (["T 9 2 83", "T 9 1 89", "T 3 1 5", "T 3 2 13"], "p_9\\^\\(2\\) = 83 is not above 89"),
            (["T 8 1 19", "T 3 2 13", "T 3 1 5", "T 7 2 53"], "p_3\\^\\(2\\) = 13 is not p_5 = 11"),
            # the first of two bad records in (n, level) order
            (["T 9 1 23", "T 9 2 84", "T 5 1 11", "T 5 2 12"], "p_5\\^\\(2\\) = 12 is not prime"),
            (["T 7 1 17", "T 7 2 61", "T 7 3 19"], "p_7\\^\\(3\\) = 19 is not above 61"),
        ],
    )
    def test_bad_record_after_a_valid_one(self, tmp_path, lines, reason):
        path = tmp_path / "towers.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match=reason):
            TowerCache(str(path))

    def test_checks_agree_with_the_per_record_loop(self, tmp_path, primes_1e7):
        # random towers, some records changed or left out, some keys and
        # values of 19 or 20 digits, against the checks made one record at a time
        rng = random.Random(11)
        big = [32452843, 32452867, 4294967311, 9223372036854775837, 18446744073709551557]
        path = tmp_path / "towers.txt"
        outcomes = set()
        for _ in range(300):
            store = {}
            bases = rng.sample(range(1, 60), rng.randrange(1, 6))
            for n in bases + rng.sample([2_000_000, 2**63 + 1], rng.randrange(0, 2)):
                idx = n
                for level in range(1, rng.randrange(2, 6)):
                    value = int(primes_1e7[idx - 1]) if idx <= len(primes_1e7) else rng.choice(big)
                    roll = rng.random()
                    if roll < 0.05:
                        value = value + 2 if value < 10**7 else rng.choice(big)
                    elif roll < 0.1:
                        value = int(primes_1e7[rng.randrange(2000)])
                    elif roll < 0.13:
                        continue
                    store[n, level] = idx = value
                    if idx > 10**6:
                        break
            path.write_text("".join(f"T {n} {level} {v}\n" for (n, level), v in store.items()))
            try:
                TowerCache(str(path))
                got = None
            except CacheFormatError as exc:
                got = str(exc)
            assert got == _level_error_by_loop(str(path), store, primes_1e7), store
            outcomes.add(got and ("bad" if " is not " not in got else
                                  got.split(" is not ")[1].split(" ")[0]))
        assert outcomes >= {None, "bad", "prime", "above"} and len(outcomes) >= 6

    def test_valid_records_load(self, tmp_path):
        # levels may be missing, records repeat, and bases interleave
        path = tmp_path / "towers.txt"
        path.write_text("T 3 1 5\nT 1 1 2\nT 3 3 31\nT 3 1 5\nT 1 2 3\nT 2 1 3\n")
        cache = TowerCache(str(path))
        assert len(cache) == 5 and cache.get(3, 3) == 31

    def test_indices_past_the_table_keep_the_prime_and_order_checks(self, tmp_path):
        # p_2000000 = 32452843; past the table, the next prime is not refused
        path = tmp_path / "towers.txt"
        path.write_text("T 2000000 1 32452867\n")
        assert TowerCache(str(path)).get(2000000, 1) == 32452867

    def test_store_that_contradicts_a_record(self, tmp_path):
        cache = TowerCache()
        cache.put(3, 1, 5)
        cache.put(3, 1, 5)
        with pytest.raises(CacheFormatError, match="= 7 contradicts 5"):
            cache.put(3, 1, 7)
        assert cache.get(3, 1) == 5

    def test_cached_levels_match_rederivation(self, tmp_path):
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        iterate_prime(5, 5, cache=cache)
        reloaded = TowerCache(str(path))
        idx = 5
        for level in range(1, 6):
            expected = nth_prime(idx)
            assert reloaded.get(5, level) == expected
            idx = expected

    def test_two_writers_alternating_keep_whole_lines(self, tmp_path):
        # both objects append to the same file, each store through its own
        # descriptor; a buffered writer would reorder or split records here.
        # The records are genuine, (n, 1, p_n), so the file reloads.
        primes = sieve_primes(10_000).tolist()
        path = tmp_path / "towers.txt"
        first, second = TowerCache(str(path)), TowerCache(str(path))
        expected = []
        for n in range(1, 601):
            cache = first if n % 2 else second
            cache.put(n, 1, primes[n - 1])
            expected.append(f"T {n} 1 {primes[n - 1]}")
        assert path.read_text().splitlines() == expected
        reloaded = TowerCache(str(path))
        assert len(reloaded) == 600
        assert reloaded.get(600, 1) == primes[599]

    def test_two_writers_interleaving_batches_keep_whole_lines(self, tmp_path):
        # each batch goes out sorted, in one write, between the other
        # writer's batches; the file reloads with every record whole
        primes = sieve_primes(10_000).tolist()
        path = tmp_path / "towers.txt"
        first, second = TowerCache(str(path)), TowerCache(str(path))
        for start in range(1, 601, 50):
            cache = second if start // 50 % 2 else first
            cache.put_many([(n, 1, primes[n - 1]) for n in reversed(range(start, start + 50))])
        first.put_many([])
        assert path.read_text().splitlines() == [f"T {n} 1 {primes[n - 1]}" for n in range(1, 601)]
        assert len(TowerCache(str(path))) == 600

    @pytest.mark.parametrize("record", [(0, 1, 2), (1, 1, 1), (1, 1, 10**18)],
                             ids=["n0", "value1", "19digits"])
    def test_store_the_loader_would_refuse_raises(self, tmp_path, record):
        # each was once written, and every later load of the file failed
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        n, level, value = record
        with pytest.raises(DomainError, match=f"^bad cache record 'T {n} {level} {value}'$"):
            cache.put(n, level, value)
        assert cache.get(n, level) is None and len(cache) == 0
        assert not path.exists()

    def test_batch_that_contradicts_a_record_stores_nothing(self, tmp_path):
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        cache.put_many([(3, 1, 5), (3, 1, 5)])
        with pytest.raises(CacheFormatError, match="= 7 contradicts 5"):
            cache.put_many([(2, 1, 3), (3, 1, 7)])
        assert path.read_text() == "T 3 1 5\n" and cache.get(2, 1) is None

    def test_each_store_closes_what_it_opens(self, tmp_path, monkeypatch):
        # one descriptor per non-empty store, closed also when the write
        # raises; a file deleted between stores is made again by the next
        recorded = _RecordedOs()
        monkeypatch.setattr(iterated, "os", recorded)
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        cache.put(3, 1, 5)
        cache.put_many([])
        path.unlink()
        cache.put(3, 2, 11)
        assert path.read_text() == "T 3 2 11\n"
        recorded.fail = OSError("no space left")
        with pytest.raises(OSError, match="^no space left$"):
            cache.put(5, 1, 11)
        assert len(recorded.opened) == 3 and recorded.closed == recorded.opened

    def test_short_write_raises(self, tmp_path, monkeypatch):
        recorded = _RecordedOs()
        monkeypatch.setattr(iterated, "os", recorded)
        path = tmp_path / "towers.txt"
        recorded.short = True
        message = f"^{re.escape(str(path))}: short write of 2 cache records$"
        with pytest.raises(OSError, match=message):
            TowerCache(str(path)).put_many([(3, 1, 5), (3, 2, 11)])
        assert recorded.closed == recorded.opened and len(recorded.opened) == 1

    def test_diagonal_reuses_tower_records(self):
        cache = TowerCache()
        iterate_prime(6, 6, cache=cache)
        size_before = len(cache)
        diag_prime(6, cache=cache)
        assert len(cache) == size_before
