import hashlib
import math
import tracemalloc
from decimal import Decimal
from itertools import islice

import pytest

from primeth import (
    BudgetExceededError,
    DomainError,
    TowerCache,
    UnsupportedRangeError,
    comparator,
    count_diag,
    count_tower,
    diag_prime,
    iterate_prime,
    ratio_series,
)
from primeth import counting, engine, hpreal, iterated
from primeth.cli import main

from oracle import dusart_by_decimal, tower_by_sieve

DIAG = [2, 5, 31, 277, 5381, 87803, 2269733]
# p_k^(k) for k = 8..12
DIAG_PAST_7 = [50728129, 1559861749, 64988430769, 2428095424619, 119543903707171]


def _walk_count_diag(x, cache):
    """count_diag as the walk alone decided it, before brackets."""
    k = 1
    while len(iterated.towers([k], k, x, cache)[k]) == k:
        k += 1
    return k - 1


def _walk_count_tower(n, x, cache):
    """count_tower as the walk alone decided it, before brackets."""
    return len(iterated.towers([n], x, x, cache)[n])


class TestCountDiag:
    def test_examples(self, cache):
        assert count_diag(1, cache=cache) == 0
        assert count_diag(100, cache=cache) == 3
        assert count_diag(10**4, cache=cache) == 5

    def test_matches_sieve_enumeration(self, cache, primes_3e6):
        diag = [tower_by_sieve(k, k, primes_3e6)[-1] for k in range(1, 8)]
        for x in (1, 2, 4, 30, 31, 276, 1000, 10**5, 2_269_733):
            assert count_diag(x, cache=cache) == sum(1 for d in diag if d <= x)

    def test_bracketing(self, cache):
        for k, value in enumerate(DIAG, start=1):
            assert count_diag(value, cache=cache) == k
            if value > 1:
                assert count_diag(value - 1, cache=cache) == k - 1

    def test_budget_guard(self):
        # x = p_7^(7) lies inside its bracket with no cache: only the walk,
        # which the budget bounds, decides it; the brackets alone decide 10^7
        with pytest.raises(
            BudgetExceededError,
            match=r"^x=2269733 above budget 1000: bracketing element not computable$",
        ):
            count_diag(2269733, budget=1000)
        assert count_diag(10**7, budget=1000) == 7
        # count_tower shares the check: p_1^(11) = 9737333 lies inside its bracket
        with pytest.raises(BudgetExceededError, match=r"^x=9737333 above budget 1000: "):
            count_tower(1, 9737333, budget=1000)

    def test_invalid(self, cache):
        with pytest.raises(DomainError, match=r"^count_diag requires x >= 1$"):
            count_diag(0, cache=cache)


class TestCountTower:
    def test_examples(self, cache):
        assert count_tower(1, 2, cache=cache) == 1
        assert count_tower(1, 100, cache=cache) == 5
        assert count_tower(2, 100, cache=cache) == 4
        assert count_tower(1, 10**4, cache=cache) == 8

    def test_bracketing(self, cache):
        for n in (1, 2, 5, 9):
            values = iterate_prime(n, 6, cache=cache).values
            for k, value in enumerate(values, start=1):
                assert count_tower(n, value, cache=cache) == k
                assert count_tower(n, value - 1, cache=cache) == k - 1

    def test_bracketing_level_is_cached(self):
        # p_1^(10) = 648391 has index 52711, past the 2^19 table, so its bracket
        # holds x = 648391 and the level is computed exactly, and kept
        cache = TowerCache()
        assert count_tower(1, 648391, cache=cache) == 10
        assert cache.get(1, 10) == 648391
        # 110 lies outside every bracket of base 1: nothing is computed or kept
        cache = TowerCache()
        assert count_tower(1, 110, cache=cache) == 5
        assert len(cache) == 0

    def test_monotone_in_x(self, cache):
        xs = [1, 2, 3, 10, 100, 5000, 10**5, 10**6]
        for n in (1, 3, 7):
            counts = [count_tower(n, x, cache=cache) for x in xs]
            assert counts == sorted(counts)

    def test_diag_dominated_by_towers(self, cache):
        # DiagP(x) <= P_n^T(x) whenever x >= p_n^(n), small-n desk scale
        for n in (1, 2, 3, 4):
            p_nn = diag_prime(n, cache=cache)
            for x in (100, 10**3, 10**4, 10**5, 10**6):
                if x < p_nn:
                    continue
                assert count_diag(x, cache=cache) <= count_tower(n, x, cache=cache)


class TestBrackets:
    @pytest.mark.parametrize(
        "n", [39017, 43391, 10**6, 10**15, 10**40, 10**160, 10**400],
        ids=["39017", "43391", "1e6", "1e15", "1e40", "1e160", "1e400"],
    )
    def test_endpoints_on_the_safe_side(self, n):
        lo, hi = iterated._dusart(n, n)
        lower, upper = dusart_by_decimal(n)
        assert lo <= lower and hi >= upper
        # rounded outward by less than a relative 2^-60 and one unit
        slack = lower * Decimal(2) ** -60 + 1
        assert lower - lo < slack and hi - upper < slack

    def test_diagonal_brackets_contain_known_values(self):
        for k, value in enumerate(DIAG + DIAG_PAST_7, start=1):
            lo, hi = list(islice(iterated.brackets(k), k))[-1]
            assert lo <= value <= hi
            assert (lo == hi) == (k <= 6)  # levels past 6 have untabled indices

    def test_tower_brackets_contain_exact_levels(self, primes_3e6):
        table_primes = 43390  # pi(2^19)
        for n in range(1, 2001):
            values = tower_by_sieve(n, 3, primes_3e6)
            for index, value, (lo, hi) in zip([n] + values, values, iterated.brackets(n)):
                assert lo <= value <= hi
                assert (lo == hi) == (index <= table_primes)

    def test_cached_level_is_exact(self):
        cache = TowerCache()
        cache.put(1, 11, 9737333)
        levels = list(islice(iterated.brackets(1, cache), 12))
        assert levels[10] == (9737333, 9737333)
        assert levels[9][0] < 648391 < levels[9][1]  # index 52711 is past the table
        assert levels[11] == iterated._dusart(9737333, 9737333)

    def test_logs_taken(self, monkeypatch):
        # _dusart takes log m once when a == b, then log log m at both ends;
        # count_diag(10^10) takes 36 logs in all, none of them twice by a memo
        calls, mpf_log = [], hpreal.mpf_log
        monkeypatch.setattr(hpreal, "mpf_log", lambda *args: calls.append(args) or mpf_log(*args))
        iterated._dusart(10**6, 10**6)
        assert len(calls) == 3
        iterated._dusart(10**6, 10**6 + 1)
        assert len(calls) == 3 + 4
        calls.clear()
        assert count_diag(10**10) == 9
        assert len(calls) == 36

    @pytest.mark.parametrize("n", [10**5, 43391])
    def test_independent_of_the_table_built(self, fresh_table, n):
        # brackets read the primes up to 2^19 only, however far the table has
        # grown: p_43391 lies past them, so its bracket stays inexact
        cold = list(islice(iterated.brackets(n), 4))
        engine._prime_table(engine._TABLE_LIMIT)
        assert list(islice(iterated.brackets(n), 4)) == cold
        assert cold[0][0] < cold[0][1]


class TestCountIdentity:
    """Bracketed counts equal the walk-only counts, which they replaced."""

    BASES = (1, 2, 5, 9)

    def test_at_known_values(self, cache):
        # x = v - 1 and v lie inside v's bracket once its index is untabled,
        # which forces the exact walk; counts run without a cache, so every
        # level is bracketed afresh
        values = DIAG + DIAG_PAST_7[:3]
        for n in self.BASES:
            cap = iterated.DEFAULT_BUDGET - 1
            values += iterated.towers([n], cap, cap, cache)[n]
        for x in sorted({x for v in values for x in (v - 1, v, v + 1)}):
            assert count_diag(x) == _walk_count_diag(x, cache), x
            for n in self.BASES:
                assert count_tower(n, x) == _walk_count_tower(n, x, cache), (n, x)

    def test_small_and_log_spaced_x(self, cache):
        xs = list(range(1, 5001)) + [round(10 ** (11 * i / 39)) for i in range(40)]
        for x in xs:
            assert count_diag(x) == _walk_count_diag(x, cache), x
            for n in self.BASES:
                assert count_tower(n, x) == _walk_count_tower(n, x, cache), (n, x)

    def test_decision_at_the_bracket_ends(self, monkeypatch):
        # a level counts once x >= hi, ends the count while x < lo, and sends
        # x in [lo, hi) to the exact walk, here a stub giving 9 levels
        levels = [(7, 7), (20, 25), (30, 40)]
        monkeypatch.setattr(counting, "brackets", lambda n, cache: iter(levels))
        monkeypatch.setattr(counting, "towers", lambda ns, k, x, cache: {n: [0] * 9 for n in ns})
        xs = (6, 7, 19, 20, 24, 25, 29, 30, 39, 40)
        assert [count_tower(1, x) for x in xs] == [0, 1, 1, 9, 9, 2, 2, 9, 9, 3]

    def test_far_past_the_exact_range(self):
        for x, count in ((10**20, 15), (10**50, 30), (10**100, 52)):
            assert count_diag(x, budget=x) == count

    def test_inside_a_bracket_past_2_48(self):
        # 5.5e15 lies in the bracket of p_13^(13), and p_12^(12) < 1.2e14 is
        # below it: the exact value decides, and it lies past 2^48
        with pytest.raises(UnsupportedRangeError, match="past 2\\^48"):
            count_diag(5_500_000_000_000_000, budget=10**16)


class TestTowerWork:
    """The nth_prime arguments of each tower walk, checked against recorded lists.

    Each list was recorded at a9ce604 and is authenticated by its SHA-256;
    the iterate_prime digests date from d9494df, before the three tower
    loops became one walker.  iterate_prime must make exactly the recorded
    lookups in the same order.  A count decides most levels from brackets
    and walks only a base where x falls inside one, so it may make fewer
    lookups, but none the walk-only counts did not make.
    """

    @pytest.mark.parametrize(
        "call, recorded, digest, exact",
        [
            (lambda: count_diag(10**7),
             [1, 2, 3, 3, 5, 11, 4, 7, 17, 59, 5, 11, 31, 127, 709, 6, 13, 41, 179, 1063,
              8527, 7, 17, 59, 277, 1787, 15299, 167449, 8, 19, 67, 331, 2221, 19577, 219613],
             "a0b2dc5dbaca8cd1f0a9644ac4b2e590fc894063ff08aee7642343730f696754", False),
            (lambda: count_tower(1, 10**10),
             [1, 2, 3, 5, 11, 31, 127, 709, 5381, 52711, 648391, 9737333, 174440041],
             "1d1c9de39aa245b58fb1dd218422e12224223c8f0caff2538ff74567df51a282", False),
            (lambda: iterate_prime(50, 9),
             [50, 229, 1447, 12097, 129229, 1715761, 27560453, 524172379],
             "c5c1ab773f428d23d080db1b35e1c4441d2881ba2eadf17922c57ecf8257ee34", True),
            (lambda: iterate_prime(1, 20, budget=10**9),
             [1, 2, 3, 5, 11, 31, 127, 709, 5381, 52711, 648391, 9737333],
             "e9f3d227d5023b9288ef3bbbde79c068986ce21b755db8b45878ea3f387ba440", True),
            # x = p_7^(7) and x = p_1^(11) lie inside a bracket: the walk runs
            (lambda: count_diag(2269733),
             [1, 2, 3, 3, 5, 11, 4, 7, 17, 59, 5, 11, 31, 127, 709, 6, 13, 41, 179, 1063,
              8527, 7, 17, 59, 277, 1787, 15299, 167449, 8, 19, 67, 331, 2221, 19577],
             "f27d96de17cd4be7a2d19d60313a01b787d33e596bec0533f768497dac0322e9", False),
            (lambda: count_tower(1, 9737333),
             [1, 2, 3, 5, 11, 31, 127, 709, 5381, 52711, 648391],
             "37f02774a918ff2174fdbf34d0f35f01f32bc71111fc19681064570fce82d26c", False),
        ],
        ids=["count_diag", "count_tower", "iterate_prime", "iterate_prime_truncated",
             "count_diag_inside", "count_tower_inside"],
    )
    def test_nth_prime_calls_pinned(self, monkeypatch, call, recorded, digest, exact):
        assert hashlib.sha256(" ".join(map(str, recorded)).encode()).hexdigest() == digest
        calls = []
        nth_primes = iterated.nth_primes

        def recorded_call(idxs):
            calls.extend(idxs)
            return nth_primes(idxs)

        monkeypatch.setattr(iterated, "nth_primes", recorded_call)
        call()
        if exact:
            assert calls == recorded
        else:
            assert set(calls) <= set(recorded)

    def test_count_diag_1e10_computes_no_prime(self, monkeypatch, fresh_table):
        # brackets decide every level: no lookup and only the 2^19 table
        monkeypatch.setattr(iterated, "nth_primes", lambda idxs: pytest.fail(f"nth_primes({idxs})"))
        tracemalloc.start()
        try:
            assert count_diag(10**10) == 9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine._TABLE[0] == 1 << 19
        assert peak < 4 << 20


class TestComparator:
    def test_domain(self):
        with pytest.raises(DomainError):
            comparator(15)

    def test_values_against_float_evaluation(self):
        for x in (16, 10**6, 10**12):
            expected = math.log(x) / math.log(math.log(x))
            assert abs(float(comparator(x)) - expected) < 1e-10

    def test_boundary_is_near_e(self):
        # as x -> e^e the value tends to e; x = 16 sits just above
        assert 2.71 < float(comparator(16)) < 2.73

    def test_precision(self):
        a = comparator(10**6, prec=50)
        b = comparator(10**6, prec=100)
        assert abs(a - b) < 10 ** -45


class TestRatioSeries:
    def test_single_record(self, cache):
        [row] = ratio_series([100], [1], cache=cache)
        x, diag_count, n, tower_count, comp = row
        assert (x, diag_count, n, tower_count) == (100, 3, 1, 5)
        assert comp is not None

    def test_no_tower_bases(self, cache):
        [row] = ratio_series([2], [], cache=cache)
        # x < 16: log log x not positive, so no comparator
        assert row == (2, 1, None, None, None)

    def test_two_bases(self, cache):
        rows = ratio_series([10**4], [2, 1, 2], cache=cache)
        assert [row[:4] for row in rows] == [(10**4, 5, 1, 8), (10**4, 5, 2, 7)]

    def test_requires_sorted_xs(self, cache):
        with pytest.raises(DomainError, match=r"^xs must be sorted ascending$"):
            ratio_series([100, 10], [], cache=cache)

    def test_csv_layout(self, capsys):
        assert main(["table", "counts", "100,10000", "1,2", "--no-timestamp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,diag_count,tower_n,tower_count,comparator"
        assert len(lines) == 1 + 4  # one row per (x, n)
        assert lines[1].startswith("100,3,1,5,")

    def test_csv_empty_bases(self, capsys):
        assert main(["table", "counts", "2", "--no-timestamp"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2,1,,,"
