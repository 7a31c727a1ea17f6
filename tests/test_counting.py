import hashlib
import math
import tracemalloc
from decimal import Decimal
import itertools
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

from oracle import dusart_by_decimal, pi_bounds_by_decimal, tower_by_sieve

DIAG = [2, 5, 31, 277, 5381, 87803, 2269733]
# p_k^(k) for k = 8..12
DIAG_PAST_7 = [50728129, 1559861749, 64988430769, 2428095424619, 119543903707171]


def _walk_count_diag(x, cache):
    """count_diag as the walk alone decided it, before the chain of pi."""
    k = 1
    while len(iterated.towers([k], k, x, cache)[k]) == k:
        k += 1
    return k - 1


def _walk_count_tower(n, x, cache):
    """count_tower as the walk alone decided it, before the chain of pi."""
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
        # below 2^24 the chain is exact, so it decides x = p_7^(7) and 10^7
        # whatever the budget; x = p_8^(8) and p_9^(9) lie past it, and neither the
        # chain nor the brackets of the base decide p_k^(k) <= x there: only the
        # walk, which the budget bounds, does
        assert count_diag(2269733, budget=1000) == 7
        assert count_diag(10**7, budget=1000) == 7
        for x in (50728129, 1559861749):
            with pytest.raises(
                BudgetExceededError,
                match=rf"^x={x} above budget 1000: bracketing element not computable$",
            ):
                count_diag(x, budget=1000)
        # count_tower shares the check: exact pi decides p_1^(11) = 9737333, and
        # p_1^(12) = 174440041 is left open
        assert count_tower(1, 9737333, budget=1000) == 11
        with pytest.raises(BudgetExceededError, match=r"^x=174440041 above budget 1000: "):
            count_tower(1, 174440041, budget=1000)

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
        # the chain and the brackets of base 1 leave p_1^(12) = 174440041 <= x
        # open at x = 174440041, so base 1 is walked exactly, and its levels are kept
        cache = TowerCache()
        assert count_tower(1, 174440041, cache=cache) == 12
        assert cache.get(1, 12) == 174440041
        # the exact chain decides x = 110: nothing is computed or kept
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
    """The chain's brackets lo_j <= pi^j(x) <= hi_j, from Dusart's bounds on pi
    past 2^24, and the brackets of a base's levels, from his bounds on p_m."""

    @pytest.mark.parametrize(
        "n", [39017, 43391, 10**6, 10**15, 10**40, 10**160, 10**400],
        ids=["39017", "43391", "1e6", "1e15", "1e40", "1e160", "1e400"],
    )
    def test_endpoints_on_the_safe_side(self, n):
        lo, hi = iterated._dusart(n), iterated._dusart(n, upper=True)
        lower, upper = dusart_by_decimal(n)
        assert lo <= lower and hi >= upper
        # rounded outward by less than a relative 2^-60 and one unit
        slack = lower * Decimal(2) ** -60 + 1
        assert lower - lo < slack and hi - upper < slack

    @pytest.mark.parametrize(
        "x", [1 << 24, 10**9, 10**15, 10**40, 10**400],
        ids=["2^24", "1e9", "1e15", "1e40", "1e400"],
    )
    def test_pi_bounds_on_the_safe_side(self, x):
        a, b = counting._chain(x)[1]
        lower, upper = pi_bounds_by_decimal(x, len(str(x)) + 40)
        assert a <= lower and b >= upper
        # rounded outward by less than a relative 2^-60 and one unit
        slack = lower * Decimal(2) ** -60 + 1
        assert lower - a < slack and b - upper < slack

    @pytest.mark.parametrize("x, pi", [(10**k, p) for k, p in enumerate(
        [664579, 5761455, 50847534, 455052511, 4118054813, 37607912018, 346065536839], start=7)],
        ids=[f"1e{k}" for k in range(7, 14)])
    def test_pi_bounds_contain_known_pi(self, x, pi):
        # OEIS A006880; below 2^24 the chain takes pi itself
        lower, upper = pi_bounds_by_decimal(x)
        a, b = counting._chain(x)[1]
        assert lower <= pi <= upper and a <= pi <= b
        assert (a == b) == (x < 1 << 24)

    def test_pi_bounds_contain_prime_count(self):
        for i in range(16):  # log-spaced in [2^24, 10^11]
            x = round(2**24 * (10**11 / 2**24) ** (i / 15))
            pi, (lower, upper) = engine.prime_count(x), pi_bounds_by_decimal(x)
            a, b = counting._chain(x)[1]
            assert lower <= pi <= upper and a <= pi <= b, x

    def test_diagonal_brackets_contain_known_values(self, cache):
        # pi^j(p_k^(k)) = p_k^(k - j), and p_k^(0) = k; exact while x < 2^24
        for k, value in enumerate(DIAG + DIAG_PAST_7, start=1):
            chain = counting._chain(value)
            lo, hi = chain[k]
            assert lo <= k <= hi
            assert (lo == hi) == (k <= 7)
            levels = [k] + iterate_prime(k, k, cache=cache).values[:-1] if k <= 10 else []
            for j, level in enumerate(reversed(levels), start=1):
                assert chain[j][0] <= level <= chain[j][1], (k, j)
            # and forward, from Dusart's bounds on p_m once the index is untabled
            lo, hi = list(islice(counting._levels(k, None), k + 1))[-1]
            assert lo <= value <= hi
            assert (lo == hi) == (k <= 6)

    def test_tower_brackets_contain_exact_levels(self, towers_to_1e9):
        # pi^j(p_n^(k)) = p_n^(k - j), and p_n^(0) = n
        for n, values in towers_to_1e9.items():
            for k, x in enumerate(values, start=1):
                chain = counting._chain(x)
                for j, level in enumerate(([n] + values[: k - 1])[::-1], start=1):
                    lo, hi = chain[j]
                    assert lo <= level <= hi, (n, k, j)
                    assert lo == hi or x >= 1 << 24, (n, k, j)

    def test_level_brackets_contain_exact_levels(self, primes_3e6):
        table_primes = 43390  # pi(2^19)
        for n in range(1, 2001):
            values = tower_by_sieve(n, 3, primes_3e6)
            levels = counting._levels(n, None)
            assert next(levels) == (n, n)
            for index, value, (lo, hi) in zip([n] + values, values, levels):
                assert lo <= value <= hi
                assert (lo == hi) == (index <= table_primes)

    def test_cached_level_is_exact(self):
        cache = TowerCache()
        cache.put(1, 11, 9737333)
        levels = list(islice(counting._levels(1, cache), 13))
        assert levels[11] == (9737333, 9737333)
        assert levels[10][0] < 648391 < levels[10][1]  # index 52711 is past the table
        assert levels[12] == (iterated._dusart(9737333), iterated._dusart(9737333, upper=True))

    @pytest.mark.parametrize("n", [10**5, 43391])
    def test_independent_of_the_table_built(self, fresh_table, n):
        # level brackets read the primes up to 2^19 only, however far the table
        # has grown: p_43391 lies past them, so its bracket stays inexact
        cold = list(islice(counting._levels(n, None), 4))
        engine._prime_table(engine._TABLE_LIMIT)
        assert list(islice(counting._levels(n, None), 4)) == cold
        assert cold[1][0] < cold[1][1]

    def test_logs_taken(self, monkeypatch):
        # a chain step takes one log of each distinct end past 2^24; _dusart
        # takes log m and log log m
        calls, mpf_log = [], hpreal.mpf_log
        monkeypatch.setattr(hpreal, "mpf_log", lambda *args: calls.append(args) or mpf_log(*args))
        iterated._dusart(10**6)
        iterated._dusart(10**6, upper=True)
        assert len(calls) == 4
        steps = len(counting._chain(10**100)) - 1
        calls.clear()
        assert count_diag(10**100) == 52
        assert len(calls) <= 2 * steps


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
        # with p_1^(k) in [lo, hi], pi^k(x) >= 1 once x >= hi and pi^k(x) = 0
        # while x < lo; the chain's enclosures say so, and leave pi^k(x) in
        # [0, 1] for x in [lo, hi), which, with brackets of the levels that
        # decide nothing, goes to the exact walk, here a stub giving 9 levels
        levels = [(7, 7), (20, 25), (30, 40)]
        monkeypatch.setattr(counting, "_chain", lambda x: [(x, x)] + [
            (1, 1) if x >= hi else (0, 1) if x >= lo else (0, 0) for lo, hi in levels
        ] + [(0, 0)])
        monkeypatch.setattr(counting, "_levels", lambda n, cache: itertools.chain(
            [(n, n)], itertools.repeat((0, 10**9))))
        monkeypatch.setattr(counting, "towers", lambda ns, k, x, cache: {n: [0] * 9 for n in ns})
        xs = (6, 7, 19, 20, 24, 25, 29, 30, 39, 40)
        assert [count_tower(1, x) for x in xs] == [0, 1, 1, 9, 9, 2, 2, 9, 9, 3]

    def test_decision_by_the_brackets_of_the_levels(self, monkeypatch):
        # where the chain leaves pi^k(x) in [0, 1] open, the level's own bracket
        # [30, 40] decides p_1^(k) <= x for x >= 40 and p_1^(k) > x for x < 30;
        # between them the exact walk runs, here a stub giving 9 levels
        monkeypatch.setattr(counting, "_chain", lambda x: [(x, x), (0, 1), (0, 0)])
        monkeypatch.setattr(counting, "_levels", lambda n, cache: iter([(n, n), (30, 40), (50, 60)]))
        monkeypatch.setattr(counting, "towers", lambda ns, k, x, cache: {n: [0] * 9 for n in ns})
        assert [count_tower(1, x) for x in (29, 30, 39, 40)] == [0, 9, 9, 1]

    @pytest.mark.parametrize("n, x, count", [
        (1, 9086589960500761815721, 20), (1, 1787250162542279523144973398, 24),
        (4, 567822314269014876, 16), (4, 3259509311625319862360172, 19),
        (4, 12336106443626864690219836895, 21), (4, 866246615933292364272377852738, 23),
        (4, 60376703261736188813224112498691, 23), (10, 1812146901352003, 12),
        (40, 5219171332463790, 12), (40, 5219171332463791, 12),
        ("diag", 243461157926321741, 13), ("diag", 249605396225585215, 14),
        ("diag", 22384049388975424410852829050, 19), ("diag", 23118814806739271102632515814, 20),
    ])
    def test_decided_at_the_ends_of_brackets_on_p_m(self, n, x, count):
        # x = lo - 1, hi or hi + 1 of a bracket [lo, hi] on p_n^(k) from Dusart's
        # bounds on p_m, past 2^48, where those brackets decided the counts
        # recorded here: the chain alone leaves p_40^(12) <= x open at the last two
        got = count_diag(x, budget=x) if n == "diag" else count_tower(n, x, budget=x)
        assert got == count

    def test_far_past_the_exact_range(self):
        for x, count in ((10**20, 15), (10**50, 30), (10**100, 52)):
            assert count_diag(x, budget=x) == count

    def test_inside_a_bracket_past_2_48(self):
        # the chain decides 5.5e15, but leaves p_13^(13) <= x open at x =
        # 5519908106212193, past 2^48, where the exact walk cannot decide it
        assert count_diag(5_500_000_000_000_000, budget=10**16) == 12
        with pytest.raises(UnsupportedRangeError, match="past 2\\^48"):
            count_diag(5_519_908_106_212_193, budget=10**16)


class TestTowerWork:
    """The nth_prime arguments of each tower walk, checked against recorded lists.

    Each list was recorded at a9ce604 and is authenticated by its SHA-256;
    the iterate_prime digests date from d9494df, before the three tower
    loops became one walker.  iterate_prime must make exactly the recorded
    lookups in the same order.  A count decides most levels from the chain
    of pi and walks only a base the chain leaves open, so it may make fewer
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
            # x = p_7^(7) and x = p_1^(11), where brackets on p_m ran the walk
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
        # the chain decides every level: no lookup, and its exact pi reads a small table
        monkeypatch.setattr(iterated, "nth_primes", lambda idxs: pytest.fail(f"nth_primes({idxs})"))
        tracemalloc.start()
        try:
            assert count_diag(10**10) == 9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine._TABLE[0] <= 1 << 19
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
