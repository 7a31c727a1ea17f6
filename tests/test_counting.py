import hashlib
import math

import pytest

from primeth import (
    BudgetExceededError,
    DomainError,
    InvalidRangeError,
    TowerCache,
    comparator,
    count_diag,
    count_tower,
    diag_prime,
    iterate_prime,
    ratio_series,
)
from primeth import iterated
from primeth.cli import main

from oracle import tower_by_sieve

DIAG = [2, 5, 31, 277, 5381, 87803, 2269733]


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

    def test_budget_guard(self, cache):
        with pytest.raises(BudgetExceededError):
            count_diag(10**7, budget=10**6, cache=cache)

    def test_invalid(self, cache):
        with pytest.raises(InvalidRangeError):
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
        # 31 log 31 < 110 < p_31 = 127: the level past x is computed and kept
        cache = TowerCache()
        assert count_tower(1, 110, cache=cache) == 5
        assert cache.get(1, 6) == 127

    def test_monotone_in_x(self, cache):
        xs = [1, 2, 3, 10, 100, 5000, 10**5, 10**6]
        for n in (1, 3, 7):
            counts = [count_tower(n, x, cache=cache) for x in xs]
            assert counts == sorted(counts)

    def test_diag_dominated_by_towers(self, cache):
        # DiagP(x) <= P_n^T(x) whenever x >= p_n^(n), small-n desk scale
        for n in (1, 2, 3, 4):
            p_nn = diag_prime(n, cache=cache).value
            for x in (100, 10**3, 10**4, 10**5, 10**6):
                if x < p_nn:
                    continue
                assert count_diag(x, cache=cache) <= count_tower(n, x, cache=cache)


class TestTowerWork:
    """The nth_prime arguments of each tower walk, pinned by count and SHA-256.

    Recorded at d9494df, before the three tower loops became one walker, so
    the walker must make exactly the same lookups in the same order.
    """

    @pytest.mark.parametrize(
        "call, count, digest",
        [
            (lambda: count_diag(10**7), 35,
             "a0b2dc5dbaca8cd1f0a9644ac4b2e590fc894063ff08aee7642343730f696754"),
            (lambda: count_tower(1, 10**10), 13,
             "1d1c9de39aa245b58fb1dd218422e12224223c8f0caff2538ff74567df51a282"),
            (lambda: iterate_prime(50, 9), 8,
             "c5c1ab773f428d23d080db1b35e1c4441d2881ba2eadf17922c57ecf8257ee34"),
            (lambda: iterate_prime(1, 20, budget=10**9), 12,
             "e9f3d227d5023b9288ef3bbbde79c068986ce21b755db8b45878ea3f387ba440"),
        ],
        ids=["count_diag", "count_tower", "iterate_prime", "iterate_prime_truncated"],
    )
    def test_nth_prime_calls_pinned(self, monkeypatch, call, count, digest):
        calls = []
        nth_prime = iterated.nth_prime

        def recorded(idx):
            calls.append(idx)
            return nth_prime(idx)

        monkeypatch.setattr(iterated, "nth_prime", recorded)
        call()
        assert len(calls) == count
        assert hashlib.sha256(" ".join(map(str, calls)).encode()).hexdigest() == digest


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
        with pytest.raises(InvalidRangeError):
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
