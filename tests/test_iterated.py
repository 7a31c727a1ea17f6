import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from primeth import (
    BudgetExceededError,
    CacheFormatError,
    InvalidRangeError,
    TowerCache,
    diag_prime,
    iterate_prime,
    nth_prime,
    ratio_to_diagonal,
)
from primeth.hpreal import DEFAULT_PREC
from primeth.iterated import _FLOAT_BAND, _value_certainly_above

from oracle import n_log_n_by_decimal, sieve_primes, tower_by_sieve

PRIMETH_RECURRENCE = [2, 3, 5, 11, 31, 127, 709, 5381, 52711]


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
        assert tower.requested_depth == 20

    def test_budget_exceeded_at_level_one(self):
        with pytest.raises(BudgetExceededError) as exc:
            iterate_prime(100, 1, budget=100)
        assert exc.value.deepest_level == 0

    def test_invalid_spec(self):
        with pytest.raises(InvalidRangeError):
            iterate_prime(0, 1)
        with pytest.raises(InvalidRangeError):
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


class TestValueCertainlyAbove:
    """The walker's skip decides idx log idx > cap exactly, never by rounding."""

    # from 10^15 on, the float product alone misjudges floor(x) or ceil(x)
    @pytest.mark.parametrize("idx", [16, 10**6, 10**9, 10**12, 10**15, 10**16, 10**18])
    def test_decided_at_the_integers_around_n_log_n(self, idx):
        x = n_log_n_by_decimal(idx, 40)
        assert _value_certainly_above(idx, math.floor(x))
        assert not _value_certainly_above(idx, math.ceil(x))

    def test_skip_implies_value_above_cap(self):
        for idx in range(2, 20001):
            p = nth_prime(idx)
            for cap in (math.floor(n_log_n_by_decimal(idx, 20)), p):
                if _value_certainly_above(idx, cap):
                    assert p > cap

    def test_agrees_with_oracle_at_the_float_band_edges(self):
        for idx in sorted({int(10 ** (e / 20)) for e in range(7, 361)}):
            x = n_log_n_by_decimal(idx, 40)
            approx = idx * math.log(idx)
            caps = {math.floor(x), math.ceil(x)}
            for edge in (approx * (1 - _FLOAT_BAND), approx * (1 + _FLOAT_BAND)):
                caps.update(range(int(edge) - 2, int(edge) + 3))
            for cap in caps:
                assert _value_certainly_above(idx, cap) == (x > cap), (idx, cap)


    def test_cap_beyond_float_range(self):
        # float-int comparisons are exact, so a cap past 1e308 cannot overflow
        assert not _value_certainly_above(10**6, 10**400)
        assert iterate_prime(1, 5, budget=10**400).values == [2, 3, 5, 11, 31]

class TestDiagPrime:
    def test_examples(self, cache):
        assert diag_prime(1, cache=cache).value == 2
        assert diag_prime(3, cache=cache).value == 31
        assert diag_prime(4, cache=cache).value == 277

    def test_matches_sieve_chain(self, cache, primes_3e6):
        for k in range(1, 8):
            expected = tower_by_sieve(k, k, primes_3e6)[-1]
            assert diag_prime(k, cache=cache).value == expected

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
                assert denominator == diag_prime(k, cache=cache).value
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
        ["X 1 1 2", "T 1 1", "T 1 1 2 3", "T a 1 2", "T 1 1 -5", "T 0 1 2", f"T 1 1 {2**64}"],
    )
    def test_malformed_lines_are_hard_errors(self, tmp_path, line):
        path = tmp_path / "towers.txt"
        path.write_text(line + "\n")
        with pytest.raises(CacheFormatError):
            TowerCache(str(path))

    @pytest.mark.parametrize(
        "lines, reason",
        [
            (["T 1 1 4"], "is not prime"),
            (["T 3 1 4294967297"], "is not prime"),  # 641 * 6700417, above the table
            (["T 5 1 11", "T 5 2 7"], "is not above 11"),
            (["T 5 1 11", "T 5 3 11"], "is not above 11"),
            (["T 13 1 13"], "is not above 13"),
            (["T 2 1 3", "T 2 1 5"], "contradicts a record"),
        ],
    )
    def test_records_that_are_no_tower_are_hard_errors(self, tmp_path, lines, reason):
        path = tmp_path / "towers.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match=reason):
            TowerCache(str(path))

    def test_valid_records_load(self, tmp_path):
        # levels may be missing, records repeat, and bases interleave
        path = tmp_path / "towers.txt"
        path.write_text("T 3 1 5\nT 1 1 2\nT 3 3 31\nT 3 1 5\nT 1 2 3\nT 2 1 3\n")
        cache = TowerCache(str(path))
        assert len(cache) == 5 and cache.get(3, 3) == 31

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
        # both objects hold an append descriptor on the same file; a
        # buffered writer would reorder or split records here.  The values
        # are primes that rise with the level, so the file reloads.
        primes = sieve_primes(1_010_000)
        chosen = primes[primes > 10**6][:600].tolist()
        values = iter(chosen)
        path = tmp_path / "towers.txt"
        first, second = TowerCache(str(path)), TowerCache(str(path))
        expected = []
        for level in range(1, 301):
            for n, cache in ((1, first), (2, second)):
                value = next(values)
                cache.put(n, level, value)
                expected.append(f"T {n} {level} {value}")
        first.close()
        second.close()
        assert path.read_text().splitlines() == expected
        reloaded = TowerCache(str(path))
        assert len(reloaded) == 600
        assert reloaded.get(2, 300) == chosen[-1]

    def test_store_after_close_reopens(self, tmp_path):
        path = tmp_path / "towers.txt"
        cache = TowerCache(str(path))
        cache.put(3, 1, 5)
        cache.close()
        cache.close()
        cache.put(3, 2, 11)
        cache.close()
        assert path.read_text() == "T 3 1 5\nT 3 2 11\n"

    def test_diagonal_reuses_tower_records(self):
        cache = TowerCache()
        iterate_prime(6, 6, cache=cache)
        size_before = len(cache)
        diag_prime(6, cache=cache)
        assert len(cache) == size_before
