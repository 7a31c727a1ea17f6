from fractions import Fraction

import pytest

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

from oracle import tower_by_sieve

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


class TestRatioToDiagonal:
    def test_k1_is_one(self, cache):
        [(k, ratio)] = ratio_to_diagonal(1, 1, cache=cache)
        assert k == 1 and ratio == 1

    def test_small_ratios(self, cache):
        ratios = dict(ratio_to_diagonal(1, 5, cache=cache))
        assert abs(ratios[3] - float(Fraction(5, 31))) < 1e-12
        assert abs(ratios[5] - float(Fraction(31, 5381))) < 1e-12

    def test_proposition_trend(self, cache):
        # for n <= 3 and feasible k > p_n: domination by the next tower level
        # and strict decrease of the ratio sequence
        for n in (1, 2, 3):
            p_n = nth_prime(n)
            tower = iterate_prime(n, 9, cache=cache).values
            ratios = dict(ratio_to_diagonal(n, 8, cache=cache))
            for k in sorted(ratios):
                if k <= p_n or k + 1 not in ratios:
                    continue
                assert ratios[k] < tower[k - 1] / tower[k]  # p_n^(k)/p_n^(k+1)
                assert ratios[k + 1] < ratios[k]

    def test_domination_at_n4(self, cache):
        # k = 8 > p_4 = 7: p_4^(8)/p_8^(8) < p_4^(8)/p_4^(9)
        tower = iterate_prime(4, 9, cache=cache).values
        ratio = dict(ratio_to_diagonal(4, 8, cache=cache))[8]
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
        ["X 1 1 2", "T 1 1", "T 1 1 2 3", "T a 1 2", "T 1 1 -5", "T 0 1 2"],
    )
    def test_malformed_lines_are_hard_errors(self, tmp_path, line):
        path = tmp_path / "towers.txt"
        path.write_text(line + "\n")
        with pytest.raises(CacheFormatError):
            TowerCache(str(path))

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
        # buffered writer would reorder or split records here
        path = tmp_path / "towers.txt"
        first, second = TowerCache(str(path)), TowerCache(str(path))
        expected = []
        for level in range(1, 301):
            for n, cache in ((1, first), (2, second)):
                value = 10**12 + 1000 * n + level
                cache.put(n, level, value)
                expected.append(f"T {n} {level} {value}")
        first.close()
        second.close()
        assert path.read_text().splitlines() == expected
        reloaded = TowerCache(str(path))
        assert len(reloaded) == 600
        assert reloaded.get(2, 300) == 10**12 + 2300

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
