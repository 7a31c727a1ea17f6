"""Iterated primes: towers p_n^(1..k), the diagonal p_k^(k), and ratios.

Each tower level is an nth_prime call on the previous level's value, so
levels get expensive quickly; computed values go through a persistent
append-only cache keyed by (base index, level).

Towers, counts and ratios all walk the recursion with ``walk(n, cap, cache)``,
which yields p_n^(1), p_n^(2), ... while they are <= cap.  It never computes
an uncached level at index idx with idx log idx > cap, decided exactly:
p_idx > idx log idx (Rosser) puts that level above cap.
"""

import math
import os
from dataclasses import dataclass
from itertools import islice

import numpy as np
from mpmath import mp, mpf

from .engine import _TABLE_LIMIT, base_primes_upto, is_prime, nth_prime
from .errors import BudgetExceededError, CacheFormatError, InvalidRangeError
from .hpreal import DEFAULT_PREC, compare_int

# Bounds the VALUE of a prime, not its index; reaches the diagonal
# through k = 9..10 in minutes.
DEFAULT_BUDGET = 10**11

_FLOAT_BAND = 2.0**-40


class TowerCache:
    """Persistent (n, level) -> p_n^(level) store.

    File format: one record per line, ``T <n> <level> <value>`` with
    decimal integers.  The file is loaded fully at construction and
    appended on every store.  Malformed lines, non-prime values, levels of a
    base that do not rise from n on, and records or stores that contradict a
    stored value are hard errors.  Each record goes out in one ``write`` to
    an ``O_APPEND`` descriptor, opened on the first store and released by
    ``close``, so writers sharing the file never split each other's lines.
    """

    def __init__(self, path=None):
        self.path = path
        self._store = {}
        self._fd = None
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path):
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 4 or parts[0] != "T":
                    raise CacheFormatError(f"{path}:{lineno}: bad record {line!r}")
                try:
                    n, level, value = (int(p) for p in parts[1:])
                except ValueError as exc:
                    raise CacheFormatError(
                        f"{path}:{lineno}: non-integer field in {line!r}"
                    ) from exc
                if n < 1 or level < 1 or not 2 <= value < 1 << 64:  # is_prime's range
                    raise CacheFormatError(
                        f"{path}:{lineno}: out-of-range field in {line!r}"
                    )
                if self._store.setdefault((n, level), value) != value:
                    raise CacheFormatError(f"{path}:{lineno}: {line!r} contradicts a record")
        self._check_levels(path)

    def _check_levels(self, path):
        """Each value is prime, and the levels of each base n rise from n on."""
        # values below the table's limit are looked up in it in one numpy pass
        table = base_primes_upto(_TABLE_LIMIT - 1)
        small = np.array([v for v in self._store.values() if v < _TABLE_LIMIT], np.int64)
        found = table[np.searchsorted(table, small, side="right") - 1] == small
        composite = set(small[~found].tolist())
        below = {}  # base n -> the value of its highest level so far
        for n, level in sorted(self._store):
            value, floor = self._store[n, level], below.get(n, n)
            if value in composite or (value >= _TABLE_LIMIT and not is_prime(value)):
                raise CacheFormatError(f"{path}: p_{n}^({level}) = {value} is not prime")
            if value <= floor:
                raise CacheFormatError(f"{path}: p_{n}^({level}) = {value} is not above {floor}")
            below[n] = value

    def get(self, n, level):
        return self._store.get((n, level))

    def put(self, n, level, value):
        key = (n, level)
        if key in self._store:
            if self._store[key] != value:
                raise CacheFormatError(f"p_{n}^({level}) = {value} contradicts {self._store[key]}")
            return
        self._store[key] = value
        if self.path is not None:
            if self._fd is None:
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            record = f"T {n} {level} {value}\n".encode("ascii")
            if os.write(self._fd, record) != len(record):
                raise OSError(f"{self.path}: short write of cache record {record!r}")

    def close(self):
        """Release the append descriptor; a later store opens it again."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __len__(self):
        return len(self._store)


@dataclass
class Tower:
    """Levels p_n^(1)..p_n^(j) for a fixed base index n."""

    n: int
    requested_depth: int
    values: list
    truncated: bool = False

    @property
    def depth(self):
        return len(self.values)


@dataclass
class DiagEntry:
    k: int
    value: int


def _value_certainly_above(idx, cap):
    """True when p_idx > cap follows already from p_idx > idx log idx (Rosser).

    With a faithful libm log, idx*log(idx) in floats is within a relative
    2^-50 of idx ln idx, so it decides when it is farther than _FLOAT_BAND
    from cap; inside that band ``compare_int`` decides.
    """
    if idx < 2:
        return False
    approx = idx * math.log(idx)
    if approx * (1 - _FLOAT_BAND) > cap:
        return True
    if approx * (1 + _FLOAT_BAND) < cap:
        return False
    return compare_int(cap, lambda: idx * mp.log(idx), 15)[0] > 0


def walk(n, cap, cache=None):
    """Yield p_n^(1), p_n^(2), ... while they are <= cap.

    A cache miss ends the walk if ``_value_certainly_above`` holds; otherwise
    the level is computed and stored, even when it lands above cap.
    """
    if cache is None:
        cache = TowerCache()
    idx, level = n, 1
    while True:
        value = cache.get(n, level)
        if value is None:
            if _value_certainly_above(idx, cap):
                return
            value = nth_prime(idx)
            cache.put(n, level, value)
        if value > cap:
            return
        yield value
        idx, level = value, level + 1


def iterate_prime(n, k, budget=DEFAULT_BUDGET, cache=None):
    """Tower p_n^(1..k), truncated at the last level whose value <= budget.

    Truncation is a normal, marked outcome (values grow super-exponentially
    in k); only an empty tower -- p_n itself above budget -- is an error.
    """
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise InvalidRangeError("tower requires n >= 1 and k >= 1")
    values = list(islice(walk(n, budget, cache), k))
    if not values:
        raise BudgetExceededError(f"p_{n} already exceeds budget {budget}", deepest_level=0)
    return Tower(n=n, requested_depth=k, values=values, truncated=len(values) < k)


def diag_prime(k, budget=DEFAULT_BUDGET, cache=None):
    """Diagonal element p_k^(k)."""
    k = int(k)
    if k < 1:
        raise InvalidRangeError("diag_prime requires k >= 1")
    tower = iterate_prime(k, k, budget=budget, cache=cache)
    if tower.truncated:
        raise BudgetExceededError(
            f"p_{k}^({k}) exceeds budget {budget}; "
            f"deepest completed level: {tower.depth}",
            deepest_level=tower.depth,
        )
    return DiagEntry(k=k, value=tower.values[-1])


def ratio_to_diagonal(n, k_max, budget=DEFAULT_BUDGET, prec=DEFAULT_PREC, cache=None):
    """Rows (k, p_n^(k), p_k^(k), p_n^(k) / p_k^(k)) for each feasible k <= k_max.

    Stops at the first k where either side exceeds the budget; an
    infeasible base tower (p_n itself above budget) propagates.
    """
    n, k_max = int(n), int(k_max)
    if n < 1 or k_max < 1:
        raise InvalidRangeError("ratio table requires n >= 1 and k_max >= 1")
    tower = iterate_prime(n, k_max, budget=budget, cache=cache)
    out = []
    for k, numerator in enumerate(tower.values, start=1):
        try:
            denominator = diag_prime(k, budget=budget, cache=cache).value
        except BudgetExceededError:
            break
        with mp.workdps(prec):
            out.append((k, numerator, denominator, mpf(numerator) / denominator))
    return out
