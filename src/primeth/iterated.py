"""Iterated primes: towers p_n^(1..k), the diagonal p_k^(k), and ratios.

Each tower level is an nth_prime call on the previous level's value, so
levels get expensive quickly; computed values go through a persistent
append-only cache keyed by (base index, level).
"""

import math
import os
from dataclasses import dataclass

from mpmath import mp, mpf

from .engine import nth_prime
from .errors import BudgetExceededError, CacheFormatError, InvalidRangeError
from .hpreal import DEFAULT_PREC

# Bounds the VALUE of a prime, not its index; reaches the diagonal
# through k = 9..10 in minutes.
DEFAULT_BUDGET = 10**11


class TowerCache:
    """Persistent (n, level) -> p_n^(level) store.

    File format: one record per line, ``T <n> <level> <value>`` with
    decimal integers.  The file is loaded fully at construction and
    appended on every store; malformed lines are a hard error.  Each
    record goes out in one ``write`` to an ``O_APPEND`` descriptor, opened
    on the first store and released by ``close``, so writers sharing the
    file never split each other's lines.
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
                if n < 1 or level < 1 or value < 2:
                    raise CacheFormatError(
                        f"{path}:{lineno}: out-of-range field in {line!r}"
                    )
                self._store[(n, level)] = value

    def get(self, n, level):
        return self._store.get((n, level))

    def put(self, n, level, value):
        key = (n, level)
        if key in self._store:
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
    """True when p_idx > cap follows already from p_idx > idx log idx."""
    # +1 margin absorbs float rounding of idx*log(idx)
    return idx >= 2 and idx * math.log(idx) > cap + 1


def _level_value(base_n, level, idx, cache):
    """p_base_n^(level) where idx = p_base_n^(level-1) (or base_n at level 1)."""
    cached = cache.get(base_n, level) if cache is not None else None
    if cached is not None:
        return cached
    value = nth_prime(idx)
    if cache is not None:
        cache.put(base_n, level, value)
    return value


def iterate_prime(n, k, budget=DEFAULT_BUDGET, cache=None):
    """Tower p_n^(1..k), truncated at the last level whose value <= budget.

    Truncation is a normal, marked outcome (values grow super-exponentially
    in k); only an empty tower -- p_n itself above budget -- is an error.
    """
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise InvalidRangeError("tower requires n >= 1 and k >= 1")
    values = []
    idx = n
    for level in range(1, k + 1):
        cached = cache.get(n, level) if cache is not None else None
        if cached is None and _value_certainly_above(idx, budget):
            value = None
        else:
            value = _level_value(n, level, idx, cache)
            if value > budget:
                value = None
        if value is None:
            if level == 1:
                raise BudgetExceededError(
                    f"p_{n} already exceeds budget {budget}", deepest_level=0
                )
            return Tower(n=n, requested_depth=k, values=values, truncated=True)
        values.append(value)
        idx = value
    return Tower(n=n, requested_depth=k, values=values, truncated=False)


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
    """Ratios p_n^(k) / p_k^(k) for each feasible k <= k_max.

    Stops at the first k where either side exceeds the budget; an
    infeasible base tower (p_n itself above budget) propagates.
    """
    n, k_max = int(n), int(k_max)
    if n < 1 or k_max < 1:
        raise InvalidRangeError("ratio table requires n >= 1 and k_max >= 1")
    tower = iterate_prime(n, k_max, budget=budget, cache=cache)
    out = []
    for k in range(1, tower.depth + 1):
        try:
            diag = diag_prime(k, budget=budget, cache=cache)
        except BudgetExceededError:
            break
        with mp.workdps(prec):
            out.append((k, mpf(tower.values[k - 1]) / diag.value))
    return out
