"""Iterated primes: towers p_n^(1..k), the diagonal p_k^(k), and ratios.

Each tower level is the prime whose index is the previous level's value,
so levels get expensive quickly; computed values go through a persistent
append-only cache keyed by (base index, level).

Towers, ratios, the exact part of counts and verify walk the recursion with
``towers(ns, k, cap, cache)``: all bases go up a level at a time, and the
lookups of a level go to nth_primes together, their counts in one batch.
It never computes an uncached level at index idx that ``proved_above``
puts above cap: idx > cap, or the integer lower end of Dusart's lower bound
on p_idx above cap.
"""

import os
import re
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .engine import _TABLE_LIMIT, _TABLE_PRIMES, base_primes_upto, is_prime, nth_primes
from .errors import BudgetExceededError, CacheFormatError, DomainError
from .hpreal import DEFAULT_PREC, _START_BITS, _ln

# Bounds the VALUE of a prime, not its index; reaches the diagonal
# through k = 9..10 in minutes.
DEFAULT_BUDGET = 10**11

# prime_count and sieve_segment stop below 2^48, so no exact level reaches it.
EXACT_LIMIT = _TABLE_LIMIT**2
# The one cache record: "T n level value\n", single spaces, no leading zeros,
# n and level in [1, 10^18) and value in [2, 10^18), so each fits int64.
_WRITTEN = re.compile(rb"(?:T [1-9][0-9]{0,17} [1-9][0-9]{0,17} (?:[2-9]|[1-9][0-9]{1,17})\n)*")


def _quoted(line):
    """A cache line as errors quote it: the str repr of its ASCII text, other bytes as \\xNN."""
    return repr(line)[1:]  # a bytes repr without its b


class TowerCache:
    """Persistent (n, level) -> p_n^(level) store.

    File format: one ``_WRITTEN`` record per line, ``T <n> <level> <value>``
    with single spaces and no leading zeros, n and level in [1, 10^18) and
    value in [2, 10^18).  The file is loaded fully at construction and
    appended on every store.  Any other line, a torn last line (no newline:
    the next store would extend it), non-prime values, levels of a base that
    do not rise from n on, values that are not the tabled prime their index
    names, and records or stores that contradict a stored value are hard
    errors; storing a record that is no ``_WRITTEN`` line is a DomainError.
    Each store, of one record or a batch, opens the file ``O_APPEND``, makes
    one ``write`` and closes it, so no descriptor outlives a store and writers
    sharing the file never split each other's lines.
    """

    def __init__(self, path=None):
        self.path = path
        self._store = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        end = _WRITTEN.match(data).end()  # where the first line that is no record starts
        tail, newline, _ = data[end:].partition(b"\n")
        lineno = data.count(b"\n", 0, end) + 1
        if newline:
            raise CacheFormatError(f"{path}:{lineno}: bad record {_quoted(tail)}")
        records = data[:end].replace(b"T", b"")
        n, level, value = np.fromstring(records, np.int64, sep=" ").reshape(-1, 3).T
        order = np.lexsort((level, n))  # stable: the records of a key stay in file order
        n, level, value = n[order], level[order], value[order]
        again = (np.diff(n, prepend=0) == 0) & (np.diff(level, prepend=0) == 0)  # n, level >= 1
        if (clash := np.flatnonzero(again & (np.diff(value, prepend=0) != 0))).size:
            i = order[clash].min()  # the first in file order
            line = data.splitlines()[i]
            raise CacheFormatError(f"{path}:{i + 1}: {_quoted(line)} contradicts a record")
        if tail:  # only the last line can lack its newline: the next store would extend it
            raise CacheFormatError(f"{path}:{lineno}: torn record {_quoted(tail)}")
        n, level, value = n[~again], level[~again], value[~again]
        self._store = dict(zip(zip(n.tolist(), level.tolist()), value.tolist()))
        self._check_levels(path, n, level, value)

    def _check_levels(self, path, n, level, value):
        """Each value is prime, and the levels of each base n rise from n on.

        A record's index is n at level 1 and the stored value of the level
        below otherwise; where that index is known and tabled, the value
        must be the tabled prime.  The table ends at the largest value below
        2^24, so an index past it names a prime above every value below 2^24,
        and for idx <= pi(2^24) a prime below 2^24, so above it no value is
        p_idx either.  n, level and value are int64 columns, one row per key
        in (n, level) order; the first record failing reports, a tabled prime
        only if no other.
        """
        # values below 2^24 are looked up in the table in one numpy pass
        small = value < _TABLE_LIMIT
        low = value[small]
        table = base_primes_upto(int(low.max(initial=1)))
        prime = np.empty(len(value), dtype=bool)
        prime[small] = table[np.searchsorted(table, low, side="right") - 1] == low
        prime[~small] = [is_prime(v) for v in value[~small].tolist()]
        first = np.r_[True, n[1:] != n[:-1]]  # the lowest level stored of its base
        floor = np.where(first, n, np.roll(value, 1))
        below = ~first & (np.roll(level, 1) == level - 1)
        idx = np.where(level == 1, n, np.where(below, np.roll(value, 1), 0))
        untabled = (idx > len(table)) & ((idx <= _TABLE_PRIMES) | small)
        if (bad := np.flatnonzero(~prime | (value <= floor) | untabled)).size:
            i = bad[0]
            reason = ("is not prime" if not prime[i] else
                      f"is not above {floor[i]}" if value[i] <= floor[i] else f"is not p_{idx[i]}")
            raise CacheFormatError(f"{path}: p_{n[i]}^({level[i]}) = {value[i]} {reason}")
        listed = np.flatnonzero((idx > 0) & (idx <= len(table)))
        primes = table[idx[listed] - 1]
        if (bad := np.flatnonzero(value[listed] != primes)).size:
            i, p = listed[bad[0]], primes[bad[0]]
            raise CacheFormatError(
                f"{path}: p_{n[i]}^({level[i]}) = {value[i]} is not p_{idx[i]} = {p}"
            )

    def get(self, n, level):
        return self._store.get((n, level))

    def put(self, n, level, value):
        self.put_many([(n, level, value)])

    def put_many(self, records):
        """Store the (n, level, value) records; those not held yet go to the
        file in (n, level) order, as whole lines in one write.  Nothing is
        stored if one contradicts a held value or is no ``_WRITTEN`` line."""
        store, fresh = self._store, {}
        for n, level, value in sorted(records):
            key = n, level
            if (held := store[key] if key in store else fresh.setdefault(key, value)) != value:
                raise CacheFormatError(f"p_{n}^({level}) = {value} contradicts {held}")
        data = "".join([f"T {n} {level} {value}\n" for (n, level), value in fresh.items()]).encode()
        if (end := _WRITTEN.match(data).end()) < len(data):
            raise DomainError(f"bad cache record {_quoted(data[end:].splitlines()[0])}")
        store.update(fresh)
        if self.path is not None and data:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                if os.write(fd, data) != len(data):
                    raise OSError(f"{self.path}: short write of {len(fresh)} cache records")
            finally:
                os.close(fd)

    def __len__(self):
        return len(self._store)


@dataclass
class Tower:
    """Levels p_n^(1)..p_n^(j) for a fixed base index n."""

    n: int
    values: list
    truncated: bool = False

    @property
    def depth(self):
        return len(self.values)


def proved_above(idx, cap):
    """True when p_idx > cap is proved without computing p_idx: by p_idx > idx,
    or by Dusart's lower bound (m >= 2), whose lower end ``_dusart`` encloses.
    That bound lies below idx log2 idx <= idx bitlen(idx), so a cap at or above
    this takes no logarithm.  A lower end at or below cap answers False, and
    the walker computes the level, so no rounding decides a skip."""
    return idx > cap or idx * idx.bit_length() > cap and _dusart(idx) > cap


def towers(ns, k, cap, cache=None):
    """{n: [p_n^(1), p_n^(2), ...]} for each distinct n of ns: its levels <= cap, at most k.

    The live bases climb one level at a time; a cache miss ends its base if
    ``proved_above`` holds, and the others look up the indices they name in
    one nth_primes call.  A computed level is stored even when it lands above
    cap, and all computed levels go to the cache in one put_many, also when
    an error ends the walk.
    """
    cache = TowerCache() if cache is None else cache
    out = {int(n): [] for n in ns}
    live, computed, level = list(out), [], 1
    try:
        while live and level <= k:
            got = {n: cache.get(n, level) for n in live}
            idx = {n: out[n][-1] if out[n] else n for n in live}
            miss = [n for n in live if got[n] is None and not proved_above(idx[n], cap)]
            if miss:  # distinct indices: p_n^(level - 1) rises with n
                got.update(zip(miss, nth_primes([idx[n] for n in miss])))
            computed += [(n, level, got[n]) for n in miss]
            live = [n for n in live if got[n] is not None and got[n] <= cap]
            for n in live:
                out[n].append(got[n])
            level += 1
    finally:
        cache.put_many(computed)
    return out


def _dusart(m, upper=False):
    """The integer lo <= m (ln m + ln ln m - 1), Dusart's lower bound on p_m (Math.
    Comp. 68 (1999), m >= 2), or with upper hi >= m (ln m + ln ln m - 0.9484), his
    upper bound (m >= 39017).  ``_ln`` puts ln m in [l, h] 2^-bits, so ln ln m lies in
    [ln(l 2^-bits), ln(h 2^-bits)], whose ends ``_ln`` encloses in the same units."""
    bits = _START_BITS
    ln = _ln(m, bits)[upper]
    num = m * ((ln + _ln(ln, bits, -bits)[upper]) * 10**4 - ((9484 if upper else 10**4) << bits))
    return -(-num // (10**4 << bits)) if upper else num // (10**4 << bits)


def iterate_prime(n, k, budget=DEFAULT_BUDGET, cache=None):
    """Tower p_n^(1..k), truncated at the last level whose value <= budget.

    Truncation is a normal, marked outcome (values grow super-exponentially
    in k); only an empty tower -- p_n itself above budget -- is an error.
    """
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise DomainError("tower requires n >= 1 and k >= 1")
    values = towers([n], k, budget, cache)[n]
    if not values:
        raise BudgetExceededError(f"p_{n} already exceeds budget {budget}", deepest_level=0)
    return Tower(n=n, values=values, truncated=len(values) < k)


def diag_prime(k, budget=DEFAULT_BUDGET, cache=None):
    """Diagonal element p_k^(k), an int."""
    k = int(k)
    if k < 1:
        raise DomainError("diag_prime requires k >= 1")
    tower = iterate_prime(k, k, budget=budget, cache=cache)
    if tower.truncated:
        raise BudgetExceededError(
            f"p_{k}^({k}) exceeds budget {budget}; "
            f"deepest completed level: {tower.depth}",
            deepest_level=tower.depth,
        )
    return tower.values[-1]


def ratio_to_diagonal(n, k_max, budget=DEFAULT_BUDGET, prec=DEFAULT_PREC, cache=None):
    """Rows (k, p_n^(k), p_k^(k), p_n^(k) / p_k^(k)) for each feasible k <= k_max.

    Stops at the first k where either side exceeds the budget; an
    infeasible base tower (p_n itself above budget) propagates.
    """
    n, k_max = int(n), int(k_max)
    if n < 1 or k_max < 1:
        raise DomainError("ratio table requires n >= 1 and k_max >= 1")
    tower = iterate_prime(n, k_max, budget=budget, cache=cache)
    out = []
    for k, numerator in enumerate(tower.values, start=1):
        try:
            denominator = diag_prime(k, budget=budget, cache=cache)
        except BudgetExceededError:
            break
        with mp.workdps(prec):
            out.append((k, numerator, denominator, mpf(numerator) / denominator))
    return out
