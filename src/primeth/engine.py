"""Prime generation, testing, counting and nth-prime lookup.

All results are exact.  prime_count (x < 2^48) sieves the distinct values
of x // d by the primes up to x^(1/3), then subtracts Meissel's P2 sum over
the primes in (x^(1/3), sqrt x]: about 0.04 s at 10^10, 0.2 s at 10^11 and
1.7 s at 10^12 (2-core x86-64 Xeon, Python 3.11, numpy 2.4).
nth_prime indexes a fixed table of the primes up to 2^24 when it can.
Past the table it starts at x = R^-1(n), the inverse of Riemann's R
function, counts pi(x) exactly once, and sieves windows forward or
backward from x until it reaches the nth prime.  R only picks where to
start, so the answer is as exact as prime_count and the sieve.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, zeta

from .errors import (
    InvalidRangeError,
    SegmentTooLargeError,
    UnsupportedRangeError,
)

# Segment budget counts tracked odd integers (one bit each).
DEFAULT_SEGMENT_BITS = 1 << 26
# The prime table covers [2, _TABLE_LIMIT]; it also supplies the sieving
# primes of sieve_segment, which therefore needs isqrt(hi) < _TABLE_LIMIT.
_TABLE_LIMIT = 1 << 24
# First sieve window of the nth_prime walk; each further window doubles.
_WINDOW = 1 << 16
# Two Newton steps from n log n land within 0.02 sqrt(x) of R^-1(n) for
# n up to 10^15; the seed only sets where the sieve walk starts.
_NEWTON_STEPS = 2

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.cache
def _prime_table():
    """All primes <= _TABLE_LIMIT, by an odd-only sieve built on first use."""
    flags = np.ones(_TABLE_LIMIT // 2, dtype=bool)  # flags[i] <-> 2i + 1
    flags[0] = False
    for i in range(1, math.isqrt(_TABLE_LIMIT) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    table = np.concatenate(([2], 2 * np.flatnonzero(flags) + 1)).astype(np.int64)
    table.flags.writeable = False  # shared by every caller, as are its slices
    return table


def base_primes_upto(limit):
    """Ascending primes covering [2, limit], for limit < _TABLE_LIMIT."""
    if limit >= _TABLE_LIMIT:
        raise SegmentTooLargeError(
            f"sieving primes are tabled below {_TABLE_LIMIT}, asked for {limit}"
        )
    table = _prime_table()
    return table[: np.searchsorted(table, limit, side="right")]


@dataclass
class SegmentTable:
    """Primality flags for the odd integers of a closed range [lo, hi]."""

    lo: int
    hi: int
    first_odd: int
    flags: np.ndarray  # flags[i] <-> first_odd + 2*i is prime

    def primes(self):
        """Yield the primes of [lo, hi] in ascending order."""
        if self.lo <= 2 <= self.hi:
            yield 2
        for i in np.nonzero(self.flags)[0]:
            yield int(self.first_odd + 2 * i)

    def count(self):
        extra = 1 if self.lo <= 2 <= self.hi else 0
        return extra + int(np.count_nonzero(self.flags))

    def __contains__(self, m):
        if m < self.lo or m > self.hi:
            return False
        if m == 2:
            return True
        if m % 2 == 0:
            return False
        return bool(self.flags[(m - self.first_odd) // 2])


def sieve_segment(lo, hi, budget_bits=DEFAULT_SEGMENT_BITS):
    """Sieve the closed range [lo, hi], 2 <= lo <= hi < 2^48.

    flags exactly mark the primes.  The ceiling comes from the prime table,
    which holds the sieving primes up to isqrt(hi); above it the call raises
    SegmentTooLargeError, as it does past budget_bits odd integers.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise InvalidRangeError(f"lo={lo} > hi={hi}")
    if lo < 2:
        raise InvalidRangeError(f"lo={lo} < 2")
    first_odd = lo if lo % 2 else lo + 1
    n_odd = max(0, (hi - first_odd) // 2 + 1)
    if n_odd > budget_bits:
        raise SegmentTooLargeError(
            f"segment holds {n_odd} odd integers, budget is {budget_bits}"
        )
    p = base_primes_upto(math.isqrt(hi))[1:]  # raises at hi >= 2^48
    flags = np.ones(n_odd, dtype=bool)
    # first odd multiple of each p that is >= max(p*p, lo), in int64 (which
    # hi < 2^48 keeps from overflowing); starting at p*p keeps an odd prime
    # <= isqrt(hi) inside the segment unstruck
    start = np.maximum(p * p, (lo + p - 1) // p * p)
    start += p * (start % 2 == 0)
    keep = start <= hi
    for i, step in zip(((start[keep] - first_odd) // 2).tolist(), p[keep].tolist()):
        flags[i::step] = False
    return SegmentTable(lo=lo, hi=hi, first_odd=first_odd, flags=flags)


def is_prime(n):
    """Deterministic primality for 0 <= n < 2^64."""
    n = int(n)
    if n < 0:
        raise InvalidRangeError("primality is defined for non-negative integers")
    if n >= 1 << 64:
        raise UnsupportedRangeError(
            "deterministic witness set only covers n < 2^64"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_count(x):
    """Exact number of primes <= x, for 0 <= x < 2^48, by Meissel's split.

    The ceiling keeps isqrt(x) inside the prime table; above it the call
    raises UnsupportedRangeError before it allocates anything.
    """
    x = int(x)
    if x < 0:
        raise InvalidRangeError("prime_count requires x >= 0")
    if x >= _TABLE_LIMIT * _TABLE_LIMIT:
        raise UnsupportedRangeError("prime_count limited to x < 2^48")
    if x < 2:
        return 0
    v = math.isqrt(x)
    # after sieving by the primes below p, smalls[m] (m <= v) and larges[i]
    # count the integers in [2, m] and [2, x // (i+1)] that none divides
    hi = x // np.arange(1, v + 1, dtype=np.int64)  # hi[i] = x // (i+1)
    smalls = np.arange(-1, v, dtype=np.int64)
    larges = hi - 1
    primes = base_primes_upto(v)
    a = int(np.searchsorted(primes, _icbrt(x), side="right"))  # p^3 <= x
    for sp, p in enumerate(primes[:a].tolist()):  # sp primes below p
        # the count for x // (p*(i+1)) is larges[p*(i+1) - 1] while
        # p*(i+1) <= v, else smalls[hi[i] // p]; all reads see the old values
        t = min(v, x // (p * p))
        t1 = min(t, v // p)
        larges[:t1] -= larges[p - 1 : p * t1 : p] - sp
        larges[t1:t] -= smalls[hi[t1:t] // p] - sp
        if p * p <= v:  # m // p runs through [p, v // p], p times each
            drop = np.repeat(smalls[p : v // p + 1] - sp, p)
            smalls[p * p :] -= drop[: v + 1 - p * p]
    # pi(x) = phi(x, a) + a - 1 - P2(x, a): no later prime q (q^3 > x) touches
    # larges[q - 1], which already holds pi(x // q), so the step of q would
    # only subtract its P2 term pi(x // q) - i_q, with i_q primes below q
    return int(larges[0] - np.sum(larges[primes[a:] - 1] - np.arange(a, len(primes))))


def _icbrt(x):
    """The integer cube root floor(x^(1/3)), exact for 0 <= x < 2^53."""
    r = round(x ** (1 / 3))
    return r - (r**3 > x)


@functools.cache
def _zeta_table():
    """zeta(2), ..., zeta(65) as floats; past them zeta rounds to 1.0."""
    with mp.workdps(20):
        return tuple(float(zeta(s)) for s in range(2, 66))


def _riemann_r(x):
    """R(x) = 1 + sum (log x)^k / (k k! zeta(k+1)) by Gram's series, x > 1.

    The terms are positive, so floats carry the sum to a few ulps.  They
    rise until k ~ log x, then fall; the sum stops once they are below an ulp.
    """
    zetas, lnx = _zeta_table(), math.log(x)
    r, power, k = 1.0, 1.0, 1
    while r + power > r:
        power *= lnx / k  # (log x)^k / k!
        r += power / (k * (zetas[k - 1] if k <= len(zetas) else 1.0))
        k += 1
    return r


def _r_inverse(n):
    """x with R(x) ~= n: Newton steps on Riemann's R, starting at n log n."""
    x = n * math.log(n)
    for _ in range(_NEWTON_STEPS):
        x -= (_riemann_r(x) - n) * math.log(x)  # R'(x) ~ 1 / log x
    return int(x)


def nth_prime(n):
    """The nth prime (1-based): p_1 = 2, p_25 = 97."""
    n = int(n)
    if n < 1:
        raise InvalidRangeError("nth_prime requires n >= 1")
    table = _prime_table()
    if n <= len(table):
        return int(table[n - 1])
    # R only picks where to start; the exact count and the sieve decide.
    # If c < n, p_n is the (n - c)th prime above x, else the (c - n + 1)th
    # prime counting down from x.  x >= 2 keeps the prime 2, which the
    # odd-only windows omit, out of the walk.
    x = max(_r_inverse(n), 2)
    c = prime_count(x)
    up = c < n
    need = n - c if up else c - n + 1
    width = _WINDOW
    while True:
        lo, hi = (x + 1, x + width) if up else (max(x - width + 1, 2), x)
        seg = sieve_segment(lo, hi)
        found = np.flatnonzero(seg.flags)
        if need <= len(found):
            return seg.first_odd + 2 * int(found[need - 1 if up else -need])
        need -= len(found)
        x = hi if up else lo - 1
        width *= 2
