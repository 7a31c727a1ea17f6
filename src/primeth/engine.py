"""Prime generation, testing, counting and nth-prime lookup.

All results are exact.  prime_count (x < 2^48) sieves the distinct values
of x // d by the primes up to x^(1/3), then subtracts Meissel's P2 sum over
the primes in (x^(1/3), sqrt x].  From isqrt(x) = 2^14 on, the stage of p
updates only the counts at the d with no prime factor below p, the only
ones a later stage reads; below it a slice over every d is faster.  About
0.02 s at 10^10, 0.1 s at 10^11, 0.4 s at 10^12 and 1.6 s at 10^13 (2-core
x86-64 Xeon, Python 3.11, numpy 2.4).  The sieving primes come from a table
of the primes up to the power of two above the largest one needed.
nth_prime indexes the smallest prime table already built that holds n
primes, or else the table of the primes up to 2^24, when n <= pi(2^24).
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

# Most odd integers one sieve segment tracks, at one byte of flags each.
_SEGMENT_ODDS = 1 << 26
# The prime table covers [2, _TABLE_LIMIT]; it also supplies the sieving
# primes of sieve_segment, which therefore needs isqrt(hi) < _TABLE_LIMIT.
_TABLE_LIMIT = 1 << 24
_TABLE_PRIMES = 1077871  # pi(2^24), the primes nth_prime looks up
# prime_count sieves with _sieve_rough from isqrt(x) = _ROUGH_FROM on; below
# it _sieve_dense's fewer numpy calls per stage are faster.
_ROUGH_FROM = 1 << 14
# First sieve window of the nth_prime walk; each further window doubles.
_WINDOW = 1 << 16
# Two Newton steps from n log n land within 0.02 sqrt(x) of R^-1(n) for
# n up to 10^15; the seed only sets where the sieve walk starts.
_NEWTON_STEPS = 2

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TABLES = {}  # limit -> the primes up to it, each built once by _prime_table


def _prime_table(limit):
    """All primes <= limit, a power of two, by an odd-only sieve built on first use."""
    if (table := _TABLES.get(limit)) is not None:
        return table
    flags = np.ones(limit // 2, dtype=bool)  # flags[i] <-> 2i + 1
    flags[0] = False
    for i in range(1, math.isqrt(limit) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    table = np.concatenate(([2], 2 * np.flatnonzero(flags) + 1)).astype(np.int64)
    table.flags.writeable = False  # shared by every caller, as are its slices
    _TABLES[limit] = table
    return table


def base_primes_upto(limit):
    """Ascending primes covering [2, limit], for limit < _TABLE_LIMIT."""
    if limit >= _TABLE_LIMIT:
        raise UnsupportedRangeError(
            f"sieving primes are tabled below 2^24 (ranges below 2^48), asked for {limit}"
        )
    # one table per power of two, so that a small query builds a small one
    table = _prime_table(1 << max(limit, 255).bit_length())
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


def sieve_segment(lo, hi):
    """Sieve the closed range [lo, hi], 2 <= lo <= hi < 2^48.

    flags exactly mark the primes.  The ceiling comes from the prime table,
    which holds the sieving primes up to isqrt(hi); above it the call raises
    UnsupportedRangeError.  Past _SEGMENT_ODDS odd integers it raises
    SegmentTooLargeError.  Both are raised before the flags are allocated.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise InvalidRangeError(f"lo={lo} > hi={hi}")
    if lo < 2:
        raise InvalidRangeError(f"lo={lo} < 2")
    first_odd = lo if lo % 2 else lo + 1
    n_odd = max(0, (hi - first_odd) // 2 + 1)
    if n_odd > _SEGMENT_ODDS:
        raise SegmentTooLargeError(
            f"segment holds {n_odd} odd integers, the limit is {_SEGMENT_ODDS}"
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

    The ceiling keeps isqrt(x) inside the prime table; above it
    base_primes_upto raises UnsupportedRangeError before anything is allocated.
    """
    x = int(x)
    if x < 0:
        raise InvalidRangeError("prime_count requires x >= 0")
    if x < 8:  # no prime has p^3 <= x, and both sieves start past the prime 2
        return len(base_primes_upto(x))
    v = math.isqrt(x)
    primes = base_primes_upto(v)  # raises at x >= 2^48
    a = int(np.searchsorted(primes, _icbrt(x), side="right"))  # p^3 <= x
    sieve = _sieve_dense if v < _ROUGH_FROM else _sieve_rough
    # counts[d] = pi(x // d) for d = 1 and each prime q > x^(1/3) (q^3 > x):
    # no prime past p_a steps on it, so pi(x) = phi(x, a) + a - 1 - P2(x, a)
    # subtracts the P2 terms pi(x // q) - i_q, with i_q primes below q
    counts = sieve(x, v, primes[:a])
    return int(counts[1] - np.sum(counts[primes[a:]] - np.arange(a, len(primes))))


# Lucy's recurrence, run by the primes p <= x^(1/3) in turn.  After the
# stage of p, with sp primes below p, S(y) counts the integers in [2, y]
# that no prime <= p divides, plus those primes; the stage of p is
# S(y) -= S(y // p) - sp for every y >= p^2, all reads seeing the old values.
# smalls[m] holds S(m) for m <= v = isqrt(x); the count of y = x // d is read
# back at index d.  Both sieves take the stage of 2 in closed form,
# S(y) = (y + 1) // 2.


def _sieve_dense(x, v, primes):
    """S(x // d) for every d <= v: one slice op per stage, for small x."""
    smalls = np.arange(1, v + 2, dtype=np.int64) // 2
    hi = x // np.maximum(np.arange(v + 1, dtype=np.int64), 1)  # hi[d] = x // d
    counts = (hi + 1) // 2
    for sp, p in enumerate(primes[1:].tolist(), start=1):
        # x // (p*d) is hi[p*d] while p*d <= v, else smalls[hi[d] // p]
        t = min(v, x // (p * p))
        k = min(t, v // p)
        counts[1 : k + 1] -= counts[p : p * k + 1 : p] - sp
        counts[k + 1 : t + 1] -= smalls[hi[k + 1 : t + 1] // p] - sp
        _sieve_smalls(smalls, v, p, sp)
    return counts


def _sieve_rough(x, v, primes):
    """S(x // d) for d = 1 and the d <= v with no prime factor <= x^(1/3).

    Those counts need, at the stage of p, only the counts at the d with no
    prime factor below p, each of which reads the count at p*d.  So the
    stages run over a compacted set of d, with their x // d and counts side
    by side.  done[d] receives a count once it is final (d > x // p^2) and,
    at the stage of p, the pre-stage counts of the multiples of p, which
    that stage reads.  While p^2 <= v the multiples then leave the set.
    Past that, dropping them would cost more than the later stages save:
    they stay, and their counts go wrong unread, since only other such
    multiples read them.
    """
    # int32 holds S(m) <= v < 2^24 and halves the traffic of the smalls stages
    smalls = np.arange(1, v + 2, dtype=np.int32) // 2
    ds = np.arange(1, v + 1, 2, dtype=np.int64)
    ys = x // ds
    cs = (ys + 1) // 2
    done = np.zeros(v + 1, dtype=np.int64)
    for sp, p in enumerate(primes[1:].tolist(), start=1):
        top = min(v, x // (p * p))
        t = int(ds.searchsorted(top, side="right"))
        done[ds[t:]] = cs[t:]
        ds, ys, cs = ds[:t], ys[:t], cs[:t]
        # the set is every d <= top free of the primes dropped so far, all
        # below p, so its multiples of p are p*m for the m in it up to top // p
        pm = ds[: int(ds.searchsorted(top // p, side="right"))] * p
        at = ds.searchsorted(pm)
        done[pm] = cs[at]
        if p * p <= v:
            keep = np.ones(t, dtype=bool)
            keep[at] = False
            ds, ys, cs = ds[keep], ys[keep], cs[keep]
        k = int(ds.searchsorted(v // p, side="right"))  # p*d <= v
        cs[:k] -= done[ds[:k] * p] - sp
        cs[k:] -= smalls[ys[k:] // p] - sp
        _sieve_smalls(smalls, v, p, sp)
    done[ds] = cs
    return done


def _sieve_smalls(smalls, v, p, sp):
    """The stage of p on smalls: S(m) -= S(m // p) - sp for p^2 <= m <= v."""
    if p * p > v:
        return
    n = (v + 1 - p * p) // p  # whole runs of p equal quotients m // p
    drop = smalls[p : p + n + 1] - sp
    runs = smalls[p * p : p * p + p * n].reshape(n, p)  # a view into smalls
    runs -= drop[:n, None]
    smalls[p * p + p * n :] -= drop[n]


def _icbrt(x):
    """floor(x^(1/3)) for any integer x >= 0: Newton steps down from 2^ceil(bits/3)."""
    r = 1 << -(-x.bit_length() // 3)
    while r and (s := (2 * r + x // (r * r)) // 3) < r:  # r = 0 only for x = 0
        r = s
    return r


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
    if n <= _TABLE_PRIMES:  # the smallest table built that holds n primes, or the 2^24 one
        limit = min((lim for lim, t in _TABLES.items() if len(t) >= n), default=_TABLE_LIMIT)
        return int(_prime_table(limit)[n - 1])
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
