"""Prime generation, testing, counting and nth-prime lookup.

All results are exact.  prime_counts (x < 2^48) sieves the distinct values
of x // d by the primes up to x^(1/3), then subtracts Meissel's P2 sum over
the primes in (x^(1/3), sqrt x]: one sieve per block of x within a factor 3,
a column each.  The sieve takes 2..13 at once, from a count table of the
residues modulo 30030; each later prime p updates only the counts at the d
with no prime factor below p, the only ones a later stage reads, and past p
= x^(1/4) only d = 1 reads another d's count.  x < 13^3 is read from the
prime table.  One x takes about 0.005 s at 2*10^9, 0.012 s at 10^10, 0.05 s
at 10^11, 0.22 s at 10^12 and 1.1 s at 10^13; the 122 x in [2e6, 1.2e8] of
verify all --n-max 100 --k-max 6 take 16-22 ms in blocks, 90-110 ms one by one
(2-core x86-64 Xeon, Python 3.11, numpy 2.4).  The one prime table only
grows, in windows of 2^20 odd integers, to the power of two at or above the
limit asked for: 30-45 ms up to 2^24.  sieve_segment strikes a prime by one
slice while the window holds at least _STRIKES of its multiples, and the
larger ones at once, a running sum of steps: 0.05-0.08 ms for 2^10 odd integers
at 10^6, 0.4-0.7 ms for a first walk window at 10^10.  nth_primes reads the
n the table holds, grows it where its lookups are dense (see nth_primes),
and starts every other n at x = R^-1(n), the inverse of Riemann's R; one
prime_counts call counts pi at these x, and windows are sieved from each x
to its prime: the first spans the power of two at or above sqrt(x), at most
2^16, as R^-1(n) lands within 0.6 sqrt(x) of p_n, and each further one
doubles.  R only picks where to start, so the answer is as exact as the count.
"""

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from mpmath import fp

from .errors import BudgetExceededError, DomainError, UnsupportedRangeError

# Most odd integers one sieve segment tracks, at one byte of flags each.
_SEGMENT_ODDS = 1 << 26
# No caller grows the prime table past _TABLE_LIMIT; it supplies the sieving
# primes of sieve_segment, which therefore needs isqrt(hi) < _TABLE_LIMIT.
_TABLE_LIMIT = 1 << 24
_TABLE_PRIMES = 1077871  # pi(2^24), the primes nth_prime looks up
_TABLE_ODDS = 1 << 20  # odd integers per window of a prime table: 1 MB of flags
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)  # prime_count takes them in closed form
_WHEEL = 30030  # their product
# sieve_segment strikes a prime by one slice while the window holds at least
# this many of its odd multiples; the larger primes strike together.
_STRIKES = 32
# prime_counts sieves blocks of at most _SPAN columns times isqrt(max x): its
# matrices then hold about 0.19 _SPAN entries, 1.6 MB of int64 each.  A
# block's x lie within _SPREAD times its smallest, as isqrt(max x) sets the
# rows that every column pays for.
_SPAN, _SPREAD = 1 << 20, 3
# Most integers in the first sieve window of the nth_prime walk.
_WINDOW = 1 << 16
# Two Newton steps from n log n land within 0.02 sqrt(x) of R^-1(n) for
# n up to 10^15; the seed only sets where the sieve walk starts.
_NEWTON_STEPS = 2

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (limit, the primes up to it): the one prime table, replaced as it grows;
# and the lookups nth_primes has counted, not read, since it last grew it
_TABLE, _RENTED = (2, np.array([2], dtype=np.int64)), 0


def _prime_table(limit):
    """All primes up to the table's limit, grown first if it ends below limit:
    to the power of two at or above limit (at least 2^8), by windows of at most
    _TABLE_ODDS odd integers past its end, each sieved by sieve_segment with
    the primes found so far.  Each growth copies the table into one buffer
    sized for the new limit, and the new primes go into it in place."""
    global _TABLE
    top, table = _TABLE
    if top >= limit:
        return table
    limit = 1 << max(limit - 1, 255).bit_length()
    count = len(table)
    # pi(2^b) < 2^(b+1) / b, as pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld, 1962)
    buf = np.empty(2 * limit // (limit.bit_length() - 1), dtype=np.int64)
    buf[:count] = table
    while top < limit:
        hi = min(top + 2 * _TABLE_ODDS, top * top, limit)
        seg = sieve_segment(top + 1, hi, sieving=buf[:count])
        found = np.flatnonzero(seg.flags)
        buf[count : count + len(found)] = seg.first_odd + 2 * found
        count, top = count + len(found), hi
    table = buf[:count]
    table.flags.writeable = False  # shared by every caller, as are its slices
    _TABLE = (limit, table)
    return table


def base_primes_upto(limit):
    """Ascending primes covering [2, limit], for limit < _TABLE_LIMIT: a slice
    of the prime table, grown first if it ends below limit."""
    if limit >= _TABLE_LIMIT:
        raise UnsupportedRangeError(
            f"sieving primes are tabled below 2^24 (ranges below 2^48), asked for {limit}"
        )
    table = _prime_table(limit)
    return table[: np.searchsorted(table, limit, side="right")]


@dataclass
class SegmentTable:
    """Primality flags for the odd integers of a closed range [lo, hi].

    The prime 2, when the range holds it, has no flag.
    """

    lo: int
    hi: int
    first_odd: int
    flags: np.ndarray  # flags[i] <-> first_odd + 2*i is prime


def sieve_segment(lo, hi, *, sieving=None):
    """Sieve the closed range [lo, hi], 2 <= lo <= hi < 2^48.

    flags exactly mark the primes.  It sieves by sieving, the ascending primes
    from 2 up to at least isqrt(hi), when given, else by the prime table, above
    whose ceiling it raises UnsupportedRangeError.  Past _SEGMENT_ODDS odd
    integers it raises BudgetExceededError, and both before any allocation.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise DomainError(f"lo={lo} > hi={hi}")
    if lo < 2:
        raise DomainError(f"lo={lo} < 2")
    first_odd = lo if lo % 2 else lo + 1
    n_odd = max(0, (hi - first_odd) // 2 + 1)
    if n_odd > _SEGMENT_ODDS:
        raise BudgetExceededError(
            f"segment holds {n_odd} odd integers, the limit is {_SEGMENT_ODDS}"
        )
    if sieving is None:
        sieving = base_primes_upto(math.isqrt(hi))  # raises at hi >= 2^48
    p = sieving[1 : sieving.searchsorted(math.isqrt(hi), side="right")]
    flags = np.ones(n_odd, dtype=bool)
    # first odd multiple of each p that is >= max(p*p, lo), in int64 (which
    # hi < 2^48 keeps from overflowing); starting at p*p keeps an odd prime
    # <= isqrt(hi) inside the segment unstruck
    start = np.maximum(p * p, (lo + p - 1) // p * p)
    start += p * (start % 2 == 0)
    keep = start <= hi
    at, p = (start[keep] - first_odd) // 2, p[keep]
    # a slice per prime while p strikes at least _STRIKES flags; the larger
    # primes strike together, in passes of at most max(len(p), _WINDOW)
    # multiples: a running sum of steps of p, where each prime's first step
    # jumps from the last multiple of the prime before it
    cut = int(p.searchsorted(n_odd // _STRIKES, side="right"))
    for i, step in zip(at[:cut].tolist(), p[:cut].tolist()):
        flags[i::step] = False
    at, p = at[cut:], p[cut:]
    many = (n_odd - 1 - at) // p + 1  # multiples of each p in the window
    ends, jump = np.cumsum(many), at - np.concatenate(([0], (at + (many - 1) * p)[:-1]))
    i, room = 0, max(len(p), _WINDOW)
    while i < len(p):
        done = int(ends[i] - many[i])  # multiples struck before p[i]
        j = int(ends.searchsorted(done + room, side="right"))
        steps = np.repeat(p[i:j], many[i:j])
        steps[ends[i:j] - many[i:j] - done] = jump[i:j]
        flags[np.cumsum(steps) + (at[i] - jump[i])] = False  # from p[i - 1]'s last, or 0
        i = j
    return SegmentTable(lo=lo, hi=hi, first_odd=first_odd, flags=flags)


def is_prime(n):
    """Deterministic primality for 0 <= n < 2^64."""
    n = int(n)
    if n < 0:
        raise DomainError("primality is defined for non-negative integers")
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
    """Exact number of primes <= x, for 0 <= x < 2^48, by Meissel's split."""
    return prime_counts([x])[0]


def prime_counts(xs):
    """Exact pi(x) for each x of xs (0 <= x < 2^48), in the order given.

    The distinct x >= 13^3 (the wheel's primes must lie below x^(1/3); the
    table answers the others) go through _sieve_rough in ascending blocks of
    at most _SPAN columns times isqrt(max x), a block of one on 1-D arrays.
    Past the ceiling base_primes_upto raises before anything is allocated.
    """
    xs = [int(x) for x in xs]
    if any(x < 0 for x in xs):
        raise DomainError("prime_count requires x >= 0")
    seeds = sorted(set(xs))
    if seeds:
        base_primes_upto(math.isqrt(seeds[-1]))  # raises at x >= 2^48
    counts = {x: len(base_primes_upto(x)) for x in seeds if x < _WHEEL_PRIMES[-1] ** 3}
    seeds = seeds[len(counts) :]
    while seeds:
        over = (j for j in range(1, len(seeds)) if (j + 1) * math.isqrt(seeds[j]) > _SPAN)
        top = min(next(over, len(seeds)), bisect_right(seeds, _SPREAD * seeds[0]))
        counts.update(zip(seeds[:top], _count_block(seeds[:top])))
        seeds = seeds[top:]
    return [counts[x] for x in xs]


def _count_block(xs):
    """pi(x) for the ascending x >= 13^3 of xs, as a list."""
    v = math.isqrt(xs[-1])
    primes = base_primes_upto(v)
    a = int(np.searchsorted(primes, _icbrt(xs[-1]), side="right"))  # p^3 <= max x
    # cs holds S(x // d) for d = 1 and each prime q > p_a, where p_(a+1)^3
    # exceeds every x: no prime past p_a steps on them, so pi(x) = phi(x, a)
    # + a - 1 - P2(x, a), whose P2 terms pi(x // q) - i_q, with i_q primes
    # below q, run over the q <= isqrt(x) of each column
    x = np.array(xs, dtype=np.int64) if len(xs) > 1 else xs[0]
    ds, cs = _sieve_rough(x, v, primes[:a])
    ps = primes[a:]
    terms = (cs[ds.searchsorted(ps)].T - np.arange(a, len(primes))).T
    terms *= np.less_equal.outer(ps * ps, x) if len(xs) > 1 else 1
    return np.atleast_1d(cs[0] - np.sum(terms, axis=0)).tolist()


# Lucy's recurrence, run by the primes p <= x^(1/3) in turn.  After the
# stage of p, with sp primes below p, S(y) counts the integers in [2, y]
# that no prime <= p divides, plus those primes; the stage of p is
# S(y) -= S(y // p) - sp for every y >= p^2, all reads seeing the old values.
# The stages of 2..13 are taken at once: with below[r] the number of the
# 5760 residues coprime to _WHEEL in [1, r], S(y) = (y // _WHEEL) * 5760 +
# below[y % _WHEEL] + 5 for y >= 13 (the six primes, less the integer 1).


@functools.cache
def _wheel():
    """(residues, below): the residues coprime to _WHEEL, and below[r] the
    number of them in [1, r]; built once, on first use."""
    coprime = np.ones(_WHEEL, dtype=bool)
    for p in _WHEEL_PRIMES:
        coprime[::p] = False
    residues, below = np.flatnonzero(coprime), np.cumsum(coprime, dtype=np.int32)
    residues.flags.writeable = below.flags.writeable = False
    return residues, below


def _spare(drop, ys, lo, t, p):
    """drop, of the rows from lo on, zeroed from row t on where ys < p^2, as the
    stage of p leaves S(y) alone there: only in a batch, past its smallest x."""
    if t < lo + len(drop):
        t = max(t, lo)
        drop[t - lo :] *= ys[t : lo + len(drop)] >= p * p
    return drop


def _sieve_rough(x, v, primes):
    """The d <= v = isqrt(max x) free of 2..13, as a set, and S(x // d) at each:
    a row per d and, when x is a 1-D array, not one integer, a column per x.

    primes are the primes up to (max x)^(1/3), 13^3 <= x.  A count of d = 1
    or of a prime q > x^(1/3) needs, at the stage of p, only the counts at
    the rough d, those with no prime factor below p, each of which reads the
    count at p*d while p*d <= v and smalls[x // (p*d)] = S(x // (p*d)) past
    it.  So the stages run over a set of d, with x // d and counts beside.
    An entry is updated while x // d >= p^2, as for one x every entry is
    while p^2 <= v, and the multiples of p leave the set once those pending
    make up an eighth of it; until then their counts go wrong unread.  Past
    it, a d > 1 in the set has only prime factors above isqrt(v), so p*d > v:
    the stage reads the count at p for d = 1 and smalls for the other d.
    """
    residues, below = _wheel()
    n, per = v // _WHEEL + 1, len(residues)  # n blocks of _WHEEL cover [0, v]
    # int32 holds S(m) <= v < 2^24 and halves the traffic of the smalls stages
    smalls = (below + (np.arange(n, dtype=np.int32) * per + 5)[:, None]).ravel()[: v + 1]
    ds = (residues + np.arange(n)[:, None] * _WHEEL).ravel()
    ds = ds[: ds.searchsorted(v, side="right")]
    ys = x // (ds[:, None] if np.ndim(x) else ds)
    q = ys // _WHEEL
    cs = q * per + below[ys - q * _WHEEL] + 5
    least, most = (int(x.min()), int(x.max())) if np.ndim(x) else (x, x)
    late = max(len(_WHEEL_PRIMES), int(primes.searchsorted(math.isqrt(v), side="right")))
    gone, pending = np.zeros(len(ds), dtype=bool), 0
    for sp, p in enumerate(primes[len(_WHEEL_PRIMES) : late].tolist(), start=len(_WHEEL_PRIMES)):
        # the multiples of p in the set are p*m for the m in it up to v // p
        k = int(ds.searchsorted(v // p, side="right"))
        at = ds.searchsorted(ds[:k] * p)
        read = cs[at]  # read[i]: the count at p * ds[i], before this stage
        gone[at] = True
        pending += k
        if 8 * pending > len(ds) or sp == late - 1:
            keep = ~gone
            ds, ys, cs = ds[keep], ys[keep], cs[keep]
            read = read[keep[:k]]
            k = len(read)
            gone, pending = np.zeros(len(ds), dtype=bool), 0
        t = int(ds.searchsorted(least // (p * p), side="right")) if least < most else len(ds)
        cs[:k] -= _spare(read - sp, ys, 0, t, p)
        cs[k:] -= _spare(smalls[ys[k:] // p] - sp, ys, k, t, p)
        # the stage on smalls: S(m) -= S(m // p) - sp for p^2 <= m <= v
        n = (v + 1 - p * p) // p  # whole runs of p equal quotients m // p
        drop = smalls[p : p + n + 1] - sp
        runs = smalls[p * p : p * p + p * n].reshape(n, p)  # a view into smalls
        runs -= drop[:n, None]
        smalls[p * p + p * n :] -= drop[n]
    ps = primes[late:]
    starts, tops = (ds.searchsorted(y // (ps * ps), side="right").tolist() for y in (least, most))
    at = ds.searchsorted(ps).tolist()
    for sp, p, s, t, i in zip(range(late, len(primes)), ps.tolist(), starts, tops, at):
        cs[0] -= cs[i] - sp if s else (cs[i] - sp) * (x >= p * p)
        cs[1:t] -= _spare(smalls[ys[1:t] // p] - sp, ys, 1, s, p)
    return ds, cs


def _icbrt(x):
    """floor(x^(1/3)) for any integer x >= 0: Newton steps down from 2^ceil(bits/3)."""
    r = 1 << -(-x.bit_length() // 3)
    while r and (s := (2 * r + x // (r * r)) // 3) < r:  # r = 0 only for x = 0
        r = s
    return r


@functools.cache
def _zeta_table():
    """zeta(2), ..., zeta(65) as floats; past them zeta rounds to 1.0."""
    return tuple(fp.zeta(s) for s in range(2, 66))


def _riemann_r(x):
    """R(x) = 1 + sum (log x)^k / (k k! zeta(k+1)) by Gram's series, x > 1 (or an array).

    The terms are positive, so floats carry the sum to a few ulps.  They rise
    until k ~ log x, then fall below an ulp of the sum by k = 3 log x + 20.
    """
    lnx = np.asarray(np.log(x))
    k = np.arange(1, int(3 * lnx.max()) + 21)
    zetas = np.r_[_zeta_table(), np.ones(len(k))][: len(k)]  # zeta rounds to 1.0 past 65
    powers = np.cumprod(lnx[..., None] / k, axis=-1)  # (log x)^k / k!
    return 1 + np.sum(powers / (k * zetas), axis=-1)


def _r_inverse(ns):
    """[x with R(x) ~= n for n in ns]: Newton steps on Riemann's R from n log n."""
    n = np.array(ns, dtype=float)
    x = n * np.log(n)
    for _ in range(_NEWTON_STEPS):
        x -= (_riemann_r(x) - n) * np.log(x)  # R'(x) ~ 1 / log x
    return x.astype(np.int64).tolist()


def nth_prime(n):
    """The nth prime (1-based): p_1 = 2, p_25 = 97."""
    return nth_primes([n])[0]


def nth_primes(ns):
    """The nth prime (1-based) for each n of ns, in the order given."""
    global _RENTED
    ns = [int(n) for n in ns]
    if any(n < 1 for n in ns):
        raise DomainError("nth_prime requires n >= 1")
    if max(ns, default=0) >= _TABLE_LIMIT**2:  # then p_n > n is past every sieve
        raise UnsupportedRangeError("nth_prime requires n < 2^48, as p_n > n must stay below it")
    top, table = _TABLE
    # Rent or buy: growing the table from top to L sieves about L - top
    # integers, and counting a lookup costs about _WINDOW of them.  A lookup
    # n <= pi(2^24) past the table is placed at Dusart's lower bound n (ln n
    # + ln ln n - 1) <= p_n; the table grows to the L that gains the most, if
    # any gains, and the lookups counted since it last grew add to every L.
    if near := [n for n in ns if len(table) < n <= _TABLE_PRIMES]:
        near = np.array(sorted(set(near)), dtype=float)
        at = np.maximum(near * (np.log(near) + np.log(np.log(near)) - 1), top + 1)
        gains = (_RENTED + np.arange(1, len(at) + 1)) * _WINDOW - (at - top)
        if gains.max() > 0:
            table, _RENTED = _prime_table(int(at[gains.argmax()])), 0
    far = list(dict.fromkeys(n for n in ns if n > len(table)))
    if not far:
        return [int(table[n - 1]) for n in ns]
    _RENTED += sum(n <= _TABLE_PRIMES for n in far)
    # R only picks where to start; the exact count and the sieve decide.
    # If c < n, p_n is the (n - c)th prime above x, else the (c - n + 1)th
    # prime counting down from x.  x >= 2 keeps the prime 2, which the
    # odd-only windows omit, out of the walk.
    xs, primes = [max(x, 2) for x in _r_inverse(far)], {}
    for n, x, c in zip(far, xs, prime_counts(xs)):
        up = c < n
        need = n - c if up else c - n + 1
        # R^-1(n) lands within sqrt(x) of p_n: one window that wide mostly suffices
        width = min(_WINDOW, 1 << (math.isqrt(x) - 1).bit_length())
        while True:
            lo, hi = (x + 1, x + width) if up else (max(x - width + 1, 2), x)
            seg = sieve_segment(lo, hi)
            found = np.flatnonzero(seg.flags)
            if need <= len(found):
                primes[n] = seg.first_odd + 2 * int(found[need - 1 if up else -need])
                break
            need -= len(found)
            x = hi if up else lo - 1
            width *= 2
    return [int(table[n - 1]) if n <= len(table) else primes[n] for n in ns]
