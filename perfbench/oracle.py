"""Reference answers for the benchmark's output checks.

Nothing here imports primeth or shares its code: a plain numpy sieve, a
segmented count started at anchors where pi(A) is known, and sympy.
"""

import math

import numpy as np
import sympy

# pi(A) at the anchors the point workload draws its queries near.  Values
# from sympy.primepi; the powers of ten are also in OEIS A006880.  Counting
# from an anchor keeps a reference for x ~ 1e11 to a sieve of a few 1e7
# integers, where sympy.primepi(1e11) alone takes several seconds.
PI_ANCHORS = {
    1: 0,
    10**7: 664579,
    2 * 10**7: 1270607,
    10**8: 5761455,
    2 * 10**9: 98222287,
    10**10: 455052511,
    4 * 10**10: 1711955433,
    10**11: 4118054813,
}

SEGMENT_ODDS = 1 << 22


def sieve_primes(limit):
    """Ascending array of all primes <= limit (odd-only plain sieve)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    odd = np.ones((limit - 1) // 2 + 1, dtype=bool)  # odd[i] <-> 2i+1
    odd[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 1)).astype(np.int64)


def primes_between(lo, hi):
    """Ascending array of the primes p with lo < p <= hi, sieved in segments."""
    parts = [np.array([2], dtype=np.int64)] if lo < 2 <= hi else []
    base = sieve_primes(math.isqrt(hi))[1:].tolist()
    start = lo + 1 if lo % 2 == 0 else lo + 2  # first odd number above lo
    while start <= hi:
        count = min(SEGMENT_ODDS, (hi - start) // 2 + 1)
        end = start + 2 * (count - 1)
        odd = np.ones(count, dtype=bool)  # odd[i] <-> start + 2i
        if start == 1:
            odd[0] = False
        for p in base:
            if p * p > end:
                break
            m = max(p * p, -(-start // p) * p)
            if m % 2 == 0:
                m += p
            odd[(m - start) // 2 :: p] = False
        parts.append(start + 2 * np.nonzero(odd)[0].astype(np.int64))
        start = end + 2
    if not parts:
        return np.array([], dtype=np.int64)
    return np.concatenate(parts)


def prime_pi(x):
    """Number of primes <= x, counted up from the nearest anchor below x."""
    anchor = max(a for a in PI_ANCHORS if a <= x)
    return PI_ANCHORS[anchor] + len(primes_between(anchor, x))


def nth_prime(n):
    """The nth prime, found by sieving forward from the nearest anchor below it."""
    anchor = max(a for a, count in PI_ANCHORS.items() if count < n)
    need = n - PI_ANCHORS[anchor]
    width = int(need * math.log(max(anchor, 3)) * 1.3) + 1000
    while True:
        found = primes_between(anchor, anchor + width)
        if len(found) >= need:
            return int(found[need - 1])
        width *= 2


def _upper_nth(m):
    """An integer above p_m: m (log m + log log m) bounds p_m for m >= 6."""
    if m < 6:
        return 13
    return int(m * (math.log(m) + math.log(math.log(m)))) + 1


def towers(n_max, k_max):
    """{n: [p_n^(1), ..., p_n^(k_max)]} for n = 1..n_max, by indexing one sieve."""
    values = {n: [] for n in range(1, n_max + 1)}
    idx = list(values)
    for _ in range(k_max):
        primes = sieve_primes(_upper_nth(max(idx)))
        idx = [int(primes[i - 1]) for i in idx]
        for n, v in zip(values, idx):
            values[n].append(v)
    return values


def count_diag(x):
    """Number of k with p_k^(k) <= x.

    The diagonal is increasing, so the count ends at the first k whose tower
    passes x.  A level is known to pass x without computing it once
    idx log idx > x, since p_idx > idx log idx (Rosser, 1938).
    """
    k = 0
    while True:
        k += 1
        idx = k
        for _ in range(k):
            if idx > 1 and idx * math.log(idx) > x:
                return k - 1
            idx = int(sympy.prime(idx))
            if idx > x:
                return k - 1
