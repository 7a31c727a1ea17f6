"""Exact counting functions for the diagonal and tower sequences.

p_m <= y exactly when m <= pi(y), so p_n^(k) <= x exactly when n <= pi^k(x):
count_tower(n, x) is the number of k with pi^k(x) >= n, and count_diag(x)
the largest k with pi^k(x) >= k.  Both read these off one chain of brackets
lo_j <= pi^j(x) <= hi_j, as pi does not decrease: ends map to the next ends
by exact pi or Dusart's bounds on pi.  A base with a level the chain leaves
open, lo_k < n <= hi_k, brackets its levels by his bounds on p_m, and a level
neither decides runs the exact ``iterated.towers`` walk of that one base,
which stores its levels; only that walk needs x within the budget.
"""

from itertools import count

from mpmath import mp

from .engine import base_primes_upto, prime_counts
from .errors import BudgetExceededError, DomainError, UnsupportedRangeError
from .hpreal import DEFAULT_PREC, _START_BITS, _ln
from .iterated import DEFAULT_BUDGET, EXACT_LIMIT, _dusart, towers

# Chain ends below 2^24 take exact pi, sieved by the primes below 2^12.
_EXACT_PI = 1 << 24


def _pi_bound(y, ln, upper):
    """Dusart's y/L (1 + 1/L + 2/L^2) <= pi(y) (y >= 88789), or with upper pi(y) <= y/L
    (1 + 1/L + 2.51/L^2) (y >= 355991), L = ln y (arXiv:1002.0442), rounded outward to
    an integer.  Both decrease in L, which ln = (l, h) puts in [l, h] 2^-bits: the
    lower bound takes h, the upper l."""
    one, l = 1 << _START_BITS, ln[not upper]
    num = y * one * (100 * l * l + 100 * one * l + (251 if upper else 200) * one * one)
    return -(-num // (100 * l**3)) if upper else num // (100 * l**3)


def _chain(x):
    """[(lo_j, hi_j) for j = 0, 1, ...], lo_j <= pi^j(x) <= hi_j, up to the first hi_j = 0.
    The ends below _EXACT_PI take exact pi in one sieve, the others their Dusart bound."""
    if x < 1:
        raise DomainError("count_diag requires x >= 1")
    chain = [(x, x)]
    while (ends := chain[-1])[1] > 0:
        exact = iter(prime_counts([y for y in ends if y < _EXACT_PI]))
        ln = {y: _ln(y, _START_BITS) for y in ends if y >= _EXACT_PI}  # one log per distinct end
        chain.append(tuple(next(exact) if y < _EXACT_PI else _pi_bound(y, ln[y], upper)
                           for y, upper in zip(ends, (False, True))))
    return chain


def _levels(n, cache):
    """Yield (a, b) with a <= p_n^(i) <= b for i = 0, 1, ..., without end: exact while the
    cache holds the level or its index is exact and tabled, and past that Dusart's
    bounds on p_m, both increasing, at the ends of its index's bracket."""
    table = base_primes_upto(1 << 19)  # p_m for m <= 43390; his upper bound needs m >= 39017
    a = b = n
    for level in count(1):
        yield a, b
        value = cache.get(n, level) if cache is not None else None
        if value is None and b <= len(table):
            value = int(table[b - 1])
        a, b = (value, value) if value is not None else (_dusart(a), _dusart(b, upper=True))


def _walk(n, levels, x, chain, budget, cache):
    """Number of the levels p_n^(1..levels) that are <= x, for a base with a level the
    chain leaves open.  Each level is decided by the chain or by its own bracket
    [a, b] from ``_levels``, and the first that neither decides runs the exact walk."""
    for i, (a, b) in enumerate(_levels(n, cache)):
        lo, hi = chain[i]
        if n <= lo or b <= x:  # p_n^(i) <= x; at i = 0, n <= x
            if i == levels:
                return i
        elif n > hi or a > x:  # the chain ends at hi = 0, below n
            return i - 1
        elif a >= EXACT_LIMIT:  # towers would reach it and fail there
            raise UnsupportedRangeError(f"x={x} lies in [{a}, {b}], the bracket of "
                                        f"p_{n}^({i}), whose exact value is past 2^48")
        elif x > budget:  # the walk would compute primes up to x
            raise BudgetExceededError(f"x={x} above budget {budget}: "
                                      "bracketing element not computable")
        else:
            return len(towers([n], levels, x, cache)[n])


def _count_diag(x, chain, budget, cache):
    k = 1  # the chain ends at hi = 0, below every k
    while chain[k][0] >= k or chain[k][1] >= k and _walk(k, k, x, chain, budget, cache) == k:
        k += 1
    return k - 1


def _count_tower(n, x, budget, cache, chain=None):
    if n < 1 or x < 1:
        raise DomainError("count_tower requires n >= 1 and x >= 1")
    chain = chain or _chain(x)
    k = next(k for k in count(1) if chain[k][0] < n)
    return k - 1 if chain[k][1] < n else _walk(n, x, x, chain, budget, cache)  # p_n^(k) > k


def count_diag(x, budget=DEFAULT_BUDGET, cache=None):
    """Number of k with p_k^(k) <= x."""
    x = int(x)
    return _count_diag(x, _chain(x), budget, cache)


def count_tower(n, x, budget=DEFAULT_BUDGET, cache=None):
    """Number of k with p_n^(k) <= x."""
    return _count_tower(int(n), int(x), budget, cache)


def comparator(x, prec=DEFAULT_PREC):
    """log x / log log x, the common asymptotic target of both counts."""
    x = int(x)
    if x < 16:
        raise DomainError("comparator requires x >= 16 (safely above e^e)")
    with mp.workdps(prec):
        lx = mp.log(x)
        return +(lx / mp.log(lx))


def ratio_series(xs, ns, budget=DEFAULT_BUDGET, prec=DEFAULT_PREC, cache=None):
    """Rows (x, diag_count, n, tower_count, comparator); tabulates only.

    One row per x and distinct n, in ascending n, or per x with n and
    tower_count None when ns is empty; comparator is None when x < 16.
    Every count of an x reads one chain.  Tower counts run in the order ns
    is given, which orders the cache file.
    """
    xs = [int(x) for x in xs]
    ns = [int(n) for n in ns]
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise DomainError("xs must be sorted ascending")
    rows = []
    for x in xs:
        chain = _chain(x)
        diag = _count_diag(x, chain, budget, cache)
        towers = {n: _count_tower(n, x, budget, cache, chain) for n in ns}
        comp = comparator(x, prec=prec) if x >= 16 else None
        for n in sorted(towers) or [None]:
            rows.append((x, diag, n, towers.get(n), comp))
    return rows
