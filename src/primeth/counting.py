"""Exact counting functions for the diagonal and tower sequences.

count_tower(n, x) counts the k with p_n^(k) <= x, and count_diag(x) the k
with p_k^(k) <= x: it advances k while all k levels of base k are <= x.
Both decide each level from its proved bracket ``iterated.brackets``: a
level with hi <= x counts, and one with lo > x ends the count, as every
level above it is larger still.  Only when x lies inside a bracket does the
count run the exact ``iterated.towers`` for that base, which computes the
levels up to one past x and stores them, and only that walk needs x within
the budget.  So most counts compute no prime past a small table, and they
never estimate: the only facts taken on trust are Dusart's two bounds.
"""

from itertools import islice

from mpmath import mp

from .errors import BudgetExceededError, DomainError, UnsupportedRangeError
from .hpreal import DEFAULT_PREC
from .iterated import DEFAULT_BUDGET, EXACT_LIMIT, brackets, towers


def _count_levels(n, x, levels, budget, cache):
    """Number of the levels p_n^(1..levels) that are <= x; levels None: all of them."""
    count = 0
    for lo, hi in islice(brackets(n, cache), levels):
        if lo > x:
            break
        if hi > x:  # only the exact value decides this level
            if lo >= EXACT_LIMIT:  # towers would reach it and fail there
                raise UnsupportedRangeError(
                    f"x={x} lies in [{lo}, {hi}], the bracket of p_{n}^({count + 1}), "
                    "whose exact value is past 2^48"
                )
            if x > budget:  # the walk would compute primes up to x
                raise BudgetExceededError(
                    f"x={x} above budget {budget}: bracketing element not computable"
                )
            return len(towers([n], levels or x, x, cache)[n])  # p_n^(k) > k: x levels at most
        count += 1
    return count


def count_diag(x, budget=DEFAULT_BUDGET, cache=None):
    """Number of k with p_k^(k) <= x."""
    x = int(x)
    if x < 1:
        raise DomainError("count_diag requires x >= 1")
    k = 1
    while _count_levels(k, x, k, budget, cache) == k:
        k += 1
    return k - 1


def count_tower(n, x, budget=DEFAULT_BUDGET, cache=None):
    """Number of k with p_n^(k) <= x."""
    n, x = int(n), int(x)
    if n < 1 or x < 1:
        raise DomainError("count_tower requires n >= 1 and x >= 1")
    return _count_levels(n, x, None, budget, cache)


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
    Tower counts run in the order ns is given, which orders the cache file.
    """
    xs = [int(x) for x in xs]
    ns = [int(n) for n in ns]
    if any(a > b for a, b in zip(xs, xs[1:])):
        raise DomainError("xs must be sorted ascending")
    rows = []
    for x in xs:
        diag = count_diag(x, budget=budget, cache=cache)
        towers = {n: count_tower(n, x, budget=budget, cache=cache) for n in ns}
        comp = comparator(x, prec=prec) if x >= 16 else None
        for n in sorted(towers) or [None]:
            rows.append((x, diag, n, towers.get(n), comp))
    return rows
