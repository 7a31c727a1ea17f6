"""Exact counting functions for the diagonal and tower sequences.

count_diag(x) certifies its answer by locating the first diagonal element
strictly above x, so one element PAST x is always computed; that bracketing
element is the dominant cost.  The same holds for count_tower.  Neither
function ever estimates.  Both walk the towers with ``iterated.walk``:
count_tower counts the levels of p_n^(k) <= x it yields, and count_diag
advances k while the walk over base k yields k levels, so a level whose
index idx has idx log idx > x is never computed.
"""

from itertools import islice

from mpmath import mp

from .errors import BudgetExceededError, DomainError, InvalidRangeError
from .hpreal import DEFAULT_PREC
from .iterated import DEFAULT_BUDGET, walk


def count_diag(x, budget=DEFAULT_BUDGET, cache=None):
    """Number of k with p_k^(k) <= x."""
    x = int(x)
    if x < 1:
        raise InvalidRangeError("count_diag requires x >= 1")
    if x > budget:
        raise BudgetExceededError(
            f"x={x} above budget {budget}: bracketing element not computable"
        )
    k = 1
    while len(list(islice(walk(k, x, cache), k))) == k:
        k += 1
    return k - 1


def count_tower(n, x, budget=DEFAULT_BUDGET, cache=None):
    """Number of k with p_n^(k) <= x."""
    n, x = int(n), int(x)
    if n < 1 or x < 1:
        raise InvalidRangeError("count_tower requires n >= 1 and x >= 1")
    if x > budget:
        raise BudgetExceededError(
            f"x={x} above budget {budget}: bracketing element not computable"
        )
    return sum(1 for _ in walk(n, x, cache))


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
        raise InvalidRangeError("xs must be sorted ascending")
    rows = []
    for x in xs:
        diag = count_diag(x, budget=budget, cache=cache)
        towers = {n: count_tower(n, x, budget=budget, cache=cache) for n in ns}
        comp = comparator(x, prec=prec) if x >= 16 else None
        for n in sorted(towers) or [None]:
            rows.append((x, diag, n, towers.get(n), comp))
    return rows
