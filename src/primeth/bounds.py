"""Explicit bound formulas for p_n and p_n^(k), and the CSV lines that check them.

``BOUNDS`` is the one table of checked bounds.  Each row holds the name, the
suites that report it, its hypothesis at level k as the span (first, last) of
the n it admits, the side (lower: bound < p_n^(k); upper: p_n^(k) < bound) and
its term at level k, (a, b, m0, t, j) for (a n + b) (log max(m0, t n))^j.
``_enclose`` holds a term at each n of a column in exact integers lo * 2^-bits
<= bound <= hi * 2^-bits, from ``hpreal._ln``'s enclosures of log m: at 128 bits
through the table ``_LOGS`` where it reaches, and one ``_ln`` per n otherwise.
Out-of-hypothesis rows are flagged inapplicable, never evaluated: a bound can
fail outside its hypothesis without meaning anything.  ``check_bounds`` settles
each distinct term of a tower level once per base, from enclosures of 128, 256,
... bits, so the verdict and every printed digit hold for the exact bound.
``upper_bound_L1`` and ``lower_bound_simple`` round the same enclosures to the
nearest mpf.
"""

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp

from .errors import DomainError
from .hpreal import DEFAULT_PREC, _MAX_BITS, _START_BITS, _ln, sign_and_text

_LOGS = ([0, 0], [0, 0])  # lo and hi of 2^_START_BITS log m at m, for m below their length


def _log_table(size):
    """Grow ``_LOGS`` to m < size: ``_ln`` at a prime m, and at a composite m with least
    prime factor p the sums of the ends at p and m / p, proved as ``_ln`` is, 2 units wider."""
    lows, highs = _LOGS
    least = np.arange(size)
    for p in range(math.isqrt(size - 1), 1, -1):  # the least prime factor writes last
        least[p * p::p] = p
    for m, p in enumerate(least[len(lows):].tolist(), len(lows)):
        (lo, hi), q = _ln(m, _START_BITS) if p == m else (lows[p], highs[p]), m // p
        lows.append(lo + lows[q])  # log m = log p + log(m / p), and log 1 = 0
        highs.append(hi + highs[q])


def _enclose(term, ns, bits):
    """Lists lo, hi: lo[i] <= 2^bits (a n + b) (log max(m0, t n))^j <= hi[i] at n = ns[i], with
    (a, b, m0, t, j) = term, t 0 or 1, a n + b >= 0, max(m0, t n) and j >= 1."""
    a, b, m0, t, j = term
    ms = [n if n > m0 else m0 for n in ns] if t else [m0] * len(ns)
    if bits == _START_BITS and max(ms, default=0) < len(_LOGS[0]):
        lows, highs = ([ends[m] for m in ms] for ends in _LOGS)
    else:
        logs = [_ln(m, bits) for m in ms]
        lows, highs = [lo for lo, _ in logs], [hi for _, hi in logs]
    cs, shift = [a * n + b for n in ns], bits * (j - 1)
    return ([c * lo**j >> shift for c, lo in zip(cs, lows)],
            [-(-c * hi**j >> shift) for c, hi in zip(cs, highs)])


Bound = namedtuple("Bound", "name suites span side term")

BOUNDS = (
    Bound("rosser_lower", ("rosser", "all"), lambda k: (2, math.inf if k == 1 else 0), "lower",
          lambda k: (1, 0, 1, 1, 1)),  # n log n
    Bound("rosser_upper", ("rosser", "all"), lambda k: (3, math.inf if k == 1 else 0), "upper",
          lambda k: (2, 0, 1, 1, 1)),  # 2 n log n
    Bound("iter_upper", ("lemma1", "all"), lambda k: (9, math.inf), "upper",  # 2^(2k-1) n (k-1)!
          lambda k: (math.factorial(k - 1) << 2 * k - 1, 0, k, 1, k)),  # times (log max(k, n))^k
    # intended for k >= max(n, 9); (4 k log k)^k
    Bound("iter_upper_simple", ("lemma1", "all"), lambda k: (9, k), "upper",
          lambda k: (0, (4 * k) ** k, k, 0, k)),
    Bound("iter_lower", ("ineq3", "all"), lambda k: (2, math.inf), "lower",  # n (log n)^k
          lambda k: (1, 0, 1, 1, k)),
    # needs n > e^4200, which no materialized n meets; the formula is
    # lower_bound_L3, parameterized by log n
    Bound("iter_lower_huge_n", ("all",), lambda k: (1, 0), "lower", None),
)
_ROW = {b.name: b for b in BOUNDS}
SUITES = {s: tuple(r for r in BOUNDS if s in r.suites) for b in BOUNDS for s in b.suites}


def _rounded(term, n, prec):
    """The bound ``term`` names at n, rounded to the nearest mpf at ``prec`` digits."""
    p = dps_to_prec(prec)
    bits = p + 64
    while True:  # both ends round alike, so the bound does too
        lo, hi = (from_man_exp(end, -bits, p, "n") for [end] in _enclose(term, [n], bits))
        if lo == hi:
            return mp.make_mpf(lo)
        bits *= 2


def _settle(term, ns, values, digits):
    """Lists of sign_and_text's signs and texts for the bound ``term`` names at each n of ns
    against the integer at its place in values.  An n left open goes on alone at twice
    the bits; at MAX_ESCALATION_PREC digits' worth its enclosure's midpoint decides."""
    signs, texts = [], []
    for n, value, lo, hi in zip(ns, values, *_enclose(term, ns, _START_BITS)):
        bits = _START_BITS
        while (got := sign_and_text(lo, hi, bits, value, digits)) is None:
            bits = min(2 * bits, _MAX_BITS)
            [lo], [hi] = _enclose(term, [n], bits)
            if bits == _MAX_BITS:
                lo = hi = lo + hi >> 1
        signs.append(got[0])
        texts.append(got[1])
    return signs, texts


def upper_bound_L1(n, k, prec=DEFAULT_PREC):
    """2^(2k-1) * n * (k-1)! * (log max(k, n))^k, valid for n >= 9."""
    n, k = int(n), int(k)
    if n < 9:
        raise DomainError("upper bound needs n >= 9")
    if k < 1:
        raise DomainError("upper bound needs k >= 1")
    return _rounded(_ROW["iter_upper"].term(k), n, prec)


def lower_bound_simple(n, k, prec=DEFAULT_PREC):
    """n (log n)^k, valid for n >= 2."""
    n, k = int(n), int(k)
    if n < 2:
        raise DomainError("lower bound is vacuous at n = 1 (log 1 = 0)")
    if k < 1:
        raise DomainError("lower bound needs k >= 1")
    return _rounded(_ROW["iter_lower"].term(k), n, prec)


def _l3_log_n(log_n, k):
    """log n as an mpf, once the hypothesis of lower_bound_L3 is checked."""
    log_n = mpf(log_n)
    if not log_n > 4200:
        raise DomainError("needs log n > 4200")
    if k < mp.floor(log_n):
        raise DomainError("needs k >= floor(log n)")
    return log_n


def lower_bound_L3(log_n, k, prec=DEFAULT_PREC):
    """(e k log k / log log n)^k, parameterized by log n.

    The hypothesis (n > e^4200 and k >= floor(log n)) makes n itself
    unrepresentable, so the formula takes log n and never materializes n.
    Results can be astronomically large; mpmath's unbounded exponent keeps
    them exact enough, and log_lower_bound_L3 gives the logarithm directly.
    """
    k = int(k)
    with mp.workdps(prec):
        log_n = _l3_log_n(log_n, k)
        return +((mp.e * k * mp.log(k) / mp.log(log_n)) ** k)


def log_lower_bound_L3(log_n, k, prec=DEFAULT_PREC):
    """Logarithm of lower_bound_L3, summed termwise: k(1 + log k + log log k - log log log n)."""
    k = int(k)
    with mp.workdps(prec):
        log_n = _l3_log_n(log_n, k)
        return +(k * (1 + mp.log(k) + mp.log(mp.log(k)) - mp.log(mp.log(log_n))))


def theorem4_residual(n, k, value, prec=DEFAULT_PREC):
    """Empirical residual log(value)/k - log k - log log k."""
    n, k, value = int(n), int(k), int(value)
    if k < 3:
        raise DomainError("residual needs k >= 3 (log log k > 0)")
    with mp.workdps(prec):
        return +(mp.log(value) / k - mp.log(k) - mp.log(mp.log(k)))


CSV_HEADER = ["n", "k", "value", "bound", "lhs", "rhs", "applicable", "holds"]


def check_bounds(towers, suite, digits, tally):
    """The CSV lines of ``suite`` for towers {n: [p_n^(1), p_n^(2), ...]}: one string per
    level, the levels of each tower in turn, each bound to ``digits`` digits.

    Each level is one pass over the bases that reach it; each row is counted in
    ``tally`` under its verdict (True, False, or None when it lies outside its
    hypothesis and gets no sides).  Rows with the same term share one column of
    decisions: at k = 1 the Rosser rows are the iterated ones.  No field needs quoting.
    """
    depth = max(map(len, towers.values()), default=0)
    if (top := max(depth, max(towers, default=0))) <= len(towers) + depth:  # as verify's 1..n
        _log_table(top + 1)
    levels = []  # levels[k - 1]: level k's lines by base
    for k in range(1, depth + 1):
        ns = sorted(n for n, values in towers.items() if len(values) >= k)
        values = [towers[n][k - 1] for n in ns]
        texts = list(map(str, values))
        columns, settled = [], {}  # a term -> (first place, its signs and bound texts on)
        for row in SUITES[suite]:
            first, last = row.span(k)
            i, j = bisect_left(ns, first), bisect_right(ns, last)
            cells = [f"{row.name},,,no,"] * len(ns)
            tally[None] += len(ns) - max(j - i, 0)
            if i < j:
                start, signs, bounds = settled.get(term := row.term(k), (j, (), ()))
                if start > i or start + len(signs) < j:
                    signs, bounds = _settle(term, ns[i:j], values[i:j], digits)
                    start, signs, bounds = settled[term] = i, signs, bounds
                signs, bounds = signs[i - start:j - start], bounds[i - start:j - start]
                want = -1 if row.side == "lower" else 1  # the sign that holds
                lhs, rhs = (bounds, texts[i:j]) if want < 0 else (texts[i:j], bounds)
                cells[i:j] = [f"{row.name},{a},{b},yes,{'yes' if sign == want else 'no'}"
                              for a, b, sign in zip(lhs, rhs, signs)]
                tally[True] += (held := signs.count(want))
                tally[False] += j - i - held
            columns.append(cells)
        heads = [f"{n},{k},{text}," for n, text in zip(ns, texts)]
        blocks = [head + ("\n" + head).join(cells) for head, cells in zip(heads, zip(*columns))]
        levels.append(dict(zip(ns, blocks)))
    return [level[n] for n, values in towers.items() for level in levels[:len(values)]]


def write_report_csv(lines, fh):
    """The header and the lines of check_bounds, in one write."""
    fh.write("\n".join([",".join(CSV_HEADER), *lines]) + "\n")
