"""Explicit bound formulas for p_n and p_n^(k), and the CSV lines that check them.

``BOUNDS`` is the one table of checked bounds.  Each row holds the name, the
suites that report it, the hypothesis on (n, k), the side (lower: bound <
p_n^(k); upper: p_n^(k) < bound) and the term: the bound is c (log m)^j for
an integer c, with (c, m, j) = term(n, k).  ``_enclose`` holds it in exact
integers lo * 2^-bits <= bound <= hi * 2^-bits, from memoised powers of an
enclosure of log m by one call of mpmath's log rounded down; ``_ln`` encloses
the log of a fixed-point m 2^e the same way, unmemoised.  Out-of-hypothesis
rows are flagged inapplicable, never evaluated, since a bound can fail
outside its hypothesis without meaning anything.  ``check_bounds`` turns one
tower level into CSV lines: ``_settle`` decides and prints each distinct term
once, from enclosures of 128, 256, ... bits, so the verdict and every
printed digit hold for the exact bound.  ``upper_bound_L1`` and
``lower_bound_simple`` round the same enclosures to the nearest mpf.
"""

import functools
import math
from collections import namedtuple

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_log, to_fixed

from .errors import DomainError
from .hpreal import DEFAULT_PREC, MAX_ESCALATION_PREC, sign_and_text


def _ln(m, bits, e=0):
    """(lo, hi): lo <= 2^bits log(m 2^e) <= hi for integers m, e with m 2^e >= 1.  mpmath's
    log rounded down at bits + t bits, log(m 2^e) < 2^t, is within an ulp <= 2^-bits of
    it; lo floors it, and lo + 2 allows one more unit for that rounding."""
    t = (m.bit_length() + e).bit_length()
    lo = to_fixed(mpf_log(from_man_exp(m, e), bits + t, "f"), bits)
    return lo, lo + 2


@functools.lru_cache(maxsize=256)
def _log(m, bits, j=1):
    """(lo, hi): lo <= 2^(bits j) (log m)^j <= hi for integers m, j >= 1, from ``_ln``."""
    if j > 1:
        lo, hi = _log(m, bits, 1)
        return lo**j, hi**j
    return _ln(m, bits)


def _enclose(term, bits):
    """(lo, hi) enclosing c (log m)^j in units of 2^-bits, (c, m, j) = term, c >= 0, m, j >= 1."""
    c, m, j = term
    lo, hi = _log(m, bits, j)
    shift = bits * (j - 1)
    return c * lo >> shift, -(-c * hi >> shift)


Bound = namedtuple("Bound", "name suites applies side term")


BOUNDS = (
    Bound("rosser_lower", ("rosser", "all"), lambda n, k: k == 1 and n >= 2, "lower",
          lambda n, k: (n, n, 1)),  # n log n
    Bound("rosser_upper", ("rosser", "all"), lambda n, k: k == 1 and n >= 3, "upper",
          lambda n, k: (2 * n, n, 1)),  # 2 n log n
    Bound("iter_upper", ("lemma1", "all"), lambda n, k: n >= 9, "upper",  # 2^(2k-1) n (k-1)!
          lambda n, k: (n * math.factorial(k - 1) << 2 * k - 1, max(k, n), k)),
    # intended for k >= max(n, 9); (4 k log k)^k
    Bound("iter_upper_simple", ("lemma1", "all"), lambda n, k: n >= 9 and k >= n, "upper",
          lambda n, k: ((4 * k) ** k, k, k)),
    Bound("iter_lower", ("ineq3", "all"), lambda n, k: n >= 2, "lower",  # n (log n)^k
          lambda n, k: (n, n, k)),
    # needs n > e^4200, which no materialized n meets; the formula is
    # lower_bound_L3, parameterized by log n
    Bound("iter_lower_huge_n", ("all",), lambda n, k: False, "lower", None),
)
_ROW = {b.name: b for b in BOUNDS}
SUITES = {s: tuple(r for r in BOUNDS if s in r.suites) for b in BOUNDS for s in b.suites}
_START_BITS = 128
_MAX_BITS = dps_to_prec(MAX_ESCALATION_PREC)


def _rounded(term, prec):
    """The bound c (log m)^j, (c, m, j) = term, rounded to the nearest mpf at ``prec`` digits."""
    p = dps_to_prec(prec)
    bits = p + 64
    while True:  # both ends round alike, so the bound does too
        lo, hi = (from_man_exp(end, -bits, p, "n") for end in _enclose(term, bits))
        if lo == hi:
            return mp.make_mpf(lo)
        bits *= 2


def _settle(term, value, digits):
    """sign_and_text's (sign, text) for the bound c (log m)^j, with (c, m, j) = term.

    Each enclosure has twice the bits of the last while ``sign_and_text``
    leaves it open; at MAX_ESCALATION_PREC digits' worth of bits its
    midpoint decides.
    """
    bits = _START_BITS
    while True:
        lo, hi = _enclose(term, bits)
        if bits == _MAX_BITS:
            lo = hi = lo + hi >> 1
        if (settled := sign_and_text(lo, hi, bits, value, digits)) is not None:
            return settled
        bits = min(2 * bits, _MAX_BITS)


def upper_bound_L1(n, k, prec=DEFAULT_PREC):
    """2^(2k-1) * n * (k-1)! * (log max(k, n))^k, valid for n >= 9."""
    n, k = int(n), int(k)
    if n < 9:
        raise DomainError("upper bound needs n >= 9")
    if k < 1:
        raise DomainError("upper bound needs k >= 1")
    return _rounded(_ROW["iter_upper"].term(n, k), prec)


def lower_bound_simple(n, k, prec=DEFAULT_PREC):
    """n (log n)^k, valid for n >= 2."""
    n, k = int(n), int(k)
    if n < 2:
        raise DomainError("lower bound is vacuous at n = 1 (log 1 = 0)")
    if k < 1:
        raise DomainError("lower bound needs k >= 1")
    return _rounded(_ROW["iter_lower"].term(n, k), prec)


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


def check_bounds(n, k, value, suite, digits, tally):
    """The CSV lines of one tower level of ``suite``, each bound to ``digits`` digits.

    Each row is counted in ``tally`` under its verdict: True or False, and
    None for a row outside its hypothesis, which gets no sides and no verdict.
    Rows with the same term c (log m)^j share one decision: at k = 1 the
    Rosser rows are the iterated ones.  No field needs csv quoting.
    """
    text = str(value)
    head = f"{n},{k},{text},"
    lines = []
    settled = {}  # a row's term -> (sign, bound text)
    for row in SUITES[suite]:
        if not row.applies(n, k):
            lines.append(f"{head}{row.name},,,no,")
            tally[None] += 1
            continue
        if (got := settled.get(term := row.term(n, k))) is None:
            got = settled[term] = _settle(term, value, digits)
        sign, bound = got
        lower = row.side == "lower"
        holds, lhs, rhs = (sign < 0, bound, text) if lower else (sign > 0, text, bound)
        lines.append(f"{head}{row.name},{lhs},{rhs},yes,{'yes' if holds else 'no'}")
        tally[holds] += 1
    return lines


def write_report_csv(lines, fh):
    """The header and the lines of check_bounds, in one write."""
    fh.write("\n".join([",".join(CSV_HEADER), *lines]) + "\n")
