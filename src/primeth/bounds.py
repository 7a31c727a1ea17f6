"""Explicit bound formulas for p_n and p_n^(k), and bound-check reports.

``BOUNDS`` is the one table of checked bounds.  Each row holds the name, the
suites that report it, the hypothesis on (n, k), the side (lower: bound <
p_n^(k); upper: p_n^(k) < bound) and the enclosure (n, k, bits) -> (lo, hi),
integers with lo * 2^-bits <= bound <= hi * 2^-bits.  Each bound is
c (log m)^j for an integer c, enclosed in exact integers from a memoised
enclosure of log m by mpmath's log rounded down and up.  Out-of-hypothesis
rows are flagged inapplicable, never evaluated, since a bound can fail
outside its hypothesis without meaning anything.  ``_settle`` decides and
prints each applicable row from enclosures of 128, 256, ... bits, so the
verdict and every printed digit hold for the exact bound; ``check_bounds``
and the public bound functions read the same enclosures.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, mpf_log, mpf_neg, to_fixed, to_str

from .errors import DomainError, HypothesisViolatedError, InapplicableIndexError
from .hpreal import DEFAULT_PREC, MAX_ESCALATION_PREC, sign_and_text


@functools.lru_cache(maxsize=256)
def _log(m, bits):
    """(lo, hi): lo <= 2^bits log m <= hi for an integer m >= 1, floored and ceiled."""
    x, prec = from_int(m), bits + m.bit_length().bit_length()  # log m < 2^that
    return to_fixed(mpf_log(x, prec, "f"), bits), -to_fixed(mpf_neg(mpf_log(x, prec, "c")), bits)


def _enclose(c, m, j, bits):
    """(lo, hi) enclosing c (log m)^j in units of 2^-bits, for c >= 0, m >= 1, j >= 1."""
    lo, hi = _log(m, bits)
    shift = bits * (j - 1)
    return c * lo**j >> shift, -(-c * hi**j >> shift)


Bound = namedtuple("Bound", "name suites applies side enclosure")

BOUNDS = (
    Bound("rosser_lower", ("rosser", "all"), lambda n, k: k == 1 and n >= 2, "lower",
          lambda n, k, b: _enclose(n, n, 1, b)),  # n log n
    Bound("rosser_upper", ("rosser", "all"), lambda n, k: k == 1 and n >= 3, "upper",
          lambda n, k, b: _enclose(2 * n, n, 1, b)),  # 2 n log n
    Bound("iter_upper", ("lemma1", "all"), lambda n, k: n >= 9, "upper",  # 2^(2k-1) n (k-1)!
          lambda n, k, b: _enclose(n * math.factorial(k - 1) << 2 * k - 1, max(k, n), k, b)),
    # intended for k >= max(n, 9); (4 k log k)^k
    Bound("iter_upper_simple", ("lemma1", "all"), lambda n, k: n >= 9 and k >= n, "upper",
          lambda n, k, b: _enclose((4 * k) ** k, k, k, b)),
    Bound("iter_lower", ("ineq3", "all"), lambda n, k: n >= 2, "lower",  # n (log n)^k
          lambda n, k, b: _enclose(n, n, k, b)),
    # needs n > e^4200, which no materialized n meets; the formula is
    # lower_bound_L3, parameterized by log n
    Bound("iter_lower_huge_n", ("all",), lambda n, k: False, "lower", None),
)
_ROW = {b.name: b for b in BOUNDS}
SUITES = {s: tuple(r for r in BOUNDS if s in r.suites) for b in BOUNDS for s in b.suites}
_START_BITS = 128
_MAX_BITS = dps_to_prec(MAX_ESCALATION_PREC)


def _rounded(row, n, k, prec):
    """The bound of ``row`` at (n, k) rounded to the nearest mpf at ``prec`` digits."""
    p = dps_to_prec(prec)
    bits = p + 64
    while True:  # both ends round alike, so the bound does too
        lo, hi = (from_man_exp(end, -bits, p, "n") for end in row.enclosure(n, k, bits))
        if lo == hi:
            return mp.make_mpf(lo)
        bits *= 2


def _settle(row, n, k, value, digits):
    """(holds, text): the row's verdict on ``value`` and its bound to ``digits`` digits.

    Each enclosure has twice the bits of the last while ``sign_and_text``
    leaves it open; at MAX_ESCALATION_PREC digits' worth of bits its
    midpoint decides.
    """
    bits = _START_BITS
    while True:
        lo, hi = row.enclosure(n, k, bits)
        if bits == _MAX_BITS:
            lo = hi = lo + hi >> 1
        if (settled := sign_and_text(lo, hi, bits, value, digits)) is not None:
            sign, text = settled
            return (sign < 0 if row.side == "lower" else sign > 0), text
        bits = min(2 * bits, _MAX_BITS)


def upper_bound_L1(n, k, prec=DEFAULT_PREC):
    """2^(2k-1) * n * (k-1)! * (log max(k, n))^k, valid for n >= 9."""
    n, k = int(n), int(k)
    if n < 9:
        raise InapplicableIndexError("upper bound needs n >= 9")
    if k < 1:
        raise DomainError("upper bound needs k >= 1")
    return _rounded(_ROW["iter_upper"], n, k, prec)


def lower_bound_simple(n, k, prec=DEFAULT_PREC):
    """n (log n)^k, valid for n >= 2."""
    n, k = int(n), int(k)
    if n < 2:
        raise InapplicableIndexError("lower bound is vacuous at n = 1 (log 1 = 0)")
    if k < 1:
        raise DomainError("lower bound needs k >= 1")
    return _rounded(_ROW["iter_lower"], n, k, prec)


def _l3_log_n(log_n, k):
    """log n as an mpf, once the hypothesis of lower_bound_L3 is checked."""
    log_n = mpf(log_n)
    if not log_n > 4200:
        raise HypothesisViolatedError("needs log n > 4200")
    if k < mp.floor(log_n):
        raise HypothesisViolatedError("needs k >= floor(log n)")
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


@dataclass
class BoundCheck:
    """One inequality instance; lhs < rhs is the claim, in source order."""

    name: str
    lhs: object  # mpf or exact int; None when inapplicable
    rhs: object
    applicable: bool
    holds: object  # bool when applicable, else None


@dataclass
class BoundReport:
    n: int
    k: int
    value: int
    checks: list

    def all_applicable_hold(self):
        return all(c.holds for c in self.checks if c.applicable)


def check_bounds(n, k, value, prec=DEFAULT_PREC, suite="all"):
    """Report the bounds of one verification suite against one tower value.

    Each applicable row is decided as ``verify`` decides it, and its bound
    is rounded to the nearest mpf at max(prec, 15) digits.
    """
    n, k, value = int(n), int(k), int(value)
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    checks = []
    for row in SUITES[suite]:
        if not row.applies(n, k):
            checks.append(BoundCheck(row.name, None, None, False, None))
            continue
        holds, _ = _settle(row, n, k, value, 15)
        bound = _rounded(row, n, k, max(prec, 15))
        lhs, rhs = (bound, value) if row.side == "lower" else (value, bound)
        checks.append(BoundCheck(row.name, lhs, rhs, True, holds))
    return BoundReport(n=n, k=k, value=value, checks=checks)


CSV_HEADER = ["n", "k", "value", "bound", "lhs", "rhs", "applicable", "holds"]
_CELL = {True: "yes", False: "no", None: ""}  # the applicable and holds columns


def _line(head, name, lhs, rhs, applicable, holds):
    """One CSV line after its head "n,k,value,"; lhs and rhs as printed, "" if absent."""
    return f"{head}{name},{lhs},{rhs},{_CELL[applicable]},{_CELL[holds]}"


def _level_lines(n, k, value, suite, digits, tally):
    """The CSV lines of one tower level, each bound to ``digits``; rows counted in ``tally``."""
    text = str(value)
    head = f"{n},{k},{text},"
    lines = []
    for row in SUITES[suite]:
        if not row.applies(n, k):
            lines.append(_line(head, row.name, "", "", False, None))
            tally[None] += 1
            continue
        holds, bound = _settle(row, n, k, value, digits)
        lhs, rhs = (bound, text) if row.side == "lower" else (text, bound)
        lines.append(_line(head, row.name, lhs, rhs, True, holds))
        tally[holds] += 1
    return lines


def _write_csv(lines, fh):
    """The header and the lines, in one write."""
    fh.write("\n".join([",".join(CSV_HEADER), *lines]) + "\n")


def write_report_csv(reports, fh, digits=15):
    """Serialize BoundReports: columns n,k,value,bound,lhs,rhs,applicable,holds.

    No field needs csv quoting; an mpf side is printed as mp.nstr(v, digits).
    """
    def side(v):
        return str(v) if isinstance(v, int) else to_str(v._mpf_, digits)

    lines = []
    for rep in reports:
        head = f"{rep.n},{rep.k},{rep.value},"
        lines.extend(
            _line(head, c.name, side(c.lhs), side(c.rhs), True, c.holds) if c.applicable
            else _line(head, c.name, "", "", False, None)  # no sides and no verdict
            for c in rep.checks
        )
    _write_csv(lines, fh)
