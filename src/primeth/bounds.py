"""Explicit bound formulas for p_n and p_n^(k), and bound-check reports.

``BOUNDS`` is the one table of checked bounds.  Each row holds the name, the
suites that report it, the hypothesis on (n, k), the side (lower: formula <
p_n^(k); upper: p_n^(k) < formula) and the formula (n, k, prec), which
returns a raw libmp value at ``prec`` bits, with powers of logarithms
memoised per (argument, precision, power).  Each step is the libmp
operation, with the rounding, that its mpf expression (noted beside it)
calls, so the bound is that mpf bit for bit.
Out-of-hypothesis rows are flagged inapplicable, never evaluated, since a
bound can fail outside its hypothesis without meaning anything.  Each
applicable row is decided once, by ``_decide``: hpreal's ``int_sign`` on the
raw bound, and compare_int's doubling of the digits only inside the margin,
so a verdict is never decided by rounding noise.  ``check_bounds`` returns
the rows as objects; ``verify`` prints them straight from the raw values
through ``_level_lines``; both print through the one line formatter.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec, from_int, ftwo, mpf_factorial, mpf_log, mpf_mul, mpf_mul_int, mpf_pow_int,
    to_str,
)

from .errors import DomainError, HypothesisViolatedError, InapplicableIndexError
from .hpreal import DEFAULT_PREC, MAX_ESCALATION_PREC, compare_int, int_sign, working_digits

_RND = "n"  # mpf arithmetic rounds to nearest


@functools.lru_cache(maxsize=256)
def _log(x, prec, k):
    """(log x)^k at ``prec`` bits, as the raw libmp value of mp.ln(x, prec=prec) ** k."""
    if k == 1:  # mpf ** 1 is the mpf itself
        return mpf_log(from_int(x), prec, _RND)
    return mpf_pow_int(_log(x, prec, 1), k, prec, _RND)


Bound = namedtuple("Bound", "name suites applies side formula")

BOUNDS = (
    Bound("rosser_lower", ("rosser", "all"), lambda n, k: k == 1 and n >= 2, "lower",
          lambda n, k, p: mpf_mul_int(_log(n, p, 1), n, p, _RND)),  # n * log(n)
    Bound("rosser_upper", ("rosser", "all"), lambda n, k: k == 1 and n >= 3, "upper",
          lambda n, k, p: mpf_mul_int(_log(n, p, 1), 2 * n, p, _RND)),  # 2 * n * log(n)
    # mpf(2) ** (2 * k - 1) * n * mp.factorial(k - 1) * log(max(k, n)) ** k
    Bound("iter_upper", ("lemma1", "all"), lambda n, k: n >= 9, "upper",
          lambda n, k, p: mpf_mul(
              mpf_mul(mpf_mul_int(mpf_pow_int(ftwo, 2 * k - 1, p, _RND), n, p, _RND),
                      mpf_factorial(from_int(k - 1), p, _RND), p, _RND),
              _log(max(k, n), p, k), p, _RND)),
    # intended for k >= max(n, 9); (4 * k * log(k)) ** k
    Bound("iter_upper_simple", ("lemma1", "all"), lambda n, k: n >= 9 and k >= n, "upper",
          lambda n, k, p: (
              mpf_pow_int(mpf_mul_int(_log(k, p, 1), 4 * k, p, _RND), k, p, _RND))),
    Bound("iter_lower", ("ineq3", "all"), lambda n, k: n >= 2, "lower",  # n * log(n) ** k
          lambda n, k, p: mpf_mul_int(_log(n, p, k), n, p, _RND)),
    # needs n > e^4200, which no materialized n meets; the formula is
    # lower_bound_L3, parameterized by log n
    Bound("iter_lower_huge_n", ("all",), lambda n, k: False, "lower", None),
)
_ROW = {b.name: b for b in BOUNDS}
SUITES = {s: tuple(r for r in BOUNDS if s in r.suites) for b in BOUNDS for s in b.suites}


def _evaluate(name, n, k, prec):
    return mp.make_mpf(_ROW[name].formula(n, k, dps_to_prec(prec)))


def rosser_bracket(n, prec=DEFAULT_PREC):
    """The enclosure (n log n, 2 n log n) for p_n.

    The lower bound holds for n >= 2, the upper for n >= 3; for n = 2 the
    upper slot is None.
    """
    n = int(n)
    if n < 2:
        raise InapplicableIndexError("bracket needs n >= 2")
    lower = _evaluate("rosser_lower", n, 1, prec)
    upper = _evaluate("rosser_upper", n, 1, prec) if n >= 3 else None
    return lower, upper


def upper_bound_L1(n, k, prec=DEFAULT_PREC):
    """2^(2k-1) * n * (k-1)! * (log max(k, n))^k, valid for n >= 9."""
    n, k = int(n), int(k)
    if n < 9:
        raise InapplicableIndexError("upper bound needs n >= 9")
    if k < 1:
        raise DomainError("upper bound needs k >= 1")
    return _evaluate("iter_upper", n, k, prec)


def upper_bound_L1_simple(k, prec=DEFAULT_PREC):
    """(4 k log k)^k, the enlarged form intended for k >= max(n, 9)."""
    k = int(k)
    if k < 2:
        raise DomainError("simple upper bound needs k >= 2 (log k > 0)")
    return _evaluate("iter_upper_simple", k, k, prec)


def lower_bound_simple(n, k, prec=DEFAULT_PREC):
    """n (log n)^k, valid for n >= 2."""
    n, k = int(n), int(k)
    if n < 2:
        raise InapplicableIndexError("lower bound is vacuous at n = 1 (log 1 = 0)")
    if k < 1:
        raise DomainError("lower bound needs k >= 1")
    return _evaluate("iter_lower", n, k, prec)


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


def _decide(row, n, k, value, digits):
    """(holds, bound) of an applicable row at one tower level.

    The formula runs at mp.prec, which the caller sets to ``digits``; only
    inside int_sign's margin does compare_int go on from doubled digits.
    ``bound`` is the raw libmp value that decided.
    """
    bound = row.formula(n, k, mp.prec)
    if (sign := int_sign(bound, value, digits)) is None:
        sign, approx = compare_int(value, lambda: mp.make_mpf(row.formula(n, k, mp.prec)),
                                   min(2 * digits, MAX_ESCALATION_PREC))
        bound = approx._mpf_
    return (sign < 0 if row.side == "lower" else sign > 0), bound


def check_bounds(n, k, value, prec=DEFAULT_PREC, suite="all"):
    """Report the bounds of one verification suite against one tower value."""
    n, k, value = int(n), int(k), int(value)
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    digits = max(prec, 15)
    checks = []
    with working_digits(digits):  # one context for all rows
        for row in SUITES[suite]:
            if not row.applies(n, k):
                checks.append(BoundCheck(row.name, None, None, False, None))
                continue
            holds, bound = _decide(row, n, k, value, digits)
            bound = mp.make_mpf(bound)
            lhs, rhs = (bound, value) if row.side == "lower" else (value, bound)
            checks.append(BoundCheck(row.name, lhs, rhs, True, holds))
    return BoundReport(n=n, k=k, value=value, checks=checks)


CSV_HEADER = ["n", "k", "value", "bound", "lhs", "rhs", "applicable", "holds"]
_CELL = {True: "yes", False: "no", None: ""}  # the applicable and holds columns


def _line(head, name, lhs, rhs, applicable, holds):
    """One CSV line after its head "n,k,value,"; lhs and rhs as printed, "" if absent."""
    return f"{head}{name},{lhs},{rhs},{_CELL[applicable]},{_CELL[holds]}"


def _level_lines(n, k, value, prec, suite, digits, tally):
    """check_bounds(n, k, value, prec, suite) as the lines write_report_csv prints.

    Bounds are printed to ``digits`` and each row is counted in ``tally``
    by its holds, with no object built per row.  The caller works at
    max(prec, 15) digits.
    """
    work = max(prec, 15)
    text = str(value)
    head = f"{n},{k},{text},"
    lines = []
    for row in SUITES[suite]:
        if not row.applies(n, k):
            lines.append(_line(head, row.name, "", "", False, None))
            tally[None] += 1
            continue
        holds, bound = _decide(row, n, k, value, work)
        bound = to_str(bound, digits)
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
