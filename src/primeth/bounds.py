"""Explicit bound formulas for p_n and p_n^(k), and bound-check reports.

Every formula is evaluated exactly as stated, under its stated hypothesis;
out-of-hypothesis requests are flagged inapplicable, never evaluated, since
a bound can fail outside its hypothesis without meaning anything.  All
integer-vs-real comparisons escalate precision automatically so a verdict
is never decided by rounding noise.
"""

import csv
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError, HypothesisViolatedError, InapplicableIndexError
from .hpreal import DEFAULT_PREC, compare_int, format_hp


def rosser_bracket(n, prec=DEFAULT_PREC):
    """The enclosure (n log n, 2 n log n) for p_n.

    The lower bound holds for n >= 2, the upper for n >= 3; for n = 2 the
    upper slot is None.
    """
    n = int(n)
    if n < 2:
        raise InapplicableIndexError("bracket needs n >= 2")
    with mp.workdps(prec):
        lower = +(n * mp.log(n))
        upper = +(2 * n * mp.log(n)) if n >= 3 else None
    return lower, upper


def upper_bound_L1(n, k, prec=DEFAULT_PREC):
    """2^(2k-1) * n * (k-1)! * (log max(k, n))^k, valid for n >= 9."""
    n, k = int(n), int(k)
    if n < 9:
        raise InapplicableIndexError("upper bound needs n >= 9")
    if k < 1:
        raise DomainError("upper bound needs k >= 1")
    m = max(k, n)
    with mp.workdps(prec):
        return +(
            mpf(2) ** (2 * k - 1)
            * n
            * mp.factorial(k - 1)
            * mp.log(m) ** k
        )


def upper_bound_L1_simple(k, prec=DEFAULT_PREC):
    """(4 k log k)^k, the enlarged form intended for k >= max(n, 9)."""
    k = int(k)
    if k < 2:
        raise DomainError("simple upper bound needs k >= 2 (log k > 0)")
    with mp.workdps(prec):
        return +((4 * k * mp.log(k)) ** k)


def lower_bound_simple(n, k, prec=DEFAULT_PREC):
    """n (log n)^k, valid for n >= 2."""
    n, k = int(n), int(k)
    if n < 2:
        raise InapplicableIndexError("lower bound is vacuous at n = 1 (log 1 = 0)")
    if k < 1:
        raise DomainError("lower bound needs k >= 1")
    with mp.workdps(prec):
        return +(n * mp.log(n) ** k)


def lower_bound_L3(log_n, k, prec=DEFAULT_PREC):
    """(e k log k / log log n)^k, parameterized by log n.

    The hypothesis (n > e^4200 and k >= floor(log n)) makes n itself
    unrepresentable, so the formula takes log n and never materializes n.
    Results can be astronomically large; mpmath's unbounded exponent keeps
    them exact enough, and log_lower_bound_L3 gives the logarithm directly.
    """
    k = int(k)
    with mp.workdps(prec):
        log_n = mpf(log_n)
        if not log_n > 4200:
            raise HypothesisViolatedError("needs log n > 4200")
        if k < mp.floor(log_n):
            raise HypothesisViolatedError("needs k >= floor(log n)")
        return +((mp.e * k * mp.log(k) / mp.log(log_n)) ** k)


def log_lower_bound_L3(log_n, k, prec=DEFAULT_PREC):
    """Logarithm of lower_bound_L3, summed termwise: k(1 + log k + log log k - log log log n)."""
    k = int(k)
    with mp.workdps(prec):
        log_n = mpf(log_n)
        if not log_n > 4200:
            raise HypothesisViolatedError("needs log n > 4200")
        if k < mp.floor(log_n):
            raise HypothesisViolatedError("needs k >= floor(log n)")
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


def check_bounds(n, k, value, prec=DEFAULT_PREC):
    """Report every bound of the paper trail against one tower value."""
    n, k, value = int(n), int(k), int(value)
    checks = []

    # n log n < p_n (k = 1, n >= 2)
    if k == 1 and n >= 2:
        sign, lhs = compare_int(value, lambda: n * mp.log(n), prec)
        checks.append(BoundCheck("rosser_lower", lhs, value, True, sign < 0))
    else:
        checks.append(BoundCheck("rosser_lower", None, None, False, None))

    # p_n < 2 n log n (k = 1, n >= 3)
    if k == 1 and n >= 3:
        sign, rhs = compare_int(value, lambda: 2 * n * mp.log(n), prec)
        checks.append(BoundCheck("rosser_upper", value, rhs, True, sign > 0))
    else:
        checks.append(BoundCheck("rosser_upper", None, None, False, None))

    # p_n^(k) < 2^(2k-1) n (k-1)! (log max(k,n))^k  (n >= 9)
    if n >= 9:
        sign, rhs = compare_int(value, lambda: upper_bound_L1(n, k, mp.dps), prec)
        checks.append(BoundCheck("iter_upper", value, rhs, True, sign > 0))
    else:
        checks.append(BoundCheck("iter_upper", None, None, False, None))

    # p_n^(k) < (4 k log k)^k  (k >= n, intended for n >= 9)
    if n >= 9 and k >= n:
        sign, rhs = compare_int(value, lambda: upper_bound_L1_simple(k, mp.dps), prec)
        checks.append(BoundCheck("iter_upper_simple", value, rhs, True, sign > 0))
    else:
        checks.append(BoundCheck("iter_upper_simple", None, None, False, None))

    # p_n^(k) > n (log n)^k  (n >= 2)
    if n >= 2:
        sign, lhs = compare_int(value, lambda: lower_bound_simple(n, k, mp.dps), prec)
        checks.append(BoundCheck("iter_lower", lhs, value, True, sign < 0))
    else:
        checks.append(BoundCheck("iter_lower", None, None, False, None))

    # huge-n lower bound: hypothesis n > e^4200 can never hold for a
    # materialized n, so this row is always inapplicable here
    checks.append(BoundCheck("iter_lower_huge_n", None, None, False, None))

    return BoundReport(n=n, k=k, value=value, checks=checks)


CSV_HEADER = ["n", "k", "value", "bound", "lhs", "rhs", "applicable", "holds"]


def write_report_csv(reports, fh, digits=15):
    """Serialize BoundReports: columns n,k,value,bound,lhs,rhs,applicable,holds."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rep in reports:
        for c in rep.checks:
            fmt = lambda v: (
                "" if v is None else (str(v) if isinstance(v, int) else format_hp(v, digits))
            )
            writer.writerow(
                [
                    rep.n,
                    rep.k,
                    rep.value,
                    c.name,
                    fmt(c.lhs),
                    fmt(c.rhs),
                    "yes" if c.applicable else "no",
                    "" if c.holds is None else ("yes" if c.holds else "no"),
                ]
            )
