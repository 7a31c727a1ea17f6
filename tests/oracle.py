"""Independent brute-force oracles used only by the tests.

Everything here is deliberately simple (plain sieve, trial division) and
shares no code with the library paths it checks.
"""

import math
from decimal import Decimal, localcontext

import numpy as np


def sieve_primes(limit):
    """Ascending array of all primes <= limit by a plain sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def pi_by_sieve(x, primes):
    return int(np.searchsorted(primes, x, side="right"))


def primes_in_window(a, b):
    """Number of primes in [a, b], 2 <= a <= b, by sieving the window alone."""
    flags = np.ones(b - a + 1, dtype=bool)
    for p in sieve_primes(math.isqrt(b)).tolist():
        start = max(p * p, (a + p - 1) // p * p)
        flags[start - a :: p] = False
    return int(np.count_nonzero(flags))


def trial_isprime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def tower_by_sieve(n, k, primes):
    """[p_n^(1), ..., p_n^(k)] by direct indexing into a sieved prime list."""
    values = []
    idx = n
    for _ in range(k):
        idx = int(primes[idx - 1])
        values.append(idx)
    return values


def L_by_decimal(x, digits):
    """L(x) = (x/(x+1))^(x+1) (log x/log(x+1))^(x+1) to ``digits`` significant digits.

    Uses only the standard library's ``decimal``: it shares no code with
    primeth or mpmath.  It evaluates exp((x+1)(ln(x/(x+1)) + ln(ln x/ln(x+1))))
    with 15 guard digits; the two logarithms of ratios near 1, scaled by
    x+1, lose about log10(x) of them.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 15
        x = Decimal(x)
        x1 = x + 1
        exponent = x1 * ((x / x1).ln() + (x.ln() / x1.ln()).ln())
        value = exponent.exp()
        ctx.prec = digits
        return +value


def n_log_n_by_decimal(n, digits):
    """n ln n to ``digits`` significant digits, with stdlib ``decimal`` only."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        value = Decimal(n) * Decimal(n).ln()
        ctx.prec = digits
        return +value
