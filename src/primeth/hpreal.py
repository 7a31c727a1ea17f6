"""High-precision real helpers built on mpmath.

Precision is expressed everywhere in significant decimal digits.  The one
non-obvious piece is ``compare_int``: bound checks compare an exact integer
against a transcendental expression, and a comparison decided within one
unit in the last place of the evaluated side is re-run at doubled precision
so rounding noise can never flip a verdict.
"""

import functools

from mpmath import mp, mpf

DEFAULT_PREC = 50
MAX_ESCALATION_PREC = 4096


@functools.lru_cache(maxsize=64)
def _ulp_factor(digits):
    """10^(1 - digits), rounded at ``digits`` significant digits."""
    with mp.workdps(digits):
        return mpf(10) ** (1 - digits)


def compare_int(value, fn, prec):
    """Sign of ``fn() - value`` for an exact integer ``value``.

    Returns ``(sign, evaluated)`` where sign is -1, 0 or +1.  Precision is
    doubled (up to MAX_ESCALATION_PREC digits) while the margin is below one
    ulp of the evaluated side.
    """
    digits = max(prec, 15)
    while True:
        with mp.workdps(digits):
            approx = fn()
            diff = approx - value
            ulp = abs(approx) * _ulp_factor(digits)
            if abs(diff) > ulp or digits >= MAX_ESCALATION_PREC:
                if diff > 0:
                    return 1, +approx
                if diff < 0:
                    return -1, +approx
                return 0, +approx
        digits = min(digits * 2, MAX_ESCALATION_PREC)
