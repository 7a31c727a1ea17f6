"""High-precision real helpers built on mpmath.

Precision is expressed everywhere in significant decimal digits.  The one
non-obvious piece is the comparison of a real with an exact integer.
``int_sign`` is its one rule: it takes the sign of a raw libmp value minus
the integer from the value's mantissa and exponent, in integers, and trusts
it iff |approx - value| > |approx| * 10^(1 - digits).  ``compare_int``
re-runs a function at doubled precision until the rule trusts the sign, so
rounding noise can never flip a verdict.  Many comparisons at one precision
share one context when the caller enters ``working_digits`` once.
"""

import contextlib
import functools

from mpmath import libmp, mp

DEFAULT_PREC = 50
MAX_ESCALATION_PREC = 4096
_bits = functools.lru_cache(maxsize=64)(libmp.dps_to_prec)  # mp.prec at these digits


@functools.lru_cache(maxsize=64)
def _scale(digits):
    """10^(digits - 1): a margin times it at most |approx| escalates."""
    return 10 ** (digits - 1)


def working_digits(digits):
    """mp.workdps(digits), or a context that does nothing when mp already works at them."""
    return contextlib.nullcontext() if mp.prec == _bits(digits) else mp.workdps(digits)


def _eval_at(fn, digits):
    """fn() and its value rounded to ``digits``; a context is entered only if needed."""
    if mp.prec == _bits(digits):  # working_digits, without a no-op context per call
        return (raw := fn()), (raw if raw._mpf_[3] <= mp.prec else +raw)  # fits: +raw is raw
    with mp.workdps(digits):
        return _eval_at(fn, digits)


def int_sign(raw, value, digits):
    """Sign of the libmp value ``raw`` minus the exact integer ``value``, or None.

    None means the margin is at most one unit in the ``digits``-th digit of
    raw, so that raw may be rounding noise; at MAX_ESCALATION_PREC digits the
    sign is returned all the same.  An infinity has its own sign; nan raises
    ValueError.
    """
    s, man, exp, bc = raw
    if not man and bc:  # mpf specials: +-inf and nan
        if raw == libmp.fnan:
            raise ValueError("the real is nan, so no sign exists")
        return -1 if s else 1
    a, v = -man if s else man, int(value)
    if exp >= 0:  # both sides as integers in units of 2^min(exp, 0)
        a <<= exp
    else:
        v <<= -exp
    if abs(a - v) * _scale(digits) > abs(a) or digits >= MAX_ESCALATION_PREC:
        return (a > v) - (a < v)
    return None


def compare_int(value, fn, prec):
    """Sign of ``fn() - value`` for an exact integer ``value``.

    Returns ``(sign, evaluated)``: sign is -1, 0 or +1 (+-1 for an infinity;
    nan raises ValueError), evaluated is fn() at the digits that decided.
    Precision doubles (to MAX_ESCALATION_PREC digits) while ``int_sign``
    finds the margin too narrow.
    """
    digits = max(prec, 15)
    while True:
        raw, approx = _eval_at(fn, digits)
        if (sign := int_sign(raw._mpf_, value, digits)) is not None:
            return sign, approx
        digits = min(digits * 2, MAX_ESCALATION_PREC)
