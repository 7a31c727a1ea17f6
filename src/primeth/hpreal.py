"""High-precision real helpers built on mpmath.

Precision is expressed everywhere in significant decimal digits.  A real is
compared with an exact integer in one of two ways.  ``sign_and_text`` takes
a proved integer enclosure of the real, and gives the sign and the decimal
text only where every point of the enclosure gives the same (Ziv's rounding
test); its decimal exponent is exact, so it rounds once, by one binary shift
or one division, and again only on a carry into the next decade.  It decides
every bound row, and the same integer enclosures give Dusart's bounds on
pi, which decide the counts, and on p_m, which bracket the levels they leave
open and give the tower walker's skip.  ``_ln`` makes each enclosure of a
logarithm from mpmath's log rounded down.  ``compare_int``, which certify
alone uses, takes the sign of an mpmath function's value minus the integer
from the value's mantissa and exponent, in integers, and re-runs the function
at doubled precision until the margin exceeds one unit in the last digit.
"""

import functools
import math

from mpmath import libmp, mp
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_log, to_fixed

DEFAULT_PREC = 50
MAX_ESCALATION_PREC = 4096
_START_BITS = 128  # the bits of an enclosure's first try
_MAX_BITS = dps_to_prec(MAX_ESCALATION_PREC)


@functools.lru_cache(maxsize=256)
def _pow10(e):
    return 10**e


def _ln(m, bits, e=0):
    """(lo, hi): lo <= 2^bits log(m 2^e) <= hi for integers m, e with m 2^e >= 1.  mpmath's
    log rounded down at bits + t bits, log(m 2^e) < 2^t, is within an ulp <= 2^-bits of
    it; lo floors it, and lo + 2 allows one more unit for that rounding."""
    t = (m.bit_length() + e).bit_length()
    lo = to_fixed(mpf_log(from_man_exp(m, e), bits + t, "f"), bits)
    return lo, lo + 2


def compare_int(value, fn, prec):
    """Sign of ``fn() - value`` for an exact integer ``value``.

    Returns ``(sign, evaluated)``: sign is -1, 0 or +1 (+-1 for an infinity;
    nan raises ValueError), evaluated is fn() rounded to the digits that
    decided.  fn runs at max(prec, 15) digits, and again at doubled digits
    while its value r lies within |r| 10^(1 - digits) of ``value``, so that
    the sign may be rounding noise; at MAX_ESCALATION_PREC digits it is
    returned all the same.
    """
    digits = max(prec, 15)
    while True:
        with mp.workdps(digits):
            raw = fn()
            approx = +raw
        s, man, exp, bc = raw._mpf_
        if not man and bc:  # mpf specials: +-inf and nan
            if raw._mpf_ == libmp.fnan:
                raise ValueError("the real is nan, so no sign exists")
            return (-1 if s else 1), approx
        a, v = -man if s else man, int(value)
        if exp >= 0:  # both sides as integers in units of 2^min(exp, 0)
            a <<= exp
        else:
            v <<= -exp
        if abs(a - v) * _pow10(digits - 1) > abs(a) or digits >= MAX_ESCALATION_PREC:
            return (a > v) - (a < v), approx
        digits = min(digits * 2, MAX_ESCALATION_PREC)


def _half_up(lo, hi, bits, shift):
    """lo and hi times 2^-bits 10^shift, each rounded half-up to an integer, for 0 <= lo <= hi."""
    if shift >= 0:  # one shift; no half unit at bits = 0
        p, half = _pow10(shift), 1 << bits >> 1
        return lo * p + half >> bits, hi * p + half >> bits
    den = _pow10(-shift) << bits
    return (2 * lo + den) // (2 * den), (2 * hi + den) // (2 * den)


def sign_and_text(lo, hi, bits, value, digits):
    """(sign, text) of a positive real r with lo <= r * 2^bits <= hi, or None.

    sign is that of r minus the integer ``value``; text is r rounded half-up
    to ``digits`` significant digits, laid out as libmp.to_str lays them out
    (3.0, 0.0625, 1.2e+25).  None means the enclosure holds ``value`` but is
    not that one point, or it reaches across a rounding boundary.
    """
    v = value << bits
    sign = -1 if hi < v else 1 if lo > v else 0 if lo == hi else None
    if sign is None:
        return None
    e = math.floor((lo.bit_length() - bits - 1) * 0.3010299956639812)  # 10^e <= r < 10^(e+2)
    e += lo >> bits >= _pow10(e + 1) if e >= -1 else lo * _pow10(-e - 1) >= 1 << bits  # exact
    man, top = _half_up(lo, hi, bits, digits - 1 - e)
    if man >= _pow10(digits):  # r rounds up to 10^(e+1)
        e += 1
        man, top = _half_up(lo, hi, bits, digits - 1 - e)
    if top != man:
        return None
    text = str(man)
    if 0 <= e < digits:
        return sign, f"{text[:e + 1]}.{text[e + 1:].rstrip('0') or '0'}"
    if min(-(digits // 3), -5) < e < 0:
        return sign, ("0." + "0" * (-e - 1) + text).rstrip("0")
    text = f"{text[0]}.{text[1:]}".rstrip("0")
    return sign, (text + "0" if text[-1] == "." else text) + f"e{e:+d}"
