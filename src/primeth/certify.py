"""Numerical certification of the L(x) > 0.32627 floor for x >= 4200.

L(x) = (x/(x+1))^(x+1) * (log x / log(x+1))^(x+1).  The verification is
sampled, not interval-certified: L is evaluated at the fixed points
CERT_POINTS in [4200, 10^6], and ``compare_int`` decides each verdict against
the exact threshold.  The closed-form floor constant from the monotonicity
argument is reproduced and decided against the threshold the same way, and
the auxiliary functions f, g, h are spot-checked for monotonicity on
adjacent points.

h(x) = log(x+1) / (log(x+1) - log x) loses about log10(x) digits to
cancellation, so its denominator is computed with boosted precision.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError, ThresholdViolatedError
from .hpreal import compare_int

THRESHOLD = (32627, 10**5)  # the floor 0.32627, exactly, as numerator and denominator
HYPOTHESIS_X_MIN = 4200
CERT_PREC = 60
# 12 points spaced geometrically from 4200 to 10^6, and 4201
CERT_POINTS = (
    4200, 4201, 6907, 11360, 18683, 30727, 50535,
    83111, 136687, 224799, 369712, 608039, 1000000,
)


def eval_L(x, prec=CERT_PREC):
    """L(x); domain x > 1."""
    with mp.workdps(prec + 10):
        x = mpf(x)
        if not x > 1:
            raise DomainError("L(x) needs x > 1")
        first = (x / (x + 1)) ** (x + 1)
        second = (mp.log(x) / mp.log(x + 1)) ** (x + 1)
        with mp.workdps(prec):
            return +(first * second)


def eval_f(x, prec=CERT_PREC):
    """f(x) = (x+1)(log x - log(x+1)), the log of L's first factor; < 0."""
    with mp.workdps(prec + 10):
        x = mpf(x)
        if not x > 0:
            raise DomainError("f(x) needs x > 0")
        # log x - log(x+1) = -log1p(1/x), cancellation-free
        value = -(x + 1) * mp.log1p(1 / x)
        with mp.workdps(prec):
            return +value


def eval_g(t, prec=CERT_PREC):
    """g(t) = (1 - 1/t)^t; domain t > 1."""
    with mp.workdps(prec + 10):
        t = mpf(t)
        if not t > 1:
            raise DomainError("g(t) needs t > 1")
        with mp.workdps(prec):
            return +((1 - 1 / t) ** t)


def eval_h(x, prec=CERT_PREC):
    """h(x) = log(x+1) / (log(x+1) - log x), with cancellation-aware boost."""
    x = mpf(x)
    if not x > 1:
        raise DomainError("h(x) needs x > 1")
    boost = prec + int(mp.ceil(mp.log10(x))) + 10
    with mp.workdps(boost):
        xx = mpf(x)
        denom = mp.log1p(1 / xx)  # = log(x+1) - log x
        value = mp.log(xx + 1) / denom
        with mp.workdps(prec):
            return +value


def closed_form_floor(prec=CERT_PREC):
    """(4200/4201)^4201 * (log 4200/log 4201)^((4201/4200)/(log 4201 - log 4200))."""
    with mp.workdps(prec + 15):
        a = mpf(4200)
        first = (a / (a + 1)) ** (a + 1)
        exponent = (a + 1) / a / mp.log1p(1 / a)
        second = (mp.log(a) / mp.log(a + 1)) ** exponent
        with mp.workdps(prec):
            return +(first * second)


@dataclass
class CertReport:
    rows: list  # (x, L, margin), each with L(x) > THRESHOLD
    floor_constant: object
    floor_above_threshold: bool  # decided by compare_int
    f_increasing: bool
    g_increasing: bool
    h_increasing: bool
    g_of_h_4200: object
    exp_threshold_ok: bool  # e^(e/THRESHOLD) <= 4200
    prec: int

    def failed_facts(self):
        """The supporting facts of the floor argument that fail, by name."""
        facts = {
            "closed-form floor constant > threshold": self.floor_above_threshold,
            "f monotone increasing on grid": self.f_increasing,
            "g monotone increasing on grid": self.g_increasing,
            "h monotone increasing on grid": self.h_increasing,
            "g(h(4200)) in (0,1)": 0 < self.g_of_h_4200 < 1,
            "e^(e/threshold) <= 4200": self.exp_threshold_ok,
        }
        return [fact for fact, holds in facts.items() if not holds]

    def to_text(self):
        digits = min(self.prec, 20)
        yes = {True: "yes", False: "no"}
        lines = [
            f"threshold: L(x) > {THRESHOLD[0] / THRESHOLD[1]} for x >= {HYPOTHESIS_X_MIN}",
            "closed-form floor constant: " + mp.nstr(self.floor_constant, digits),
            f"f monotone increasing on grid: {yes[self.f_increasing]}",
            f"g monotone increasing on grid: {yes[self.g_increasing]}",
            f"h monotone increasing on grid: {yes[self.h_increasing]}",
            f"g(h(4200)) = {mp.nstr(self.g_of_h_4200, digits)} (must lie in (0,1))",
            f"e^(e/threshold) <= 4200: {yes[self.exp_threshold_ok]}",
        ]
        for x, lval, margin in self.rows:
            lines.append(
                f"x={mp.nstr(mpf(x), 12):>16}  L={mp.nstr(lval, digits)}  "
                f"margin={mp.nstr(margin, digits)}  pass"
            )
        failed = self.failed_facts()
        lines.append("verdict: " + (f"fail ({'; '.join(failed)})" if failed else "pass"))
        return "\n".join(lines)


def certify_threshold(prec=CERT_PREC):
    """Evaluate L at CERT_POINTS and check the floor's supporting facts.

    Every point lies inside the hypothesis (x >= 4200), so a point at or
    below the threshold contradicts a proved inequality and raises; a
    supporting fact that fails is recorded (``CertReport.failed_facts``).
    """
    num, den = THRESHOLD
    rows = []
    for x in CERT_POINTS:
        # sign of den L(x) - num, that is of L(x) - THRESHOLD
        sign, scaled = compare_int(num, lambda: den * eval_L(x, mp.dps), prec)
        with mp.workdps(prec):
            lval = scaled / den
            if sign <= 0:
                raise ThresholdViolatedError(
                    f"L({x}) = {mp.nstr(lval, 20)} <= {num / den}: "
                    "contradicts the proved floor; build-stopping defect"
                )
            rows.append((x, lval, (scaled - num) / den))

    f_vals = [eval_f(x, prec) for x in CERT_POINTS]
    f_increasing = all(a < b for a, b in zip(f_vals, f_vals[1:]))

    # g and h checked on their own logarithmic grids above their domains
    t_grid = [mpf(2) * mpf(4) ** i for i in range(10)]
    g_vals = [eval_g(t, prec) for t in t_grid]
    g_increasing = all(a < b for a, b in zip(g_vals, g_vals[1:]))
    h_vals = [eval_h(x, prec) for x in t_grid]
    h_increasing = all(a < b for a, b in zip(h_vals, h_vals[1:]))

    g_of_h = eval_g(eval_h(HYPOTHESIS_X_MIN, prec), prec)

    # e^(e/THRESHOLD) = e^(e den/num)
    exp_sign, _ = compare_int(HYPOTHESIS_X_MIN, lambda: mp.exp(mp.e * den / num), prec)
    floor_sign, _ = compare_int(num, lambda: den * closed_form_floor(mp.dps), prec)

    return CertReport(
        rows=rows,
        floor_constant=closed_form_floor(prec),
        floor_above_threshold=floor_sign > 0,
        f_increasing=f_increasing,
        g_increasing=g_increasing,
        h_increasing=h_increasing,
        g_of_h_4200=g_of_h,
        exp_threshold_ok=exp_sign <= 0,
        prec=prec,
    )
