"""Numerical certification of the L(x) > 0.32627 floor for x >= 4200.

L(x) = (x/(x+1))^(x+1) * (log x / log(x+1))^(x+1).  The verification is
sampled, not interval-certified: every grid point is evaluated at high
precision, the closed-form floor constant from the monotonicity argument
is reproduced, and the auxiliary functions f, g, h are spot-checked for
monotonicity on adjacent grid points.

h(x) = log(x+1) / (log(x+1) - log x) loses about log10(x) digits to
cancellation, so its denominator is computed with boosted precision.
"""

import csv
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError, ThresholdViolatedError

THRESHOLD = mpf("0.32627")
HYPOTHESIS_X_MIN = 4200
CERT_PREC = 60


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
class CertGrid:
    """Sample points for the certification run."""

    points: list
    prec: int = CERT_PREC

    @classmethod
    def default(cls, x_min=HYPOTHESIS_X_MIN, x_max=10**6, count=12, prec=CERT_PREC):
        """Geometric spacing from x_min up, plus both hypothesis-boundary points."""
        pts = set()
        if x_min <= HYPOTHESIS_X_MIN <= x_max:
            pts.add(HYPOTHESIS_X_MIN)
            if HYPOTHESIS_X_MIN + 1 <= x_max:
                pts.add(HYPOTHESIS_X_MIN + 1)
        ratio = (x_max / x_min) ** (1 / max(1, count - 1))
        v = float(x_min)
        for _ in range(count):
            pts.add(int(round(v)))
            v *= ratio
        pts.add(x_max)
        return cls(points=sorted(pts), prec=prec)


@dataclass
class CertReport:
    rows: list  # (x, L, margin, passed)
    floor_constant: object
    f_increasing: bool
    g_increasing: bool
    h_increasing: bool
    g_of_h_4200: object
    exp_threshold_ok: bool  # e^(e/0.32627) <= 4200
    prec: int

    @property
    def all_pass(self):
        return all(passed for _, _, _, passed in self.rows)

    def to_csv(self, fh, digits=None):
        digits = digits or min(self.prec, 20)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "L", "margin", "pass"])
        for x, lval, margin, passed in self.rows:
            writer.writerow(
                [
                    mp.nstr(mpf(x), digits),
                    mp.nstr(lval, digits),
                    mp.nstr(margin, digits),
                    "yes" if passed else "no",
                ]
            )

    def to_text(self):
        digits = min(self.prec, 20)
        lines = []
        lines.append(f"threshold: L(x) > {THRESHOLD} for x >= {HYPOTHESIS_X_MIN}")
        lines.append(
            "closed-form floor constant: " + mp.nstr(self.floor_constant, digits)
        )
        lines.append(f"f monotone increasing on grid: {'yes' if self.f_increasing else 'no'}")
        lines.append(f"g monotone increasing on grid: {'yes' if self.g_increasing else 'no'}")
        lines.append(f"h monotone increasing on grid: {'yes' if self.h_increasing else 'no'}")
        lines.append(
            "g(h(4200)) = " + mp.nstr(self.g_of_h_4200, digits) + " (must lie in (0,1))"
        )
        lines.append(
            "e^(e/threshold) <= 4200: " + ("yes" if self.exp_threshold_ok else "no")
        )
        for x, lval, margin, passed in self.rows:
            lines.append(
                f"x={mp.nstr(mpf(x), 12):>16}  L={mp.nstr(lval, digits)}  "
                f"margin={mp.nstr(margin, digits)}  {'pass' if passed else 'FAIL'}"
            )
        lines.append("verdict: " + ("pass" if self.all_pass else "FAIL"))
        return "\n".join(lines)


def certify_threshold(grid):
    """Evaluate L over the grid and corroborate the floor's supporting facts.

    A violation at a point inside the hypothesis (x >= 4200) contradicts a
    proved inequality and raises; points below 4200 merely report.
    """
    prec = grid.prec
    rows = []
    for x in grid.points:
        lval = eval_L(x, prec)
        with mp.workdps(prec):
            margin = +(lval - THRESHOLD)
        passed = margin > 0
        if not passed and x >= HYPOTHESIS_X_MIN:
            raise ThresholdViolatedError(
                f"L({x}) = {mp.nstr(lval, 20)} <= {THRESHOLD}: "
                "contradicts the proved floor; build-stopping defect"
            )
        rows.append((x, lval, margin, passed))

    f_vals = [eval_f(x, prec) for x in grid.points]
    f_increasing = all(a < b for a, b in zip(f_vals, f_vals[1:]))

    # g and h checked on their own logarithmic grids above their domains
    t_grid = [mpf(2) * mpf(4) ** i for i in range(10)]
    g_vals = [eval_g(t, prec) for t in t_grid]
    g_increasing = all(a < b for a, b in zip(g_vals, g_vals[1:]))
    h_vals = [eval_h(x, prec) for x in t_grid]
    h_increasing = all(a < b for a, b in zip(h_vals, h_vals[1:]))

    g_of_h = eval_g(eval_h(HYPOTHESIS_X_MIN, prec), prec)

    with mp.workdps(prec):
        exp_threshold_ok = mp.exp(mp.e / THRESHOLD) <= HYPOTHESIS_X_MIN

    return CertReport(
        rows=rows,
        floor_constant=closed_form_floor(prec),
        f_increasing=f_increasing,
        g_increasing=g_increasing,
        h_increasing=h_increasing,
        g_of_h_4200=g_of_h,
        exp_threshold_ok=exp_threshold_ok,
        prec=prec,
    )
