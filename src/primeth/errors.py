"""primeth's exceptions; each class carries its CLI ``exit_code`` and stderr ``prefix``.

One class per remedy: fix the arguments (DomainError), raise the budget
(BudgetExceededError), use a larger machine (UnsupportedRangeError), start
a fresh cache file (CacheFormatError), or report a defect (ThresholdViolatedError).
"""


class PrimethError(Exception):
    """Base class for all library errors."""

    exit_code = 3
    prefix = "error"


class UnsupportedRangeError(PrimethError):
    """Input lies beyond the supported range (primality from 2^64, counts and sieves from 2^48)."""


class BudgetExceededError(PrimethError):
    """A computation needed a prime value above the configured budget, or a
    sieve segment more odd integers than its size limit.

    ``deepest_level`` reports the last tower level that completed before
    the budget stopped the computation (0 when nothing completed).
    """

    exit_code = 2
    prefix = "budget exhausted"

    def __init__(self, message, deepest_level=0):
        super().__init__(message)
        self.deepest_level = deepest_level


class CacheFormatError(PrimethError):
    """Malformed line in a tower cache file; never skipped silently."""


class DomainError(PrimethError):
    """An argument outside what a function accepts: a range, an index below
    a bound's stated hypothesis, or a formula's hypothesis that fails."""


class ThresholdViolatedError(PrimethError):
    """A sampled point at or above 4200, or a supporting fact, fails the certified floor.

    This would contradict a proved inequality, so it is treated as a
    build-stopping defect rather than a reportable data point.
    """

    exit_code = 1
    prefix = "mathematical violation"
