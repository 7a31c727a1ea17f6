"""primeth: iterated primes p_n^(k), their counting functions, and the
explicit bounds that enclose them, all computed exactly."""

from .bounds import (
    log_lower_bound_L3,
    lower_bound_L3,
    lower_bound_simple,
    theorem4_residual,
    upper_bound_L1,
)
from .certify import (
    CertReport,
    certify_threshold,
    closed_form_floor,
    eval_L,
    eval_f,
    eval_g,
    eval_h,
)
from .counting import (
    comparator,
    count_diag,
    count_tower,
    ratio_series,
)
from .engine import (
    SegmentTable,
    is_prime,
    nth_prime,
    prime_count,
    sieve_segment,
)
from .errors import (
    BudgetExceededError,
    CacheFormatError,
    DomainError,
    PrimethError,
    ThresholdViolatedError,
    UnsupportedRangeError,
)
from .iterated import (
    DEFAULT_BUDGET,
    Tower,
    TowerCache,
    diag_prime,
    iterate_prime,
    ratio_to_diagonal,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CacheFormatError",
    "CertReport",
    "DEFAULT_BUDGET",
    "DomainError",
    "PrimethError",
    "SegmentTable",
    "ThresholdViolatedError",
    "Tower",
    "TowerCache",
    "UnsupportedRangeError",
    "certify_threshold",
    "closed_form_floor",
    "comparator",
    "count_diag",
    "count_tower",
    "diag_prime",
    "eval_L",
    "eval_f",
    "eval_g",
    "eval_h",
    "is_prime",
    "iterate_prime",
    "log_lower_bound_L3",
    "lower_bound_L3",
    "lower_bound_simple",
    "nth_prime",
    "prime_count",
    "ratio_series",
    "ratio_to_diagonal",
    "sieve_segment",
    "theorem4_residual",
    "upper_bound_L1",
]
