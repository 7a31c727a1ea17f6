"""Command-line surface: computation, verification suites, ratio tables.

Exit-code contract: 0 = pass, 1 = mathematical violation (a defect signal,
never produced by large inputs), 2 = budget/resource exhaustion, 3 = bad
usage or out-of-domain arguments.
"""

import argparse
import contextlib
import csv
import sys
from datetime import datetime, timezone

from . import bounds, certify, counting, engine, iterated
from .errors import (
    BudgetExceededError,
    DomainError,
    HypothesisViolatedError,
    InapplicableIndexError,
    InvalidRangeError,
    PrimethError,
    SegmentTooLargeError,
    ThresholdViolatedError,
    UnsupportedRangeError,
)
from .hpreal import format_hp

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

_SUITE_CHECKS = {
    "rosser": {"rosser_lower", "rosser_upper"},
    "lemma1": {"iter_upper", "iter_upper_simple"},
    "ineq3": {"iter_lower"},
    "all": None,  # no filter
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=iterated.DEFAULT_BUDGET,
                        help="largest permissible prime value (default 10^11)")
    common.add_argument("--prec", type=int, default=50,
                        help="significant decimal digits (default 50)")
    common.add_argument("--cache", metavar="PATH", default=None,
                        help="persistent tower cache file")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write CSV/report here instead of stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated-at comment line")

    parser = argparse.ArgumentParser(
        prog="primeth",
        description="iterated primes, their counting functions, and explicit bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nth", parents=[common], help="the nth prime")
    p.add_argument("n", type=int)

    p = sub.add_parser("pi", parents=[common], help="number of primes <= x")
    p.add_argument("x", type=int)

    p = sub.add_parser("iter", parents=[common], help="tower p_n^(1..k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("diag", parents=[common], help="diagonal element p_k^(k)")
    p.add_argument("k", type=int)

    p = sub.add_parser("count", parents=[common], help="exact counting functions")
    p.add_argument("kind", choices=["diag", "tower"])
    p.add_argument("args", type=int, nargs="+",
                   help="diag: X; tower: N X")

    p = sub.add_parser("verify", parents=[common], help="bound verification suites")
    p.add_argument("suite", choices=sorted(_SUITE_CHECKS))
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--k-max", type=int, default=5)

    p = sub.add_parser("certify", parents=[common],
                       help="high-precision floor certification for L(x)")
    p.add_argument("--x-min", type=int, default=certify.HYPOTHESIS_X_MIN)
    p.add_argument("--x-max", type=int, default=10**6)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = sub.add_parser("table", parents=[common],
                       help="count records, residuals, or diagonal ratios as CSV")
    p.add_argument("--xs", default=None, help="comma-separated x values")
    p.add_argument("--ns", default="", help="comma-separated tower bases")
    p.add_argument("--residuals", action="store_true",
                   help="diagonal growth residuals for k = 3..k-max")
    p.add_argument("--ratios", action="store_true",
                   help="ratios p_n^(k)/p_k^(k) for k = 1..k-max")
    p.add_argument("--n", type=int, default=1, help="base index for --ratios")
    p.add_argument("--k-max", type=int, default=7)

    return parser


@contextlib.contextmanager
def _open_out(args):
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _stamp(fh, args):
    if not args.no_timestamp:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        fh.write(f"# generated: {now}\n")


def _parse_int_list(text):
    if not text:
        return []
    return [int(part) for part in text.split(",") if part != ""]


def _cmd_nth(args):
    print(engine.nth_prime(args.n))
    return EXIT_OK


def _cmd_pi(args):
    print(engine.prime_count(args.x))
    return EXIT_OK


def _cmd_iter(args, cache):
    tower = iterated.iterate_prime(args.n, args.k, budget=args.budget, cache=cache)
    for v in tower.values:
        print(v)
    if tower.truncated:
        print(
            f"truncated at level {tower.depth} of {args.k}: "
            f"next value exceeds budget {args.budget}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_diag(args, cache):
    entry = iterated.diag_prime(args.k, budget=args.budget, cache=cache)
    print(entry.value)
    return EXIT_OK


def _cmd_count(args, cache):
    if args.kind == "diag":
        if len(args.args) != 1:
            raise DomainError("count diag takes exactly one argument: X")
        (x,) = args.args
        print(counting.count_diag(x, budget=args.budget, cache=cache))
    else:
        if len(args.args) != 2:
            raise DomainError("count tower takes exactly two arguments: N X")
        n, x = args.args
        print(counting.count_tower(n, x, budget=args.budget, cache=cache))
    return EXIT_OK


def _cmd_verify(args, cache):
    keep = _SUITE_CHECKS[args.suite]
    k_max = 1 if args.suite == "rosser" else args.k_max
    reports = []
    truncated = False
    for n in range(1, args.n_max + 1):
        try:
            tower = iterated.iterate_prime(n, k_max, budget=args.budget, cache=cache)
        except BudgetExceededError:
            truncated = True
            continue
        truncated = truncated or tower.truncated
        for k, value in enumerate(tower.values, start=1):
            reports.append(bounds.check_bounds(n, k, value, prec=args.prec))

    applicable = held = inapplicable = 0
    for rep in reports:
        rep.checks = [c for c in rep.checks if keep is None or c.name in keep]
        for c in rep.checks:
            if c.applicable:
                applicable += 1
                held += 1 if c.holds else 0
            else:
                inapplicable += 1

    with _open_out(args) as fh:
        _stamp(fh, args)
        bounds.write_report_csv(reports, fh, digits=min(args.prec, 20))

    violations = applicable - held
    print(
        f"suite={args.suite} applicable={applicable} held={held} "
        f"violated={violations} inapplicable={inapplicable}",
        file=sys.stderr,
    )
    if violations:
        return EXIT_VIOLATION
    if truncated:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_certify(args):
    grid = certify.CertGrid.default(
        x_min=args.x_min, x_max=args.x_max, count=args.points,
        prec=max(args.prec, certify.CERT_PREC),
    )
    report = certify.certify_threshold(grid)
    with _open_out(args) as fh:
        if args.format == "csv":
            _stamp(fh, args)
            report.to_csv(fh)
        else:
            fh.write(report.to_text() + "\n")
    # failures below x = 4200 are outside the hypothesis, not defects
    return EXIT_OK


def _cmd_table(args, cache):
    with _open_out(args) as fh:
        _stamp(fh, args)
        digits = min(args.prec, 20)
        if args.residuals:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "value", "residual"])
            for k in range(3, args.k_max + 1):
                try:
                    entry = iterated.diag_prime(k, budget=args.budget, cache=cache)
                except BudgetExceededError:
                    break
                res = bounds.theorem4_residual(k, k, entry.value, prec=args.prec)
                writer.writerow([k, entry.value, format_hp(res, digits)])
        elif args.ratios:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "numerator", "denominator", "ratio"])
            pairs = iterated.ratio_to_diagonal(
                args.n, args.k_max, budget=args.budget, prec=args.prec, cache=cache
            )
            tower = iterated.iterate_prime(
                args.n, args.k_max, budget=args.budget, cache=cache
            )
            for k, ratio in pairs:
                entry = iterated.diag_prime(k, budget=args.budget, cache=cache)
                writer.writerow(
                    [k, tower.values[k - 1], entry.value, format_hp(ratio, digits)]
                )
        else:
            xs = _parse_int_list(args.xs)
            ns = _parse_int_list(args.ns)
            records = counting.ratio_series(
                xs, ns, budget=args.budget, prec=args.prec, cache=cache
            )
            counting.write_count_csv(records, fh, digits=digits)
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.budget < 2:
        parser.error("--budget must be >= 2")
    if args.prec < 15:
        parser.error("--prec must be >= 15")
    cache = iterated.TowerCache(args.cache)
    try:
        if args.command == "nth":
            return _cmd_nth(args)
        if args.command == "pi":
            return _cmd_pi(args)
        if args.command == "iter":
            return _cmd_iter(args, cache)
        if args.command == "diag":
            return _cmd_diag(args, cache)
        if args.command == "count":
            return _cmd_count(args, cache)
        if args.command == "verify":
            return _cmd_verify(args, cache)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "table":
            return _cmd_table(args, cache)
        raise AssertionError(f"unhandled command {args.command}")
    except (BudgetExceededError, SegmentTooLargeError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ThresholdViolatedError as exc:
        print(f"mathematical violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (
        DomainError,
        HypothesisViolatedError,
        InapplicableIndexError,
        InvalidRangeError,
        UnsupportedRangeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrimethError as exc:  # e.g. cache format
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
