"""Command-line surface: computation, verification suites, ratio tables.

Exit-code contract: 0 = pass, 1 = mathematical violation (a defect signal,
never produced by large inputs), 2 = budget/resource exhaustion, 3 = bad
usage or out-of-domain arguments.
"""

import argparse
import contextlib
import csv
import functools
import sys
from datetime import datetime, timezone

from mpmath import mp, mpf

from . import bounds, certify, counting, engine, hpreal, iterated
from .errors import BudgetExceededError, DomainError, PrimethError, ThresholdViolatedError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes only flags spelled in full; usage errors exit 3, not 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text):
    """argparse type of table's inputs: comma-separated integers, none empty."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


@functools.cache  # built once per process; each main call parses with it
def _build_parser():
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=iterated.DEFAULT_BUDGET,
                        help="largest permissible prime value (default 10^11; pi ignores it)")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", metavar="PATH", default=None,
                       help="persistent tower cache file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--prec", type=int, default=hpreal.DEFAULT_PREC,
                        help=f"significant decimal digits (default {hpreal.DEFAULT_PREC}); "
                             "verify prints each bound to min(PREC, 20) of them and decides "
                             "no verdict by it")
    report.add_argument("--out", metavar="PATH", default=None,
                        help="write CSV/report here instead of stdout")
    report.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated-at comment line")

    parser = _Parser(
        prog="primeth",
        description="iterated primes, their counting functions, and explicit bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nth", parents=[budget], help="the nth prime")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_nth)

    p = sub.add_parser("pi", parents=[budget], help="number of primes <= x")
    p.add_argument("x", type=int)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("iter", parents=[budget, cache], help="tower p_n^(1..k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_iter)

    p = sub.add_parser("diag", parents=[budget, cache], help="diagonal element p_k^(k)")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("count", parents=[budget, cache], help="exact counting functions")
    p.add_argument("kind", choices=["diag", "tower"])
    p.add_argument("args", type=int, nargs="+",
                   help="diag: X; tower: N X")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", parents=[budget, cache, report],
                       help="bound verification suites")
    p.add_argument("suite", choices=sorted(bounds.SUITES))
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--k-max", type=int, default=5)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", parents=[report],
                       help="high-precision floor certification for L(x)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("table", parents=[budget, cache, report],
                       help="count, residual or ratio rows as CSV")
    p.add_argument("kind", choices=["counts", "residuals", "ratios"])
    p.add_argument("args", type=_int_list, nargs="+",
                   help="counts: XS [NS]; residuals: K; ratios: N K (XS, NS comma-separated)")
    p.set_defaults(func=_cmd_table)

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


def _truncated(depth, k, budget):
    """Note on stderr that the budget stopped a run after level ``depth`` of ``k``."""
    print(f"truncated at level {depth} of {k}: next value exceeds budget {budget}",
          file=sys.stderr)
    return EXIT_BUDGET


def _cmd_nth(args, cache):
    if iterated.proved_above(args.n, args.budget) or (p := engine.nth_prime(args.n)) > args.budget:
        raise BudgetExceededError(f"p_{args.n} already exceeds budget {args.budget}")
    print(p)
    return EXIT_OK


def _cmd_pi(args, cache):
    print(engine.prime_count(args.x))
    return EXIT_OK


def _cmd_iter(args, cache):
    tower = iterated.iterate_prime(args.n, args.k, budget=args.budget, cache=cache)
    for v in tower.values:
        print(v)
    if tower.truncated:
        return _truncated(tower.depth, args.k, args.budget)
    return EXIT_OK


def _cmd_diag(args, cache):
    print(iterated.diag_prime(args.k, budget=args.budget, cache=cache))
    return EXIT_OK


def _cmd_count(args, cache):
    if args.kind == "diag" and len(args.args) != 1:
        raise DomainError("count diag takes exactly one argument: X")
    if args.kind == "tower" and len(args.args) != 2:
        raise DomainError("count tower takes exactly two arguments: N X")
    count = counting.count_diag if args.kind == "diag" else counting.count_tower
    print(count(*args.args, budget=args.budget, cache=cache))
    return EXIT_OK


def _cmd_verify(args, cache):
    if args.n_max < 1 or args.k_max < 1:
        raise DomainError("tower requires n >= 1 and k >= 1")
    k_max = 1 if args.suite == "rosser" else args.k_max
    tally = dict.fromkeys((True, False, None), 0)  # rows by holds; None: inapplicable
    digits = min(args.prec, 20)  # printed digits of each bound; no verdict depends on them
    walk = iterated.towers(range(1, args.n_max + 1), k_max, args.budget, cache)
    lines = bounds.check_bounds(walk, args.suite, digits, tally)

    with _open_out(args) as fh:  # only now, so an error above leaves --out as it was
        _stamp(fh, args)
        bounds.write_report_csv(lines, fh)

    held, violations = tally[True], tally[False]
    print(
        f"suite={args.suite} applicable={held + violations} held={held} "
        f"violated={violations} inapplicable={tally[None]}",
        file=sys.stderr,
    )
    if violations:
        return EXIT_VIOLATION
    if any(len(values) < k_max for values in walk.values()):  # none: p_n itself > budget
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_certify(args, cache):
    report = certify.certify_threshold(max(args.prec, certify.CERT_PREC))
    if failed := report.failed_facts():
        raise ThresholdViolatedError("supporting fact of the floor fails: " + "; ".join(failed))
    with _open_out(args) as fh:
        _stamp(fh, args)
        fh.write(report.to_text() + "\n")
    return EXIT_OK


def _cmd_table(args, cache):
    try:  # XS and NS are lists, N and K single integers
        if args.kind == "counts":
            xs, ns = args.args if len(args.args) > 1 else (*args.args, [])
        elif args.kind == "residuals":
            [[k_max]] = args.args
        else:
            [n], [k_max] = args.args
    except ValueError:
        form = {"counts": "XS [NS]", "residuals": "K", "ratios": "N K"}[args.kind]
        raise DomainError(f"table {args.kind} takes {form}") from None
    depth = None  # the last level written, when the budget cut the table short
    if args.kind == "counts":
        header = ["x", "diag_count", "tower_n", "tower_count", "comparator"]
        rows = counting.ratio_series(xs, ns, budget=args.budget, prec=args.prec, cache=cache)
    elif args.kind == "residuals":
        header = ["k", "value", "residual"]
        rows = []
        for k in range(3, k_max + 1):
            try:
                value = iterated.diag_prime(k, budget=args.budget, cache=cache)
            except BudgetExceededError:
                depth = k - 1
                break
            rows.append((k, value, bounds.theorem4_residual(k, k, value, args.prec)))
    else:
        header = ["k", "numerator", "denominator", "ratio"]
        rows = iterated.ratio_to_diagonal(
            n, k_max, budget=args.budget, prec=args.prec, cache=cache
        )
        if len(rows) < k_max:
            depth = len(rows)
    digits = min(args.prec, 20)
    with _open_out(args) as fh:  # only now, so an error above leaves --out as it was
        _stamp(fh, args)
        writer = csv.writer(fh, lineterminator="\n")  # None is written as ""
        writer.writerow(header)
        for row in rows:
            writer.writerow(mp.nstr(v, digits) if isinstance(v, mpf) else v for v in row)
    return EXIT_OK if depth is None else _truncated(depth, k_max, args.budget)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for option, least in (("budget", 2), ("prec", 15)):  # where the subcommand takes it
        if getattr(args, option, least) < least:
            parser.error(f"--{option} must be >= {least}")
    try:
        return args.func(args, iterated.TowerCache(getattr(args, "cache", None)))
    except PrimethError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an unusable --cache or --out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
