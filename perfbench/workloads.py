"""The benchmark's workloads: primeth CLI command lists and the checks on their output.

Each workload is a list of Commands run in order in one fresh process.  A
check returns None when the output is right, else a one-line reason.  All
references come from ``oracle``, which shares no code with primeth; they
are computed once, when the workload is built.
"""

import csv
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from mpmath import mp, mpf

import oracle

NAMES = ["point", "sweep", "verdicts"]


@dataclass(frozen=True)
class Sizes:
    pi_anchors: tuple  # one `pi x` per anchor A, x uniform in [A, A + pi_width)
    pi_width: int
    nth_anchors: tuple  # one `nth n` per anchor A, n uniform in pi(A) + [1, nth_width]
    nth_width: int
    diag_x: int
    sweep: tuple  # (n_max, k_max)
    verdicts: tuple  # (n_max, k_max, prec)


# Point queries sit in narrow bands just above anchors with known pi(A):
# the seed then moves the answers but barely the cost (about x^(3/4)),
# and the references cost one short sieve each.
FULL = Sizes(
    pi_anchors=(10**10, 4 * 10**10, 10**11),
    pi_width=5 * 10**7,
    nth_anchors=(2 * 10**9, 10**10),
    nth_width=2 * 10**6,
    diag_x=10**10,
    sweep=(100, 6),
    verdicts=(2000, 3, 100),
)
QUICK = Sizes(
    pi_anchors=(10**7, 2 * 10**7, 10**8),
    pi_width=10**6,
    nth_anchors=(10**7, 10**8),
    nth_width=10**5,
    diag_x=10**7,
    sweep=(20, 4),
    verdicts=(200, 3, 100),
)


@dataclass
class Command:
    argv: list
    kind: str  # pi, nth, count, verify or certify
    check: Callable  # check(stdout, stderr) -> None or a reason


def build(name, seed, quick, cache_path):
    """Commands of workload ``name``; only ``point`` depends on the seed."""
    sizes = QUICK if quick else FULL
    if name == "point":
        return _point(random.Random(seed), sizes)
    if name == "sweep":
        n_max, k_max = sizes.sweep
        towers = oracle.towers(n_max, k_max)
        return [_verify("all", n_max, k_max, None, cache_path, towers)]
    if name == "verdicts":
        n_max, k_max, prec = sizes.verdicts
        towers = oracle.towers(n_max, k_max)
        return [
            _verify("all", n_max, k_max, prec, cache_path, towers),
            _verify("ineq3", n_max, k_max, prec, cache_path, towers),
            Command(["certify", "--prec", str(prec)], "certify", _check_certify),
        ]
    raise ValueError(f"unknown workload {name!r}")


def _equals(expected):
    def check(stdout, stderr):
        got = stdout.strip()
        return None if got == str(expected) else f"printed {got!r}, expected {expected}"

    return check


def _point(rng, sizes):
    cmds = []
    for anchor in sizes.pi_anchors:
        x = anchor + rng.randrange(sizes.pi_width)
        cmds.append(Command(["pi", str(x)], "pi", _equals(oracle.prime_pi(x))))
    for anchor in sizes.nth_anchors:
        n = oracle.PI_ANCHORS[anchor] + 1 + rng.randrange(sizes.nth_width)
        cmds.append(Command(["nth", str(n)], "nth", _equals(oracle.nth_prime(n))))
    x = sizes.diag_x
    cmds.append(Command(["count", "diag", str(x)], "count", _equals(oracle.count_diag(x))))
    return cmds


# Hypothesis of each bound as the paper states it; the CSV must mark exactly
# these rows applicable, and every applicable bound must hold.
HYPOTHESES = {
    "rosser_lower": lambda n, k: k == 1 and n >= 2,
    "rosser_upper": lambda n, k: k == 1 and n >= 3,
    "iter_upper": lambda n, k: n >= 9,
    "iter_upper_simple": lambda n, k: n >= 9 and k >= n,
    "iter_lower": lambda n, k: n >= 2,
    "iter_lower_huge_n": lambda n, k: False,
}
SUITE_BOUNDS = {"all": list(HYPOTHESES), "ineq3": ["iter_lower"]}
CSV_HEADER = ["n", "k", "value", "bound", "lhs", "rhs", "applicable", "holds"]


def _verify(suite, n_max, k_max, prec, cache_path, towers):
    argv = ["verify", suite, "--n-max", str(n_max), "--k-max", str(k_max)]
    if prec is not None:
        argv += ["--prec", str(prec)]
    argv += ["--cache", cache_path]
    expected = [
        (n, k, value, bound)
        for n, tower in towers.items()
        for k, value in enumerate(tower, start=1)
        for bound in SUITE_BOUNDS[suite]
    ]
    records = {(n, k, v) for n, tower in towers.items() for k, v in enumerate(tower, start=1)}

    def check(stdout, stderr):
        rows = list(csv.reader(line for line in stdout.splitlines() if not line.startswith("#")))
        if not rows or rows[0] != CSV_HEADER:
            return "missing CSV header"
        if len(rows) - 1 != len(expected):
            return f"{len(rows) - 1} CSV rows, expected {len(expected)}"
        applicable = 0
        for row, (n, k, value, bound) in zip(rows[1:], expected):
            app = HYPOTHESES[bound](n, k)
            applicable += app
            want = [str(n), str(k), str(value), bound]
            if row[:4] != want or row[6:] != (["yes", "yes"] if app else ["no", ""]):
                return f"row {row} does not match {want}, applicable={app}, holds"
        summary = f"applicable={applicable} held={applicable} violated=0"
        if summary not in stderr:
            return f"summary line lacks {summary!r}"
        return _check_cache(cache_path, records)

    return Command(argv, "verify", check)


def _check_cache(path, records):
    """The cache file holds exactly the towers' records, each once."""
    if not os.path.exists(path):
        return "cache file missing"
    with open(path, encoding="ascii") as fh:
        lines = [line.split() for line in fh if line.strip()]
    got = [(int(n), int(level), int(v)) for _, n, level, v in lines]
    if len(got) != len(records) or set(got) != records:
        return f"cache holds {len(got)} records, expected the {len(records)} tower values"
    return None


def _L(x):
    """L(x) = (x/(x+1))^(x+1) (log x / log(x+1))^(x+1), in log form."""
    return mp.exp((x + 1) * (mp.log(x / (x + 1)) + mp.log(mp.log(x) / mp.log(x + 1))))


def _floor_constant():
    a = mpf(4200)
    exponent = (a + 1) / a / mp.log((a + 1) / a)
    return (a / (a + 1)) ** (a + 1) * (mp.log(a) / mp.log(a + 1)) ** exponent


_POINT = re.compile(r"x=\s*(\S+)\s+L=(\S+)\s+margin=\S+\s+(\S+)")


def _close(printed, exact):
    return abs(mpf(printed) - exact) <= abs(exact) * mpf(10) ** -17


def _check_certify(stdout, stderr):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "verdict: pass":
        return "no 'verdict: pass' line"
    floor = [line for line in lines if line.startswith("closed-form floor constant: ")]
    points = 0
    with mp.workdps(60):
        if len(floor) != 1 or not _close(floor[0].split(": ")[1], _floor_constant()):
            return f"floor constant missing or wrong: {floor}"
        for line in lines:
            if line.startswith("x="):
                match = _POINT.fullmatch(line)
                x = mpf(match.group(1)) if match else None
                if not match or match.group(3) != "pass" or not _close(match.group(2), _L(x)):
                    return f"wrong L or verdict: {line}"
                points += x >= 4200
    return None if points >= 12 else f"only {points} points at x >= 4200"
