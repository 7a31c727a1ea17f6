import argparse
import hashlib
import os
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from mpmath import libmp, mpf

import primeth
from primeth import PrimethError, TowerCache, bounds, certify, engine, errors, hpreal
from primeth.cli import _build_parser, main

from oracle import L_by_decimal, bound_by_decimal, sieve_primes, tower_by_sieve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, *argv):
    """Exit code and stderr of one CLI call, whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestOptions:
    # the options each subcommand takes; every one of them is read
    OPTIONS = {
        "nth": {"--budget"},
        "pi": {"--budget"},
        "iter": {"--budget", "--cache"},
        "diag": {"--budget", "--cache"},
        "count": {"--budget", "--cache"},
        "verify": {"--budget", "--cache", "--prec", "--out", "--no-timestamp",
                   "--n-max", "--k-max"},
        "certify": {"--prec", "--out", "--no-timestamp"},
        "table": {"--budget", "--cache", "--prec", "--out", "--no-timestamp"},
    }

    def test_option_sets_pinned(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {
                option
                for action in p._actions
                if not isinstance(action, argparse._HelpAction)
                for option in action.option_strings
            }
            for name, p in sub.choices.items()
        }
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 23

    @pytest.mark.parametrize(
        "argv",
        [
            ["pi", "100", "--prec", "80"],
            ["iter", "1", "3", "--budget", "1"],
            ["table", "counts", "1,a"],
            ["table", "residuals", "ratios"],
            ["table"],
            # a flag of another table kind, or no longer taken by any
            ["table", "ratios", "1", "2", "--xs", "100"],
            ["table", "counts", "100", "--n", "5"],
            ["table", "residuals", "7", "--ratios"],
            # the wrong number or shape of inputs
            ["table", "ratios", "1"],
            ["table", "residuals", "3,4"],
            ["table", "counts", "1", "2", "3"],
            # an empty item in XS or NS
            ["table", "counts", "1,,2"],
            ["table", "counts", "1,2,"],
            ["table", "counts", ""],
            ["table", "counts", "100", "1,,2"],
            # abbreviated flags
            ["verify", "all", "--n-m", "3", "--k-m", "1", "--no-t"],
            ["pi", "100", "--bud", "5"],
            ["table", "ratios", "1", "3", "--n"],
            ["nth", "0"],
            ["count", "diag", "1", "2"],
            ["count", "tower", "5"],
            ["certify", "--x-min", "0"],
            ["certify", "--points", "4"],
            ["certify", "--format", "csv"],
            ["verify", "lemma2"],  # no such suite
            ["frobnicate"],
        ],
        ids=" ".join,
    )
    def test_bad_request_exits_3(self, capsys, argv):
        code, err = exit_code(capsys, *argv)
        assert code == 3
        assert "error: " in err
        assert "Traceback" not in err

    def test_usage_error_exits_3_from_process(self):
        env = {**os.environ, "PYTHONPATH": str(Path(primeth.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "primeth", "pi", "100", "--prec", "80"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines()[-1] == (
            "primeth: error: unrecognized arguments: --prec 80"
        )
        assert proc.stdout == ""


class TestScalarCommands:
    def test_nth(self, capsys):
        code, out, _ = run(capsys, "nth", "25")
        assert code == 0 and out == "97\n"

    @pytest.mark.parametrize(
        "argv, expected, table",
        [
            (["nth", "1000"], "7919\n", 1 << 13),
            (["iter", "5", "4"], "11\n31\n127\n709\n", 1 << 10),
        ],
        ids=["nth", "iter"],
    )
    def test_small_levels_read_a_small_table(self, capsys, fresh_table, argv, expected, table):
        # each lookup grows the table to the power of two at or above Dusart's
        # lower bound on its prime, which holds it: 1000 (ln 1000 + ln ln 1000
        # - 1) < 7919 < 2^13, 127 (ln 127 + ln ln 127 - 1) < 709 < 2^10
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected)
        assert engine._TABLE[0] == table

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["diag", "5"], "5381\n"),
            (
                ["table", "ratios", "5", "5", "--no-timestamp"],
                "k,numerator,denominator,ratio\n1,11,2,5.5\n2,31,5,6.2\n"
                "3,127,31,4.0967741935483870968\n4,709,277,2.5595667870036101083\n"
                "5,5381,5381,1.0\n",
            ),
        ],
        ids=["diag", "ratios"],
    )
    def test_diagonal_reads_a_small_table(self, capsys, fresh_table, argv, expected):
        # p_5^(5) = p_709 = 5381 needs the primes up to 2^13, not the 2^24 table
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected)
        assert engine._TABLE[0] <= 1 << 13

    def test_pi(self, capsys):
        code, out, _ = run(capsys, "pi", "100")
        assert code == 0 and out == "25\n"

    def test_iter(self, capsys):
        code, out, _ = run(capsys, "iter", "1", "5")
        assert code == 0
        assert out.split() == ["2", "3", "5", "11", "31"]

    def test_diag(self, capsys):
        code, out, _ = run(capsys, "diag", "1")
        assert code == 0 and out == "2\n"

    def test_count_diag(self, capsys):
        code, out, _ = run(capsys, "count", "diag", "100")
        assert code == 0 and out == "3\n"
        code, out, _ = run(capsys, "count", "diag", "1")
        assert code == 0 and out == "0\n"

    def test_count_tower(self, capsys):
        code, out, _ = run(capsys, "count", "tower", "1", "100")
        assert code == 0 and out == "5\n"


class TestExitCodes:
    def test_iter_truncation_exits_budget(self, capsys):
        code, out, err = run(capsys, "iter", "1", "20", "--budget", "100")
        assert code == 2
        assert out.split() == ["2", "3", "5", "11", "31"]
        assert "budget" in err

    def test_diag_budget(self, capsys):
        code, _, err = run(capsys, "diag", "20", "--budget", "1000000")
        assert code == 2 and "budget" in err

    def test_count_above_budget(self, capsys):
        # exact pi decides x = p_7^(7) below 2^24; neither the chain nor the
        # bracket of p_8^(8) decides p_8^(8) <= x at x = p_8^(8), so the walk must run
        assert run(capsys, "count", "diag", "2269733", "--budget", "1000") == (0, "7\n", "")
        assert run(capsys, "count", "diag", "50728129", "--budget", "1000") == (
            2, "", "budget exhausted: x=50728129 above budget 1000: "
                   "bracketing element not computable\n",
        )

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["count", "diag", f"{10**21}"], 16),
            (["count", "diag", f"{10**100}"], 52),
            (["count", "diag", f"{10**1000}"], 349),
            (["count", "tower", "1", f"{10**50}"], 35),
            (["count", "diag", "10000000", "--budget", "1000"], 7),
        ],
        ids=["diag_1e21", "diag_1e100", "diag_1e1000", "tower_1e50", "diag_1e7_budget_1000"],
    )
    def test_count_decided_by_the_chain_needs_no_budget(self, capsys, argv, count):
        # 349 at 10^1000 was recorded from the brackets on p_m that the chain replaced
        assert run(capsys, *argv) == (0, f"{count}\n", "")

    def test_nth_above_budget(self, capsys):
        line = "budget exhausted: p_{} already exceeds budget {}\n"
        assert run(capsys, "nth", "100000000000") == (2, "", line.format(10**11, 10**11))
        # Dusart's lower end, 7840, leaves p_1000 = 7919 to the lookup
        assert run(capsys, "nth", "1000", "--budget", "7918") == (2, "", line.format(1000, 7918))
        assert run(capsys, "nth", "1000", "--budget", "7919") == (0, "7919\n", "")

    def test_nth_above_budget_allocates_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "nth_prime", lambda n: pytest.fail(f"nth_prime({n})"))
        tracemalloc.start()
        try:
            code = main(["nth", "100000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20

    def test_count_inside_a_bracket_past_2_48_exits_3(self, capsys):
        # the chain decides 5.5e15; past 2^48, at 5519908106212193, neither it
        # nor the bracket of p_13^(13), whose exact value is past 2^48, decides
        budget = "10000000000000000"
        assert run(capsys, "count", "diag", "5500000000000000", "--budget", budget) == (
            0, "12\n", ""
        )
        code, out, err = run(capsys, "count", "diag", "5519908106212193", "--budget", budget)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "the bracket of p_13^(13), whose exact value is past 2^48" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "nth", "0")
        assert code == 3 and "error" in err

    # out-of-domain arguments: each prints its one line and exits 3
    DOMAIN_LINES = [
        (["pi", "-1"], "prime_count requires x >= 0"),
        (["nth", "0"], "nth_prime requires n >= 1"),
        (["iter", "0", "3"], "tower requires n >= 1 and k >= 1"),
        (["iter", "3", "0"], "tower requires n >= 1 and k >= 1"),
        (["diag", "0"], "diag_prime requires k >= 1"),
        (["count", "diag", "0"], "count_diag requires x >= 1"),
        (["count", "tower", "0", "5"], "count_tower requires n >= 1 and x >= 1"),
        (["table", "counts", "30,20"], "xs must be sorted ascending"),
        (["table", "ratios", "0", "3"], "ratio table requires n >= 1 and k_max >= 1"),
    ]

    @pytest.mark.parametrize(
        "argv, line", DOMAIN_LINES, ids=[" ".join(argv) for argv, _ in DOMAIN_LINES]
    )
    def test_domain_error_line_pinned(self, capsys, argv, line):
        assert run(capsys, *argv) == (3, "", f"error: {line}\n")

    HUGE = 10**400
    PAST_2_48 = "error: nth_prime requires n < 2^48, as p_n > n must stay below it"
    ABOVE = f"budget exhausted: p_{HUGE} already exceeds budget"

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["nth", f"{HUGE}"], 2, f"{ABOVE} 100000000000"),
            (["iter", f"{HUGE}", "2"], 2, f"{ABOVE} 100000000000"),
            (["diag", f"{HUGE}"], 2, f"{ABOVE} 100000000000"),
            (["table", "ratios", f"{HUGE}", "3"], 2, f"{ABOVE} 100000000000"),
            (["iter", f"{HUGE}", "2", "--budget", f"{10**402}"], 2, f"{ABOVE} {10**402}"),
            (["iter", f"{HUGE}", "2", "--budget", f"{10**500}"], 3, PAST_2_48),
        ],
        ids=["nth", "iter", "diag", "table_ratios", "iter_budget_1e402", "iter_budget_1e500"],
    )
    def test_huge_index_prints_one_line(self, capsys, argv, code, line):
        # an index past the float range once raised OverflowError, exit 1
        assert run(capsys, *argv) == (code, "", line + "\n")

    def test_bad_cache_exits_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        env = {**os.environ, "PYTHONPATH": str(Path(primeth.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "primeth", "iter", "1", "3", "--cache", str(bad)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["iter", "1", "3", "--cache", "{tmp}"],
            ["verify", "all", "--n-max", "5", "--k-max", "2", "--out", "{tmp}/missing/x.csv"],
        ],
        ids=["cache_is_a_directory", "out_in_a_missing_directory"],
    )
    def test_unusable_path_exits_3(self, tmp_path, argv):
        # each once ended in an OSError traceback, exit 1
        env = {**os.environ, "PYTHONPATH": str(Path(primeth.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "primeth", *(a.format(tmp=tmp_path) for a in argv)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert str(tmp_path) in proc.stderr
        assert proc.stdout == ""

    def test_non_prime_cache_value_exits_3(self, tmp_path):
        # "T 1 1 4" parses, but 4 is not prime; trusted, it gave 4, 7, 17
        bad = tmp_path / "bad.txt"
        bad.write_text("T 1 1 4\n")
        env = {**os.environ, "PYTHONPATH": str(Path(primeth.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "primeth", "iter", "1", "3", "--cache", str(bad)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"error: {bad}: p_1^(1) = 4 is not prime"]
        assert proc.stdout == ""

    def test_torn_final_record_exits_3(self, capsys, tmp_path):
        # trusted, this run appended "T 1 3 5" to the torn line, and only the
        # next run failed, on the record "T 1 2 3T 1 3 5"
        path = tmp_path / "towers.txt"
        path.write_text("T 1 1 2\nT 1 2 3")
        code, out, err = run(capsys, "iter", "1", "4", "--cache", str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: {path}:2: torn record 'T 1 2 3'\n"
        assert path.read_text() == "T 1 1 2\nT 1 2 3"

    @pytest.mark.parametrize(
        "records, argv, message",
        [
            # trusted, these printed 3 5 11 31 and 11 37 157
            ("T 1 1 3\n", ["iter", "1", "4"], "p_1^(1) = 3 is not p_1 = 2"),
            ("T 5 1 11\nT 5 2 37\n", ["iter", "5", "3"], "p_5^(2) = 37 is not p_11 = 31"),
        ],
        ids=["level_1", "level_2"],
    )
    def test_cache_value_not_its_indexed_prime_exits_3(
        self, capsys, tmp_path, records, argv, message
    ):
        path = tmp_path / "towers.txt"
        path.write_text(records)
        code, out, err = run(capsys, *argv, "--cache", str(path))
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    # exit codes and stderr prefixes as the README's exit-code contract states
    DOCUMENTED = {
        errors.PrimethError: (3, "error: "),
        errors.UnsupportedRangeError: (3, "error: "),
        errors.BudgetExceededError: (2, "budget exhausted: "),
        errors.CacheFormatError: (3, "error: "),
        errors.DomainError: (3, "error: "),
        errors.ThresholdViolatedError: (1, "mathematical violation: "),
    }

    def test_every_error_type_is_documented(self):
        assert set(PrimethError.__subclasses__()) | {PrimethError} == set(self.DOCUMENTED)

    @pytest.mark.parametrize("error", list(DOCUMENTED), ids=lambda e: e.__name__)
    def test_error_type_carries_exit_code(self, capsys, monkeypatch, error):
        code, prefix = self.DOCUMENTED[error]
        assert error.exit_code == code

        def fail(n):
            raise error("probe")

        monkeypatch.setattr(engine, "nth_prime", fail)
        assert main(["nth", "5"]) == code
        captured = capsys.readouterr()
        assert captured.err == prefix + "probe\n"
        assert captured.out == ""

    def test_config_invariants(self, capsys):
        assert exit_code(capsys, "nth", "5", "--budget", "1")[0] == 3
        assert exit_code(capsys, "verify", "all", "--prec", "10")[0] == 3


class TestVerify:
    def test_rosser_clean(self, capsys):
        code, out, err = run(
            capsys, "verify", "rosser", "--n-max", "1000", "--no-timestamp"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value,bound,lhs,rhs,applicable,holds"
        assert "violated=0" in err
        # every applicable row held
        assert not any(line.endswith(",no") and ",yes," in line for line in lines[1:])

    def test_lemma1_small_grid(self, capsys):
        code, _, err = run(
            capsys, "verify", "lemma1", "--n-max", "20", "--k-max", "4",
            "--no-timestamp",
        )
        assert code == 0
        assert "violated=0" in err

    def test_ineq3_empty_hypothesis(self, capsys):
        code, _, err = run(
            capsys, "verify", "ineq3", "--n-max", "1", "--k-max", "1",
            "--no-timestamp",
        )
        assert code == 0
        assert "applicable=0" in err

    def test_all_suite(self, capsys):
        code, _, err = run(
            capsys, "verify", "all", "--n-max", "12", "--k-max", "3",
            "--no-timestamp",
        )
        assert code == 0
        assert "violated=0" in err

    @pytest.mark.parametrize(
        "suite, digest",
        [
            ("all", "7e789e821fe99a820683bd7afd0e22124f19c1385277866d7c516445b5814889"),
            ("ineq3", "054a5a3810ee2542f553fdd6ea70639e21956603a8b4bc8a266ef64da53679f2"),
        ],
    )
    def test_output_pinned(self, capsys, suite, digest):
        # SHA-256 of stdout recorded before bound checks moved into one table
        code, out, _ = run(
            capsys, "verify", suite, "--n-max", "150", "--k-max", "3",
            "--prec", "100", "--no-timestamp",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "suite, digest",
        [
            ("all", "a2040eebb9ccaa08cfabf5d1ca0e5faaa53cdc9bb2d6664de26a05b15d09939d"),
            ("ineq3", "f74f11b864fce923a1550c4e945187e538ee3b634fee5c29c0fb3c89c0d613fe"),
        ],
    )
    def test_output_pinned_to_n_2000(self, capsys, suite, digest):
        # SHA-256 of stdout recorded at 3473ce9, before compare_int decided
        # its sign and its escalation in integer arithmetic
        code, out, _ = run(
            capsys, "verify", suite, "--n-max", "2000", "--k-max", "3",
            "--prec", "100", "--no-timestamp",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "suite, prec, names",
        [
            ("all", 50, {"rosser_lower", "rosser_upper", "iter_upper", "iter_lower"}),
            ("all", 20, {"rosser_lower", "rosser_upper", "iter_upper", "iter_lower"}),
            ("all", 15, {"rosser_lower", "rosser_upper", "iter_upper", "iter_lower"}),
            ("ineq3", 50, {"iter_lower"}),
            ("ineq3", 15, {"iter_lower"}),
        ],
        ids=["all-50", "all-20", "all-15", "ineq3-50", "ineq3-15"],
    )
    def test_rows_match_decimal_oracle(self, capsys, suite, prec, names):
        # each verdict against a 60-digit stdlib-decimal bound, and each
        # printed bound (min(prec, 20) digits) within half a unit in its
        # last digit of that bound: correctly rounded, at every --prec
        code, out, _ = run(
            capsys, "verify", suite, "--n-max", "300", "--k-max", "3",
            "--prec", str(prec), "--no-timestamp",
        )
        assert code == 0
        digits = min(prec, 20)
        checked = set()
        for row in out.splitlines()[1:]:
            n, k, value, name, lhs, rhs, applicable, holds = row.split(",")
            if applicable == "no":
                continue
            exact = bound_by_decimal(name, int(n), int(k), 60)
            lower = name.endswith("_lower")
            printed = Decimal(lhs if lower else rhs)
            assert (holds == "yes") == ((exact < int(value)) if lower else (int(value) < exact))
            assert abs(printed - exact) <= Decimal(5).scaleb(exact.adjusted() - digits), row
            checked.add(name)
        assert checked == names

    @pytest.mark.parametrize(
        "suite, names",
        [
            ("rosser", {"rosser_lower", "rosser_upper"}),
            ("lemma1", {"iter_upper", "iter_upper_simple"}),
            ("ineq3", {"iter_lower"}),
        ],
    )
    def test_suite_is_a_subset_of_all(self, capsys, suite, names):
        flags = ["--n-max", "30", "--k-max", "3", "--no-timestamp"]
        _, everything, _ = run(capsys, "verify", "all", *flags)
        code, out, _ = run(capsys, "verify", suite, *flags)
        assert code == 0
        header, *rows = everything.splitlines()
        kept = [
            row for row in rows
            if row.split(",")[3] in names and (suite != "rosser" or row.split(",")[1] == "1")
        ]
        assert out.splitlines() == [header] + kept

    @pytest.mark.parametrize("n_max, k_max, table", [(2000, 3, 1 << 22), (100, 4, 1 << 19)])
    def test_tables_sized_to_the_top_bracket(self, capsys, fresh_table, n_max, k_max, table):
        # p_2000^(3) <= 2644271 < 2^22, p_100^(4) <= 440117 < 2^19: verify
        # builds that table, not the 2^24 one, and the values stay exact
        code, out, _ = run(
            capsys, "verify", "ineq3", "--n-max", str(n_max), "--k-max", str(k_max),
            "--prec", "15", "--no-timestamp",
        )
        assert code == 0
        assert engine._TABLE[0] == table
        primes = sieve_primes(2_700_000)
        rows = [tuple(map(int, row.split(",")[:3])) for row in out.splitlines()[1:]]
        assert rows == [
            (n, k, v)
            for n in range(1, n_max + 1)
            for k, v in enumerate(tower_by_sieve(n, k_max, primes), start=1)
        ]

    @pytest.mark.parametrize(
        "flags",
        [[suite, *flags] for suite in ("all", "rosser") for flags in (
            ["--k-max", "0"], ["--k-max", "-1", "--n-max", "3"], ["--n-max", "0"], ["--n-max", "-5"]
        )],
    )
    def test_no_levels_is_a_usage_error(self, capsys, flags):
        # rosser walks one level whatever --k-max says, and refuses k < 1 all the same
        code, out, err = run(capsys, "verify", *flags, "--no-timestamp")
        assert (code, out) == (3, "")
        assert err == "error: tower requires n >= 1 and k >= 1\n"

    def test_one_comparison_per_applicable_row(self, capsys, monkeypatch):
        # sign_and_text decides each row, once, from its first enclosure
        calls = []
        sign_and_text = bounds.sign_and_text

        def counted(lo, hi, bits, value, digits):
            calls.append(bits)
            return sign_and_text(lo, hi, bits, value, digits)

        monkeypatch.setattr(bounds, "sign_and_text", counted)
        code, out, err = run(
            capsys, "verify", "ineq3", "--n-max", "50", "--k-max", "3",
            "--no-timestamp",
        )
        assert code == 0
        applicable = [row for row in out.splitlines()[1:] if ",yes," in row]
        assert len(calls) == len(applicable) == 49 * 3
        assert set(calls) == {bounds._START_BITS}
        assert "applicable=147 " in err

    def test_budget_limited_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "ineq3", "--n-max", "5", "--k-max", "10",
            "--budget", "10000", "--no-timestamp",
        )
        assert code == 2

    def test_base_above_budget_exits_2(self, capsys):
        # p_5 = 11 exceeds the budget, so the tower over n = 5 is empty
        code, out, err = run(
            capsys, "verify", "ineq3", "--n-max", "5", "--k-max", "1",
            "--budget", "10", "--no-timestamp",
        )
        assert code == 2
        assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [
            ["1", "1", "2"], ["2", "1", "3"], ["3", "1", "5"], ["4", "1", "7"],
        ]
        assert "applicable=3 held=3 violated=0 inapplicable=1" in err

    def test_violated_bound_exits_1(self, capsys, monkeypatch):
        # a row whose bound, p_n + 1 (an _enclose patched to give it at each n),
        # lies above every tower value it is checked against
        row = bounds.Bound("iter_lower", ("ineq3",), lambda k: (1, math.inf), "lower",
                           lambda k: (1, 0, 1, 1, k))
        monkeypatch.setitem(bounds.SUITES, "ineq3", (row,))
        monkeypatch.setattr(
            bounds, "_enclose",
            lambda term, ns, bits: [[(engine.nth_prime(n) + 1) << bits for n in ns]] * 2,
        )
        code, out, err = run(
            capsys, "verify", "ineq3", "--n-max", "2", "--k-max", "1", "--no-timestamp",
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            "1,1,2,iter_lower,3.0,2,yes,no", "2,1,3,iter_lower,4.0,3,yes,no",
        ]
        assert "applicable=2 held=0 violated=2 inapplicable=0" in err

    def _run_straddling(self, capsys, monkeypatch, enclosure):
        """verify ineq3 for n <= 3, k = 1 with one row; its output and the bits it tried."""
        row = bounds.Bound("iter_lower", ("ineq3",), lambda k: (1, math.inf), "lower",
                           lambda k: (1, 0, 1, 1, k))
        monkeypatch.setitem(bounds.SUITES, "ineq3", (row,))

        def columns(term, ns, bits):  # the lists lo, hi of enclosure(n, k, bits) over ns
            return zip(*[enclosure(n, term[-1], bits) for n in ns])

        monkeypatch.setattr(bounds, "_enclose", columns)
        tried = []
        sign_and_text = bounds.sign_and_text

        def counted(lo, hi, bits, value, digits):
            tried.append(bits)
            return sign_and_text(lo, hi, bits, value, digits)

        monkeypatch.setattr(bounds, "sign_and_text", counted)
        code, out, err = run(
            capsys, "verify", "ineq3", "--n-max", "3", "--k-max", "1", "--prec", "15",
            "--no-timestamp",
        )
        return code, out, err, tried

    @pytest.mark.parametrize("side, holds", [(-1, "yes"), (1, "no")])
    def test_row_inside_the_margin_escalates(self, capsys, monkeypatch, side, holds):
        # a bound of p_n +- 2^-60 whose enclosure is 2^(200 - bits) units wide
        # on each side: at 128 bits it holds p_n, so the row goes on at 256
        # bits, where the offset decides; verify prints that verdict
        def enclosure(n, k, bits):
            center = (engine.nth_prime(n) << bits) + side * (1 << bits - 60)
            width = 1 << max(200 - bits, 0)
            return center - width, center + width

        code, out, err, tried = self._run_straddling(capsys, monkeypatch, enclosure)
        assert code == (0 if side < 0 else 1)
        assert tried == [128, 256] * 3  # each row goes on from doubled bits
        assert out.splitlines()[1:] == [
            f"{n},1,{p},iter_lower,{p}.0,{p},yes,{holds}" for n, p in ((1, 2), (2, 3), (3, 5))
        ]
        assert f"applicable=3 held={3 if side < 0 else 0}" in err

    def test_row_never_narrowing_is_decided_at_the_cap(self, capsys, monkeypatch):
        # an enclosure that always holds p_n: at MAX_ESCALATION_PREC digits'
        # worth of bits its midpoint, p_n itself, decides a tie, which no
        # lower bound survives
        def enclosure(n, k, bits):
            return (engine.nth_prime(n) << bits) - 1, (engine.nth_prime(n) << bits) + 1

        code, out, err, tried = self._run_straddling(capsys, monkeypatch, enclosure)
        assert code == 1
        assert tried == [128, 256, 512, 1024, 2048, 4096, 8192, bounds._MAX_BITS] * 3
        assert bounds._MAX_BITS == libmp.dps_to_prec(hpreal.MAX_ESCALATION_PREC)
        assert out.splitlines()[1:] == [
            f"{n},1,{p},iter_lower,{p}.0,{p},yes,no" for n, p in ((1, 2), (2, 3), (3, 5))
        ]


class TestCertifyCommand:
    def test_default_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "--no-timestamp")
        assert code == 0
        assert "verdict: pass" in out
        assert "0.3262768" in out

    def test_more_digits_same_verdict(self, capsys):
        code, out, _ = run(capsys, "certify", "--prec", "100", "--no-timestamp")
        assert code == 0
        assert "verdict: pass" in out

    def test_report_pinned_but_margins(self, capsys, tmp_path):
        # SHA-256 of the report with its margins blanked, recorded at 73fb60b,
        # before the margins were taken from the exact threshold
        path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "certify", "--no-timestamp", "--out", str(path))
        assert code == 0 and out == ""
        blanked = re.sub(r"margin=\S+", "margin=", path.read_text())
        assert hashlib.sha256(blanked.encode()).hexdigest() == (
            "16a1abe1acd88487e03eda52d47e5a417019e8ffc80ffd486376abf74f721fd7"
        )

    def test_report_pinned_at_100_digits(self, capsys):
        # SHA-256 of stdout recorded at 3473ce9, before compare_int decided
        # its sign and its escalation in integer arithmetic
        code, out, _ = run(capsys, "certify", "--prec", "100", "--no-timestamp")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "782e0a32af90c7c8bb13e6d8d1ef5ae20a3f2e7e126489ab8cfc1d7b21805f5b"
        )

    def test_margins_match_decimal_oracle(self, capsys):
        # every printed digit of L and of L - 0.32627, against stdlib decimal
        code, out, _ = run(capsys, "certify", "--no-timestamp")
        assert code == 0
        rows = re.findall(r"x=\s*(\S+)\s+L=(\S+)\s+margin=(\S+)\s+pass", out)
        assert len(rows) == 13
        for x, lval, margin in rows:
            exact_l = L_by_decimal(int(float(x)), 50)
            for printed, exact in ((lval, exact_l), (margin, exact_l - Decimal("0.32627"))):
                printed = Decimal(printed)
                # half a unit in the 20th significant digit
                half_ulp = Decimal(5).scaleb(exact.adjusted() - 20)
                assert abs(printed - exact) <= half_ulp, (x, printed, exact)

    def test_timestamp_toggle(self, capsys):
        _, out, _ = run(capsys, "certify")
        assert out.splitlines()[0].startswith("# generated:")

    def test_raised_threshold_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(certify, "THRESHOLD", (1, 2))
        code, out, err = run(capsys, "certify", "--no-timestamp")
        assert code == 1
        assert out == ""
        assert err.startswith("mathematical violation: L(4200) = 0.3262814720539332174 <= 0.5")

    def test_failed_monotone_fact_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(certify, "eval_f", lambda x, prec: mpf(-1))
        code, out, err = run(capsys, "certify", "--no-timestamp")
        assert code == 1
        assert out == ""
        assert err == (
            "mathematical violation: supporting fact of the floor fails: "
            "f monotone increasing on grid\n"
        )

    def test_floor_below_threshold_exits_1(self, capsys, monkeypatch):
        # every sampled L(x) exceeds 0.32628, but the floor 0.3262768... does not
        monkeypatch.setattr(certify, "THRESHOLD", (32628, 10**5))
        code, out, err = run(capsys, "certify", "--no-timestamp")
        assert code == 1
        assert out == ""
        assert err == (
            "mathematical violation: supporting fact of the floor fails: "
            "closed-form floor constant > threshold\n"
        )


class TestTable:
    def test_count_records(self, capsys):
        code, out, _ = run(capsys, "table", "counts", "100,10000", "1", "--no-timestamp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,diag_count,tower_n,tower_count,comparator"
        assert len(lines) == 3
        assert lines[1].startswith("100,3,1,5,")
        assert lines[2].startswith("10000,5,1,8,")

    def test_residuals(self, capsys):
        code, out, _ = run(capsys, "table", "residuals", "6", "--no-timestamp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,value,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5", "6"]
        assert lines[1].split(",")[1] == "31"
        assert lines[4].split(",")[1] == "87803"

    def test_residuals_below_3_header_only(self, capsys):
        code, out, _ = run(capsys, "table", "residuals", "2", "--no-timestamp")
        assert code == 0
        assert out == "k,value,residual\n"

    def test_ratios(self, capsys):
        code, out, _ = run(capsys, "table", "ratios", "1", "5", "--no-timestamp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,numerator,denominator,ratio"
        assert lines[3].startswith("3,5,31,")

    def test_timestamp_toggle(self, capsys):
        _, out, _ = run(capsys, "table", "counts", "100", "1")
        assert out.splitlines()[0].startswith("# generated:")

    @pytest.mark.parametrize(
        "argv, rows, note",
        [
            (["residuals", "7"], 4, "truncated at level 6 of 7"),
            (["ratios", "3", "11"], 6, "truncated at level 6 of 11"),
        ],
        ids=["residuals", "ratios"],
    )
    def test_budget_cut_exits_2(self, capsys, argv, rows, note):
        # p_6^(6) = 87803 fits the budget and p_7^(7) = 2269733 does not
        code, out, err = run(capsys, "table", *argv, "--budget", "100000", "--no-timestamp")
        assert code == 2
        assert len(out.splitlines()) == 1 + rows
        assert err == f"{note}: next value exceeds budget 100000\n"

    def test_bad_request_leaves_out_file(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"kept\n")
        code, err = exit_code(capsys, "table", "ratios", "0", "7", "--out", str(path))
        assert code == 3 and err.startswith("error: ")
        assert path.read_bytes() == b"kept\n"


class TestDeterminismAndCache:
    def test_identical_runs_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["verify", "rosser", "--n-max", "50", "--no-timestamp"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_cold_and_warm_cache_identical(self, capsys, tmp_path):
        cache_path = tmp_path / "towers.txt"
        # neither the chain nor the brackets decide p_8^(8) <= x at x = p_8^(8),
        # so the cold run computes and stores base 8, and the warm run reads it back
        args = [
            "table", "counts", "100,10000,2269733,50728129", "1,2", "--no-timestamp",
            "--cache", str(cache_path),
        ]
        cold_out = tmp_path / "cold.csv"
        warm_out = tmp_path / "warm.csv"
        assert main(args + ["--out", str(cold_out)]) == 0
        assert cache_path.exists() and cache_path.stat().st_size > 0
        assert main(args + ["--out", str(warm_out)]) == 0
        capsys.readouterr()
        assert cold_out.read_bytes() == warm_out.read_bytes()

    @pytest.mark.parametrize(
        "argv, exit_code, out_digest, cache_digest, err",
        [
            (
                ["iter", "3", "12", "--budget", "1000000000"], 2,
                "52a7ba2734d489802a9fe92135338855649fae7ae16802eaa274be41c1317763",
                "52f22097fbd2df72c9e742dcf2f25e09cfe6da757f119140b404bf33e8d36bf2",
                "truncated at level 10 of 12: next value exceeds budget 1000000000\n",
            ),
            (
                ["table", "ratios", "2", "9", "--no-timestamp"], 0,
                "ac46dcd349b0024cbb17267deeaa2b33cbd38fb96238321b0434f486168bf7cd",
                "52900781bf5aae92564d8d4970a84b82c4b60c3f8b1cc31e91dfd8b8c504cc7f", "",
            ),
            # stdout recorded at 5eab9cd in the old flag syntax, as table
            # --xs 100,10000,1000000 --ns 2,1,2; --xs 2,100 --ns 1;
            # --residuals --k-max 9; --residuals --k-max 7 --budget 100000;
            # --ratios --n 3 --k-max 11 --budget 100000.  The chain of pi
            # decides every count in the three table counts runs, so they
            # write no cache file (None); the third's stdout was recorded at
            # a9ce604
            (
                ["table", "counts", "100,10000,1000000", "2,1,2", "--no-timestamp"], 0,
                "04ec2699d763bae92c426caf9357f3ff2c5a171c8905346642c40c557e6a3f93",
                None, "",
            ),
            (
                ["table", "counts", "2,100", "1", "--no-timestamp"], 0,
                "09ee0f298d486b967464be4806837c12f7efe8bb04feb125fcbc6e07da4e6de1",
                None, "",
            ),
            (
                ["table", "counts", "100,2269733", "1,7", "--no-timestamp"], 0,
                "a7d469483ae00025af70a5f908180d0851c584b0d7f8189369bde8f98fbed12b",
                None, "",
            ),
            (
                ["table", "residuals", "9", "--no-timestamp"], 0,
                "e627c210596659890b471df83e568e02299ab119bf4aff4f327e87e4f0298d81",
                "1f8f5a2aa794f1d6638533a3582ca897e410efe29b6f3b78a5c22fb048e529e1", "",
            ),
            (
                ["table", "residuals", "7", "--budget", "100000", "--no-timestamp"], 2,
                "588207f6278d91177fdd820a3f4f6e73098bb2c7a6e6e96bf46585f35d10df01",
                "d03ac7786cde645fdd88ee0c4c4cfc068fc417a6169732546e26cbbdd39b3de0",
                "truncated at level 6 of 7: next value exceeds budget 100000\n",
            ),
            (
                ["table", "ratios", "3", "11", "--budget", "100000", "--no-timestamp"], 2,
                "e4d3a174ffb7f1ef763bda0288c6505f2a4f9ff0e9d4561bdf9021480d48a346",
                "d52b1b917cd0259e97cef6fe5c489e604efbbe68112517898e3885298954708e",
                "truncated at level 6 of 11: next value exceeds budget 100000\n",
            ),
            # recorded at fe57e9f, before towers went level by level: 61 of
            # its 600 levels lie past the 2^24 table
            (
                ["verify", "all", "--n-max", "100", "--k-max", "6", "--no-timestamp"], 0,
                "26576683a4282a5ac8f02b7426154e188342a7f2e8b67b99580ffcde3e40bf23",
                "3997db219ba9d8b89e9a57082f8ddb2cbba0e55070c2716c6de3dbf022f1d0ae",
                "suite=all applicable=1343 held=1343 violated=0 inapplicable=2257\n",
            ),
        ],
        ids=[
            "iter_truncated", "table_ratios", "table_counts", "table_counts_below_16",
            "table_counts_inside", "table_residuals", "table_residuals_budget", "table_ratios_budget",
            "verify_sweep",
        ],
    )
    def test_output_and_cache_pinned(
        self, capsys, tmp_path, primes_3e6, argv, exit_code, out_digest, cache_digest, err
    ):
        # SHA-256 of stdout and of the cache file, recorded at d9494df unless
        # noted
        cache_path = tmp_path / "towers.txt"
        code, out, stderr = run(capsys, *argv, "--cache", str(cache_path))
        assert code == exit_code
        assert stderr == err
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        if cache_digest is None:
            assert not cache_path.exists()
            return
        assert hashlib.sha256(cache_path.read_bytes()).hexdigest() == cache_digest
        # the loader accepts the pinned bytes: one record per line
        assert len(TowerCache(str(cache_path))) == len(cache_path.read_bytes().splitlines())
        if argv[:2] == ["table", "counts"]:  # each stored level is the sieved one
            for record in cache_path.read_text().splitlines():
                n, level, value = map(int, record.split()[1:])
                assert tower_by_sieve(n, level, primes_3e6)[-1] == value


    def test_verify_stores_its_records_in_one_write(self, capsys, tmp_path, monkeypatch):
        # 2000 bases of 3 levels each: 6000 records, all in one write
        writes, write = [], os.write

        def recorded(fd, data):
            if data.startswith(b"T "):
                writes.append(data.count(b"\n"))
            return write(fd, data)

        monkeypatch.setattr(os, "write", recorded)
        cache_path = tmp_path / "towers.txt"
        code, _, _ = run(
            capsys, "verify", "all", "--n-max", "2000", "--k-max", "3", "--no-timestamp",
            "--cache", str(cache_path),
        )
        assert code == 0 and writes == [6000]
        assert len(cache_path.read_text().splitlines()) == 6000


def _readme_cli_lines():
    """The ``primeth`` lines of the README's CLI block: argv and trailing comment."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("primeth "):
            argv = shlex.split(command)[1:]
            lines.append(pytest.param(argv, comment.strip(), id=" ".join(argv)))
    return lines


@pytest.mark.parametrize("argv, comment", _readme_cli_lines())
def test_readme_cli_examples(capsys, argv, comment):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if comment.isdigit():
        assert out == comment + "\n"
