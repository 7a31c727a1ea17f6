import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primeth
from primeth import PrimethError, bounds, engine, errors
from primeth.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_nth(self, capsys):
        code, out, _ = run(capsys, "nth", "25")
        assert code == 0 and out == "97\n"

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
        code, _, err = run(capsys, "count", "diag", "10000000", "--budget", "1000")
        assert code == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "nth", "0")
        assert code == 3 and "error" in err

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

    # exit codes and stderr prefixes as the README's exit-code contract states
    DOCUMENTED = {
        errors.PrimethError: (3, "error: "),
        errors.InvalidRangeError: (3, "error: "),
        errors.SegmentTooLargeError: (2, "budget exhausted: "),
        errors.UnsupportedRangeError: (3, "error: "),
        errors.BudgetExceededError: (2, "budget exhausted: "),
        errors.CacheFormatError: (3, "error: "),
        errors.DomainError: (3, "error: "),
        errors.InapplicableIndexError: (3, "error: "),
        errors.HypothesisViolatedError: (3, "error: "),
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
        with pytest.raises(SystemExit):
            main(["nth", "5", "--budget", "1"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["nth", "5", "--prec", "10"])
        capsys.readouterr()


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

    def test_one_comparison_per_applicable_row(self, capsys, monkeypatch):
        calls = []
        compare_int = bounds.compare_int

        def counted(*args, **kwargs):
            calls.append(args[0])
            return compare_int(*args, **kwargs)

        monkeypatch.setattr(bounds, "compare_int", counted)
        code, out, err = run(
            capsys, "verify", "ineq3", "--n-max", "50", "--k-max", "3",
            "--no-timestamp",
        )
        assert code == 0
        applicable = [row for row in out.splitlines()[1:] if ",yes," in row]
        assert len(calls) == len(applicable) == 49 * 3
        assert "applicable=147 " in err

    def test_budget_limited_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "ineq3", "--n-max", "5", "--k-max", "10",
            "--budget", "10000", "--no-timestamp",
        )
        assert code == 2


class TestCertifyCommand:
    def test_default_pass(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--x-max", "100000", "--points", "5",
            "--no-timestamp",
        )
        assert code == 0
        assert "verdict: pass" in out
        assert "0.3262768" in out

    def test_more_digits_same_verdict(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--x-max", "100000", "--points", "5",
            "--prec", "100", "--no-timestamp",
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_csv_form(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--x-max", "10000", "--points", "4",
            "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,L,margin,pass"

    def test_out_of_hypothesis_region(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--x-min", "2", "--x-max", "10", "--points", "4",
            "--no-timestamp",
        )
        assert code == 0  # not a defect: the floor's hypothesis excludes x < 4200
        assert "FAIL" in out


class TestTable:
    def test_count_records(self, capsys):
        code, out, _ = run(
            capsys, "table", "--xs", "100,10000", "--ns", "1", "--no-timestamp"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,diag_count,tower_n,tower_count,comparator"
        assert len(lines) == 3
        assert lines[1].startswith("100,3,1,5,")
        assert lines[2].startswith("10000,5,1,8,")

    def test_empty_xs_header_only(self, capsys):
        code, out, _ = run(capsys, "table", "--no-timestamp")
        assert code == 0
        assert out.splitlines() == ["x,diag_count,tower_n,tower_count,comparator"]

    def test_residuals(self, capsys):
        code, out, _ = run(
            capsys, "table", "--residuals", "--k-max", "6", "--no-timestamp"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,value,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5", "6"]
        assert lines[1].split(",")[1] == "31"
        assert lines[4].split(",")[1] == "87803"

    def test_ratios(self, capsys):
        code, out, _ = run(
            capsys, "table", "--ratios", "--n", "1", "--k-max", "5",
            "--no-timestamp",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,numerator,denominator,ratio"
        assert lines[3].startswith("3,5,31,")

    def test_timestamp_toggle(self, capsys):
        _, out, _ = run(capsys, "table", "--xs", "100", "--ns", "1")
        assert out.splitlines()[0].startswith("# generated:")


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
        args = [
            "table", "--xs", "100,10000", "--ns", "1,2", "--no-timestamp",
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
        "argv, exit_code, out_digest, cache_digest",
        [
            (
                ["iter", "3", "12", "--budget", "1000000000"], 2,
                "52a7ba2734d489802a9fe92135338855649fae7ae16802eaa274be41c1317763",
                "52f22097fbd2df72c9e742dcf2f25e09cfe6da757f119140b404bf33e8d36bf2",
            ),
            (
                ["table", "--ratios", "--n", "2", "--k-max", "9", "--no-timestamp"], 0,
                "ac46dcd349b0024cbb17267deeaa2b33cbd38fb96238321b0434f486168bf7cd",
                "52900781bf5aae92564d8d4970a84b82c4b60c3f8b1cc31e91dfd8b8c504cc7f",
            ),
        ],
        ids=["iter_truncated", "table_ratios"],
    )
    def test_output_and_cache_pinned(
        self, capsys, tmp_path, argv, exit_code, out_digest, cache_digest
    ):
        # SHA-256 of stdout and of the cache file, recorded at d9494df
        cache_path = tmp_path / "towers.txt"
        code, out, _ = run(capsys, *argv, "--cache", str(cache_path))
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(cache_path.read_bytes()).hexdigest() == cache_digest
