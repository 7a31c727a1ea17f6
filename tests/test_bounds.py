import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primeth import (
    DomainError,
    HypothesisViolatedError,
    InapplicableIndexError,
    check_bounds,
    iterate_prime,
    log_lower_bound_L3,
    lower_bound_L3,
    lower_bound_simple,
    rosser_bracket,
    theorem4_residual,
    upper_bound_L1,
    upper_bound_L1_simple,
)
from primeth.bounds import BOUNDS, BoundCheck, BoundReport, write_report_csv
from primeth.hpreal import MAX_ESCALATION_PREC, compare_int


class TestRosserBracket:
    def test_n10(self):
        lower, upper = rosser_bracket(10)
        assert abs(float(lower) - 10 * math.log(10)) < 1e-12
        assert abs(float(upper) - 20 * math.log(10)) < 1e-12
        assert lower < 29 < upper

    def test_n3(self):
        lower, upper = rosser_bracket(3)
        assert lower < 5 < upper

    def test_n2_upper_inapplicable(self):
        lower, upper = rosser_bracket(2)
        assert upper is None
        assert float(lower) < 3

    def test_small_n_rejected(self):
        with pytest.raises(InapplicableIndexError):
            rosser_bracket(1)


class TestUpperBoundL1:
    def test_examples(self):
        # 2 * 9 * log 9, 8 * 9 * (log 9)^2, 2^5 * 10 * 2! * (log 10)^3
        assert abs(float(upper_bound_L1(9, 1)) - 18 * math.log(9)) < 1e-9
        assert float(upper_bound_L1(9, 1)) > 23
        assert abs(float(upper_bound_L1(9, 2)) - 72 * math.log(9) ** 2) < 1e-9
        assert float(upper_bound_L1(9, 2)) > 83
        assert abs(float(upper_bound_L1(10, 3)) - 640 * math.log(10) ** 3) < 1e-9
        assert float(upper_bound_L1(10, 3)) > 599

    def test_max_switches_to_k(self):
        # for k > n the log argument is k, not n
        expected = 2**19 * 9 * math.factorial(9) * math.log(10) ** 10
        assert abs(float(upper_bound_L1(9, 10)) / expected - 1) < 1e-12

    def test_hypothesis(self):
        with pytest.raises(InapplicableIndexError):
            upper_bound_L1(8, 1)
        with pytest.raises(DomainError):
            upper_bound_L1(9, 0)


class TestUpperBoundL1Simple:
    def test_examples(self):
        assert abs(float(upper_bound_L1_simple(2)) - (8 * math.log(2)) ** 2) < 1e-9
        expected9 = (36 * math.log(9)) ** 9
        assert abs(float(upper_bound_L1_simple(9)) / expected9 - 1) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_bound_L1_simple(1)

    def test_enlargement_consistency(self):
        # the simple form only enlarges factors, so it dominates at k = n
        for k in range(9, 25):
            assert upper_bound_L1(k, k) < upper_bound_L1_simple(k)


class TestLowerBoundSimple:
    def test_examples(self):
        assert abs(float(lower_bound_simple(2, 1)) - 2 * math.log(2)) < 1e-12
        assert float(lower_bound_simple(2, 1)) < 3
        assert abs(float(lower_bound_simple(3, 3)) - 3 * math.log(3) ** 3) < 1e-9
        assert float(lower_bound_simple(3, 3)) < 31

    def test_depth4_tower_at_100(self, cache):
        tower = iterate_prime(100, 4, cache=cache)
        assert tower.values == [541, 3911, 36887, 439357]
        bound = lower_bound_simple(100, 4)
        assert abs(float(bound) - 100 * math.log(100) ** 4) < 1e-6
        assert bound < tower.values[-1]

    def test_hypothesis(self):
        with pytest.raises(InapplicableIndexError):
            lower_bound_simple(1, 3)


class TestLowerBoundL3:
    def test_hypothesis_edges(self):
        with pytest.raises(HypothesisViolatedError):
            lower_bound_L3(4200, 4200)
        with pytest.raises(HypothesisViolatedError):
            lower_bound_L3(4201, 4200)

    def test_cancellation_at_boundary(self):
        # log k = log(log n) when k = 4201 and log n = 4201, so the
        # expression collapses to (e * 4201)^4201
        value = lower_bound_L3(4201, 4201, prec=50)
        with mp.workdps(60):
            expected_log = 4201 * (1 + mp.log(4201))
            assert abs(mp.log(value) - expected_log) < mpf(10) ** -40

    def test_log_form_matches_direct_evaluation(self):
        with mp.workdps(80):
            direct = mp.log(lower_bound_L3(5000, 6000, prec=80))
            termwise = log_lower_bound_L3(5000, 6000, prec=80)
            assert abs(direct - termwise) < mpf(10) ** -50


class TestTheorem4Residual:
    def test_diagonal_examples(self):
        assert abs(float(theorem4_residual(4, 4, 277)) + 0.3069) < 1e-3
        assert abs(float(theorem4_residual(5, 5, 5381)) + 0.3672) < 1e-3
        assert abs(float(theorem4_residual(1, 9, 52711)) + 1.7763) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            theorem4_residual(1, 2, 3)


class TestCheckBounds:
    def test_all_applicable_hold_at_n9(self):
        report = check_bounds(9, 1, 23)
        assert report.all_applicable_hold()
        names = {c.name: c for c in report.checks}
        assert names["rosser_lower"].applicable
        assert names["rosser_upper"].applicable
        assert names["iter_upper"].applicable
        assert not names["iter_upper_simple"].applicable  # k < n
        assert names["iter_lower"].applicable
        assert not names["iter_lower_huge_n"].applicable

    def test_n1_everything_inapplicable(self):
        report = check_bounds(1, 1, 2)
        assert all(not c.applicable for c in report.checks)
        assert all(c.holds is None for c in report.checks)

    def test_small_tower_value(self):
        report = check_bounds(3, 3, 31)
        names = {c.name: c for c in report.checks}
        assert names["iter_lower"].applicable and names["iter_lower"].holds
        assert not names["iter_upper"].applicable
        assert not names["rosser_lower"].applicable  # k > 1

    def test_sides_recorded_on_failure(self):
        # a deliberately wrong "tower value" must still record both sides
        report = check_bounds(9, 1, 1000)
        upper = {c.name: c for c in report.checks}["rosser_upper"]
        assert upper.applicable and not upper.holds
        assert upper.lhs == 1000 and upper.rhs is not None

    def test_csv_layout(self):
        buf = io.StringIO()
        write_report_csv([check_bounds(9, 1, 23)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,k,value,bound,lhs,rhs,applicable,holds"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("9,1,23,rosser_lower,")


# Each row's formula as first written, evaluated straight from mpmath, and
# each hypothesis as the paper states it.  The table must reproduce these
# to the last bit at the requested precision.
REFERENCE = {
    "rosser_lower": lambda n, k: n * mp.log(n),
    "rosser_upper": lambda n, k: 2 * n * mp.log(n),
    "iter_upper": lambda n, k: (
        mpf(2) ** (2 * k - 1) * n * mp.factorial(k - 1) * mp.log(max(k, n)) ** k
    ),
    "iter_upper_simple": lambda n, k: (4 * k * mp.log(k)) ** k,
    "iter_lower": lambda n, k: n * mp.log(n) ** k,
}
HYPOTHESES = {
    "rosser_lower": lambda n, k: k == 1 and n >= 2,
    "rosser_upper": lambda n, k: k == 1 and n >= 3,
    "iter_upper": lambda n, k: n >= 9,
    "iter_upper_simple": lambda n, k: n >= 9 and k >= n,
    "iter_lower": lambda n, k: n >= 2,
    "iter_lower_huge_n": lambda n, k: False,
}
PUBLIC = {
    "rosser_lower": lambda n, k, prec: rosser_bracket(n, prec)[0],
    "rosser_upper": lambda n, k, prec: rosser_bracket(n, prec)[1],
    "iter_upper": lambda n, k, prec: upper_bound_L1(n, k, prec),
    "iter_upper_simple": lambda n, k, prec: upper_bound_L1_simple(k, prec),
    "iter_lower": lambda n, k, prec: lower_bound_simple(n, k, prec),
}
LOWER_ROWS = {"rosser_lower", "iter_lower"}


class TestBoundsTable:
    def test_rows_equal_standalone_formulas(self):
        # synthetic values far from every bound, so no comparison escalates;
        # 15 digits first, then 50, so a log memo that ignored the precision
        # would hand 15-digit logarithms to the 50-digit rows
        evaluated = set()
        for prec in (15, 50):
            for n in range(1, 61):
                for k in range(1, 13):
                    for value in (2, 10**40):
                        report = check_bounds(n, k, value, prec=prec)
                        assert [c.name for c in report.checks] == list(HYPOTHESES)
                        for c in report.checks:
                            assert c.applicable == HYPOTHESES[c.name](n, k)
                            if not c.applicable:
                                assert (c.lhs, c.rhs, c.holds) == (None, None, None)
                                continue
                            lower = c.name in LOWER_ROWS
                            bound, other = (c.lhs, c.rhs) if lower else (c.rhs, c.lhs)
                            assert other == value
                            assert c.holds == (bound < value if lower else value < bound)
                            assert bound == PUBLIC[c.name](n, k, prec)
                            with mp.workdps(prec):
                                assert bound == REFERENCE[c.name](n, k)
                            evaluated.add(c.name)
        assert evaluated == set(REFERENCE)

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            check_bounds(10, 1, 29, suite="lemma2")

    def test_escalation_with_shared_log(self):
        # n log n = 34538776394910685.26..., so floor(n log n) sits inside one
        # ulp of n log n at 15 digits: the verdict needs 30 digits, and the
        # 30-digit row must not reuse the 15-digit log(n)
        n = 10**15
        with mp.workdps(60):
            exact = n * mp.log(n)
        value = int(mp.floor(exact))
        with mp.workdps(15):
            at15 = n * mp.log(n)
        with mp.workdps(30):
            at30 = n * mp.log(n)
        rows = {c.name: c for c in check_bounds(n, 1, value, prec=15).checks}
        for name in ("rosser_lower", "iter_lower"):
            assert rows[name].holds == (exact < value)
            assert rows[name].lhs == at30 and rows[name].lhs != at15
        assert rows["rosser_upper"].holds and rows["iter_upper"].holds


# Each formula as the mpf expression it replaced: a row's libmp steps must
# return these bits exactly, at every precision.
MPF_EXPRESSIONS = {
    "rosser_lower": lambda n, k: n * mp.ln(n),
    "rosser_upper": lambda n, k: 2 * n * mp.ln(n),
    "iter_upper": lambda n, k: (
        mpf(2) ** (2 * k - 1) * n * mp.factorial(k - 1) * mp.ln(max(k, n)) ** k
    ),
    "iter_upper_simple": lambda n, k: (4 * k * mp.ln(k)) ** k,
    "iter_lower": lambda n, k: n * mp.ln(n) ** k,
}


class TestFormulaBits:
    @given(
        st.integers(min_value=1, max_value=10**7),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([15, 50, 100, 300, 1000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_and_wrappers_equal_the_mpf_expressions(self, n, k, prec):
        rows = [row for row in BOUNDS if row.formula is not None]
        assert {row.name for row in rows} == set(MPF_EXPRESSIONS)
        with mp.workdps(prec):
            for row in rows:
                assert row.formula(n, k, mp.prec) == MPF_EXPRESSIONS[row.name](n, k)._mpf_
            expected = {name: +f(n, k) for name, f in MPF_EXPRESSIONS.items()}
            simple = +MPF_EXPRESSIONS["iter_upper_simple"](k, k)
        public = {}
        if n >= 2:
            public["rosser_lower"], public["rosser_upper"] = rosser_bracket(n, prec)
            public["iter_lower"] = lower_bound_simple(n, k, prec)
        if n >= 9:
            public["iter_upper"] = upper_bound_L1(n, k, prec)
        for name, value in public.items():
            if value is None:  # rosser_upper at n = 2
                continue
            assert value._mpf_ == expected[name]._mpf_
        if k >= 2:
            assert upper_bound_L1_simple(k, prec)._mpf_ == simple._mpf_


def _csv_by_writer(reports, digits):
    """write_report_csv's rows as csv.writer writes them, mpf sides by mp.nstr."""
    def fmt(v):
        return "" if v is None else (str(v) if isinstance(v, int) else mp.nstr(v, digits))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "k", "value", "bound", "lhs", "rhs", "applicable", "holds"])
    for rep in reports:
        for c in rep.checks:
            holds = "" if c.holds is None else ("yes" if c.holds else "no")
            writer.writerow([rep.n, rep.k, rep.value, c.name, fmt(c.lhs), fmt(c.rhs),
                             "yes" if c.applicable else "no", holds])
    return buf.getvalue()


class TestReportCsv:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3000),
                st.integers(min_value=1, max_value=12),
                st.one_of(st.integers(min_value=2, max_value=10**6),
                          st.integers(min_value=2, max_value=10**80)),
            ),
            min_size=1, max_size=8,
        ),
        st.sampled_from([15, 20, 50, 100]),
        st.sampled_from([15, 20]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_csv_writer(self, triples, prec, digits):
        # arbitrary values put the bounds on both sides of them, so lower and
        # upper rows hold and fail, beside inapplicable ones
        reports = [check_bounds(n, k, value, prec=prec) for n, k, value in triples]
        buf = io.StringIO()
        write_report_csv(reports, buf, digits=digits)
        assert buf.getvalue() == _csv_by_writer(reports, digits)
        for row in buf.getvalue().splitlines():
            assert row.count(",") == 7 and '"' not in row and "\r" not in row

    def test_every_kind_of_field(self):
        # both verdicts of both sides, an inapplicable row, int and mpf sides,
        # and a holds left open on an applicable row
        with mp.workdps(30):
            third, huge = mpf(1) / 3, mpf(10) ** 40 / 7
        checks = [
            BoundCheck("rosser_lower", third, 5, True, True),
            BoundCheck("rosser_upper", 5, third, True, False),
            BoundCheck("iter_upper", 5, huge, True, True),
            BoundCheck("iter_lower", huge, 5, True, False),
            BoundCheck("iter_upper_simple", 3, 4, True, None),
            BoundCheck("iter_lower_huge_n", None, None, False, None),
        ]
        reports = [BoundReport(n=9, k=2, value=5, checks=checks)]
        for digits in (15, 20):
            buf = io.StringIO()
            write_report_csv(reports, buf, digits=digits)
            assert buf.getvalue() == _csv_by_writer(reports, digits)
        assert buf.getvalue().splitlines()[1:3] == [
            "9,2,5,rosser_lower,0.33333333333333333333,5,yes,yes",
            "9,2,5,rosser_upper,5,0.33333333333333333333,yes,no",
        ]

    def test_empty_report_list_writes_the_header(self):
        buf = io.StringIO()
        write_report_csv([], buf)
        assert buf.getvalue() == "n,k,value,bound,lhs,rhs,applicable,holds\n"


def _bits_of(report):
    """A report's fields, each mpf by its raw (sign, man, exp, bc) tuple."""
    return [(c.name, getattr(c.lhs, "_mpf_", c.lhs), getattr(c.rhs, "_mpf_", c.rhs),
             c.applicable, c.holds) for c in report.checks]


class TestPrecisionContext:
    def test_wider_result_is_rounded_to_the_digits(self):
        # fn() carries 201 bits, more than 15 digits hold: the evaluated side
        # is that value rounded to 15 digits, inside a matching context or not
        with mp.workdps(80):
            wide = mpf(2) ** 200 + 1
        with mp.workdps(15):
            rounded = +wide
            inside = compare_int(1, lambda: wide, 15)
        outside = compare_int(1, lambda: wide, 15)
        assert wide._mpf_[3] == 201 and rounded._mpf_[3] < 53
        for sign, approx in (inside, outside):
            assert sign == 1 and approx._mpf_ == rounded._mpf_

    @pytest.mark.parametrize("prec", [15, 50, 100])
    def test_check_bounds_is_the_same_in_any_context(self, prec):
        cases = [(9, 1, 23), (9, 1, 1000), (10**15, 1, 34538776394910685), (50, 3, 10**9)]
        for n, k, value in cases:
            outside = _bits_of(check_bounds(n, k, value, prec=prec))
            for context_digits in (max(prec, 15), 40, 300):
                with mp.workdps(context_digits):
                    assert _bits_of(check_bounds(n, k, value, prec=prec)) == outside
                    assert mp.dps == context_digits
            assert mp.dps == 15


class TestPrecisionEscalation:
    def test_tiny_margin_is_resolved(self):
        sign, _ = compare_int(2, lambda: mpf(2) + mpf(10) ** -80, prec=15)
        assert sign == 1
        sign, _ = compare_int(2, lambda: mpf(2) - mpf(10) ** -80, prec=15)
        assert sign == -1

    def test_exact_tie(self):
        sign, _ = compare_int(7, lambda: mpf(7), prec=15)
        assert sign == 0

    @given(
        st.integers(min_value=-(2**200), max_value=2**200),
        st.integers(min_value=1, max_value=13_000),
        st.sampled_from([-1, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_sign_of_a_tiny_offset(self, value, j, side):
        # value + side * 2^-j is exact once the precision holds 201 + j bits,
        # and its margin 2^-j clears the escalation rule inside 4096 digits
        sign, _ = compare_int(value, lambda: mpf(value) + mp.ldexp(side, -j), prec=15)
        assert sign == side

    @pytest.mark.parametrize("offset, sign, evals", [(-1, 1, 4), (1, -1, 4), (0, 0, 10)])
    def test_nonnegative_exponent(self, offset, sign, evals):
        # 2^300 is man = 1, exp = 300; a margin of 1 needs 10^(digits-1) > 2^300,
        # first met at 120 digits (15, 30, 60, 120); a tie runs on to the cap
        calls = []
        got, approx = compare_int(2**300 + offset, lambda: calls.append(1) or mpf(2) ** 300, 15)
        assert (got, len(calls), approx) == (sign, evals, 2**300)

    def test_negative_approximation(self):
        tiny = mpf(10) ** -80
        assert compare_int(-7, lambda: -mpf(7) - tiny, 15)[0] == -1
        assert compare_int(-7, lambda: -mpf(7) + tiny, 15)[0] == 1
        assert compare_int(-8, lambda: -mpf(7) - tiny, 15)[0] == 1
        assert compare_int(-6, lambda: -mpf(7), 15)[0] == -1

    def test_exact_tie_runs_to_the_cap(self):
        calls = []

        def fn():
            calls.append(mp.dps)
            return mpf(7)

        assert compare_int(7, fn, 15)[0] == 0
        assert calls == [15, 30, 60, 120, 240, 480, 960, 1920, 3840, MAX_ESCALATION_PREC]

    @pytest.mark.parametrize(
        "value, evals",
        [
            (10**14 - 2, 1),  # margin 1, |approx| 10^14 - 1: 1 * 10^14 > 10^14 - 1
            (10**14 - 1, 2),  # |approx| 10^14: 1 * 10^14 = |approx| escalates
            (10**14, 2),  # |approx| 10^14 + 1: below it
        ],
    )
    def test_escalation_edge_at_15_digits(self, value, evals):
        # a re-run happens iff |approx - value| * 10^(digits - 1) <= |approx|
        calls = []
        sign, _ = compare_int(value, lambda: calls.append(1) or mpf(value + 1), 15)
        assert (sign, len(calls)) == (1, evals)

    @pytest.mark.parametrize("special, sign", [(mp.inf, 1), (-mp.inf, -1)])
    def test_infinity_has_its_sign(self, special, sign):
        calls = []
        got, approx = compare_int(10**100, lambda: calls.append(1) or special, 15)
        assert (got, approx, len(calls)) == (sign, special, 1)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="nan"):
            compare_int(0, lambda: mp.nan, 15)

    def test_fn_runs_at_the_digits_inside_or_outside_a_context(self):
        seen = []

        def fn():
            seen.append(mp.dps)
            return mpf(5) / 3

        outside = compare_int(1, fn, 40)
        with mp.workdps(40):
            inside = compare_int(1, fn, 40)
        assert seen == [40, 40] and outside == inside
        assert mp.dps == 15
