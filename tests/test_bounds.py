import csv
import io
import math
from collections import namedtuple
from unittest import mock
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpf

from primeth import (
    DomainError,
    bounds,
    hpreal,
    iterate_prime,
    log_lower_bound_L3,
    lower_bound_L3,
    lower_bound_simple,
    theorem4_residual,
    upper_bound_L1,
)
from primeth.bounds import BOUNDS, check_bounds, write_report_csv
from primeth.cli import main
from primeth.hpreal import MAX_ESCALATION_PREC, compare_int, sign_and_text

from oracle import bound_by_decimal

HEADER = "n,k,value,bound,lhs,rhs,applicable,holds"
Row = namedtuple("Row", "lhs rhs applicable holds")  # one CSV line's last four fields
INAPPLICABLE = Row("", "", "no", "")


def _tally():
    return dict.fromkeys((True, False, None), 0)


def _lines(n, k, value, digits=15, suite="all"):
    """check_bounds's lines for level k of a tower of k levels each equal to value, and
    the tally of the tower's rows."""
    tally = _tally()
    return check_bounds({n: [value] * k}, suite, digits, tally)[-1].split("\n"), tally


def _enclose(name, n, k, bits):
    """The enclosure of one BOUNDS row's bound at (n, k)."""
    [lo], [hi] = bounds._enclose(bounds._ROW[name].term(k), [n], bits)
    return lo, hi


def _rows(n, k, value, digits=15):
    """check_bounds(n, k, value)'s lines of suite all by row name, each field as printed."""
    rows = {}
    for line in _lines(n, k, value, digits)[0]:
        fields = line.split(",")
        assert len(fields) == 8 and fields[:3] == [str(n), str(k), str(value)]
        rows[fields[3]] = Row(*fields[4:])
    return rows


def _bound(name, n, k, prec=50):
    """The bound of one BOUNDS row, rounded to the nearest mpf at ``prec`` digits."""
    return bounds._rounded(bounds._ROW[name].term(k), n, prec)


class TestRosserBracket:
    # the rows n log n < p_n (n >= 2) and p_n < 2 n log n (n >= 3)
    def test_n10(self):
        rows = _rows(10, 1, 29)
        lower, upper = rows["rosser_lower"].lhs, rows["rosser_upper"].rhs
        assert abs(float(lower) - 10 * math.log(10)) < 1e-12
        assert abs(float(upper) - 20 * math.log(10)) < 1e-12
        assert rows["rosser_lower"].holds == rows["rosser_upper"].holds == "yes"

    def test_n3(self):
        rows = _rows(3, 1, 5)
        assert rows["rosser_lower"].holds == rows["rosser_upper"].holds == "yes"

    def test_n2_upper_inapplicable(self):
        rows = _rows(2, 1, 3)
        assert rows["rosser_upper"] == INAPPLICABLE
        assert rows["rosser_lower"].holds == "yes" and float(rows["rosser_lower"].lhs) < 3

    def test_small_n_rejected(self):
        rows = _rows(1, 1, 2)
        assert rows["rosser_lower"] == rows["rosser_upper"] == INAPPLICABLE


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
        with pytest.raises(DomainError, match=r"^upper bound needs n >= 9$"):
            upper_bound_L1(8, 1)
        with pytest.raises(DomainError, match=r"^upper bound needs k >= 1$"):
            upper_bound_L1(9, 0)


class TestUpperBoundL1Simple:
    # the row (4 k log k)^k, applicable for n >= 9 and k >= n
    def test_examples(self):
        assert abs(float(_bound("iter_upper_simple", 2, 2)) - (8 * math.log(2)) ** 2) < 1e-9
        expected9 = (36 * math.log(9)) ** 9
        assert abs(float(_bound("iter_upper_simple", 9, 9)) / expected9 - 1) < 1e-12
        for digits in (15, 20):
            printed = _rows(9, 9, 10**40, digits)["iter_upper_simple"].rhs
            assert printed == mp.nstr(_bound("iter_upper_simple", 9, 9), digits)

    def test_domain(self):
        assert _rows(9, 9, 10**40)["iter_upper_simple"].applicable == "yes"
        assert _rows(9, 8, 10**40)["iter_upper_simple"] == INAPPLICABLE
        assert _rows(8, 9, 10**40)["iter_upper_simple"] == INAPPLICABLE

    def test_enlargement_consistency(self):
        # the simple form only enlarges factors, so it dominates at k = n
        for k in range(9, 25):
            assert upper_bound_L1(k, k) < _bound("iter_upper_simple", k, k)


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
        with pytest.raises(
            DomainError, match=r"^lower bound is vacuous at n = 1 \(log 1 = 0\)$"
        ):
            lower_bound_simple(1, 3)
        with pytest.raises(DomainError, match=r"^lower bound needs k >= 1$"):
            lower_bound_simple(2, 0)


class TestLowerBoundL3:
    def test_hypothesis_edges(self):
        with pytest.raises(DomainError, match=r"^needs log n > 4200$"):
            lower_bound_L3(4200, 4200)
        with pytest.raises(DomainError, match=r"^needs k >= floor\(log n\)$"):
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
        lines, tally = _lines(9, 1, 23)
        assert tally == {True: 4, False: 0, None: 2}
        rows = _rows(9, 1, 23)
        assert all(rows[name].applicable == "yes" and rows[name].holds == "yes"
                   for name in ("rosser_lower", "rosser_upper", "iter_upper", "iter_lower"))
        assert rows["iter_upper_simple"] == INAPPLICABLE  # k < n
        assert rows["iter_lower_huge_n"] == INAPPLICABLE

    def test_n1_everything_inapplicable(self):
        lines, tally = _lines(1, 1, 2)
        assert lines == [f"1,1,2,{row.name},,,no," for row in BOUNDS]
        assert tally == {True: 0, False: 0, None: 6}

    def test_small_tower_value(self):
        rows = _rows(3, 3, 31)
        assert rows["iter_lower"].applicable == rows["iter_lower"].holds == "yes"
        assert rows["iter_upper"] == INAPPLICABLE
        assert rows["rosser_lower"] == INAPPLICABLE  # k > 1

    def test_sides_recorded_on_failure(self):
        # a deliberately wrong "tower value" must still print both sides
        rows = _rows(9, 1, 1000)
        upper = rows["rosser_upper"]
        assert (upper.lhs, upper.rhs, upper.applicable, upper.holds) == (
            "1000", "39.5500423920519", "yes", "no"
        )
        assert _lines(9, 1, 1000)[1] == {True: 2, False: 2, None: 2}

    def test_csv_layout(self):
        buf = io.StringIO()
        write_report_csv(_lines(9, 1, 23)[0], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 1 + 6
        assert lines[1].startswith("9,1,23,rosser_lower,")


# Each row's formula as first written, evaluated straight from mpmath, and
# each hypothesis as the paper states it.  The table must reproduce these,
# evaluated with 20 guard digits, rounded to the requested precision.
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
    "rosser_lower": lambda n, k, prec: _bound("rosser_lower", n, k, prec),
    "rosser_upper": lambda n, k, prec: _bound("rosser_upper", n, k, prec),
    "iter_upper": lambda n, k, prec: upper_bound_L1(n, k, prec),
    "iter_upper_simple": lambda n, k, prec: _bound("iter_upper_simple", n, k, prec),
    "iter_lower": lambda n, k, prec: lower_bound_simple(n, k, prec),
}
LOWER_ROWS = {"rosser_lower", "iter_lower"}


def _expected_fields(n, k, value, name, digits):
    """One CSV line's fields from REFERENCE and HYPOTHESES, at ``digits`` printed digits."""
    if not HYPOTHESES[name](n, k):
        return [n, k, value, name, "", "", "no", ""]
    with mp.workdps(digits + 20):
        exact = REFERENCE[name](n, k)
        lower = name in LOWER_ROWS
        holds = exact < value if lower else value < exact
    bound = mp.nstr(exact, digits)
    lhs, rhs = (bound, value) if lower else (value, bound)
    return [n, k, value, name, lhs, rhs, "yes", "yes" if holds else "no"]


class TestBoundsTable:
    def test_rows_equal_standalone_formulas(self):
        # synthetic values far from every bound, so no row needs a second
        # enclosure; 15 digits first, then 20, so a memo that ignored the
        # digits would hand 15-digit bounds to the 20-digit rows
        evaluated = set()
        tally, expected_tally = _tally(), _tally()
        for digits in (15, 20):
            for n in range(1, 61):
                for value in (2, 10**40):
                    levels = check_bounds({n: [value] * 12}, "all", digits, tally)
                    assert len(levels) == 12
                    for k, lines in enumerate(map(str.splitlines, levels), start=1):
                        assert [line.split(",")[3] for line in lines] == list(HYPOTHESES)
                        for line, name in zip(lines, HYPOTHESES):
                            expected = _expected_fields(n, k, value, name, digits)
                            assert line == ",".join(map(str, expected))
                            expected_tally[{"yes": True, "no": False, "": None}[expected[7]]] += 1
                            if expected[6] == "yes":
                                bound = expected[4 if name in LOWER_ROWS else 5]
                                assert bound == mp.nstr(PUBLIC[name](n, k, digits + 20), digits)
                                evaluated.add(name)
        assert evaluated == set(REFERENCE)
        assert tally == expected_tally

    def test_escalation_with_shared_log(self):
        # n log n = 34538776394910685.26..., so floor(n log n) sits inside one
        # ulp of n log n at 15 digits; the enclosure decides it at once, and
        # one at twice the bits takes its own log, so it lies inside the first
        n = 10**15
        with mp.workdps(60):
            exact = n * mp.log(n)
        value = int(mp.floor(exact))
        rows = _rows(n, 1, value)
        for name in ("rosser_lower", "iter_lower"):
            assert rows[name].holds == ("yes" if exact < value else "no")
            assert rows[name].lhs == mp.nstr(exact, 15) == "3.45387763949107e+16"
        assert rows["rosser_upper"].holds == rows["iter_upper"].holds == "yes"
        lo, hi = _enclose("rosser_lower", n, 1, 128)
        lo2, hi2 = _enclose("rosser_lower", n, 1, 256)
        assert lo << 128 <= lo2 < hi2 <= hi << 128 and hi2 - lo2 < (hi - lo) << 64


# Each formula as the mpf expression it replaced: a row's enclosure must
# contain it, and each public wrapper must be it rounded to nearest.
MPF_EXPRESSIONS = {
    "rosser_lower": lambda n, k: n * mp.ln(n),
    "rosser_upper": lambda n, k: 2 * n * mp.ln(n),
    "iter_upper": lambda n, k: (
        mpf(2) ** (2 * k - 1) * n * mp.factorial(k - 1) * mp.ln(max(k, n)) ** k
    ),
    "iter_upper_simple": lambda n, k: (4 * k * mp.ln(k)) ** k,
    "iter_lower": lambda n, k: n * mp.ln(n) ** k,
}


class TestFormulaEnclosures:
    @given(
        st.integers(min_value=2, max_value=10**7),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([64, 128, 256, 1024]),
        st.sampled_from([15, 50, 100, 300]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_and_wrappers_enclose_the_mpf_expressions(self, n, k, bits, prec):
        # the expressions at 64 bits past the enclosure's last unit and the
        # bound's magnitude; the enclosure is at most 8 k (bound + 1) units wide
        rows = [row for row in BOUNDS if row.term is not None]
        assert {row.name for row in rows} == set(MPF_EXPRESSIONS)
        for row in rows:
            lo, hi = _enclose(row.name, n, k, bits)
            with mp.workprec(bits + hi.bit_length() + 64):
                exact = MPF_EXPRESSIONS[row.name](n, k)
                assert lo <= mp.ldexp(exact, bits) <= hi
                assert hi - lo <= 8 * k * (exact + 1)
        with mp.workprec(libmp.dps_to_prec(prec) + 64):
            lower, upper = MPF_EXPRESSIONS["iter_lower"](n, k), MPF_EXPRESSIONS["iter_upper"](n, k)
        with mp.workdps(prec):
            assert lower_bound_simple(n, k, prec) == +lower
            if n >= 9:
                assert upper_bound_L1(n, k, prec) == +upper

    def test_wrapper_doubles_the_bits_while_the_ends_round_apart(self, monkeypatch):
        # a first enclosure whose ends round to different mpfs is tried again
        # at twice the bits, and the bound is the one the true enclosures give
        expected = lower_bound_simple(10**6, 3, 15)
        tried, enclose = [], bounds._enclose

        def halved_first(term, ns, bits):
            tried.append(bits)
            lows, highs = enclose(term, ns, bits)
            return ([lows[0] >> 1] if len(tried) == 1 else lows), highs

        monkeypatch.setattr(bounds, "_enclose", halved_first)
        assert lower_bound_simple(10**6, 3, 15) == expected
        bits = libmp.dps_to_prec(15) + 64
        assert tried == [bits, 2 * bits]


class TestEnclosuresAgainstDecimal:
    @given(st.integers(min_value=2, max_value=2**64 - 1), st.sampled_from([64, 128, 256]))
    @settings(max_examples=200, deadline=None)
    def test_log_encloses_decimal_ln(self, x, bits):
        lo, hi = hpreal._ln(x, bits)
        with localcontext() as ctx:
            ctx.prec = bits // 3 + 40  # 2^bits log x with about 35 digits to spare
            scaled = Decimal(x).ln() * Decimal(2) ** bits
        assert lo <= scaled <= hi and hi - lo <= 3

    @given(
        st.integers(min_value=1, max_value=2**200),
        st.integers(min_value=-200, max_value=40),
        st.sampled_from([64, 128, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_ln_encloses_a_fixed_point_argument(self, m, e, bits):
        # the brackets take log log n as the log of m 2^-bits; any m 2^e >= 1
        e = max(e, 1 - m.bit_length())
        lo, hi = hpreal._ln(m, bits, e)
        with localcontext() as ctx:
            ctx.prec = bits // 3 + 80
            scaled = (Decimal(m) * Decimal(2) ** e).ln() * Decimal(2) ** bits
        assert lo <= scaled <= hi and hi - lo == 2

    def test_log_takes_one_rounded_down_log(self, monkeypatch):
        rounding = []

        def recorded(x, prec, rnd):
            rounding.append(rnd)
            return libmp.mpf_log(x, prec, rnd)

        monkeypatch.setattr(hpreal, "mpf_log", recorded)
        assert hpreal._ln(10**6 + 3, 128) == hpreal._ln(10**6 + 3, 128)
        assert rounding == ["f", "f"]  # one each: no call is remembered

    @given(st.integers(min_value=2, max_value=2**64 - 1), st.sampled_from([64, 128]))
    @settings(max_examples=200, deadline=None)
    def test_log_encloses_with_a_rounded_down_log_one_unit_low(self, x, bits):
        # hi = lo + 2 also covers a log that comes out one more unit (of its
        # bits + t places) below the rounded-down one; hi = lo + 1 would not
        def one_unit_low(v, prec, rnd):
            _, man, exp, bc = libmp.mpf_log(v, prec, rnd)
            return libmp.from_man_exp((man << prec - bc) - 1, exp - (prec - bc))

        with mock.patch.object(hpreal, "mpf_log", one_unit_low):
            lo, hi = hpreal._ln(x, bits)
        with localcontext() as ctx:
            ctx.prec = bits // 3 + 40
            assert lo <= Decimal(x).ln() * Decimal(2) ** bits <= hi

    @pytest.mark.parametrize("bits", [64, 128])
    def test_rows_enclose_decimal_bounds(self, bits):
        # every row at n <= 300, k <= 6, against 90 stdlib-decimal digits
        with localcontext() as ctx:
            ctx.prec = 120
            unit = Decimal(2) ** bits
        for row in BOUNDS:
            if row.term is None:
                continue
            for n in range(2, 301):
                for k in range(1, 7):
                    if row.name == "iter_upper_simple" and k < 2:
                        continue
                    lo, hi = _enclose(row.name, n, k, bits)
                    exact = bound_by_decimal(row.name, n, k, 90)
                    with localcontext() as ctx:
                        ctx.prec = 120
                        assert lo <= exact * unit <= hi, (row.name, n, k)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_simple_row_to_k_40(self, bits):
        for k in range(2, 41):
            lo, hi = _enclose("iter_upper_simple", k, k, bits)
            exact = bound_by_decimal("iter_upper_simple", k, k, 200)
            with localcontext() as ctx:
                ctx.prec = 240
                assert lo <= exact * Decimal(2) ** bits <= hi, k


@pytest.fixture(scope="module")
def log_table_1e6():
    """The factor-sum log table grown to every m <= 10^6, restored afterwards."""
    lows, highs = bounds._LOGS
    kept = len(lows)
    bounds._log_table(10**6 + 1)
    yield bounds._LOGS
    del lows[kept:], highs[kept:]


class TestLogTable:
    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_encloses_decimal_ln(self, log_table_1e6, m):
        # each entry sums _ln's enclosures of the prime factors of m, 2 units apiece
        lo, hi = (ends[m] for ends in log_table_1e6)
        with localcontext() as ctx:
            ctx.prec = 80
            scaled = Decimal(m).ln() * Decimal(2) ** 128
        factors, rest = 0, m
        for p in range(2, math.isqrt(m) + 1):
            while rest % p == 0:
                rest, factors = rest // p, factors + 1
        factors += rest > 1
        assert lo <= scaled <= hi and hi - lo == 2 * factors

    def test_rows_read_it_only_for_dense_bases(self, monkeypatch):
        # verify's bases 1..n_max grow the table to n_max; one base far out takes _log
        monkeypatch.setattr(bounds, "_LOGS", ([0, 0], [0, 0]))
        check_bounds({n: [10] for n in range(1, 301)}, "ineq3", 15, _tally())
        assert list(map(len, bounds._LOGS)) == [301, 301]
        check_bounds({10**15: [10]}, "ineq3", 15, _tally())
        assert list(map(len, bounds._LOGS)) == [301, 301]


def _to_str_bits(digits):
    """libmp.to_str(x, digits) truncates x to this many bits before it rounds."""
    return int((digits + 3) * math.log(10, 2)) + 10


@st.composite
def _dyadics(draw):
    """(man, bits, digits): a dyadic man * 2^-bits that to_str at ``digits`` reads exactly."""
    digits = draw(st.integers(min_value=15, max_value=20))
    width = min(80, _to_str_bits(digits))
    man = draw(st.integers(min_value=1, max_value=2**width - 1))
    return man, draw(st.integers(min_value=0, max_value=240)), digits


class TestSignAndText:
    @given(_dyadics(), st.integers(min_value=0, max_value=2**90))
    @settings(max_examples=300, deadline=None)
    def test_point_prints_as_to_str(self, dyadic, value):
        man, bits, digits = dyadic
        sign, text = sign_and_text(man, man, bits, value, digits)
        exact = man - (value << bits)
        assert sign == (exact > 0) - (exact < 0)
        assert text == libmp.to_str(libmp.from_man_exp(man, -bits), digits)

    @pytest.mark.parametrize("digits", [15, 18, 20])
    @pytest.mark.parametrize("e", [-8, -6, -5, -1, 0, 3, 14, 19])
    def test_carries(self, digits, e):
        # the dyadics on both sides of (10^digits - 1/2) * 10^(e + 1 - digits),
        # where 9.99... rounds up into the next decade
        with localcontext() as ctx:
            ctx.prec = 200
            tie = (Decimal(10) ** digits - Decimal("0.5")).scaleb(e + 1 - digits)
            bits = _to_str_bits(digits) - 1 - math.ceil((e + 1) * math.log2(10))
            up = int((tie * Decimal(2) ** bits).to_integral_value(rounding="ROUND_CEILING"))
        for man in (up - 1, up):
            got = sign_and_text(man, man, bits, 0, digits)[1]
            assert got == libmp.to_str(libmp.from_man_exp(man, -bits), digits)
        assert Decimal(sign_and_text(up, up, bits, 0, digits)[1]) == Decimal(10) ** (e + 1)
        below = Decimal(sign_and_text(up - 1, up - 1, bits, 0, digits)[1])
        assert below == (Decimal(10) ** digits - 1).scaleb(e + 1 - digits)

    @pytest.mark.parametrize("digits", [15, 18, 20])
    @pytest.mark.parametrize("s", [0, 1, 63, 64])
    def test_carries_at_the_rounding_branch_edges(self, digits, s):
        # r 10^s, s = digits - 1 - e, rounds by one shift for 0 < s < 64 and by
        # a division otherwise; a carry moves s down by one
        self.test_carries(digits, digits - 1 - s)

    @given(
        st.integers(min_value=15, max_value=20),
        st.sampled_from([-2, -1, 0, 1, 2, 62, 63, 64, 65]),
        st.integers(min_value=1, max_value=80),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_rounding_branch_edges_print_as_to_str(self, digits, s, width, data):
        # a dyadic of ``width`` bits in the decade [10^e, 10^(e + 1)) that
        # puts r 10^s at the given s; small widths make integers, at bits = 0
        e, width = digits - 1 - s, min(width, _to_str_bits(digits))
        man = data.draw(st.integers(min_value=1 << width - 1, max_value=(1 << width) - 1))
        shift = math.ceil(e * math.log2(10)) - (width - 1)  # man 2^shift in [10^e, 4 10^e)
        man, bits = (man << shift, 0) if shift >= 0 else (man, -shift)
        text = libmp.to_str(libmp.from_man_exp(man, -bits), digits)
        assert sign_and_text(man, man, bits, 0, digits) == (1, text)
        assert Decimal(text).adjusted() in (e, e + 1)

    @given(st.integers(min_value=15, max_value=20), st.integers(min_value=1, max_value=20),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_ties_round_half_up(self, digits, s, data):
        # at bits = s + 1 an odd mantissa puts r 10^s = man 5^s / 2 halfway
        # between two integers; the shift must round it up, as to_str does
        e = digits - 1 - s
        scale = 1 << s + 1
        low = scale * 10**e if e >= 0 else -(-scale // 10**-e)
        high = scale * 10 ** (e + 1) if e >= -1 else scale // 10 ** (-e - 1)
        man = 2 * data.draw(st.integers(min_value=low // 2, max_value=(high - 2) // 2)) + 1
        text = libmp.to_str(libmp.from_man_exp(man, -(s + 1)), digits)
        assert sign_and_text(man, man, s + 1, 0, digits) == (1, text)

    @given(
        st.sampled_from([15, 20]),
        st.integers(min_value=-12, max_value=40),
        st.integers(min_value=-6, max_value=6),
        st.sampled_from([0, 64, 128, 200]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_next_to_a_power_of_ten_rounds_as_decimal(self, digits, e, offset, bits, width):
        # a few units of 2^-bits on either side of 10^e, where the bit length's
        # estimate of the decimal exponent is one low or right; the text is the
        # enclosure's real rounded half-up by stdlib decimal, and the sign is exact
        with localcontext() as ctx:
            ctx.prec = 400
            unit = Decimal(2) ** -bits
            man = int((Decimal(10) ** e / unit).to_integral_value(rounding="ROUND_FLOOR"))
            man = max(man + offset, 1)
            real = man * unit
            expected = real.quantize(Decimal(1).scaleb(real.adjusted() - digits + 1),
                                     rounding="ROUND_HALF_UP")
        got = sign_and_text(man, man + width, bits, 0, digits)
        if width == 0 or got is not None:
            sign, text = got
            assert sign == 1 and Decimal(text) == expected
            assert Decimal(text).adjusted() in (real.adjusted(), real.adjusted() + 1)
        value = man >> bits  # an integer at or below the real
        sign, _ = sign_and_text(man, man, bits, value, digits)
        assert sign == (1 if man > value << bits else 0)

    def test_rounds_once_unless_it_carries(self, monkeypatch):
        # 1000 has 10 bits, from which the estimate of its exponent is 2, one
        # low; 20 nines round up to 10^20 at 15 digits, a true carry
        calls = []
        half_up = hpreal._half_up
        monkeypatch.setattr(hpreal, "_half_up", lambda *args: calls.append(args) or half_up(*args))
        assert sign_and_text(1000, 1000, 0, 0, 15) == (1, "1000.0") and len(calls) == 1
        assert sign_and_text(10**20 - 1, 10**20 - 1, 0, 0, 15) == (1, "1.0e+20")
        assert len(calls) == 3

    def test_layouts(self):
        cases = [(3 << 64, 64, 15, "3.0"), (12 * 10**24, 0, 20, "1.2e+25"), (1, 4, 15, "0.0625"),
                 (1, 20, 20, "9.5367431640625e-7"), (1, 14, 15, "6.103515625e-5"),
                 (1, 14, 20, "0.00006103515625"), (10**20 - 1, 0, 20, "99999999999999999999.0")]
        for man, bits, digits, text in cases:
            assert sign_and_text(man, man, bits, 0, digits) == (1, text)

    def test_open_enclosures(self):
        # one that holds the value, and one across a rounding boundary
        assert sign_and_text(5 << 10 - 1, 5 << 10 + 1, 10, 5, 15) is None
        third = (1 << 200) // 3
        assert sign_and_text(third, third + 1, 200, 0, 15) == (1, "0.333333333333333")
        half = (1 << 200) // 2 + 1  # 0.5 + 2^-200, across 0.5 at one digit
        assert sign_and_text(half - 2, half, 200, 0, 15) == (1, "0.5")


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
        st.sampled_from([15, 20]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_csv_writer(self, triples, digits):
        # arbitrary values put the bounds on both sides of them, so lower and
        # upper rows hold and fail, beside inapplicable ones; csv.writer
        # writes the fields the formulas give, and no field needs quoting
        lines, tally = [], _tally()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(HEADER.split(","))
        for n, k, value in triples:
            lines += check_bounds({n: [value] * k}, "all", digits, tally)
            writer.writerows(_expected_fields(n, level, value, name, digits)
                             for level in range(1, k + 1) for name in HYPOTHESES)
        buf = io.StringIO()
        write_report_csv(lines, buf)
        assert buf.getvalue() == expected.getvalue()
        for row in buf.getvalue().splitlines():
            assert row.count(",") == 7 and '"' not in row and "\r" not in row
        lines = buf.getvalue().splitlines()[1:]
        held = [line.endswith(",yes,yes") for line in lines]
        assert (tally[True], tally[False]) == (sum(held), len(lines) - sum(held) - tally[None])

    def test_every_kind_of_field(self):
        # both verdicts of both sides, inapplicable rows, and a value of 41 digits
        lines = [*_lines(9, 1, 10, 20)[0], *_lines(9, 1, 1000, 20)[0], *_lines(9, 9, 10**40)[0]]
        assert lines[:6] == [
            "9,1,10,rosser_lower,19.775021196025974445,10,yes,no",
            "9,1,10,rosser_upper,10,39.55004239205194889,yes,yes",
            "9,1,10,iter_upper,10,39.55004239205194889,yes,yes",
            "9,1,10,iter_upper_simple,,,no,",
            "9,1,10,iter_lower,19.775021196025974445,10,yes,no",
            "9,1,10,iter_lower_huge_n,,,no,",
        ]
        assert lines[7:9] == [
            "9,1,1000,rosser_upper,1000,39.55004239205194889,yes,no",
            "9,1,1000,iter_upper,1000,39.55004239205194889,yes,no",
        ]
        assert lines[14:16] == [
            f"9,9,{10**40},iter_upper,{10**40},56773150259196.9,yes,no",
            f"9,9,{10**40},iter_upper_simple,{10**40},1.21225097197358e+17,yes,no",
        ]
        buf = io.StringIO()
        write_report_csv(lines, buf)
        assert buf.getvalue() == "\n".join([HEADER, *lines]) + "\n"

    def test_empty_report_list_writes_the_header(self):
        buf = io.StringIO()
        write_report_csv([], buf)
        assert buf.getvalue() == HEADER + "\n"

    @pytest.mark.parametrize("prec", [15, 20])
    def test_verify_prints_check_bounds_lines(self, capsys, cache, prec):
        # verify all over n <= 300, k <= 3 prints what check_bounds and
        # write_report_csv give, and its summary counts the same tally
        tally = _tally()
        towers = {n: iterate_prime(n, 3, cache=cache).values for n in range(1, 301)}
        buf = io.StringIO()
        write_report_csv(check_bounds(towers, "all", prec, tally), buf)
        argv = ["verify", "all", "--n-max", "300", "--k-max", "3", "--prec", str(prec)]
        assert main([*argv, "--no-timestamp"]) == 0
        out, err = capsys.readouterr()
        assert out == buf.getvalue() and out.count("\n") == 1 + 5400
        assert err == (
            f"suite=all applicable={tally[True] + tally[False]} held={tally[True]} "
            f"violated={tally[False]} inapplicable={tally[None]}\n"
        )



@st.composite
def _towers(draw):
    """{n: levels}: up to 4 bases up to 10^5, or the dense bases 1..N; ragged depths up
    to 40, empty ones too (p_n above the budget), and arbitrary positive values."""
    if draw(st.booleans()):
        ns = range(1, draw(st.integers(min_value=1, max_value=12)) + 1)
    else:
        ns = sorted(draw(st.sets(st.integers(min_value=1, max_value=10**5), min_size=1,
                                 max_size=4)))
    values = st.one_of(st.integers(min_value=1, max_value=10**7),
                       st.integers(min_value=1, max_value=10**90))
    depth = draw(st.integers(min_value=0, max_value=40))
    return {n: draw(st.lists(values, max_size=depth)) for n in ns}


def _row_by_row(towers, suite, digits, tally):
    """The lines of ``suite`` for the towers, one row at a time: the paper's hypotheses
    decide applicability, and each applicable row is settled on its own by _settle."""
    lines = []
    for n, values in towers.items():
        for k, value in enumerate(values, start=1):
            for row in bounds.SUITES[suite]:
                if not HYPOTHESES[row.name](n, k):
                    lines.append(f"{n},{k},{value},{row.name},,,no,")
                    tally[None] += 1
                    continue
                [sign], [bound] = bounds._settle(row.term(k), [n], [value], digits)
                lower = row.name in LOWER_ROWS
                holds = sign < 0 if lower else sign > 0
                lhs, rhs = (bound, value) if lower else (value, bound)
                lines.append(f"{n},{k},{value},{row.name},{lhs},{rhs},yes,"
                             + ("yes" if holds else "no"))
                tally[holds] += 1
    return lines


class TestColumns:
    @given(_towers(), st.sampled_from(sorted(bounds.SUITES)), st.integers(15, 20))
    @settings(max_examples=80, deadline=None)
    def test_equal_the_rows_settled_one_by_one(self, towers, suite, digits):
        # one pass per level, shared terms, the log table and the lines built
        # from columns give what each row settled alone gives, in tower order
        tally, expected_tally = _tally(), _tally()
        got = check_bounds(towers, suite, digits, tally)
        assert len(got) == sum(map(len, towers.values()))
        assert "\n".join(got) == "\n".join(_row_by_row(towers, suite, digits, expected_tally))
        assert tally == expected_tally

    def test_rows_in_any_order(self, monkeypatch):
        # reversed, iter_upper settles 2 n log n for n >= 9 at k = 1 before
        # rosser_upper needs it from n = 3 on
        monkeypatch.setitem(bounds.SUITES, "all", bounds.SUITES["all"][::-1])
        towers = {n: [10**6, 10**9, 10**12][:n % 4] for n in range(1, 40)}
        tally, expected_tally = _tally(), _tally()
        got = check_bounds(towers, "all", 20, tally)
        assert "\n".join(got) == "\n".join(_row_by_row(towers, "all", 20, expected_tally))
        assert tally == expected_tally

    def test_no_tower_no_lines(self):
        tally = _tally()
        assert check_bounds({}, "all", 15, tally) == []
        assert check_bounds({5: []}, "all", 15, tally) == []
        assert tally == _tally()


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
        # the bytes verify --prec prec writes for each level, whatever mp.dps
        # the caller runs under, and that mp.dps left as it was
        cases = [(9, 1, 23), (9, 1, 1000), (10**15, 1, 34538776394910685), (50, 3, 10**9)]
        digits = min(prec, 20)

        def report(n, k, value):
            buf = io.StringIO()
            write_report_csv(_lines(n, k, value, digits)[0], buf)
            return buf.getvalue()

        for n, k, value in cases:
            outside = report(n, k, value)
            for context_digits in (digits, 40, 300):
                with mp.workdps(context_digits):
                    assert report(n, k, value) == outside
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
