import math

import pytest
from mpmath import mp, mpf

from primeth import (
    DomainError,
    ThresholdViolatedError,
    certify_threshold,
    closed_form_floor,
    eval_L,
    eval_f,
    eval_g,
    eval_h,
)
from primeth import certify as certify_mod


def L_float(x):
    """Independent float-arithmetic evaluation of L, for cross-checking."""
    first = math.exp((x + 1) * (math.log(x) - math.log(x + 1)))
    second = math.exp((x + 1) * (math.log(math.log(x)) - math.log(math.log(x + 1))))
    return first * second


class TestEvalL:
    def test_at_4200_exceeds_threshold(self):
        value = eval_L(4200, prec=30)
        assert value > mpf("0.32627")
        assert abs(float(value) - L_float(4200)) < 1e-9

    def test_small_x(self):
        value = eval_L(2, prec=30)
        assert abs(float(value) - L_float(2)) < 1e-12
        assert float(value) < 0.08

    def test_large_x_above_boundary_value(self):
        assert eval_L(10**6, prec=40) > eval_L(4200, prec=40)

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_L(1)

    def test_precision_robustness(self):
        a = eval_L(4200, prec=60)
        b = eval_L(4200, prec=120)
        assert abs(a - b) < mpf(10) ** -55


class TestAuxiliaryFunctions:
    def test_f_values(self):
        assert abs(float(eval_f(1)) + 2 * math.log(2)) < 1e-12
        assert abs(float(eval_f(4200)) + 1.000119) < 1e-5

    def test_f_negative_everywhere_sampled(self):
        for x in (0.5, 1, 7, 4200, 10**9):
            assert eval_f(x) < 0

    def test_f_is_log_of_first_factor(self):
        for x in (2, 100, 4200):
            with mp.workdps(50):
                first = (mpf(x) / (x + 1)) ** (x + 1)
                assert abs(mp.exp(eval_f(x, prec=50)) - first) < mpf(10) ** -40

    def test_g_values(self):
        assert eval_g(2) == mpf("0.25")
        assert abs(float(eval_g(3)) - (2 / 3) ** 3) < 1e-12
        assert eval_g(2) < eval_g(3)

    def test_h_value(self):
        expected = math.log(3) / (math.log(3) - math.log(2))
        assert abs(float(eval_h(2)) - expected) < 1e-12

    def test_h_cancellation_at_large_x(self):
        # denominator loses ~log10(x) digits; result must stay accurate
        x = 10**12
        value = eval_h(x, prec=30)
        expected = math.log(x + 1) / math.log1p(1 / x)
        assert abs(float(value) / expected - 1) < 1e-9

    def test_g_of_h_4200_in_unit_interval(self):
        value = eval_g(eval_h(4200))
        assert 0 < value < 1

    def test_domains(self):
        with pytest.raises(DomainError):
            eval_f(0)
        with pytest.raises(DomainError):
            eval_g(1)
        with pytest.raises(DomainError):
            eval_h(1)


class TestClosedFormFloor:
    def test_seven_digit_value(self):
        value = closed_form_floor(prec=30)
        assert mp.nstr(value, 7) == "0.3262768"
        assert value > mpf("0.32627")

    def test_below_actual_L(self):
        # the chain only enlarges the exponent of a factor below one
        assert closed_form_floor(prec=40) < eval_L(4200, prec=40)


class TestCertifyThreshold:
    def test_default_grid_passes(self):
        report = certify_threshold()
        assert report.f_increasing
        assert report.g_increasing
        assert report.h_increasing
        assert 0 < report.g_of_h_4200 < 1
        assert report.exp_threshold_ok  # e^(e/0.32627) <= 4200
        assert [x for x, *_ in report.rows] == list(certify_mod.CERT_POINTS)
        assert {4200, 4201, 10**6} <= set(certify_mod.CERT_POINTS)
        assert min(certify_mod.CERT_POINTS) >= certify_mod.HYPOTHESIS_X_MIN
        assert all(margin > 0 for _, _, margin in report.rows)

    def test_default_report_has_no_failed_fact(self):
        assert certify_threshold().failed_facts() == []

    def test_floor_below_threshold_is_a_failed_fact(self, monkeypatch):
        # every sampled L(x) exceeds 0.32628; the floor 0.3262768... does not
        monkeypatch.setattr(certify_mod, "THRESHOLD", (32628, 10**5))
        report = certify_threshold()
        assert report.failed_facts() == ["closed-form floor constant > threshold"]
        assert report.to_text().splitlines()[-1] == (
            "verdict: fail (closed-form floor constant > threshold)"
        )

    def test_in_hypothesis_violation_is_build_stopping(self, monkeypatch):
        monkeypatch.setattr(certify_mod, "THRESHOLD", (1, 2))
        with pytest.raises(ThresholdViolatedError):
            certify_threshold()

    def test_verdict_decided_below_working_precision(self, monkeypatch):
        # L(4200) = 0.32628147205393321740026...; thresholds 3e-23 either
        # side of it are decided exactly right at 20 digits
        monkeypatch.setattr(certify_mod, "THRESHOLD", (3262814720539332174002, 10**22))
        assert certify_threshold(prec=20).rows[0][0] == 4200
        monkeypatch.setattr(certify_mod, "THRESHOLD", (3262814720539332174003, 10**22))
        with pytest.raises(ThresholdViolatedError, match=r"L\(4200\)"):
            certify_threshold(prec=20)

    def test_text_form(self):
        text = certify_threshold().to_text()
        lines = text.splitlines()
        assert lines[0] == "threshold: L(x) > 0.32627 for x >= 4200"
        assert "0.3262768" in text
        assert lines[-1] == "verdict: pass"
        rows = [line for line in lines if line.startswith("x=")]
        assert len(rows) == len(certify_mod.CERT_POINTS)
        assert all(line.endswith("  pass") for line in rows)

    def test_verdict_is_precision_invariant(self):
        lo = certify_threshold(prec=30)
        hi = certify_threshold(prec=100)
        assert [x for x, *_ in lo.rows] == [x for x, *_ in hi.rows]
        assert lo.exp_threshold_ok and hi.exp_threshold_ok
