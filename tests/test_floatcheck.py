"""Tests for the floating-point product evaluation."""

import math
from fractions import Fraction

import pytest

from seqfam.families import FIB, LucasFamily, PochhammerFamily, PowerFamily, X
from seqfam.floatcheck import FloatCompareResult, _relative_error, compare_grid, summarize

from classic import chebyshev_zero_sum, classic_fibonacci, classic_fibonacci_products


def test_fibonacci_member_product():
    result = compare_grid(FIB, (6, 6), (1, 1))[0]
    assert result.exact == 13
    assert result.relative_error < 1e-12
    assert result.imaginary_residual < 1e-12


def test_single_factor_is_exact():
    # one factor, cos(pi/2) contributes nothing to the real part
    result = compare_grid(FIB, (1, 1), (5, 5))[0]
    assert result.exact == 5
    assert result.real == 5.0


def test_positive_q_product():
    # recursion oracle for q=2, m=3: 0, 1, 3, 7, 15, 31
    result = compare_grid(LucasFamily(2), (4, 4), (3, 3))[0]
    assert result.exact == 31
    assert result.imag == 0.0
    assert result.relative_error < 1e-12


def test_real_family_products():
    for family in (PowerFamily(2), PochhammerFamily()):
        for n in range(1, 12):
            for m in range(-6, 7):
                result = compare_grid(family, (n, n), (m, m))[0]
                assert result.relative_error < 1e-12
                assert result.imag == 0.0


@pytest.mark.parametrize("q", [-2, -1, 1, 2])
def test_lucas_grid_within_tolerance(q):
    for result in compare_grid(LucasFamily(q), (1, 25), (-10, 10)):
        assert result.within(1e-9), (q, result.n, result.m, result.relative_error)


@pytest.mark.parametrize("real, exact", [(1e300, 10 ** 400), (-1e308, 10 ** 400),
                                         (0.0, -10 ** 400), (1e308, 3 * 10 ** 399 + 1)])
def test_relative_error_past_the_double_range_is_exact(real, exact):
    with pytest.raises(OverflowError):
        float(exact)
    expected = abs(Fraction(real) - exact) / abs(exact)
    assert _relative_error(real, exact) == float(expected)
    assert _relative_error(real, exact) == pytest.approx(1.0)  # real is negligible


def test_relative_error_guard_at_exact_zero():
    # X = 0 here; the max(1, |exact|) denominator keeps the ratio finite
    result = compare_grid(FIB, (1, 1), (0, 0))[0]
    assert result.exact == 0
    assert result.relative_error < 1e-12


def test_chebyshev_zero_sums():
    assert abs(chebyshev_zero_sum(1)) < 1e-15
    assert abs(chebyshev_zero_sum(2)) < 1e-15
    for n in range(1, 26):
        assert abs(chebyshev_zero_sum(n)) < 1e-12


def test_chebyshev_zero_sum_rejects_zero():
    with pytest.raises(ValueError):
        chebyshev_zero_sum(0)


def test_classic_product_forms_agree_with_fibonacci():
    for n in range(2, 31):
        expected = classic_fibonacci(n)
        real_form, complex_form = classic_fibonacci_products(n)
        scale = max(1.0, float(expected))
        assert abs(real_form - expected) / scale < 1e-9
        assert abs(complex_form - expected) / scale < 1e-9


def test_classic_fibonacci_oracle():
    a, b = 0, 1
    for n in range(0, 31):
        assert classic_fibonacci(n) == a
        a, b = b, a + b


def test_result_serialization():
    payload = compare_grid(FIB, (6, 6), (1, 1))[0].to_json_dict()
    assert payload["family"] == "lucas:-1"
    assert payload["exact"] == "13"
    assert isinstance(payload["relative_error"], float)


@pytest.mark.parametrize("ratios", [[], [0.5], [math.nan, 2.0], [1.0, math.nan, 3.0], [2.0, 1.0]])
def test_summarize_maxima_are_those_of_max_with_default_zero(ratios):
    # exact 1, so a point's imaginary ratio is its residual, here half its relative error
    points = [FloatCompareResult("f", n, 0, 1, 1.0, 0.0, rel, rel / 2)
              for n, rel in enumerate(ratios)]
    count, worst_rel, worst_imag, failures = summarize(points, 1.5)
    expected = max(ratios, default=0.0)
    assert count == len(ratios) and failures == [p for p in points if not p.relative_error < 1.5]
    assert worst_rel == expected or math.isnan(worst_rel) and math.isnan(expected)
    assert worst_imag == expected / 2 or math.isnan(worst_imag) and math.isnan(expected)
