"""Tests for the exact combinatorial primitives."""

import math
import sys
from fractions import Fraction

import pytest
from seqfam.exact import format_exact, normalize, parse_exact, pochhammer

from classic import gould_sum


def test_pochhammer_factorial_oracle():
    # (a)_n = (a+n-1)! / (a-1)! for a >= 1
    for a in range(1, 11):
        for n in range(9):
            expected = math.factorial(a + n - 1) // math.factorial(a - 1)
            assert pochhammer(a, n) == expected


def test_pochhammer_known_values():
    assert pochhammer(3, 3) == 60
    assert pochhammer(-2, 4) == 0  # the factor (-2 + 2) kills the product
    assert all(pochhammer(a, 0) == 1 for a in range(-5, 6))


def test_pochhammer_shift_identity():
    # l * (l*m + 1)_n * m == (l*m)_{n+1} for all m != 0
    for m in range(-8, 9):
        if m == 0:
            continue
        for l in range(1, 13):
            for n in range(11):
                assert l * pochhammer(l * m + 1, n) * m == pochhammer(l * m, n + 1)


def test_gould_sum_small_values():
    # n=1: -C(1,1)*1^2; n=2: -2*1 + 1*8; n=3: -3 + 48 - 81
    assert gould_sum(1) == -1
    assert gould_sum(2) == 6
    assert gould_sum(3) == -36


def test_gould_sum_closed_form():
    for n in range(1, 21):
        assert gould_sum(n) == (-1) ** n * math.factorial(n) * n * (n + 1) // 2


def test_gould_sum_rejects_zero():
    with pytest.raises(ValueError):
        gould_sum(0)


def test_normalize_and_formatting():
    assert normalize(Fraction(4, 2)) == 2 and isinstance(normalize(Fraction(4, 2)), int)
    assert normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert format_exact(Fraction(3, 6)) == "1/2"
    assert format_exact(-15) == "-15"
    assert parse_exact("-7") == -7
    assert parse_exact("4/6") == Fraction(2, 3)
    assert parse_exact("6/3") == 2


def test_format_exact_plain_ints_and_whole_fractions():
    for value in (0, 1, -1, 10 ** 40, -(3 ** 100)):
        assert format_exact(value) == str(value)
        assert format_exact(Fraction(value * 7, 7)) == str(value)  # collapses to an int
    assert format_exact(True) == "True"  # an int subclass keeps the general path


def test_parse_exact_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_exact("1/0")
    with pytest.raises(ValueError):
        parse_exact("-3/0")


def test_format_exact_renders_past_the_digit_limit():
    value = -(12 ** 9000)  # 9,713 digits, past the interpreter's 4,300 for str()
    text = format_exact(value)
    assert text.startswith("-4277") and len(text) == 9714
    # read back in chunks short enough for int()
    digits = text[1:]
    back = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        back = back * 10 ** len(chunk) + int(chunk)
    assert -back == value
    assert format_exact(Fraction(12 ** 9000, 7)).endswith("/7")
    if hasattr(sys, "get_int_max_str_digits"):  # the interpreter's limit is back in force
        with pytest.raises(ValueError):
            str(value)
