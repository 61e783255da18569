"""Tests for the exact combinatorial primitives."""

import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from seqfam.exact import (decimal_text, decimal_width, exact_decimal, format_exact, normalize,
                          parse_exact)

from classic import gould_sum


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


def test_the_exact_context_raises_rather_than_rounds():
    with exact_decimal():
        assert Decimal(10) ** 60 + 1 == 10 ** 60 + 1  # 61 digits, past the default 28
        with pytest.raises((decimal.Inexact, MemoryError)):  # asks for MAX_PREC digits
            Decimal(1) / 3
        with pytest.raises(decimal.Inexact):
            Decimal("1.5").to_integral_exact()
        with pytest.raises(decimal.InvalidOperation):
            Decimal(0) ** 0
    # outside it, the default context rounds silently
    assert Decimal(10) ** 60 + 1 == Decimal("1E+60")
    assert Decimal(1) / 3 == Decimal("0." + "3" * 28)


@pytest.mark.parametrize("value", [0, 1, -1, 9, 10, -10, 10 ** 19, -(3 ** 500), 12 ** 9000],
                         ids=lambda v: f"{v.bit_length()}-bit" if abs(v) > 99 else str(v))
def test_decimal_text_and_width_match_format_exact(value):
    with exact_decimal():
        d = Decimal(0) * -1 if value == 0 else Decimal(value)  # -0, as a product can give
        text = format_exact(value)
        assert decimal_text(d) == text and decimal_width(d) == len(text)
        if value:
            for b in (2, 7 ** 40):
                text = format_exact(Fraction(value * b + 1, b))
                assert decimal_text(d * b + 1, Decimal(b)) == text
                assert decimal_width(d * b + 1, Decimal(b)) == len(text)
