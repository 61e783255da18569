"""Exact integer and rational arithmetic primitives.

Every value in this package is a Python ``int`` or a ``fractions.Fraction``;
nothing here ever rounds.  Rationals only appear when a family parameter is
itself rational or when an identity divides by a power of the sequence label.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Union

ExactScalar = Union[int, Fraction]


def normalize(value: ExactScalar) -> ExactScalar:
    """Collapse a Fraction with denominator 1 to a plain int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def parse_exact(text: str) -> ExactScalar:
    """Parse ``"3"``, ``"-7"`` or ``"p/q"`` into an exact scalar; ValueError if malformed."""
    text = text.strip()
    if "/" in text:
        try:
            return normalize(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return int(text)


_DIGIT_LIMIT_LOCK = threading.RLock()  # the limit is process-wide: one lifter at a time


@contextmanager
def unlimited_digits() -> Iterator[None]:
    """Lift the int <-> str digit limit in the block; for the program's own output only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    with _DIGIT_LIMIT_LOCK:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(saved)


def format_exact(value: ExactScalar) -> str:
    """Render an exact scalar as a decimal string (``p/q`` for rationals), of any length."""
    try:
        if type(value) is int:  # most values; skips the ABC instance checks below
            return str(value)
        value = normalize(value)
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return str(value)
    except ValueError:  # past the interpreter's digit limit for int -> str
        with unlimited_digits():
            return format_exact(value)


def pochhammer(a: int, n: int) -> int:
    """Rising product a * (a+1) * ... * (a+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError(f"pochhammer: length must be non-negative, got {n}")
    result = 1
    for i in range(n):
        result *= a + i
    return result

