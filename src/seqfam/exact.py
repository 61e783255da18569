"""Exact integer and rational arithmetic primitives.

Every value in this package is a Python ``int`` or a ``fractions.Fraction``,
except the long members that ``seqfam table`` prints, which it computes as
``decimal.Decimal`` integers; nothing here ever rounds.  Rationals only appear
when a family parameter is itself rational or when an identity divides by a
power of the sequence label.

Decimals (libmpdec, radix 10^19) make formatting a member a linear copy of its
digits, where ``str()`` of an int is quadratic in its length.  They are exact
only inside :func:`exact_decimal`, whose context has room for any result and
raises on every step that would round; the default context rounds silently at
28 digits, so no decimal arithmetic runs outside it.
"""

from __future__ import annotations

import decimal
import sys
import threading
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from typing import ContextManager, Iterator, Union

ExactScalar = Union[int, Fraction]

#: Integer arithmetic with no rounding: any result fits, and any step that would
#: round, overflow or is undefined (such as 0 ** 0) raises.  A quotient that does
#: not terminate asks for MAX_PREC digits and raises MemoryError at once.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                               decimal.Overflow, decimal.DivisionByZero])


def exact_decimal() -> ContextManager[decimal.Context]:
    """Run the block's decimal arithmetic in :data:`EXACT`."""
    return decimal.localcontext(EXACT)


def require_exact_decimal() -> None:
    """Raise unless this thread's decimal arithmetic raises rather than rounds."""
    if not decimal.getcontext().traps[decimal.Rounded]:
        raise RuntimeError("decimal members are computed only inside exact_decimal()")


def decimal_text(numerator: Decimal) -> str:
    """An integer computed in exact decimal as ``format_exact`` writes it, in linear time.
    A zero is "0", never "-0"."""
    return str(numerator) if numerator else "0"


def decimal_width(numerator: Decimal, denominator: Union[Decimal, int] = 1) -> int:
    """The length of numerator/denominator as ``format_exact`` writes it (the parts coprime,
    the denominator > 0), read off the exponents and signs."""
    width = numerator.adjusted() + 1 + (numerator < 0) if numerator else 1
    return width if denominator == 1 else width + denominator.adjusted() + 2


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

