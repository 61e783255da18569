"""``seqfam table``: a window of family members in text, csv or json.

``table`` takes the family's ``rows`` one at a time and writes each in pieces of
``PIECE_CELLS`` cells, so one row's members are held, not the window, nor the text of a
whole row; text first takes the column widths from a pass over the rows that formats
only each column's largest and smallest member.  A window whose members run past
``DECIMAL_FROM_BITS`` is evaluated at decimal labels
(:func:`seqfam.exact.exact_decimal`), so that writing a member is a linear copy of its
digits, and a shorter one at int labels.  Only the json format imports ``json``.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, List, Tuple

from ..exact import decimal_text, decimal_width, exact_decimal, format_exact
from ..families import Family, Row, SequenceWindow, check_window, cleared
from . import UsageError, check_size, parse_families, parse_range

#: ``table`` evaluates a window at decimal labels, in exact decimal, when a member of its
#: last row, at either end of its labels, has at least this many bits (about 376 digits),
#: and at int labels otherwise.  Below it, int arithmetic and ``str()`` cost less per cell
#: than decimal; above it, ``str()`` of an int, quadratic in its length, costs more.
DECIMAL_FROM_BITS = 1250


def long_members(family: Family, n_hi: int, m_range: Tuple[int, int]) -> bool:
    """Whether X(n_hi, m) at either end of the label range has DECIMAL_FROM_BITS bits
    (numerator and denominator together)."""
    (d, corners), = family.rows(m_range, n_hi, n_hi)
    return max(abs(v * d).bit_length() for v in corners) >= DECIMAL_FROM_BITS


def table_lines(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int],
                fmt: str) -> Iterator[str]:
    """The ``table`` report in ``fmt`` (json, csv or text), a piece of a table row at a
    time (:func:`_layout`), from the family's rows.  A window of long members
    (:func:`long_members`) is evaluated at decimal labels, so drain this inside
    ``exact_decimal()``."""
    labels = range(m_range[0], m_range[1] + 1)
    if long_members(family, n_range[1], m_range):
        labels = [*map(Decimal, labels)]
    return _layout(family, n_range, m_range, fmt, lambda: family.rows(labels, *n_range))


def _cells(d, row: Iterable) -> Iterator[str]:
    """The members of a row over d as ``format_exact`` writes them: decimals digit for digit
    (a family yields them coprime to d, so none is 0 over d != 1, and "/d" is written once
    per row), ints over d > 0 in lowest terms."""
    if isinstance(d, Decimal):
        return map(decimal_text, row) if d == 1 else map(str.__add__, map(str, row),
                                                         repeat(f"/{d}"))
    return map(format_exact, row) if d == 1 else map(_over, row, repeat(d))


def _over(v: int, d: int) -> str:
    """v/d, d > 0, as ``format_exact`` writes the Fraction, without making one."""
    g = math.gcd(v, d)
    return format_exact(v // g) if g == d else f"{format_exact(v // g)}/{format_exact(d // g)}"


def _widths(rows: Iterable[Row], count: int) -> List[int]:
    """The longest cell of each of ``count`` columns.  Over d = 1 it is the column's largest
    or smallest member, so only those are formatted; decimal p/q cells are measured."""
    widths, top, bottom = [1] * count, None, None
    for d, row in rows:
        if d == 1:
            one = d
            top = row if top is None else [v if v > t else t for t, v in zip(top, row)]
            bottom = row if bottom is None else [v if v < b else b for b, v in zip(bottom, row)]
        elif isinstance(d, Decimal):
            widths = [*map(max, widths, map(decimal_width, row, repeat(d)))]
        else:
            widths = [*map(max, widths, map(len, _cells(d, row)))]
    if top is not None:
        widths = [*map(max, widths, map(len, _cells(one, top)), map(len, _cells(one, bottom)))]
    return widths


#: The most cells of a row in one piece of a ``table`` report, so that a wide row is
#: written a piece at a time rather than joined whole.
PIECE_CELLS = 64


def _pieces(head: str, cells: Iterable[str], sep: str, tail: str) -> Iterator[str]:
    """head + sep.join(cells) + tail, in pieces of at most PIECE_CELLS cells."""
    cells = iter(cells)
    while chunk := [*islice(cells, PIECE_CELLS)]:
        yield head + sep.join(chunk)
        head = sep
    yield tail


def _layout(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int], fmt: str,
            rows: Callable[[], Iterable[Row]]) -> Iterator[str]:
    """The report of the window whose rows ``rows()`` yields (twice for text: the widths).

    The items concatenate to the report, final newline included; each holds at most
    PIECE_CELLS cells of a row.  The json is that of ``json.dumps(window_json_dict(table(
    ...)), indent=2)`` and the csv that of ``csv.writer`` (lines end in "\\r\\n"): cells
    hold only digits, "-" and "/", which need no escaping or quoting.
    """
    n_lo, n_hi = n_range
    m_lo, m_hi = m_range
    n_labels = [str(n) for n in range(n_lo, n_hi + 1)]
    m_labels = [str(m) for m in range(m_lo, m_hi + 1)]
    if fmt == "text":
        widths = _widths(rows(), len(m_labels))
    cells = (_cells(d, row) for d, row in rows())
    if fmt == "json":
        import json

        head = {"kind": "table", "family": family.label(), "n": [n_lo, n_hi], "m": [m_lo, m_hi]}
        yield json.dumps(head, indent=2)[:-2] + ',\n  "values": [\n'  # drop the closing "\n}"
        for n, row in enumerate(cells, n_lo):
            yield from _pieces('    [\n      "', row, '",\n      "',
                               f'"\n    ]{"," if n < n_hi else ""}\n')
        yield "  ]\n}\n"
    elif fmt == "csv":
        yield from _pieces("n,", m_labels, ",", "\r\n")
        for n, row in zip(n_labels, cells):
            yield from _pieces(f"{n},", row, ",", "\r\n")
    else:
        width = max(map(len, ["n\\m", *n_labels]))
        widths = [*map(max, map(len, m_labels), widths)]
        for n, row in chain([("n\\m", m_labels)], zip(n_labels, cells)):
            yield from _pieces(n.rjust(width) + "  ", map(str.rjust, row, widths), "  ", "\n")


def render_table_text(window: SequenceWindow) -> str:
    """The text report of a built window, without the final newline."""
    return "".join(_layout(window.family, window.n_range, window.m_range, "text",
                           lambda: map(cleared, window.values)))[:-1]


def render_table_csv(window: SequenceWindow) -> str:
    """The csv report of a built window, without the final newline."""
    return "".join(_layout(window.family, window.n_range, window.m_range, "csv",
                           lambda: map(cleared, window.values)))[:-1]


def window_json_dict(window: SequenceWindow) -> dict:
    return {
        "kind": "table",
        "family": window.family.label(),
        "n": list(window.n_range),
        "m": list(window.m_range),
        "values": [[format_exact(v) for v in row] for row in window.values],
    }


def cmd_table(args) -> int:
    families = parse_families(args.family)
    if len(families) != 1:
        raise UsageError("table takes exactly one family")
    n_range, m_range = parse_range(args.n), parse_range(args.m)
    check_window(n_range, m_range)
    check_size(n_range, m_range)
    write = sys.stdout.write
    with exact_decimal():
        for piece in table_lines(families[0], n_range, m_range, args.format):
            write(piece)
    return 0
