"""Command-line front end: tables, identity sweeps, float checks, OEIS lookup.

Exit codes: 0 success, 1 verification failure (failed checks or no catalog
match) or stdout closed by its reader (nothing on stderr), 2 usage error, 3
external-service error.  Reports go to stdout in text, csv or json;
diagnostics go to stderr.  Exact values of any length are decimal strings in
the machine formats, except OEIS JSON ``terms``: JSON numbers.  ``table``
takes the family's ``rows`` one at a time and writes each in pieces of
``PIECE_CELLS`` cells, so one row's members are held, not the window, nor the
text of a whole row; text first takes the column widths from a pass over the
rows that formats only each column's largest and smallest member.  A window
whose members run past ``DECIMAL_FROM_BITS`` is evaluated at decimal labels
(:func:`seqfam.exact.exact_decimal`), so that writing a member is a linear
copy of its digits, and a shorter one at int labels.  ``table``, ``verify``,
``float-check`` and ``oeis`` refuse a request past the size guard
(``MAX_INDEX``, ``MAX_POINTS``) before any evaluation, with exit 2.  The
package runs each module on first use, so a subcommand runs only the modules
it reads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import floatcheck, identities, oeis
from .exact import (ExactScalar, decimal_text, decimal_width, exact_decimal, format_exact,
                    parse_exact, unlimited_digits)
from .families import (FIB, ExplicitRootsFamily, Family, LucasFamily, PochhammerFamily,
                       PowerFamily, Row, SequenceWindow, check_window, cleared)


#: Families swept by the selector "all" (the standard verification set).
STANDARD_FAMILIES: Tuple[Family, ...] = (
    PowerFamily(0), PowerFamily(1), PowerFamily(-1), PowerFamily(2),
    PowerFamily(Fraction(1, 2)), PochhammerFamily(),
    LucasFamily(-1), LucasFamily(1), LucasFamily(2), LucasFamily(-2),
)


class UsageError(ValueError):
    pass


def m_bound(text: str) -> identities.Bound:
    """An m range bound: an integer, or 'n' for the member index of each point."""
    return "n" if text.strip() == "n" else int(text)


def parse_range(text: str, bound: Callable[[str], identities.Bound] = int
                ) -> Tuple[identities.Bound, identities.Bound]:
    """Parse 'a..b', reading each end with ``bound``; a <= b when both are integers."""
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = bound(lo_text), bound(hi_text)
    except ValueError:
        raise UsageError(f"range must be 'a..b' with integer ends (verify --m also takes "
                         f"'n'), got {text!r}") from None
    if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
        raise UsageError(f"range must have a <= b, got {text!r}")
    return lo, hi


#: The size guard of ``table``, ``verify``, ``float-check`` and ``oeis``: every n and m
#: lies in -MAX_INDEX..MAX_INDEX, and a request has at most MAX_POINTS (n, m) points per
#: family.  It is checked before any evaluation; a larger request is a usage error.
MAX_INDEX = 10_000
MAX_POINTS = 1_000_000


def check_size(n_range: Tuple[int, int], m_range) -> None:
    """UsageError unless the request is within the size guard; an m bound "n" (verify)
    stands for the n of each point."""
    for axis, bounds in (("n", n_range), ("m", m_range)):
        if any(isinstance(b, int) and abs(b) > MAX_INDEX for b in bounds):
            raise UsageError(f"{axis} must lie within -{MAX_INDEX}..{MAX_INDEX}, "
                             f"got {bounds[0]}..{bounds[1]}")
    m_lo, m_hi = m_range
    points = sum(max(0, (n if m_hi == "n" else m_hi) - (n if m_lo == "n" else m_lo) + 1)
                 for n in range(n_range[0], n_range[1] + 1))
    if points > MAX_POINTS:
        raise UsageError(f"at most {MAX_POINTS:,} (n, m) points per family, got {points:,}")


def load_roots_file(path: str) -> ExplicitRootsFamily:
    """Load an explicit-roots family from a JSON file.

    Schema: {"label": str, "roots": {"<n>": ["<int or p/q>", ...], ...}} with
    exactly n root strings listed under each key n, for every n from 1 to the largest.
    """
    try:
        body = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read roots file {path}: {exc}") from exc
    roots = body.get("roots") if isinstance(body, dict) else None
    if not isinstance(roots, dict) or not roots:
        raise UsageError(f"roots file {path} must carry a non-empty 'roots' mapping")
    mapping = {}
    for key, row in roots.items():
        if not isinstance(row, list):
            raise UsageError(f"roots file {path}: entry n={key} must be a list of roots")
        try:
            n = int(key)
            values = tuple(parse_exact(str(v)) for v in row)
        except ValueError as exc:
            raise UsageError(f"roots file {path}: bad entry for n={key}: {exc}") from exc
        if n < 1 or len(values) != n:
            raise UsageError(f"roots file {path}: entry n={key} must list exactly {key} roots")
        mapping[n] = values
    missing = [n for n in range(1, max(mapping) + 1) if n not in mapping]
    if missing:
        raise UsageError(f"roots file {path} lists no roots for n={missing[0]}; it must list "
                         f"every n from 1 to {max(mapping)}")
    label = str(body.get("label", Path(path).stem))

    def root(n: int, l: int) -> ExactScalar:
        if n not in mapping:
            raise ValueError(f"roots file {path} lists no roots for n={n}")
        return mapping[n][l - 1]

    return ExplicitRootsFamily(root, label=f"roots:{label}")


def parse_one_family(text: str) -> Family:
    text = text.strip()
    if text == "pochhammer":
        return PochhammerFamily()
    if text == "fib":
        return FIB
    if text == "power":
        return PowerFamily(0)
    if text.startswith("power:"):
        try:
            return PowerFamily(parse_exact(text.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad power parameter in {text!r}") from None
    if text.startswith("lucas:"):
        try:
            family = LucasFamily(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad lucas parameter in {text!r}: {exc}") from None
        return family
    if text.startswith("roots:"):
        return load_roots_file(text.split(":", 1)[1])
    raise UsageError(
        f"unknown family {text!r}; expected power[:c], pochhammer, fib, lucas:q, roots:<file>")


def parse_families(text: str) -> List[Family]:
    if text.strip() == "all":
        return list(STANDARD_FAMILIES)
    out = [parse_one_family(item) for item in text.split(",") if item.strip()]
    if not out:
        raise UsageError("no families selected")
    return out


def parse_identities(text: str) -> List[identities.Identity]:
    if text.strip().lower() == "all":
        return list(identities.ALL_IDENTITIES)
    out = []
    for item in text.split(","):
        item = item.strip().upper()
        if not item:
            continue
        try:
            out.append(identities.Identity(item))
        except ValueError:
            known = ", ".join(i.value for i in identities.ALL_IDENTITIES)
            raise UsageError(f"unknown identity {item!r}; known: {known}") from None
    if not out:
        raise UsageError("no identities selected")
    return out


# ---------------------------------------------------------------------------
# Rendering

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


def _csv(header: List[str], rows) -> None:
    writer = csv.writer(sys.stdout)  # every line ends in "\r\n"
    writer.writerow(header)
    writer.writerows(rows)


def window_json_dict(window: SequenceWindow) -> dict:
    return {
        "kind": "table",
        "family": window.family.label(),
        "n": list(window.n_range),
        "m": list(window.m_range),
        "values": [[format_exact(v) for v in row] for row in window.values],
    }


def _emit_json(obj) -> None:
    with unlimited_digits():  # OEIS terms are JSON numbers of any length
        print(json.dumps(obj, indent=2, allow_nan=False))


# ---------------------------------------------------------------------------
# Subcommands

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


def cmd_verify(args) -> int:
    families = parse_families(args.family)
    entries = parse_identities(args.identity)
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    ranges = identities.SweepRanges(
        n=parse_range(args.n),
        m=parse_range(args.m, m_bound),
        p=None if args.p is None else parse_range(args.p),
        q=None if args.q is None else parse_range(args.q),
    )
    check_size(ranges.n, ranges.m)
    report = identities.sweep(entries, families, ranges, workers=args.workers)
    if report.total_checks == 0:
        print("warning: no admissible points in the sweep domain", file=sys.stderr)

    payload = report.to_json_dict()
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _csv(["identity", "family", "n", "m", "p", "q", "lhs", "rhs", "residual"],
             ([r["identity"], r["family"], *(r["params"].get(k, "") for k in "nmpq"),
               r["lhs"], r["rhs"], r["residual"]] for r in payload["failures"]))
        print(f"# total_checks={report.total_checks} failures={len(report.failures)}",
              file=sys.stderr)
    else:
        print(f"identities: {', '.join(report.identities)}")
        print(f"families:   {', '.join(report.families)}")
        print(f"ranges:     {report.ranges}")
        print(f"checks:     {report.total_checks} "
              f"({len(report.failures)} failed) in {report.wall_time_s:.2f}s")
        for r in payload["failures"]:
            print(f"FAIL {r['identity']} {r['family']} {r['params']}: lhs={r['lhs']} "
                  f"rhs={r['rhs']} residual={r['residual']}")
    return 0 if report.passed else 1


def cmd_float_check(args) -> int:
    families = parse_families(args.family)
    n_range, m_range = parse_range(args.n), parse_range(args.m)
    tol = args.tol
    if not tol > 0:  # nan, 0 or below: even an exact point would fail; inf passes every finite one
        raise UsageError(f"--tol must be positive, got {tol:g}")
    check_window(n_range, m_range, 1)
    check_size(n_range, m_range)

    total, worst_rel, worst_imag, failures = floatcheck.summarize(chain.from_iterable(
        floatcheck.iter_compare_grid(family, n_range, m_range) for family in families), tol)

    if args.format == "json":
        _emit_json({
            "kind": "float-check",
            "families": [f.label() for f in families],
            "n": list(n_range),
            "m": list(m_range),
            "tolerance": floatcheck.json_float(tol),
            "total_checks": total,
            "max_relative_error": floatcheck.json_float(worst_rel),
            "max_imaginary_ratio": floatcheck.json_float(worst_imag),
            "failure_count": len(failures),
            "failures": [r.to_json_dict() for r in failures],
        })
    elif args.format == "csv":
        _csv(list(floatcheck.FIELDS), (r.to_json_dict().values() for r in failures))
        print(f"# total_checks={total} failures={len(failures)}", file=sys.stderr)
    else:
        print(f"families: {', '.join(f.label() for f in families)}")
        print(f"checks:   {total}  tolerance {tol:g}")
        print(f"worst relative error:  {worst_rel:.3e}")
        print(f"worst imaginary ratio: {worst_imag:.3e}")
        for r in failures:
            print(f"FAIL {r.family} n={r.n} m={r.m}: exact={format_exact(r.exact)} "
                  f"float={r.real!r} rel={r.relative_error:.3e}")
    return 0 if not failures else 1


def cmd_oeis(args) -> int:
    families = parse_families(args.family)
    if len(families) != 1:
        raise UsageError("oeis takes exactly one family")
    family = families[0]

    if (args.row is None) == (args.column is None):
        raise UsageError("give exactly one of --row N or --column M")
    if (args.n if args.row is not None else args.m) is not None:
        raise UsageError("--row N takes --m A..B and --column M takes --n A..B")
    if args.row is not None:
        axis, fixed, text = "row", args.row, "0..9" if args.m is None else args.m
    else:
        axis, fixed, text = "column", args.column, "0..11" if args.n is None else args.n
    rng = parse_range(text)
    n_range, m_range = ((fixed, fixed), rng) if axis == "row" else (rng, (fixed, fixed))
    check_size(n_range, m_range)

    client = oeis.OeisClient(offline=args.offline,
                             cache_dir=Path(args.cache_dir) if args.cache_dir else None)
    try:
        match, verdict = oeis.cross_check(family, axis, fixed, rng, client)
    except oeis.TransportError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return 3
    except oeis.ParseError as exc:  # a ValueError, but the service's fault, not the user's
        print(f"service error: {exc}", file=sys.stderr)
        return 3

    if args.format == "json":
        payload = match.to_json_dict()
        payload.update({
            "kind": "oeis-cross-check",
            "family": family.label(),
            "axis": axis,
            "fixed": fixed,
            "range": list(rng),
            "verdict": verdict,
        })
        _emit_json(payload)
    elif args.format == "csv":
        _csv(["family", "axis", "fixed", "terms", "ids", "source", "verdict"],
             [[family.label(), axis, fixed, " ".join(map(format_exact, match.terms)),
               " ".join(match.ids), match.source, verdict]])
    else:
        terms = ", ".join(map(format_exact, match.terms))
        print(f"family: {family.label()}  {axis} {fixed}  terms [{terms}]")
        status = "MATCH" if verdict else ("AMBIGUOUS" if match.ambiguous else "NO MATCH")
        print(f"{status}: {', '.join(match.ids) if match.ids else '-'} [{match.source}]")
    return 0 if verdict else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqfam",
        description="Exact families of product-representable sequences: "
                    "tables, identity sweeps, float checks, OEIS lookup.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "csv", "json"], default="text")

    p_table = sub.add_parser("table", help="render a window of family members")
    p_table.add_argument("--family", required=True)
    p_table.add_argument("--n", required=True, metavar="A..B")
    p_table.add_argument("--m", required=True, metavar="A..B")
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="sweep identities over a parameter grid")
    p_verify.add_argument("--identity", default="all",
                          help="comma-separated tags, or 'all'")
    p_verify.add_argument("--family", default="all",
                          help="comma-separated selectors, or 'all'")
    p_verify.add_argument("--n", default="1..12", metavar="A..B")
    p_verify.add_argument("--m", default="-8..8", metavar="A..B",
                          help="bounds may be integers or 'n' (e.g. n..20)")
    p_verify.add_argument("--p", default=None, metavar="A..B",
                          help="restrict p (default: all admissible)")
    p_verify.add_argument("--q", default=None, metavar="A..B",
                          help="restrict q (default: all admissible)")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="processes for the sweep, clamped to the CPUs and to the "
                          "families with work (default 1)")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_float = sub.add_parser("float-check", help="compare float root products to exact members")
    p_float.add_argument("--family", required=True)
    p_float.add_argument("--n", default="1..25", metavar="A..B")
    p_float.add_argument("--m", default="-10..10", metavar="A..B")
    p_float.add_argument("--tol", type=float, default=1e-9,
                         help="relative tolerance, > 0 (default 1e-9)")
    add_format(p_float)
    p_float.set_defaults(func=cmd_float_check)

    p_oeis = sub.add_parser("oeis", help="cross-check a row or column against the catalog")
    p_oeis.add_argument("--family", required=True)
    p_oeis.add_argument("--row", type=int, default=None, metavar="N")
    p_oeis.add_argument("--column", type=int, default=None, metavar="M")
    p_oeis.add_argument("--n", default=None, metavar="A..B",
                        help="member range for --column (default 0..11)")
    p_oeis.add_argument("--m", default=None, metavar="A..B",
                        help="label range for --row (default 0..9)")
    p_oeis.add_argument("--offline", action="store_true",
                        help="use the bundled fixtures only; never touch the network")
    p_oeis.add_argument("--cache-dir", default=None,
                        help="override SEQFAM_CACHE_DIR for this invocation")
    add_format(p_oeis)
    p_oeis.set_defaults(func=cmd_oeis)

    return parser


#: Flags whose value may start with a minus sign (ranges like -8..8).
_VALUE_FLAGS = {"--m", "--n", "--p", "--q", "--row", "--column"}
_NEGATIVE_VALUE = re.compile(r"^-\d+(\.\.(-?\d+|n))?$")


def _merge_negative_values(argv: Sequence[str]) -> List[str]:
    """Rewrite ['--m', '-8..8'] as ['--m=-8..8'] so argparse keeps them together."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token in _VALUE_FLAGS and i + 1 < len(argv)
                and _NEGATIVE_VALUE.match(argv[i + 1])):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed; 2 for usage, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's exit
    except BrokenPipeError:  # the reader went away, as in `seqfam table ... | head`
        import os
        # Python's SIGPIPE recipe: point stdout at devnull so the final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
