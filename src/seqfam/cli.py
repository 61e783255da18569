"""Command-line front end: tables, identity sweeps, float checks, OEIS lookup.

Exit codes: 0 success, 1 verification failure (failed checks or no catalog
match) or stdout closed by its reader (nothing on stderr), 2 usage error, 3
external-service error.  Reports go to stdout in text, csv or json;
diagnostics go to stderr.  Exact values of any length are decimal strings in
the machine formats, except OEIS JSON ``terms``: JSON numbers.  ``table``,
``verify``, ``float-check`` and ``oeis`` refuse a request past the size guard
(``MAX_INDEX``, ``MAX_POINTS``) before any evaluation, with exit 2.

This module is the parser and the dispatcher, and nothing more: importing it
runs ``argparse`` and nothing of the package but ``seqfam`` itself, nor
``json``, ``csv``, ``decimal`` or ``fractions``.  Each subparser names its
command, and :func:`main` reads that name from this module, which imports the
command's body from :mod:`seqfam.commands` on first read (PEP 562), with what
every body shares: the family selectors, the ranges, the size guard and the
report writers.  So a process compiles only the body of the subcommand it
runs, and the bodies' names, such as ``parse_families``, ``table_lines`` or
``cmd_verify``, stay readable here.  Without bytecode, importing this module
and building the parser takes 7.4 ms (``-X importtime``, median of 21; 2
vCPUs, Python 3.11.7), against 31.4 ms when it held every subcommand.
"""

import argparse
import re
import sys
from collections.abc import Sequence
from importlib import import_module

#: The module under seqfam.commands that defines each name read from here ("" for the
#: package itself); :func:`main` reads each command through this module, so that a
#: command replaced here is the one that runs.
_BODIES = {
    **dict.fromkeys(["MAX_INDEX", "MAX_POINTS", "STANDARD_FAMILIES", "UsageError",
                     "check_size", "load_roots_file", "parse_families", "parse_one_family",
                     "parse_range"], ""),
    **dict.fromkeys(["DECIMAL_FROM_BITS", "_cells", "cmd_table", "long_members",
                     "render_table_csv", "render_table_text", "table_lines",
                     "window_json_dict"], ".table"),
    **dict.fromkeys(["cmd_verify", "m_bound", "parse_identities"], ".verify"),
    "cmd_float_check": ".float_check",
    "cmd_oeis": ".oeis",
}


def __getattr__(name: str):
    if name not in _BODIES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("seqfam.commands" + _BODIES[name]), name)


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
    p_table.set_defaults(func="cmd_table")

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
    p_verify.set_defaults(func="cmd_verify")

    p_float = sub.add_parser("float-check", help="compare float root products to exact members")
    p_float.add_argument("--family", required=True)
    p_float.add_argument("--n", default="1..25", metavar="A..B")
    p_float.add_argument("--m", default="-10..10", metavar="A..B")
    p_float.add_argument("--tol", type=float, default=1e-9,
                         help="relative tolerance, > 0 (default 1e-9)")
    add_format(p_float)
    p_float.set_defaults(func="cmd_float_check")

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
    p_oeis.set_defaults(func="cmd_oeis")

    return parser


#: Flags whose value may start with a minus sign (ranges like -8..8).
_VALUE_FLAGS = {"--m", "--n", "--p", "--q", "--row", "--column"}
_NEGATIVE_VALUE = re.compile(r"^-\d+(\.\.(-?\d+|n))?$")


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ['--m', '-8..8'] as ['--m=-8..8'] so argparse keeps them together."""
    out: list[str] = []
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed; 2 for usage, 0 for --help
        return int(exc.code or 0)
    try:
        return getattr(sys.modules[__name__], args.func)(args)
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
