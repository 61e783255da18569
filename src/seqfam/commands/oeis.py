"""``seqfam oeis``: cross-check a row or column of a family against the OEIS catalog."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import oeis
from ..exact import format_exact
from . import UsageError, check_size, emit_json, parse_families, parse_range, write_csv


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
        emit_json(payload)
    elif args.format == "csv":
        write_csv(["family", "axis", "fixed", "terms", "ids", "source", "verdict"],
                  [[family.label(), axis, fixed, " ".join(map(format_exact, match.terms)),
                    " ".join(match.ids), match.source, verdict]])
    else:
        terms = ", ".join(map(format_exact, match.terms))
        print(f"family: {family.label()}  {axis} {fixed}  terms [{terms}]")
        status = "MATCH" if verdict else ("AMBIGUOUS" if match.ambiguous else "NO MATCH")
        print(f"{status}: {', '.join(match.ids) if match.ids else '-'} [{match.source}]")
    return 0 if verdict else 1
