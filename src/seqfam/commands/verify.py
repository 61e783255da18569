"""``seqfam verify``: sweep catalog identities over a parameter grid."""

from __future__ import annotations

import sys
from typing import List

from .. import identities
from . import UsageError, check_size, emit_json, parse_families, parse_range, write_csv


def m_bound(text: str) -> identities.Bound:
    """An m range bound: an integer, or 'n' for the member index of each point."""
    return "n" if text.strip() == "n" else int(text)


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
        emit_json(payload)
    elif args.format == "csv":
        write_csv(["identity", "family", "n", "m", "p", "q", "lhs", "rhs", "residual"],
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
