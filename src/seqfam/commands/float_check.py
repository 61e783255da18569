"""``seqfam float-check``: float root products against the exact members."""

from __future__ import annotations

import sys
from itertools import chain

from .. import floatcheck
from ..exact import format_exact
from ..families import check_window
from . import UsageError, check_size, emit_json, parse_families, parse_range, write_csv


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
        emit_json({
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
        write_csv(list(floatcheck.FIELDS), (r.to_json_dict().values() for r in failures))
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
