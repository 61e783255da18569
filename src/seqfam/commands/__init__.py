"""What every seqfam subcommand shares: its family selectors, its ranges, the size guard,
and the json and csv report writers.

Each subcommand's body is a module of this package (``table``, ``verify``,
``float_check``, ``oeis``), which :func:`seqfam.cli.main` imports, with this package,
only when it dispatches to it.  ``json`` and ``csv`` are imported by the writers, and
by the roots-file reader, when they run.  These helpers live here, not in
:mod:`seqfam.cli`, because under ``python -m seqfam.cli`` that module runs as
``__main__``, and a body importing ``seqfam.cli`` would run it a second time.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, List, Tuple

from .. import identities
from ..exact import ExactScalar, parse_exact, unlimited_digits
from ..families import (FIB, ExplicitRootsFamily, Family, LucasFamily, PochhammerFamily,
                        PowerFamily)


#: Families swept by the selector "all" (the standard verification set).
STANDARD_FAMILIES: Tuple[Family, ...] = (
    PowerFamily(0), PowerFamily(1), PowerFamily(-1), PowerFamily(2),
    PowerFamily(Fraction(1, 2)), PochhammerFamily(),
    LucasFamily(-1), LucasFamily(1), LucasFamily(2), LucasFamily(-2),
)


class UsageError(ValueError):
    pass


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
    import json
    from pathlib import Path

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


# ---------------------------------------------------------------------------
# Report writers

def write_csv(header: List[str], rows) -> None:
    import csv

    writer = csv.writer(sys.stdout)  # every line ends in "\r\n"
    writer.writerow(header)
    writer.writerows(rows)


def emit_json(obj) -> None:
    import json

    with unlimited_digits():  # OEIS terms are JSON numbers of any length
        print(json.dumps(obj, indent=2, allow_nan=False))
