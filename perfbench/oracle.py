"""Independent expectations for the benchmark's correctness gates.

Nothing here imports seqfam.  Member values come from the closed forms and
recursions that define each standard family, and check counts come from the
domains the catalog states (m != 0 for the scaled entries, m >= n for the
explicit ones, 1 <= p < n and 0 <= q < p for the subfamily entries, and the
three Fibonacci entries on lucas:-1 only).  A gate compares the program's
output with these and returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import Dict, Iterable, List, Sequence, Tuple

Range = Tuple[int, int]

STANDARD_FAMILIES = ("power:0", "power:1", "power:-1", "power:2", "power:1/2",
                     "pochhammer", "lucas:-1", "lucas:1", "lucas:2", "lucas:-2")
ENTRIES = ("L1", "L2_SHIFT", "L2_SCALE", "REC_M", "SCALE_ID", "EXPL_POS", "EXPL_NEG",
           "SUBFAM_ZERO", "SUBFAM_FACT", "FIB_POSNEG", "FIB_POSNEG_COMPL", "FIB_POLY")
FIB_ONLY = ("FIB_POSNEG", "FIB_POSNEG_COMPL", "FIB_POLY")
FIB = "lucas:-1"


# -- check counts -------------------------------------------------------------

def count_checks(entry: str, family: str, n_range: Range, m_range: Range) -> int:
    """Admissible points of one (entry, family) cell on an integer m grid."""
    if entry in FIB_ONLY and family != FIB:
        return 0
    ms = range(m_range[0], m_range[1] + 1)
    total = 0
    for n in range(max(n_range[0], 1), n_range[1] + 1):
        if entry in ("L1", "FIB_POSNEG", "FIB_POSNEG_COMPL"):
            total += 1
        elif entry in ("L2_SHIFT", "REC_M", "FIB_POLY"):
            total += len(ms)
        elif entry in ("L2_SCALE", "SCALE_ID"):
            total += sum(1 for m in ms if m != 0)
        elif entry in ("EXPL_POS", "EXPL_NEG"):
            total += sum(1 for m in ms if m >= n)
        elif entry == "SUBFAM_ZERO":
            total += len(ms) * (n * (n - 1) // 2)
        elif entry == "SUBFAM_FACT":
            total += len(ms) * (n - 1)
        else:
            raise ValueError(f"unknown catalog entry {entry!r}")
    return total


def sweep_checks(entries: Sequence[str], families: Sequence[str],
                 n_range: Range, m_range: Range) -> int:
    return sum(count_checks(e, f, n_range, m_range) for e in entries for f in families)


# -- member values --------------------------------------------------------------

def _power_parameter(family: str) -> Tuple[int, int]:
    text = family.split(":", 1)[1]
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def member_column(family: str, m: int, n_hi: int) -> List[str]:
    """Decimal strings of X(n, m) for n = 0..n_hi, as the program prints them."""
    if family.startswith("power:"):
        a, b = _power_parameter(family)
        base = b * m + a
        out = []
        for n in range(n_hi + 1):
            num, den = base ** n, b ** n
            g = math.gcd(num, den)
            num, den = num // g, den // g
            out.append(str(num) if den == 1 else f"{num}/{den}")
        return out
    if family == "pochhammer":
        value, out = 1, []
        for n in range(n_hi + 1):
            if n:
                value *= m + n
            out.append(str(value))
        return out
    if family.startswith("lucas:"):
        q = int(family.split(":", 1)[1])
        prev, cur, out = 0, 1, []
        for _ in range(n_hi + 1):
            out.append(str(cur))
            prev, cur = cur, m * cur - q * prev
        return out
    raise ValueError(f"the oracle knows no family {family!r}")


def member_rows(family: str, n_range: Range, m_range: Range) -> List[List[str]]:
    columns = [member_column(family, m, n_range[1]) for m in range(m_range[0], m_range[1] + 1)]
    return [[col[n] for col in columns] for n in range(n_range[0], n_range[1] + 1)]


def rows_digest(rows: Iterable[Sequence[str]]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(" ".join(row).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- expectations per operation -------------------------------------------------

def expect(op: Dict) -> Dict:
    """Everything the gate needs to judge one operation's output."""
    kind = op["kind"]
    if kind == "verify":
        n, m = op["n"], op["m"]
        return {
            "identities": list(op["entries"]),
            "families": list(op["families"]),
            "ranges": {"n": f"{n[0]}..{n[1]}", "m": f"{m[0]}..{m[1]}",
                       "p": "admissible", "q": "admissible"},
            "total_checks": sweep_checks(op["entries"], op["families"], n, m),
            "failure_count": 0,
            "failures": [],
        }
    if kind == "table":
        return {"family": op["family"], "n": list(op["n"]), "m": list(op["m"]),
                "digest": rows_digest(member_rows(op["family"], op["n"], op["m"])),
                "members": (op["n"][1] - op["n"][0] + 1) * (op["m"][1] - op["m"][0] + 1)}
    if kind == "float-check":
        n, m = op["n"], op["m"]
        return {"total_checks": len(op["families"]) * (n[1] - n[0] + 1) * (m[1] - m[0] + 1),
                "failure_count": 0, "failures": []}
    if kind == "oeis":
        lo, hi = op["range"]
        if op["axis"] == "row":
            terms = [member_column(op["family"], m, op["fixed"])[op["fixed"]]
                     for m in range(lo, hi + 1)]
        else:
            terms = member_column(op["family"], op["fixed"], hi)[lo:]
        return {"terms": [int(t) for t in terms], "id": op["id"], "verdict": True}
    raise ValueError(f"unknown operation kind {kind!r}")


# -- gates ------------------------------------------------------------------------

def _table_rows(op: Dict, text: str) -> Tuple[List[str], List[str], List[List[str]], Dict]:
    """Split a table output into (m labels, n labels, value rows, extra fields)."""
    fmt = op["format"]
    if fmt == "json":
        body = json.loads(text)
        m_lo, m_hi = body["m"]
        n_lo, n_hi = body["n"]
        extra = {"family": body["family"], "n": body["n"], "m": body["m"]}
        return ([str(m) for m in range(m_lo, m_hi + 1)],
                [str(n) for n in range(n_lo, n_hi + 1)], body["values"], extra)
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
    else:
        lines = [line.split() for line in text.splitlines()]
    header, body_rows = lines[0], lines[1:]
    return header[1:], [r[0] for r in body_rows], [r[1:] for r in body_rows], {}


def gate(op: Dict, expected: Dict, returncode: int, stdout: str, stderr: str) -> List[str]:
    """Problems with one operation's result; empty when it is correct."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        problems += _gate_output(op, expected, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _gate_output(op: Dict, expected: Dict, stdout: str) -> List[str]:
    kind = op["kind"]
    if kind == "table":
        m_labels, n_labels, rows, extra = _table_rows(op, stdout)
        problems = []
        n, m = expected["n"], expected["m"]
        if m_labels != [str(v) for v in range(m[0], m[1] + 1)]:
            problems.append("table columns are not the requested m window")
        if n_labels != [str(v) for v in range(n[0], n[1] + 1)]:
            problems.append("table rows are not the requested n window")
        for key, value in extra.items():
            if value != expected[key]:
                problems.append(f"{key} is {value!r}, expected {expected[key]!r}")
        if rows_digest(rows) != expected["digest"]:
            problems.append("table values differ from the oracle")
        return problems
    body = json.loads(stdout)
    if kind == "oeis":
        problems = []
        if body["verdict"] is not True:
            problems.append(f"verdict {body['verdict']!r}, expected true")
        if expected["id"] not in body["ids"]:
            problems.append(f"ids {body['ids']} lack {expected['id']}")
        if body["terms"] != expected["terms"]:
            problems.append("looked-up terms differ from the oracle")
        return problems
    return [f"{key} is {body.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if body.get(key) != value]
