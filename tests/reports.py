"""The report corpus: ``verify`` and ``table`` reports that must stay byte-identical.

``report_hashes.json`` lists each case with the SHA-256 of what it writes.  A case is
either an argv vector, run in-process through ``seqfam.cli.main`` and hashed over its
stdout, stderr and exit code, or a library sweep of every entry over two families with
one member X(n, m) corrupted (``"corrupt": [n, m]``), over m -3..4 or the range
``"m": [lo, hi]``, hashed over its json.  An argv
case may carry ``"files"``, name -> text, written to a fresh directory that the case
runs in, such as the roots files it names.  Wall time is masked: ``wall_time_s`` in
json, and the seconds of text's ``checks:`` line.

    python tests/reports.py

recomputes every hash in place from the current tree.  A change that means to alter a
report regenerates the file and says which reports changed, and why.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

import pytest

HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_hashes.json")
_WALL = [(re.compile(r'"wall_time_s": [^\n,}]+'), '"wall_time_s": 0'),
         (re.compile(r"^(checks: .* in )\S+s$", re.M), r"\1?s")]


def masked(text: str) -> str:
    for pattern, replacement in _WALL:
        text = pattern.sub(replacement, text)
    return text


def cli_output(argv, files=None):
    """stdout, stderr and the exit code of ``seqfam.cli.main(argv)``, run in-process in a
    fresh directory that holds ``files`` (name -> text)."""
    from seqfam import cli

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in (files or {}).items():
            with open(os.path.join(scratch, name), "w") as f:
                f.write(text)
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    return out.getvalue(), err.getvalue(), code


def corrupted_sweep_output(n, m, m_range):
    """The json of a sweep of every entry over power:-3/2 and fib, n 1..8 and m_range,
    with X(n, m) one too large in both; at m -3..4 row 3's difference table spans the
    labels -11..5."""
    from seams import corrupt_member
    from seqfam.families import FIB, LucasFamily, PowerFamily
    from seqfam.identities import ALL_IDENTITIES, SweepRanges, sweep

    with pytest.MonkeyPatch.context() as patch:
        for family_type in (PowerFamily, LucasFamily):
            corrupt_member(patch, family_type, n, m)
        report = sweep(ALL_IDENTITIES, [PowerFamily(Fraction(-3, 2)), FIB],
                       SweepRanges(n=(1, 8), m=tuple(m_range)))
    return json.dumps(report.to_json_dict(), indent=2), "", int(not report.passed)


def digest(case) -> str:
    out, err, code = (cli_output(case["argv"], case.get("files")) if "argv" in case
                      else corrupted_sweep_output(*case["corrupt"], case.get("m", (-3, 4))))
    text = json.dumps([masked(out), masked(err), code])
    return hashlib.sha256(text.encode()).hexdigest()


def load():
    with open(HASHES) as f:
        return json.load(f)


def main() -> None:
    cases = load()
    for case in cases:
        case["sha256"] = digest(case)
    with open(HASHES, "w") as f:
        json.dump(cases, f, indent=1)
        f.write("\n")
    print(f"{len(cases)} hashes written to {HASHES}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HASHES), os.pardir, "src"))
    main()
