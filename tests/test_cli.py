"""End-to-end CLI tests: selectors, formats, exit codes, report round-trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqfam
from seqfam import cli
from seqfam.cli import (DECIMAL_FROM_BITS, MAX_INDEX, MAX_POINTS, STANDARD_FAMILIES, UsageError,
                        build_parser, long_members, m_bound, main, parse_families, parse_range,
                        render_table_csv, render_table_text, window_json_dict)
from seqfam.exact import format_exact, unlimited_digits
from seqfam.families import LucasFamily, PochhammerFamily, PowerFamily, table
from seqfam.floatcheck import compare_grid, json_float
from seqfam.identities import Identity, SweepRanges, sweep

from grids import FIBONACCI_GRID, POCHHAMMER_GRID, POWER0_GRID
from seams import corrupt_member


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- dispatch --

@pytest.mark.parametrize("command, body", [
    ("table", "cmd_table"), ("verify", "cmd_verify"), ("float-check", "cmd_float_check"),
    ("oeis", "cmd_oeis"),
])
def test_main_runs_the_command_that_the_cli_module_names(monkeypatch, command, body):
    # a command replaced in seqfam.cli's namespace is the one that runs
    seen = []
    monkeypatch.setitem(vars(cli), body, lambda args: seen.append(args.command) or 5)
    assert main([command, "--family", "fib", "--n", "1..2", "--m", "0..1"]) == 5
    assert seen == [command]


def test_every_name_of_a_command_body_reads_from_the_cli_module():
    for name, module in cli._BODIES.items():
        assert getattr(cli, name) is getattr(import_module("seqfam.commands" + module), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# -- parsing helpers --

def test_parse_range():
    assert parse_range("1..7") == (1, 7)
    assert parse_range("-8..8") == (-8, 8)
    with pytest.raises(Exception):
        parse_range("7..1")
    with pytest.raises(Exception):
        parse_range("1-7")


def test_parse_m_range_symbolic():
    assert parse_range("n..20", m_bound) == ("n", 20)
    assert parse_range("-3..n", m_bound) == (-3, "n")
    with pytest.raises(UsageError, match="'n'"):
        parse_range("x..20", m_bound)
    with pytest.raises(UsageError, match="a <= b"):
        parse_range("5..2", m_bound)


def test_parse_families_selector_grammar():
    from fractions import Fraction
    labels = [f.label() for f in parse_families("power,power:1/2,pochhammer,fib,lucas:2")]
    assert labels == ["power:0", "power:1/2", "pochhammer", "lucas:-1", "lucas:2"]
    assert len(parse_families("all")) == 10
    assert parse_families("power:1/2")[0].c == Fraction(1, 2)


# -- table --

def test_table_fibonacci_json(capsys):
    code, out, _ = run(capsys, "table", "--family", "fib", "--n", "1..7",
                       "--m", "0..7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [[str(v) for v in row] for row in FIBONACCI_GRID]


def test_table_pochhammer_json(capsys):
    code, out, _ = run(capsys, "table", "--family", "pochhammer", "--n", "1..7",
                       "--m", "0..7", "--format", "json")
    assert json.loads(out)["values"] == [[str(v) for v in row] for row in POCHHAMMER_GRID]


def test_table_single_cell(capsys):
    code, out, _ = run(capsys, "table", "--family", "power:0", "--n", "1..1", "--m", "0..0")
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "0"


def test_table_text_layout(capsys):
    code, out, _ = run(capsys, "table", "--family", "power:0", "--n", "1..7", "--m", "0..7")
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n\\m", "0", "1", "2", "3", "4", "5", "6", "7"]
    assert len(lines) == 8  # header + 7 member rows
    assert lines[3].split() == ["3"] + [str(v) for v in POWER0_GRID[2]]


def test_table_csv_lossless(capsys):
    code, out, _ = run(capsys, "table", "--family", "fib", "--n", "1..7",
                       "--m", "0..7", "--format", "csv")
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["n"] + [str(m) for m in range(8)]
    parsed = [[int(v) for v in row[1:]] for row in rows[1:]]
    assert parsed == FIBONACCI_GRID


def test_table_rational_family(capsys):
    code, out, _ = run(capsys, "table", "--family", "power:1/2", "--n", "2..2",
                       "--m", "0..1", "--format", "json")
    assert json.loads(out)["values"] == [["1/4", "9/4"]]


def test_table_rejects_multiple_families(capsys):
    code, _, err = run(capsys, "table", "--family", "fib,pochhammer", "--n", "1..2", "--m", "0..2")
    assert code == 2 and "exactly one family" in err


# -- table streaming: byte-identical to the reference renderings --

def reference_csv(window):
    buf = io.StringIO()
    writer = csv.writer(buf)  # the default dialect: "\r\n" line ends
    writer.writerow(["n", *range(window.m_range[0], window.m_range[1] + 1)])
    for n, row in zip(range(window.n_range[0], window.n_range[1] + 1), window.values):
        writer.writerow([n, *map(format_exact, row)])
    return buf.getvalue()


def reference_text(window):
    header = ["n\\m"] + [str(m) for m in range(window.m_range[0], window.m_range[1] + 1)]
    rows = [[str(n)] + [format_exact(v) for v in row]
            for n, row in zip(range(window.n_range[0], window.n_range[1] + 1), window.values)]
    widths = [max(len(line[j]) for line in [header] + rows) for j in range(len(header))]
    return "".join("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(line)) + "\n"
                   for line in [header] + rows)


REFERENCE = {
    "json": lambda window: json.dumps(window_json_dict(window), indent=2) + "\n",
    "csv": reference_csv,
    "text": reference_text,
}

STREAM_WINDOWS = [
    ("power:1/2", "0..12", "-6..6"),
    ("lucas:2", "0..40", "-8..8"),
    ("pochhammer", "0..20", "-10..10"),
    ("power:0", "1..1", "0..0"),  # a single cell
    ("power:2", "9000..9001", "10..11"),  # members past 4,300 digits
    *((family.label(), "0..16", "-7..7") for family in STANDARD_FAMILIES),
    ("fib", "0..16", "-7..7"),  # the selectors that name a standard family otherwise
    ("power", "0..16", "-7..7"),
    ("power:0", "0..2", "-1..1"),  # 0^0 = 1 at n = 0
    # zero cells print "0": in decimal, lucas:1 at m = 0 and pochhammer at m = -2 and -4
    # step through -0
    ("lucas:-1", "0..12", "0..0"),
    ("lucas:1", "0..12", "0..0"),
    ("pochhammer", "0..9", "-9..0"),
    ("power:-3/4", "0..5", "-4..4"),  # n = 0 rows print "1", not "1/1"
    ("power:7/3", "0..5", "-4..4"),
    ("power:-3/4", "3..9", "-4..4"),  # columns that start past n = 0
    ("lucas:-2", "5..14", "-6..6"),
    ("pochhammer", "4..9", "-6..2"),
]


def assert_streams_reference(capsys, selector, n, m):
    window = table(parse_families(selector)[0], parse_range(n), parse_range(m))
    for fmt, reference in REFERENCE.items():
        code, out, err = run(capsys, "table", "--family", selector, "--n", n, "--m", m,
                             "--format", fmt)
        assert code == 0 and err == ""
        assert out == reference(window), fmt


@pytest.fixture(params=["int", "decimal"])
def evaluation(request, monkeypatch):
    """Make ``table`` evaluate at int or at decimal labels, whatever its members' length."""
    bits = 0 if request.param == "decimal" else math.inf
    monkeypatch.setattr("seqfam.commands.table.DECIMAL_FROM_BITS", bits)
    return request.param


@pytest.mark.parametrize("selector, n, m", STREAM_WINDOWS)
def test_table_stream_matches_reference(capsys, selector, n, m):
    assert_streams_reference(capsys, selector, n, m)


@pytest.mark.parametrize("selector, n, m", STREAM_WINDOWS)
def test_table_stream_matches_reference_at_either_evaluation(capsys, evaluation, selector, n, m):
    assert_streams_reference(capsys, selector, n, m)


#: A member corrupted at the evaluation seam, and the table cell that shows it: (family
#: type, member (n, m), selector, m window, (n, m, cell text)).
SEAMS = {
    "fib": (LucasFamily, (4, -1), "fib", "-2..1", (4, -1, "6")),
    "pochhammer": (PochhammerFamily, (3, -2), "pochhammer", "-3..0", (3, -2, "1")),
    "power": (PowerFamily, (0, 0), "power:0", "-1..1", (0, 0, "2")),
    # (2 + 1/2)^3 + 1, at either label type
    "power-half": (PowerFamily, (3, 2), "power:1/2", "1..3", (3, 2, "133/8")),
}


@pytest.mark.parametrize("evaluation, seam", [
    ("decimal", "fib"), ("int", "fib"), ("decimal", "pochhammer"), ("int", "pochhammer"),
    ("decimal", "power"), ("int", "power"), ("decimal", "power-half"), ("int", "power-half"),
], indirect=["evaluation"], ids=["fib", "fib-int", "pochhammer", "pochhammer-int", "power",
                                 "power-int", "power-half", "power-half-int"])
def test_a_corrupted_member_shows_in_the_table(capsys, monkeypatch, evaluation, seam):
    family, member, selector, m, cell = SEAMS[seam]
    _, clean, _ = run(capsys, "table", "--family", selector, "--n", "0..5", "--m", m,
                      "--format", "csv")
    corrupt_member(monkeypatch, family, *member)
    _, out, _ = run(capsys, "table", "--family", selector, "--n", "0..5", "--m", m,
                    "--format", "csv")
    n, label, text = cell
    column = parse_range(m)[0]
    changed = [(r, c) for r, (a, b) in enumerate(zip(clean.splitlines(), out.splitlines()))
               for c, (x, y) in enumerate(zip(a.split(","), b.split(","))) if x != y]
    assert changed == [(n + 1, label - column + 1)]
    assert out.splitlines()[n + 1].split(",")[label - column + 1] == text


def test_table_stream_escapes_a_roots_file_label(tmp_path, capsys, monkeypatch):
    label = 'say "hi", back\\slash \u00e9t\u00e9'
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"label": label, "roots": {"1": ["1/2"], "2": ["3", "-1/3"]}}))
    for bits in (math.inf, 0):  # with ints, then in decimal
        monkeypatch.setattr("seqfam.commands.table.DECIMAL_FROM_BITS", bits)
        assert_streams_reference(capsys, f"roots:{path}", "1..2", "-3..3")
    _, out, _ = run(capsys, "table", "--family", f"roots:{path}", "--n", "1..2", "--m", "0..0",
                    "--format", "json")
    assert json.loads(out)["family"] == f"roots:{label}"


def test_table_rational_cells_in_lowest_terms(tmp_path, capsys, monkeypatch):
    # X(2, m) = (m + 3)(m + 1/2) over d = 2: 0 at m = -3, an int at m = -1 and 1, else a half
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"roots": {"1": ["1/2"], "2": ["3", "1/2"]}}))
    outs = []
    for bits in (math.inf, 0):  # with ints, then in decimal
        monkeypatch.setattr("seqfam.commands.table.DECIMAL_FROM_BITS", bits)
        assert_streams_reference(capsys, f"roots:{path}", "0..2", "-4..2")
        outs.append(run(capsys, "table", "--family", f"roots:{path}", "--n", "0..2",
                        "--m", "-4..2", "--format", "csv")[1])
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[3] == "2,7/2,0,-3/2,-1,3/2,6,25/2"


@pytest.mark.parametrize("cells", [1, 2, 3])
@pytest.mark.parametrize("selector, n, m", [("power:1/2", "0..5", "-3..3"),
                                            ("pochhammer", "4..9", "-6..2"),
                                            ("power:0", "1..1", "0..0")])
def test_table_pieces_concatenate_to_the_report(capsys, monkeypatch, evaluation, cells,
                                                selector, n, m):
    # a row is written PIECE_CELLS cells at a time: cut at every cell, every second and third
    monkeypatch.setattr("seqfam.commands.table.PIECE_CELLS", cells)
    assert_streams_reference(capsys, selector, n, m)


@pytest.mark.parametrize("selector, n, m, decimal", [
    ("fib", "1..7", "0..7", False),
    ("power:1/2", "0..6", "-3..3", False),
    ("pochhammer", "0..300", "-60..60", True),  # decimal labels in the CLI, ints in table()
])
def test_render_seams_are_the_table_reports(capsys, selector, n, m, decimal):
    family, n_range, m_range = parse_families(selector)[0], parse_range(n), parse_range(m)
    assert long_members(family, n_range[1], m_range) == decimal
    window = table(family, n_range, m_range)
    for fmt, render in (("text", render_table_text), ("csv", render_table_csv)):
        code, out, err = run(capsys, "table", "--family", selector, "--n", n, "--m", m,
                             "--format", fmt)
        assert code == 0 and err == "" and out.endswith("\n")
        assert render(window) == out[:-1], fmt


def test_long_members_start_at_decimal_from_bits():
    bits = DECIMAL_FROM_BITS
    # 2^n and (1/2)^n both have n + 1 bits, numerator and denominator together
    for family in (PowerFamily(2), PowerFamily(Fraction(1, 2))):
        assert not long_members(family, bits - 2, (0, 0))
        assert long_members(family, bits - 1, (0, 0))
    # either end of the label range counts; pochhammer is 0 from n = -m on, at m < 0, so
    # that window holds nothing longer than 59!
    assert long_members(PochhammerFamily(), 300, (-60, 60))
    assert not long_members(PochhammerFamily(), 300, (-60, -1))
    assert long_members(LucasFamily(2), 300, (-60, 0))


@pytest.mark.parametrize("argv, long", [
    (["lucas:2", "0..300", "-60..60"], True),  # 534 digits at m = 60
    (["pochhammer", "0..300", "-60..60"], True),
    (["power:1/2", "0..300", "-60..60"], True),
    (["fib", "0..9", "-10000..10000"], False),  # wide, of members up to 37 digits
    (["fib", "0..0", "-10000..10000"], False),
    (["lucas:2", "0..128", "-60..60"], False),
])
def test_table_evaluates_long_members_in_decimal(capsys, monkeypatch, argv, long):
    asked = []
    for family_type in (LucasFamily, PochhammerFamily, PowerFamily):
        def spy(self, labels, n_lo, n_hi, real=family_type.rows):
            asked.append(labels)
            return real(self, labels, n_lo, n_hi)

        monkeypatch.setattr(family_type, "rows", spy)
    selector, n, m = argv
    code, _, _ = run(capsys, "table", "--family", selector, "--n", n, "--m", m, "--format", "csv")
    assert code == 0
    m_lo, m_hi = parse_range(m)
    window = [labels for labels in asked if len(labels) > 2]  # not the two corners' read
    assert len(window) == 1 and list(window[0]) == list(range(m_lo, m_hi + 1))
    assert {type(label) for label in window[0]} == {Decimal if long else int}


class ByteSink:
    """A stdout that keeps only the count of what is written to it (ASCII, one byte a char)."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_memory_is_one_row(fmt):
    argv = ["table", "--family", "lucas:2", "--n", "0..300", "--m", "-60..60", "--format", fmt]
    with contextlib.redirect_stdout(ByteSink()):
        main(argv)  # first use runs the modules the command reads
    sink = ByteSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.bytes > 5_000_000
    assert peak < sink.bytes / 10, f"peak {peak:,} B for {sink.bytes:,} B written"


@pytest.mark.parametrize("argv, bound", [
    # int labels: 3.5 MB traced when a piece of a row is held, 7.1 MB when the row is joined
    (["fib", "0..40", "-5000..5000", "csv"], 5_200_000),
    # decimal labels: 11.4 MB traced, and 18.7 MB
    (["lucas:2", "150..150", "-5000..5000", "json"], 15_000_000),
], ids=["int", "decimal"])
def test_table_holds_a_piece_of_a_row(argv, bound):
    family, n, m, fmt = argv
    argv = ["table", "--family", family, "--n", n, "--m", m, "--format", fmt]
    with contextlib.redirect_stdout(ByteSink()):
        main(argv)  # first use runs the modules the command reads
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(ByteSink()):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound, f"peak {peak:,} B"


def test_table_memory_of_a_tall_window_of_short_members():
    # 10^6 members of up to 367 digits, 163 MB of csv: one row is held, not the window
    argv = ["table", "--family", "fib", "--n", "0..99", "--m", "-5000..4999", "--format", "csv"]
    with contextlib.redirect_stdout(ByteSink()):
        main(["table", "--family", "fib", "--n", "0..9", "--m", "0..9", "--format", "csv"])
    sink = ByteSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.bytes > 100_000_000
    assert peak < sink.bytes / 5, f"peak {peak:,} B for {sink.bytes:,} B written"


def test_table_memory_of_a_wide_short_row():
    # one row of 20,001 short members, at int labels
    argv = ["table", "--family", "fib", "--n", "0..0", "--m", f"-{MAX_INDEX}..{MAX_INDEX}",
            "--format", "csv"]
    with contextlib.redirect_stdout(ByteSink()):
        main(argv)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(ByteSink()):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = 2 * MAX_INDEX + 1
    assert code == 0
    assert peak < 250 * labels, f"peak {peak / labels:.0f} B per label"


def cli_env():
    """The environment for a `python -m seqfam.cli` child: this checkout's package."""
    return dict(os.environ, PYTHONPATH=str(Path(seqfam.__file__).resolve().parents[1]))


#: Spawns argv from this small interpreter and prints the child's exit code and
#: ru_maxrss in KiB.  Linux hands a spawning process's memory high-water mark on
#: to its child, so the test process must not spawn the measured command itself.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_table_memory_is_the_window():
    argv = [sys.executable, "-m", "seqfam.cli", "table", "--family", "lucas:2",
            "--n", "0..600", "--m", "-60..60", "--format", "json"]  # writes 30 MB
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    code, rss_kib = map(int, done.stdout.split())
    assert code == 0
    assert rss_kib / 1024 < 80, f"peak RSS {rss_kib / 1024:.1f} MB"


def test_closed_stdout_exits_one_without_traceback():
    argv = [sys.executable, "-m", "seqfam.cli", "table", "--family", "pochhammer",
            "--n", "0..300", "--m", "-60..60", "--format", "text"]  # a few MB of output
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert err == b"", err.decode()


# -- verify --

def test_verify_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "all", "--family", "fib",
                       "--n", "1..10", "--m", "-6..6")
    assert code == 0
    assert "(0 failed)" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "REC_M,L1", "--family",
                       "power:2,pochhammer", "--n", "1..6", "--m", "-4..4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "identity-sweep"
    assert payload["failure_count"] == 0
    assert payload["total_checks"] == 2 * (6 * 9 + 6)  # REC_M grid + L1 per family


def test_verify_json_round_trips(capsys):
    _, out, _ = run(capsys, "verify", "--identity", "L1", "--family", "fib",
                    "--n", "1..5", "--format", "json")
    assert json.dumps(json.loads(out), indent=2) == out.strip()


def test_verify_empty_domain_warns_and_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "--identity", "L2_SCALE", "--family", "fib",
                         "--n", "1..5", "--m", "0..0")
    assert code == 0
    assert "no admissible points" in err


def test_verify_symbolic_m_bound(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "EXPL_POS", "--family", "power:2",
                       "--n", "1..10", "--m", "n..20", "--format", "json")
    assert code == 0
    assert json.loads(out)["total_checks"] == sum(21 - n for n in range(1, 11))


def test_verify_workers_content_identical(capsys):
    args = ["verify", "--identity", "all", "--family", "fib,power:1", "--n", "1..8",
            "--m", "-5..5", "--format", "json"]
    _, serial, _ = run(capsys, *args)
    _, parallel, _ = run(capsys, *args, "--workers", "3")
    a, b = json.loads(serial), json.loads(parallel)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def csv_writer_text(header, rows):
    """``csv.writer``'s default-dialect rendering of the header and rows."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def test_verify_csv_failure_rows_are_the_json_failures(capsys, monkeypatch):
    corrupt_member(monkeypatch, PowerFamily, 3, 2)
    corrupt_member(monkeypatch, LucasFamily, 4, -1)
    argv = ["verify", "--family", "power:1/2,fib", "--n", "1..6", "--m", "-4..6"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    _, report, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(report)
    header = ["identity", "family", "n", "m", "p", "q", "lhs", "rhs", "residual"]
    rows = [[f["identity"], f["family"], *(f["params"].get(k, "") for k in "nmpq"),
             f["lhs"], f["rhs"], f["residual"]] for f in payload["failures"]]
    assert code == 1 and len(rows) > 10
    assert {len(f["params"]) for f in payload["failures"]} == {1, 2, 3, 4}  # blank m, p, q too
    assert out == csv_writer_text(header, rows) and out.count("\r\n") == len(rows) + 1
    assert f"# total_checks={payload['total_checks']} failures={len(rows)}\n" in err


def test_verify_text_fail_lines_are_the_report_failures(capsys, monkeypatch):
    corrupt_member(monkeypatch, PowerFamily, 3, 2)
    report = sweep([Identity.REC_M], [PowerFamily(0)], SweepRanges(n=(3, 3), m=(-2, 4)))
    code, out, _ = run(capsys, "verify", "--identity", "REC_M", "--family", "power:0",
                       "--n", "3..3", "--m", "-2..4")
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 1 and len(fails) == len(report.failures) == 4
    assert "checks:     7 (4 failed) in " in out
    for line, check in zip(fails, report.failures):
        assert line == (f"FAIL REC_M power:0 {dict(check.params)}: lhs={format_exact(check.lhs)} "
                        f"rhs={format_exact(check.rhs)} residual={format_exact(check.residual)}")


def test_verify_unknown_identity_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--identity", "NOPE", "--family", "fib")
    assert code == 2 and "unknown identity" in err


def test_verify_with_no_identity_selected_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--identity", ",", "--format", "json")
    assert (code, out) == (2, "") and "no identities selected" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run(capsys, "verify", "--identity", "L1", "--family", "fib", "--n", "1..3",
                         "--workers", workers)
    assert code == 2 and out == "" and "--workers must be at least 1" in err


def test_verify_runs_serially_by_default():
    assert build_parser().parse_args(["verify"]).workers == 1


# -- float-check --

def test_float_check_overflow_is_a_failure_row(capsys):
    # 12^n leaves the double range at n = 286: the float product is inf there
    code, out, err = run(capsys, "float-check", "--family", "power:2", "--n", "1..400",
                         "--m", "10..10", "--format", "json")
    assert code == 1 and "Traceback" not in err
    failures = json.loads(out)["failures"]
    assert [f["n"] for f in failures] == list(range(286, 401))
    assert all(f["float_real"] == f["relative_error"] == "inf" for f in failures)
    code, out, _ = run(capsys, "float-check", "--family", "power:2", "--n", "1..400",
                       "--m", "10..10")
    assert code == 1 and "FAIL power:2 n=286 m=10" in out


def test_float_check_csv_failure_rows_are_the_json_failures(capsys):
    argv = ["float-check", "--family", "power:2", "--n", "1..400", "--m", "10..10"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    _, report, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(report)
    header = ["family", "n", "m", "exact", "float_real", "float_imag",
              "relative_error", "imaginary_residual"]
    rows = [[f[k] for k in header] for f in payload["failures"]]
    assert code == 1 and len(rows) == 400 - 285  # the overflow rows
    assert out == csv_writer_text(header, rows) and out.count("\r\n") == len(rows) + 1
    assert f"# total_checks=400 failures={len(rows)}\n" in err


def test_float_check_csv_builds_each_row_from_one_json_dict(capsys, monkeypatch):
    from seqfam.floatcheck import FloatCompareResult

    calls = []
    real = FloatCompareResult.to_json_dict
    monkeypatch.setattr(FloatCompareResult, "to_json_dict",
                        lambda self: calls.append(self) or real(self))
    code, out, _ = run(capsys, "float-check", "--family", "power:2", "--n", "1..400",
                       "--m", "10..10", "--format", "csv")
    assert code == 1 and len(calls) == out.count("\r\n") - 1 == 400 - 285  # one per failure row
    assert len(set(map(id, calls))) == len(calls)


def test_float_check_json_is_strict(capsys):
    code, out, _ = run(capsys, "float-check", "--family", "power:2", "--n", "280..290",
                       "--m", "10..10", "--tol", "inf", "--format", "json")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out, parse_constant=reject)
    assert code == 1 and payload["tolerance"] == payload["max_relative_error"] == "inf"


def test_float_check_passes(capsys):
    code, out, _ = run(capsys, "float-check", "--family", "fib", "--n", "1..25",
                       "--m", "-10..10")
    assert code == 0
    assert "worst relative error" in out


def test_float_check_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "float-check", "--family", "lucas:2", "--n", "1..20",
                       "--m", "-5..5", "--tol", "1e-18")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_float_check_rejects_a_tolerance_that_is_not_positive(capsys, tol):
    # each of these would fail every point, exact ones (relative error 0) included
    code, out, err = run(capsys, "float-check", "--family", "fib", "--n", "1..3", "--m", "0..1",
                         f"--tol={tol}")
    assert code == 2 and out == ""
    assert "--tol must be positive" in err and "Traceback" not in err


def test_float_check_small_tolerance_output(capsys):
    code, out, _ = run(capsys, "float-check", "--family", "fib", "--n", "1..3", "--m", "0..1",
                       "--tol=1e-9")
    assert code == 0
    assert out == ("families: lucas:-1\n"
                   "checks:   6  tolerance 1e-09\n"
                   "worst relative error:  2.220e-16\n"
                   "worst imaginary ratio: 3.331e-16\n")


def test_float_check_rejects_member_index_zero(capsys):
    code, out, err = run(capsys, "float-check", "--family", "fib", "--n", "0..3", "--m", "0..1")
    assert code == 2 and out == ""
    assert "member index n must be >= 1, got 0" in err


def test_float_check_rejects_member_index_zero_before_building_the_window(capsys, monkeypatch):
    def compare(*args):
        raise AssertionError("float-check built the window of a rejected range")

    monkeypatch.setattr("seqfam.floatcheck.iter_compare_grid", compare)
    code, out, err = run(capsys, "float-check", "--family", "fib", "--n", "0..100000000",
                         "--m", "0..0")
    assert code == 2 and out == ""
    assert "member index n must be >= 1, got 0" in err


def float_check_reference(argv, fmt):
    """``run``'s (exit code, stdout, stderr) for float-check, folded from compare_grid lists."""
    args = dict(zip(argv[::2], argv[1::2]))
    families = parse_families(args["--family"])
    n_range = parse_range(args.get("--n", "1..25"))
    m_range = parse_range(args.get("--m", "-10..10"))
    tol = float(args.get("--tol", "1e-9"))
    results = [r for family in families for r in compare_grid(family, n_range, m_range)]
    failures = [r for r in results if not r.within(tol)]
    worst_rel = max((r.relative_error for r in results), default=0.0)
    worst_imag = max((r.imaginary_ratio for r in results), default=0.0)
    code, err = int(bool(failures)), ""
    if fmt == "json":
        out = json.dumps({
            "kind": "float-check", "families": [f.label() for f in families],
            "n": list(n_range), "m": list(m_range), "tolerance": json_float(tol),
            "total_checks": len(results), "max_relative_error": json_float(worst_rel),
            "max_imaginary_ratio": json_float(worst_imag), "failure_count": len(failures),
            "failures": [r.to_json_dict() for r in failures]}, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        header = ["family", "n", "m", "exact", "float_real", "float_imag",
                  "relative_error", "imaginary_residual"]
        out = csv_writer_text(header, [[r.to_json_dict()[k] for k in header] for r in failures])
        err = f"# total_checks={len(results)} failures={len(failures)}\n"
    else:
        out = "".join([f"families: {', '.join(f.label() for f in families)}\n",
                       f"checks:   {len(results)}  tolerance {tol:g}\n",
                       f"worst relative error:  {worst_rel:.3e}\n",
                       f"worst imaginary ratio: {worst_imag:.3e}\n",
                       *(f"FAIL {r.family} n={r.n} m={r.m}: exact={format_exact(r.exact)} "
                         f"float={r.real!r} rel={r.relative_error:.3e}\n" for r in failures)])
    return code, out, err


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("argv", [
    "--family all",
    "--family power:2 --n 1..400 --m 10..10",  # exit 1: the product overflows to inf
    "--family power:1/2",
    "--family ROOTS --n 1..4 --m -6..6",  # rational roots: rows over d != 1
    "--family lucas:-2 --n 1..1000 --m 10..10",  # a nan imaginary part after finite ones
    "--family lucas:-2 --n 1000..1000 --m 10..10",  # a nan imaginary part first
    "--family all --n 1..12 --tol inf",
])
def test_float_check_report_equals_the_list_built_reference(capsys, tmp_path, argv, fmt):
    path = tmp_path / "thirds.json"
    roots = {"1": ["1/2"], "2": ["3", "-1/3"], "3": ["2/3", "1/6", "-5"],
             "4": ["1", "1/2", "1/3", "1/4"]}
    path.write_text(json.dumps({"label": "thirds", "roots": roots}))
    argv = argv.replace("ROOTS", f"roots:{path}").split()
    assert run(capsys, "float-check", *argv, "--format", fmt) == float_check_reference(argv, fmt)


def test_float_check_maxima_keep_a_leading_nan(capsys):
    # the overflowed complex product at n = 1000 has a nan imaginary part; like max(), the
    # report keeps a nan met first and passes over one met after finite ratios
    argv = ["float-check", "--family", "lucas:-2", "--m", "10..10", "--format", "json"]
    _, first, _ = run(capsys, *argv, "--n", "1000..1000")
    _, later, _ = run(capsys, *argv, "--n", "1..1000")
    assert json.loads(first)["max_imaginary_ratio"] == "nan"
    assert math.isfinite(json.loads(later)["max_imaginary_ratio"])


@pytest.mark.parametrize("reach", [100, 400])
def test_float_check_memory_does_not_grow_with_the_grid(reach):
    # 20,100 and 80,100 points: one row per family is held, and no failing point
    with contextlib.redirect_stdout(ByteSink()):
        main(["float-check", "--family", "all", "--n", "1..2", "--m", "0..1"])
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(ByteSink()):
            code = main(["float-check", "--family", "all", "--n", "1..10", "--m",
                         f"-{reach}..{reach}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 4_000_000, f"peak {peak:,} B"


# -- the size guard: checked before any evaluation --

class Evaluated(Exception):
    """Raised by a stubbed evaluator: the request got past the guard."""


def evaluated(*args, **kwargs):
    raise Evaluated


#: The evaluator each guarded command reaches past the guard.
EVALUATORS = {"table": "seqfam.commands.table.table_lines",
              "verify": "seqfam.identities.sweep",
              "float-check": "seqfam.floatcheck.iter_compare_grid"}
B = MAX_INDEX


@pytest.mark.parametrize("command, inside, outside, message", [
    ("table", (f"{B}..{B}", "0..0"), (f"{B}..{B + 1}", "0..0"), f"n must lie within -{B}..{B}"),
    ("table", ("0..0", f"-{B}..0"), ("0..0", f"-{B + 1}..0"), f"m must lie within -{B}..{B}"),
    ("table", ("0..999", "0..999"), ("0..999", "0..1000"), "got 1,001,000"),  # 10^6 inside
    ("verify", (f"-{B}..-{B}", "0..0"), (f"-{B + 1}..-{B}", "0..0"), "n must lie within"),
    ("verify", ("1..1", f"0..{B}"), ("1..1", f"0..{B + 1}"), "m must lie within"),
    ("verify", ("1..1000", "-500..499"), ("1..1000", "-500..500"), "got 1,001,000"),
    ("verify", ("1..1413", "n..1413"), ("1..1414", "n..1414"), "got 1,000,405"),  # m from n
    ("float-check", (f"1..{B}", "0..0"), (f"1..{B + 1}", "0..0"), "n must lie within"),
    ("float-check", ("1..1", f"{B}..{B}"), ("1..1", f"{B}..{B + 1}"), "m must lie within"),
    ("float-check", ("1..1000", "1..1000"), ("1..1000", "0..1000"), "got 1,001,000"),
], ids=lambda v: v if v in EVALUATORS else None)
def test_size_guard_just_inside_and_just_outside(capsys, monkeypatch, command, inside, outside,
                                                 message):
    monkeypatch.setattr(EVALUATORS[command], evaluated)
    with pytest.raises(Evaluated):
        main([command, "--family", "fib", "--n", inside[0], "--m", inside[1]])
    code, out, err = run(capsys, command, "--family", "fib", "--n", outside[0], "--m", outside[1])
    assert code == 2 and out == "" and message in err
    if "points" in message:
        assert f"at most {MAX_POINTS:,} (n, m) points" in err


@pytest.mark.parametrize("inside, outside, message", [
    (f"--column 1 --n 0..{B}", f"--column 1 --n 0..{B + 1}", f"n must lie within -{B}..{B}"),
    (f"--column -{B} --n 0..0", f"--column -{B + 1} --n 0..0", f"m must lie within -{B}..{B}"),
    (f"--row {B} --m 0..0", f"--row {B + 1} --m 0..0", f"n must lie within -{B}..{B}"),
    (f"--row 3 --m -{B}..{B}", f"--row 3 --m -{B}..{B + 1}", f"m must lie within -{B}..{B}"),
    # far past the guard, each of these ran unbounded before the guard covered oeis
    (f"--column 1 --n 0..{B}", "--column 1 --n 0..100000000", "n must lie within"),
    (f"--row 3 --m 0..{B}", "--row 3 --m 0..100000000", "m must lie within"),
    (f"--row {B}", "--row 100000000", "n must lie within"),
])
def test_oeis_size_guard_just_inside_and_just_outside(capsys, monkeypatch, inside, outside,
                                                      message):
    monkeypatch.setattr("seqfam.oeis.cross_check", evaluated)
    with pytest.raises(Evaluated):
        main(["oeis", "--family", "fib", "--offline", *inside.split()])
    code, out, err = run(capsys, "oeis", "--family", "fib", "--offline", *outside.split())
    assert code == 2 and out == "" and message in err


def test_float_check_json(capsys):
    code, out, _ = run(capsys, "float-check", "--family", "lucas:2", "--n", "1..20",
                       "--m", "-5..5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failure_count"] == 0
    assert payload["max_relative_error"] < 1e-9


# -- oeis --

def test_oeis_fibonacci_column(capsys):
    code, out, _ = run(capsys, "oeis", "--family", "fib", "--column", "1",
                       "--n", "0..11", "--offline")
    assert code == 0 and "A000045" in out


def test_oeis_cubic_row(capsys):
    code, out, _ = run(capsys, "oeis", "--family", "fib", "--row", "3",
                       "--m", "0..9", "--offline", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["terms"][:4] == [0, 3, 12, 33]


def test_oeis_fifth_powers_row(capsys):
    code, out, _ = run(capsys, "oeis", "--family", "power:0", "--row", "5",
                       "--m", "0..9", "--offline")
    assert code == 0 and "A000584" in out


def test_oeis_no_match_exits_one(capsys):
    code, out, _ = run(capsys, "oeis", "--family", "lucas:3", "--row", "5",
                       "--m", "0..9", "--offline")
    assert code == 1
    assert "NO MATCH" in out


def test_oeis_terms_past_the_digit_limit(capsys):
    # 12^4000..12^4011 have 4,317 digits and more, past the 4,300 Python's str() allows
    with unlimited_digits():
        expected = [str(12 ** n) for n in range(4000, 4012)]
    for fmt in ("json", "text", "csv"):
        code, out, err = run(capsys, "oeis", "--family", "power:2", "--column", "10",
                             "--n", "4000..4011", "--offline", "--format", fmt)
        assert code == 1, err  # no catalog entry holds these terms
        if fmt == "json":
            with unlimited_digits():
                terms = [str(t) for t in json.loads(out)["terms"]]
        elif fmt == "csv":
            terms = next(csv.DictReader(io.StringIO(out)))["terms"].split()
        else:
            terms = out.splitlines()[0].split("terms [", 1)[1].rstrip("]").split(", ")
        assert terms == expected, fmt


def test_oeis_network_error_exits_three(capsys, monkeypatch, tmp_path):
    from seqfam.oeis import OeisClient, TransportError

    def broken_transport(url):
        raise TransportError("unreachable")

    real_init = OeisClient.__init__

    def patched_init(self, *args, **kwargs):
        kwargs["transport"] = broken_transport
        kwargs["min_interval"] = 0.0
        real_init(self, *args, **kwargs)

    monkeypatch.setattr("seqfam.oeis.OeisClient.__init__", patched_init)
    # terms that miss every fixture, forcing the (broken) network path
    code, _, err = run(capsys, "oeis", "--family", "lucas:3", "--row", "5",
                       "--m", "0..9", "--cache-dir", str(tmp_path))
    assert code == 3 and "network error" in err


@pytest.mark.parametrize("reply, message", [
    ("<html>Service Unavailable</html>", "unparseable search response"),
    (json.dumps({"results": [{"number": "A45", "data": "1,1,2"}]}), "malformed search entry"),
], ids=["not-json", "bad-number"])
def test_oeis_malformed_reply_exits_three(capsys, monkeypatch, tmp_path, reply, message):
    monkeypatch.setattr("seqfam.oeis._requests_transport", lambda url: reply)
    code, out, err = run(capsys, "oeis", "--family", "lucas:3", "--row", "5",
                         "--m", "0..9", "--cache-dir", str(tmp_path))
    assert (code, out) == (3, "") and f"service error: {message}" in err


@pytest.mark.parametrize("record", [
    [],
    {"terms": [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144], "ids": 7},
    {"terms": [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144], "ids": "A000045"},
], ids=["list", "ids-int", "ids-string"])
def test_oeis_cache_record_of_the_wrong_shape_is_a_miss(capsys, monkeypatch, tmp_path, record):
    from seqfam.oeis import OeisClient

    def no_network(url):
        raise AssertionError(f"touched the network: {url}")

    monkeypatch.setattr("seqfam.oeis._requests_transport", no_network)
    monkeypatch.setenv("SEQFAM_CACHE_DIR", str(tmp_path))
    terms = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]  # fib column 1, n 0..11
    OeisClient()._cache_path(terms).write_text(json.dumps(record))
    code, out, err = run(capsys, "oeis", "--family", "fib", "--column", "1")
    assert (code, err) == (0, "") and out.splitlines()[1] == "MATCH: A000045 [fixture]"


@pytest.mark.parametrize("axis, other", [(["--row", "3"], ["--n", "0..9"]),
                                         (["--column", "1"], ["--m", "0..11"])])
def test_oeis_range_of_the_other_axis_is_usage_error(capsys, axis, other):
    code, out, err = run(capsys, "oeis", "--family", "fib", *axis, *other, "--offline")
    assert code == 2 and out == "" and "--row N takes --m" in err


def test_oeis_takes_exactly_one_family(capsys):
    code, out, err = run(capsys, "oeis", "--family", "fib,pochhammer", "--row", "2", "--offline")
    assert (code, out) == (2, "") and "oeis takes exactly one family" in err


def test_oeis_requires_exactly_one_axis(capsys):
    code, _, err = run(capsys, "oeis", "--family", "fib", "--offline")
    assert code == 2 and "--row N or --column M" in err
    code, _, err = run(capsys, "oeis", "--family", "fib", "--row", "2",
                       "--column", "1", "--offline")
    assert code == 2


# -- shared plumbing --

def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--family", "mystery", "--n", "1..2", "--m", "0..2")
    assert code == 2 and "unknown family" in err


@pytest.mark.parametrize("argv", [["verify", "--family", ","],
                                  ["float-check", "--family", ""],
                                  ["table", "--family", " , ", "--n", "1..2", "--m", "0..2"]])
def test_empty_family_selection_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and out == "" and "no families selected" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1..3", "--m", ""],
    ["verify", "--p", ""],
    ["verify", "--q", ""],
    ["oeis", "--family", "fib", "--row", "3", "--m", "", "--offline"],
    ["oeis", "--family", "fib", "--column", "1", "--n", "", "--offline"],
], ids=["verify-m", "verify-p", "verify-q", "oeis-row-m", "oeis-column-n"])
def test_empty_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "") and "range must be 'a..b'" in err and "got ''" in err


def test_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--family", "fib", "--n", "5..2", "--m", "0..2")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_roots_file_family(tmp_path, capsys):
    roots = {"label": "halves", "roots": {"1": ["1/2"], "2": ["1/2", "1/2"], "3": ["1/2"] * 3}}
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(roots))
    code, out, _ = run(capsys, "table", "--family", f"roots:{path}", "--n", "1..3",
                       "--m", "0..2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # literal products of (m + 1/2)^n
    assert payload["values"][1] == ["1/4", "9/4", "25/4"]

    code, _, _ = run(capsys, "verify", "--identity", "L1,REC_M", "--family",
                     f"roots:{path}", "--n", "1..3", "--m", "-2..2")
    assert code == 0


@pytest.mark.parametrize("body, message", [
    ({"roots": {"2": ["1"]}}, "exactly"),  # wrong arity
    ([1, 2], "'roots' mapping"),  # a top level that is not an object
    ("x", "'roots' mapping"),
    (None, "'roots' mapping"),
    ({"roots": {"1": 5}}, "list"),  # an entry that is not a list
    ({"roots": {"1": None}}, "list"),
    ({"roots": {"2": "12"}}, "list"),  # not the roots 1 and 2
], ids=["arity", "list", "string", "null", "entry-int", "entry-null", "entry-string"])
def test_roots_file_validation(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, _, err = run(capsys, "table", "--family", f"roots:{path}", "--n", "2..2", "--m", "0..0")
    assert code == 2 and message in err and str(path) in err


@pytest.mark.parametrize("argv", [
    ["table", "--n", "0..3", "--m", "0..2", "--format", "csv"],
    ["table", "--n", "0..3", "--m", "0..2", "--format", "json"],
    ["table", "--n", "0..3", "--m", "0..2", "--format", "text"],
    ["verify", "--n", "1..3", "--m", "-2..2"],
    ["float-check", "--n", "1..3", "--m", "0..2"],
    ["oeis", "--column", "0", "--offline"],
], ids=["table-csv", "table-json", "table-text", "verify", "float-check", "oeis"])
def test_roots_file_with_a_gap_is_refused_before_any_output(tmp_path, capsys, argv):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"roots": {"1": ["1"], "3": ["1", "2", "3"]}}))
    code, out, err = run(capsys, argv[0], "--family", f"roots:{path}", *argv[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: roots file {path} lists no roots for n=2; it must list every n "
                   "from 1 to 3\n")


@pytest.mark.parametrize("argv", [
    ["table", "--n", "0..3", "--m", "0..2"],
    ["verify", "--n", "1..3", "--m", "0..2"],
    ["float-check", "--n", "1..3", "--m", "0..0"],
    ["oeis", "--row", "3", "--offline"],
], ids=["table", "verify", "float-check", "oeis"])
def test_a_row_past_the_roots_file_names_the_file(tmp_path, capsys, argv):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"roots": {"1": ["1/2"], "2": ["3", "-1/3"]}}))
    code, out, err = run(capsys, argv[0], "--family", f"roots:{path}", *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: roots file {path} lists no roots for n=3\n"


def test_table_renders_members_past_the_digit_limit(capsys):
    # 12^9000 has 9,713 digits, past the 4,300 Python's str() allows
    code, out, err = run(capsys, "table", "--family", "power:2", "--n", "9000..9000",
                         "--m", "10..10", "--format", "json")
    assert code == 0, err
    (text,), = json.loads(out)["values"]
    value = 0
    for i in range(0, len(text), 1000):  # chunks short enough for int()
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == 12 ** 9000


def test_zero_denominator_family_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--family", "power:1/0", "--n", "0..2", "--m", "0..1")
    assert code == 2 and "power:1/0" in err


def test_zero_denominator_root_is_usage_error(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"roots": {"1": ["1/0"]}}))
    code, _, err = run(capsys, "table", "--family", f"roots:{path}", "--n", "1..1", "--m", "0..0")
    assert code == 2 and "zero denominator" in err


# -- no argument ever ends in a traceback --

@pytest.fixture(scope="module")
def roots_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("roots")
    path = folder / "thirds.json"
    path.write_text(json.dumps({"roots": {str(n): ["1/3"] * n for n in range(1, 7)}}))
    return str(path), str(folder / "missing.json")


@st.composite
def cli_argv(draw, roots_files):
    present, missing = roots_files
    number = st.integers(-3, 9).map(str)
    numeric = st.tuples(number, number).map("..".join)  # a few dozen points at most
    symbolic = st.tuples(number | st.just("n"), number | st.just("n")).map("..".join)
    malformed = st.sampled_from(["1-7", "a..b", "", "1..2..3", "..", "3..", "1.5..2"])
    span = st.one_of(numeric, numeric, symbolic, malformed)
    family = st.sampled_from([
        "power", "power:2", "power:-3/2", "pochhammer", "fib", "lucas:2", "all", "fib,power:1/2",
        f"roots:{present}", "power:1/0", "power:", "lucas:0", "lucas:x", f"roots:{missing}",
        "mystery"])
    command = draw(st.sampled_from(["table", "verify", "float-check", "oeis"]))
    argv = [command, "--family", draw(family), "--format",
            draw(st.sampled_from(["text", "csv", "json"]))]
    options = {
        "table": {"--n": span, "--m": span},
        "verify": {"--n": span, "--m": span, "--p": span, "--q": span,
                   "--identity": st.sampled_from(["all", "L1,REC_M", "expl_pos", "NOPE", ","]),
                   "--workers": st.sampled_from(["0", "1", "x"])},
        "float-check": {"--n": span, "--m": span,
                        "--tol": st.sampled_from(["1e-9", "0", "inf", "nan", "x"])},
        "oeis": {"--n": span, "--m": span, "--row": number, "--column": number},
    }[command]
    for flag, value in options.items():
        if command == "table" or draw(st.booleans()):  # table requires --n and --m
            argv += [flag, draw(value)]
    if command == "oeis":
        argv.append("--offline")
    return argv


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_no_argument_ends_in_a_traceback(roots_files, data):
    argv = data.draw(cli_argv(roots_files), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
