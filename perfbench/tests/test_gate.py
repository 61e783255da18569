"""The correctness gate: it passes real outputs and fails corrupted ones."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from workloads import WORKLOADS, headline_grid, make_ops

ROOT = Path(__file__).resolve().parents[2]


def run_cli(op):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "seqfam.cli", *op["argv"]], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def tiny_outputs():
    ops = [op for w in WORKLOADS for op in make_ops(w, 0, "tiny")]
    return [(op, oracle.expect(op), *run_cli(op)) for op in ops]


def by_kind(outputs, kind, fmt=None):
    return next(o for o in outputs if o[0]["kind"] == kind
                and (fmt is None or o[0].get("format") == fmt))


def test_seed_zero_counts_are_the_documented_ones():
    headline, par2 = (make_ops(w, 0)[0] for w in ("verify-headline", "verify-headline-par2"))
    assert oracle.expect(headline)["total_checks"] == 337_360
    assert oracle.expect(par2)["total_checks"] == 337_360
    assert oracle.sweep_checks(["SUBFAM_ZERO"], oracle.STANDARD_FAMILIES,
                               (1, 20), (-10, 10)) == 279_300


def test_seed_zero_commands_are_the_documented_ones():
    headline, par2 = (make_ops(w, 0)[0]["argv"] for w in
                      ("verify-headline", "verify-headline-par2"))
    assert headline == ["verify", "--family", "all", "--identity", "all", "--n", "1..20",
                        "--m", "-10..10", "--format", "json"]
    assert par2 == headline + ["--workers", "2"]
    table = [" ".join(op["argv"]) for op in make_ops("table-render", 0)]
    assert table[:4] == [
        "table --family lucas:2 --n 0..600 --m -60..60 --format json",
        "table --family pochhammer --n 0..300 --m -60..60 --format text",
        "table --family power:1/2 --n 0..300 --m -60..60 --format csv",
        "float-check --family all --format json",
    ]
    assert oracle.expect(make_ops("table-render", 0)[3])["total_checks"] == 5250


def test_seeds_are_deterministic_and_shift_the_inputs():
    assert make_ops("table-render", 7) == make_ops("table-render", 7)
    shifted = {tuple(make_ops("verify-headline", s)[0]["m"]) for s in range(1, 8)}
    assert len(shifted) > 1
    for s in range(8):  # the traced run times the grid that the sweeps use
        grid = headline_grid(s)
        for w in ("verify-headline", "verify-headline-par2"):
            assert (make_ops(w, s)[0]["n"], make_ops(w, s)[0]["m"]) == (grid["n"], grid["m"])
    orders = {tuple(op["argv"][0] + op["argv"][2] for op in make_ops("table-render", s))
              for s in range(1, 8)}
    assert len(orders) > 1


def test_real_outputs_pass(tiny_outputs):
    for op, exp, code, out, err in tiny_outputs:
        assert oracle.gate(op, exp, code, out, err) == [], op["argv"]


def test_failure_count_of_one_fails(tiny_outputs):
    op, exp, code, out, err = by_kind(tiny_outputs, "verify")
    body = json.loads(out)
    body["failure_count"] = 1
    assert oracle.gate(op, exp, code, json.dumps(body), err)
    body = json.loads(out)
    body["total_checks"] -= 1
    assert oracle.gate(op, exp, code, json.dumps(body), err)


def test_wall_time_and_added_keys_are_ignored(tiny_outputs):
    op, exp, code, out, err = by_kind(tiny_outputs, "verify")
    body = json.loads(out)
    body["wall_time_s"] = 123.0
    body["cells"] = []
    assert oracle.gate(op, exp, code, json.dumps(body), err) == []


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_one_changed_table_value_fails(tiny_outputs, fmt):
    op, exp, code, out, err = by_kind(tiny_outputs, "table", fmt)
    if fmt == "json":
        body = json.loads(out)
        row = body["values"][3]
        row[2] = str(int(row[2].split("/")[0]) + 1)
        corrupted = json.dumps(body)
    else:
        lines = out.splitlines()
        sep = "," if fmt == "csv" else None
        cells = lines[4].split(sep)
        cells[3] = cells[3] + "1"
        lines[4] = (sep or "  ").join(cells)
        corrupted = "\n".join(lines)
    assert oracle.gate(op, exp, code, corrupted, err)


def test_oeis_and_float_check_verdicts(tiny_outputs):
    op, exp, code, out, err = by_kind(tiny_outputs, "oeis")
    body = json.loads(out)
    body["verdict"], body["ids"] = False, []
    assert oracle.gate(op, exp, code, json.dumps(body), err)
    op, exp, code, out, err = by_kind(tiny_outputs, "float-check")
    body = json.loads(out)
    body["failure_count"] = 1
    assert oracle.gate(op, exp, code, json.dumps(body), err)


def test_exit_code_traceback_and_garbage_fail(tiny_outputs):
    op, exp, code, out, err = by_kind(tiny_outputs, "verify")
    assert oracle.gate(op, exp, 1, out, err)
    assert oracle.gate(op, exp, code, out, "Traceback (most recent call last):\n")
    assert oracle.gate(op, exp, code, out[: len(out) // 2], err)


def test_oracle_members_agree_with_the_program():
    from_program = run_cli({"argv": ["table", "--family", "power:1/2", "--n", "0..6",
                                     "--m", "-3..3", "--format", "json"]})[1]
    assert json.loads(from_program)["values"] == oracle.member_rows("power:1/2", (0, 6), (-3, 3))
