"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output enabled to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s

Every comparison is exact (integers / rationals) unless the criterion is
explicitly about floating point, where the stated tolerances are pinned.
"""

import json
import math
import time

import pytest

from seqfam.cli import STANDARD_FAMILIES, main
from seqfam.families import FIB, X, fibonacci_polynomial
from seqfam.floatcheck import compare_grid
from seqfam.identities import (ALL_IDENTITIES, Identity, SweepRanges, eval_identity, sweep)
from seqfam.oeis import OeisClient

from classic import classic_fibonacci, classic_fibonacci_products, gould_sum
from grids import FIBONACCI_GRID, POCHHAMMER_GRID, POWER0_GRID

FAMILY_IDS = [f.label() for f in STANDARD_FAMILIES]


def _report(number, name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[criterion {number}] {name}: {status} ({elapsed:.2f}s){suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    expected = {
        "power:0": POWER0_GRID,
        "pochhammer": POCHHAMMER_GRID,
        "fib": FIBONACCI_GRID,
    }
    ok = True
    for selector, grid in expected.items():
        code = main(["table", "--family", selector, "--n", "1..7", "--m", "0..7",
                     "--format", "json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        ok = ok and code == 0 and payload["values"] == [[str(v) for v in row] for row in grid]
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(1, "table reproduction (3 x 56 exact values)", ok and elapsed < 1.0, elapsed)


def test_criterion_2_generic_identity_sweep(capsys):
    started = time.perf_counter()
    report = sweep(ALL_IDENTITIES, STANDARD_FAMILIES, SweepRanges(n=(1, 20), m=(-10, 10)))
    elapsed = time.perf_counter() - started
    ok = (report.failures == [] and report.total_checks >= 10 ** 5 and elapsed < 60.0)
    with capsys.disabled():
        _report(2, "identity sweep, 10 families, n<=20, |m|<=10",
                ok, elapsed, f"{report.total_checks} checks, {len(report.failures)} failures")


def test_criterion_3_closed_form_equivalence(capsys):
    started = time.perf_counter()
    mismatches = [(n, m) for n in range(0, 31) for m in range(-10, 11)
                  if fibonacci_polynomial(n, m) != X(FIB, n, m)]
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(3, "closed form == recursion, n<=30, |m|<=10", not mismatches, elapsed,
                f"{31 * 21} points")


def test_criterion_4_parity_claim(capsys):
    started = time.perf_counter()
    ok = True
    for n in range(1, 21):
        check = eval_identity(Identity.FIB_POSNEG, FIB, n=n)
        expected = 0 if n % 2 == 0 else n * math.factorial(n + 1)
        ok = ok and check.passed and check.lhs == expected
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(4, "alternating sum parity split, n in [1,20]", ok, elapsed)


def _unrolled_row(family, n, upto):
    """Member values for labels 0..upto, built from the row recursion.

    Base values (labels 0..n-1) come from direct evaluation; every later
    label uses only previously recursed values.
    """
    values = {m: X(family, n, m) for m in range(0, n)}
    for m in range(n, upto + 1):
        values[m] = sum((-1) ** l * math.comb(n, l + 1) * values[m - 1 - l]
                        for l in range(n)) + math.factorial(n)
    return values


def test_criterion_5_cross_oracle_equivalence(capsys):
    started = time.perf_counter()
    ok = True
    points = 0
    for family in STANDARD_FAMILIES:
        for n in range(1, 13):
            recursed = _unrolled_row(family, n, 20)
            for m in range(n, 21):
                direct = X(family, n, m)
                explicit = eval_identity(Identity.EXPL_POS, family, n=n, m=m).rhs
                ok = ok and direct == recursed[m] == explicit
                points += 1
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(5, "explicit form == unrolled recursion == direct", ok, elapsed,
                f"{points} points across 10 families")


def test_criterion_6_float_validation(capsys):
    from seqfam.families import LucasFamily

    started = time.perf_counter()
    ok = True
    for q in (-2, -1, 1, 2):
        for result in compare_grid(LucasFamily(q), (1, 25), (-10, 10)):
            ok = ok and result.within(1e-9)
    for n in range(2, 31):
        expected = classic_fibonacci(n)
        scale = max(1.0, float(expected))
        real_form, complex_form = classic_fibonacci_products(n)
        ok = ok and abs(real_form - expected) / scale < 1e-9
        ok = ok and abs(complex_form - expected) / scale < 1e-9
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(6, "cosine products vs exact, rel < 1e-9", ok, elapsed)


def test_criterion_7_gould_erratum(capsys):
    started = time.perf_counter()
    ok = all(gould_sum(n) == (-1) ** n * math.factorial(n) * n * (n + 1) // 2
             for n in range(1, 21))
    report = sweep([Identity.L1], STANDARD_FAMILIES, SweepRanges(n=(1, 20)))
    ok = ok and report.failures == [] and report.total_checks == 10 * 20
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(7, "alternating power sum sign + root-sum identity", ok, elapsed)


# the ten catalog cross-checks: (family, axis, fixed, range, required id)
OEIS_CASES = [
    ("squares row", "power:0", "row", 2, (0, 9), "A000290"),
    ("cubes row", "power:0", "row", 3, (0, 9), "A000578"),
    ("fourth powers row", "power:0", "row", 4, (0, 9), "A000583"),
    ("oblong row", "pochhammer", "row", 2, (0, 9), "A002378"),
    ("three consecutive", "pochhammer", "row", 3, (0, 9), "A007531"),
    ("four consecutive", "pochhammer", "row", 4, (0, 9), "A052762"),
    ("m^2+1 row", "fib", "row", 2, (0, 9), "A002522"),
    ("m^3+2m row", "fib", "row", 3, (0, 9), "A054602"),
    ("m^4+3m^2+1 row", "fib", "row", 4, (0, 9), "A057721"),
    ("fibonacci+pell columns", "fib", "column", 1, (0, 11), "A000045"),
]


def test_criterion_8_oeis_fixtures(capsys):
    from seqfam.cli import parse_one_family
    from seqfam.oeis import cross_check

    started = time.perf_counter()
    client = OeisClient(offline=True)
    ok = True
    for name, selector, axis, fixed, rng, required in OEIS_CASES:
        family = parse_one_family(selector)
        match, verdict = cross_check(family, axis, fixed, rng, client)
        ok = ok and verdict and required in match.ids
    # the paired Pell column rides with the Fibonacci case
    match, verdict = cross_check(FIB, "column", 2, (0, 11), client)
    ok = ok and verdict and "A000129" in match.ids
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(8, "ten catalog sequences match offline", ok and elapsed < 1.0, elapsed)
