"""Tests for the identity catalog and sweep driver."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfam.exact import ExactScalar, normalize
from seqfam.families import (FIB, ExplicitRootsFamily, Family, LucasFamily, PochhammerFamily,
                             PowerFamily, X, fibonacci_polynomial)
from seqfam.identities import (ALL_IDENTITIES, CATALOG, DomainError, Identity, IdentityCheck,
                               SweepRanges, _plan, _weights, eval_identity, sweep)

from seams import corrupt_member

SMALL_FAMILIES = [PowerFamily(0), PowerFamily(2), PowerFamily(Fraction(1, 2)),
                  PochhammerFamily(), FIB, LucasFamily(2)]


# -- hand-derived single points (values worked out from the n = 1..4 windows) --

def test_l1_point():
    check = eval_identity(Identity.L1, FIB, n=3)
    # (-1)^3/3! * (-3*3 + 3*2*12 - 3*33) - 6 = 6 - 6 = 0
    assert check.lhs == 0 and check.rhs == 0 and check.passed


def test_rec_m_point():
    check = eval_identity(Identity.REC_M, FIB, n=2, m=2)
    # 10 = 2*5 - 2 + 2!
    assert check.lhs == 10 and check.rhs == 10 and check.passed


def test_expl_pos_point():
    check = eval_identity(Identity.EXPL_POS, FIB, n=2, m=3)
    # -2 + 6 + 3!/1! = 10
    assert check.lhs == 10 and check.rhs == 10 and check.passed


def test_subfam_zero_point():
    check = eval_identity(Identity.SUBFAM_ZERO, FIB, n=3, m=3, p=1, q=0)
    # 1 - 3*2 + 3*5 - 10 = 0
    assert check.lhs == 0 and check.passed


def test_scale_id_point():
    check = eval_identity(Identity.SCALE_ID, FIB, n=2, m=2)
    # (1/2)(-2*5 + 2*17) = 12 = (-2 + 10) + 6
    assert check.lhs == 12 and check.rhs == 12 and check.passed


def test_residual_is_lhs_minus_rhs():
    check = eval_identity(Identity.FIB_POLY, FIB, n=5, m=3)
    assert check.residual == check.lhs - check.rhs == 0
    assert check.params == {"n": 5, "m": 3}


# -- the row recursion in m, against a second transcription of REC_M --

def m_recursion_rhs(family, n, m):
    """REC_M's right side with the summation reversed:
    X(n,m+1) = sum_{l=0..n-1} (-1)^l C(n,l+1) X(n,m-l) + n!."""
    return normalize(sum((-1) ** l * math.comb(n, l + 1) * X(family, n, m - l) for l in range(n))
                     + math.factorial(n))


def test_m_recursion_power_point():
    # 25 = 2*16 - 9 + 2!
    assert m_recursion_rhs(PowerFamily(0), 2, 4) == X(PowerFamily(0), 2, 5) == 25


def test_m_recursion_pochhammer_point():
    # 210 = 3*120 - 3*60 + 24 + 3!
    assert m_recursion_rhs(PochhammerFamily(), 3, 3) == X(PochhammerFamily(), 3, 4) == 210


def test_m_recursion_fibonacci_point():
    # 305 = 4*109 - 6*29 + 4*5 - 1 + 4!
    assert m_recursion_rhs(FIB, 4, 3) == X(FIB, 4, 4) == 305


def test_m_recursion_agrees_with_catalog_entry():
    for family in SMALL_FAMILIES:
        for n in range(1, 9):
            for m in range(-6, 7):
                catalog = eval_identity(Identity.REC_M, family, n=n, m=m)
                assert m_recursion_rhs(family, n, m) == catalog.rhs == catalog.lhs
                assert catalog.passed


def test_weights_against_pascal_oracle():
    # Pascal's triangle built by addition only
    row = [1]
    for n in range(1, 41):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
        for k in range(3):
            assert _weights(n, k) == [(-1) ** l * c * l ** k for l, c in enumerate(row)]


# -- whole-catalog soundness at reduced scale (the acceptance suite goes bigger) --

@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=lambda f: f.label())
def test_catalog_sound_on_family(family):
    report = sweep(ALL_IDENTITIES, [family], SweepRanges(n=(1, 10), m=(-6, 6)))
    assert report.failures == []
    assert report.total_checks > 0


def test_explicit_roots_sweep_matches_dedicated_family():
    replica = ExplicitRootsFamily(lambda n, l: l, label="roots:poch")
    ranges = SweepRanges(n=(1, 8), m=(-5, 5))
    via_replica = sweep(ALL_IDENTITIES, [replica], ranges)
    via_dedicated = sweep(ALL_IDENTITIES, [PochhammerFamily()], ranges)
    assert via_replica.failures == [] and via_dedicated.failures == []
    assert via_replica.total_checks == via_dedicated.total_checks


def test_fib_posneg_parity():
    for n in range(1, 21):
        check = eval_identity(Identity.FIB_POSNEG, FIB, n=n)
        assert check.passed
        assert check.rhs == (0 if n % 2 == 0 else n * math.factorial(n + 1))


def test_fib_posneg_complement():
    for n in range(1, 21):
        check = eval_identity(Identity.FIB_POSNEG_COMPL, FIB, n=n)
        assert check.passed
        assert check.rhs == n * math.factorial(n + 1)


def test_cross_oracle_equivalence():
    # explicit form, recursion right-hand side, and direct evaluation agree
    for family in SMALL_FAMILIES:
        for n in range(1, 13):
            for m in range(0, 13):
                direct = X(family, n, m)
                rec = eval_identity(Identity.REC_M, family, n=n, m=m - 1).rhs
                assert rec == direct
                if m >= n:
                    expl = eval_identity(Identity.EXPL_POS, family, n=n, m=m).rhs
                    assert expl == direct


# -- domains --

def test_domain_violations_name_the_constraint():
    with pytest.raises(DomainError, match="m != 0"):
        eval_identity(Identity.L2_SCALE, FIB, n=3, m=0)
    with pytest.raises(DomainError, match="m >= n"):
        eval_identity(Identity.EXPL_POS, FIB, n=5, m=4)
    with pytest.raises(DomainError, match="0 <= q < p"):
        eval_identity(Identity.SUBFAM_ZERO, FIB, n=5, m=0, p=2, q=2)
    with pytest.raises(DomainError, match="n >= p\\+1"):
        eval_identity(Identity.SUBFAM_FACT, FIB, n=3, m=0, p=3)
    with pytest.raises(DomainError, match="lucas:-1"):
        eval_identity(Identity.FIB_POLY, PowerFamily(0), n=3, m=1)
    with pytest.raises(DomainError, match="n >= 1"):
        eval_identity(Identity.L1, FIB, n=0)
    with pytest.raises(DomainError, match="m != 0"):
        eval_identity(Identity.SCALE_ID, FIB, n=3, m=0)
    with pytest.raises(DomainError, match="m >= n"):
        eval_identity(Identity.EXPL_NEG, FIB, n=5, m=-6)
    with pytest.raises(DomainError, match="p >= 1"):
        eval_identity(Identity.SUBFAM_FACT, FIB, n=3, m=0, p=0)
    with pytest.raises(DomainError, match="an m parameter"):
        eval_identity(Identity.REC_M, FIB, n=3)


def test_sweep_domain_filtering():
    # every m below n: no admissible explicit-form points
    report = sweep([Identity.EXPL_POS], [FIB], SweepRanges(n=(5, 8), m=(-8, 4)))
    assert report.total_checks == 0 and report.failures == []


def test_sweep_skips_fib_entries_on_other_families(monkeypatch):
    asked = record_rows(monkeypatch, PowerFamily)
    report = sweep([Identity.FIB_POLY, Identity.FIB_POSNEG], [PowerFamily(0)],
                   SweepRanges(n=(1, 6), m=(-3, 3)))
    assert report.total_checks == 0
    assert asked == []  # no row is built for a family with no point left


def test_sweep_symbolic_m_bound():
    report = sweep([Identity.EXPL_POS], [PowerFamily(2)],
                   SweepRanges(n=(1, 10), m=("n", 20)))
    assert report.total_checks == sum(21 - n for n in range(1, 11))
    assert report.failures == []


def test_symbolic_m_bound_must_be_n():
    with pytest.raises(ValueError, match="symbolic bound must be 'n', got 'x'"):
        SweepRanges(n=(1, 3), m=("x", 3)).m_values(1)
    with pytest.raises(ValueError, match="symbolic bound must be 'n', got 'N'"):
        SweepRanges(n=(1, 3), m=(0, "N")).m_values(1)
    assert SweepRanges(n=(1, 3), m=("n", 5)).m_values(3) == range(3, 6)
    assert SweepRanges(n=(1, 3), m=(-1, "n")).m_values(2) == range(-1, 3)


def test_a_sweep_without_an_m_range_checks_no_entry_that_needs_m():
    ranges = SweepRanges(n=(1, 3))
    assert ranges.m_values(2) == range(0)
    report = sweep([Identity.L2_SHIFT], [FIB, PowerFamily(2)], ranges)
    assert report.total_checks == 0 and report.failures == [] and report.passed


def record_rows(monkeypatch, family_type):
    """The (labels, n_lo, n_hi) of every ``rows`` call on families of this type, in order."""
    asked = []
    real = family_type.rows

    def rows(self, labels, n_lo, n_hi):
        asked.append((list(labels), n_lo, n_hi))
        return real(self, labels, n_lo, n_hi)

    monkeypatch.setattr(family_type, "rows", rows)
    return asked


def built_labels(asked):
    """Every label of the recorded ``rows`` calls, in order."""
    return [m for labels, *_ in asked for m in labels]


def test_sweep_far_from_the_origin_builds_few_members(monkeypatch):
    built = built_labels(record_rows(monkeypatch, LucasFamily))
    report = sweep(ALL_IDENTITIES, [FIB], SweepRanges(n=(1, 6), m=(5000, 5001)))
    assert report.total_checks > 0 and report.failures == []
    # labels the entries read (near 0, near m, near -m and l*m); not every label between
    assert len(built) < 1000


@pytest.mark.parametrize("family", [FIB, PowerFamily(Fraction(1, 2))], ids=lambda f: f.label())
def test_whole_catalog_sweep_builds_each_label_once(monkeypatch, family):
    # every entry of a family's pass reads the same rows, built once for all of them
    asked = record_rows(monkeypatch, type(family))
    report = sweep(ALL_IDENTITIES, [family], SweepRanges(n=(1, 7), m=(-4, 5)))
    assert report.total_checks > 0 and report.failures == []
    assert len(asked) == 1 and set(Counter(built_labels(asked)).values()) == {1}


@pytest.mark.parametrize("entry", [Identity.SUBFAM_ZERO, Identity.SUBFAM_FACT],
                         ids=lambda e: e.value)
def test_subfam_builds_only_the_rows_n_minus_p(monkeypatch, entry):
    asked = record_rows(monkeypatch, LucasFamily)
    q = 5 if entry is Identity.SUBFAM_ZERO else None
    assert eval_identity(entry, FIB, n=20, m=3, p=19, q=q).passed
    assert {(lo, hi) for _, lo, hi in asked} == {(1, 1)}  # the one row n - p, not rows 1..n
    asked.clear()
    report = sweep([entry], [FIB], SweepRanges(n=(10, 12), m=(-2, 2), p=(3, 4)))
    assert report.total_checks > 0 and report.failures == []
    assert {(lo, hi) for _, lo, hi in asked} == {(6, 9)}  # rows 10-4 .. 12-3


@pytest.mark.parametrize("entry, point, labels", [
    (Identity.FIB_POLY, {"n": 20, "m": 10}, {10}),
    (Identity.EXPL_NEG, {"n": 9, "m": 12}, {-12, *range(-8, 1)}),  # X(9, -m) and X(9, -l), l < 9
], ids=["FIB_POLY", "EXPL_NEG"])
def test_one_point_call_builds_only_the_labels_it_reads(monkeypatch, entry, point, labels):
    asked = record_rows(monkeypatch, LucasFamily)
    assert eval_identity(entry, FIB, **point).passed
    assert built_labels(asked) == sorted(labels)  # each label once


class RecordingRow(list):
    """A built row, over the plan's labels, that notes the label of every position a kernel
    reads from it, one at a time or by slice."""

    def __init__(self, row, labels, read):
        super().__init__(row)
        self.labels, self.read = labels, read

    def __getitem__(self, at):
        for label in self.labels[at] if isinstance(at, slice) else [self.labels[at]]:
            self.read.add(label)
        return super().__getitem__(at)


def record_reads(monkeypatch, family_type, read):
    """Make the families of this type yield RecordingRows; read(r) is where row r notes its
    reads."""
    real = family_type.rows

    def rows(self, labels, n_lo, n_hi):
        for r, (d, row) in enumerate(real(self, labels, n_lo, n_hi), n_lo):
            yield d, RecordingRow(row, labels, read(r))

    monkeypatch.setattr(family_type, "rows", rows)


#: m ranges where the tables and sums of m bounds coupled to n, or far from the origin, meet
WHOLE_CATALOG_M = [("n", 15), (-5, "n"), (5000, 5001)]


@pytest.mark.parametrize("entry, m", [*((entry, (-4, 5)) for entry in ALL_IDENTITIES),
                                      *((None, m) for m in WHOLE_CATALOG_M)],
                         ids=[*(e.value for e in ALL_IDENTITIES),
                              *(f"all-{m[0]}..{m[1]}" for m in WHOLE_CATALOG_M)])
@pytest.mark.parametrize("family", [FIB, PowerFamily(Fraction(1, 2))], ids=lambda f: f.label())
def test_a_cell_builds_exactly_the_labels_its_kernel_reads(monkeypatch, entry, m, family):
    # one entry, or (None) every entry that runs on the family, together
    runs = [e for e in ALL_IDENTITIES if family == FIB or not CATALOG[e].fib_only]
    built = record_rows(monkeypatch, type(family))
    read = set()
    record_reads(monkeypatch, type(family), lambda r: read)
    report = sweep([entry] if entry else runs, [family], SweepRanges(n=(1, 7), m=m))
    assert report.failures == []
    assert bool(report.total_checks) == bool(read) == (entry is None or entry in runs)
    assert set(built_labels(built)) == read


@pytest.mark.parametrize("m", [(-4, 5), ("n", 15), (-5, "n"), (5000, 5001)], ids=str)
def test_each_table_span_is_one_run_of_the_plan_labels(m):
    # a pass slices each row's table from the labels lo..hi, so each must be present
    plan = _plan(ALL_IDENTITIES, SweepRanges(n=(1, 9), m=m))
    assert plan.spans
    for r, (lo, hi) in plan.spans.items():
        assert plan.labels[plan.at[lo]:plan.at[hi] + 1] == list(range(lo, hi + 1)), r


def test_sweep_rational_family():
    report = sweep([Identity.L1], [PowerFamily(Fraction(1, 2))], SweepRanges(n=(1, 10)))
    assert report.total_checks == 10 and report.failures == []


def test_sweep_deterministic_content():
    ranges = SweepRanges(n=(1, 8), m=(-5, 5))
    first = sweep(ALL_IDENTITIES, [FIB, PowerFamily(1)], ranges)
    second = sweep(ALL_IDENTITIES, [FIB, PowerFamily(1)], ranges)
    a, b = first.to_json_dict(), second.to_json_dict()
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert json.dumps(a) == json.dumps(b)


def test_sweep_workers_do_not_change_content():
    ranges = SweepRanges(n=(1, 9), m=(-4, 4))
    serial = sweep(ALL_IDENTITIES, [FIB, PochhammerFamily()], ranges, workers=1)
    parallel = sweep(ALL_IDENTITIES, [FIB, PochhammerFamily()], ranges, workers=3)
    a, b = serial.to_json_dict(), parallel.to_json_dict()
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_failures_are_data_not_exceptions(monkeypatch):
    # the catalog holds for every genuine root set, so a failure can only be
    # provoked by corrupting one member value behind the engine's back
    corrupt_member(monkeypatch, PowerFamily, 3, 2)
    report = sweep([Identity.REC_M], [PowerFamily(0)], SweepRanges(n=(3, 3), m=(-2, 4)))
    assert report.total_checks == 7
    # hit as the lhs at m=1 and inside the rhs window at m=2..4
    assert len(report.failures) == 4
    for check in report.failures:
        assert not check.passed
        assert check.residual == check.lhs - check.rhs != 0
        assert check.params["n"] == 3


def test_check_serialization_uses_decimal_strings():
    check = eval_identity(Identity.REC_M, FIB, n=20, m=10)
    payload = check.to_json_dict()
    assert payload["pass"] is True
    assert isinstance(payload["lhs"], str) and payload["lhs"].lstrip("-").isdigit()
    assert payload["identity"] == "REC_M"
    assert payload["family"] == "lucas:-1"


# -- every entry can fail, and the integer kernels agree with the Fraction reference --

GENERIC = [i for i in ALL_IDENTITIES if not CATALOG[i].fib_only]
HALF = PowerFamily(Fraction(1, 2))

# generic entries on a rational family, so that denominator clearing is exercised;
# EXPL_NEG reads only labels m <= 0
MUTATIONS = ([(i, HALF, (3, -2 if i is Identity.EXPL_NEG else 2)) for i in GENERIC]
             + [(i, FIB, (3, 2)) for i in ALL_IDENTITIES if CATALOG[i].fib_only])


@pytest.mark.parametrize("entry, family, member", MUTATIONS, ids=[c[0].value for c in MUTATIONS])
def test_every_entry_detects_a_corrupted_member(monkeypatch, entry, family, member):
    corrupt_member(monkeypatch, type(family), *member)
    report = sweep([entry], [family], SweepRanges(n=(1, 6), m=(-4, 6)))
    assert report.failures
    for check in report.failures:
        assert not check.passed
        assert check.residual == check.lhs - check.rhs != 0


# -- the reference: each entry's two sides transcribed a second time, in Fractions,
#    independently of the integer kernels that eval_identity and sweep run --

def _sides_l2_shift(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    total = sum(signed[l] * l * X(family, n, l + m) for l in range(1, n + 1))
    rhs = Fraction((-1) ** n, math.factorial(n)) * total - Fraction(n * (n + 1), 2) - n * m
    return family.root_sum(n), rhs


def _sides_l2_scale(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    total = sum(signed[l] * l * X(family, n, l * m) for l in range(1, n + 1))
    rhs = (Fraction((-1) ** n, math.factorial(n) * m ** (n - 1)) * total
           - Fraction(n * (n + 1) * m, 2))
    return family.root_sum(n), rhs


def _sides_rec_m(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    total = sum((-1) ** l * math.comb(n, l - 1) * X(family, n, l + m - n) for l in range(1, n + 1))
    return X(family, n, m + 1), (-1) ** n * total + math.factorial(n)


def _sides_scale_id(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    scaled = sum(signed[l] * l * X(family, n, l * m) for l in range(1, n + 1))
    plain = sum(signed[l] * l * X(family, n, l) for l in range(1, n + 1))
    lhs = Fraction(1, m ** (n - 1)) * scaled
    rhs = plain + Fraction((-1) ** (n - 1) * (1 - m) * n * math.factorial(n + 1), 2)
    return lhs, rhs


def _sides_expl(family: Family, n: int, m: int, *_, sign: int) -> Tuple[ExactScalar, ExactScalar]:
    c_mn = math.comb(m, n)
    total = sum(Fraction((-1) ** (n + l) * (n - l) * c_mn * math.comb(n, l), l - m)
                * X(family, n, sign * l) for l in range(n))
    return X(family, n, sign * m), total + sign ** n * math.perm(m, n)


def _sides_subfam_zero(family: Family, n: int, m: int, p: int, q: int
                       ) -> Tuple[ExactScalar, ExactScalar]:
    total = sum(w * X(family, n - p, m - n + l) for l, w in enumerate(_weights(n, q)))
    return total, 0


def _sides_subfam_fact(family: Family, n: int, m: int, p: int, *_
                       ) -> Tuple[ExactScalar, ExactScalar]:
    return _sides_subfam_zero(family, n, m, p, p)[0], (-1) ** n * math.factorial(n)


def _sides_fib_posneg(family: Family, n: int, *_, compl: bool
                      ) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    sign = (-1) ** n if compl else -1
    total = sum(signed[l] * l * (X(family, n, -l) + sign * X(family, n, l))
                for l in range(1, n + 1))
    return total, n * math.factorial(n + 1) * (1 if compl else n % 2)


def _sides_fib_poly(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    return fibonacci_polynomial(n, m), X(family, n, m)


REFERENCE = {
    Identity.L1: _sides_l2_shift,
    Identity.L2_SHIFT: _sides_l2_shift,
    Identity.L2_SCALE: _sides_l2_scale,
    Identity.REC_M: _sides_rec_m,
    Identity.SCALE_ID: _sides_scale_id,
    Identity.EXPL_POS: partial(_sides_expl, sign=1),
    Identity.EXPL_NEG: partial(_sides_expl, sign=-1),
    Identity.SUBFAM_ZERO: _sides_subfam_zero,
    Identity.SUBFAM_FACT: _sides_subfam_fact,
    Identity.FIB_POSNEG: partial(_sides_fib_posneg, compl=False),
    Identity.FIB_POSNEG_COMPL: partial(_sides_fib_posneg, compl=True),
    Identity.FIB_POLY: _sides_fib_poly,
}


def reference_check(entry, family, *, n, m=None, p=None, q=None):
    """The record of one admissible point, from the reference sides; a point
    without m is read at m = 0."""
    lhs, rhs = REFERENCE[entry](family, n, 0 if m is None else m, p, q)
    residual = normalize(lhs - rhs)
    params = {name: value for name, value in zip("nmpq", (n, m, p, q)) if value is not None}
    return IdentityCheck(identity=entry, family=family, params=params, lhs=normalize(lhs),
                         rhs=normalize(rhs), residual=residual, passed=residual == 0).to_json_dict()


def _rational_roots(n, l):
    return Fraction(2 * l - n, l + 1)


PROPERTY_FAMILIES = [PowerFamily(Fraction(-3, 2)), ExplicitRootsFamily(_rational_roots, "roots:q"),
                     PochhammerFamily(), FIB, LucasFamily(2)]


def admissible_points(entry, family, ranges):
    """(point, eval_identity's check) at every point of the grid that eval_identity
    admits; it alone decides which p and q are admissible."""
    def within(values, bounds):
        return [v for v in values if bounds is None or bounds[0] <= v <= bounds[1]]

    params = CATALOG[entry].params
    for n in range(ranges.n[0], ranges.n[1] + 1):
        for p in (within(range(-1, n + 2), ranges.p) if "p" in params else [None]):
            for q in (within(range(-1, p + 2), ranges.q) if "q" in params else [None]):
                for m in (ranges.m_values(n) if "m" in params else [None]):
                    point = {"n": n, "m": m, "p": p, "q": q}
                    try:
                        check = eval_identity(entry, family, **point)
                    except DomainError:
                        continue
                    yield point, check


def oracle_sweep(entry, family, ranges):
    """Checks and failures of one sweep cell, point by point through the reference."""
    count, failures = 0, []
    for point, _ in admissible_points(entry, family, ranges):
        count += 1
        check = reference_check(entry, family, **point)
        if not check["pass"]:
            failures.append(check)
    return count, failures


def assert_sweep_matches_oracle(entry, family, ranges):
    report = sweep([entry], [family], ranges)
    count, failures = oracle_sweep(entry, family, ranges)
    assert report.total_checks == count
    recorded = [check.to_json_dict() for check in report.failures]
    assert sorted(recorded, key=json.dumps) == sorted(failures, key=json.dumps)
    return report


labels = st.integers(-8, 8)
m_ranges = (st.tuples(labels, labels).map(sorted).map(tuple)
            | st.tuples(st.just("n"), st.integers(0, 12)) | st.tuples(labels, st.just("n")))
restriction = st.none() | st.tuples(st.integers(0, 5), st.integers(0, 5)).map(sorted).map(tuple)


@given(entry=st.sampled_from(ALL_IDENTITIES), family=st.sampled_from(PROPERTY_FAMILIES),
       n_lo=st.integers(1, 7), n_len=st.integers(0, 2), m=m_ranges, p=restriction, q=restriction,
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_agrees_with_oracle(entry, family, n_lo, n_len, m, p, q, data):
    ranges = SweepRanges(n=(n_lo, n_lo + n_len), m=m, p=p, q=q)
    # one corrupted member, in a row the cell may read (n itself, or n - p)
    member = data.draw(st.tuples(st.integers(max(0, n_lo - 3), n_lo + n_len),
                                 st.integers(-8, 10)), label="member")
    with pytest.MonkeyPatch.context() as patch:
        corrupt_member(patch, type(family), *member)
        assert_sweep_matches_oracle(entry, family, ranges)


@pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=lambda f: f.label())
def test_eval_identity_agrees_with_reference(monkeypatch, family):
    # every admissible point, passing or not; the corrupted member makes some fail
    corrupt_member(monkeypatch, type(family), 4, 2)
    failed = 0
    for entry in ALL_IDENTITIES:
        for point, check in admissible_points(entry, family, SweepRanges(n=(1, 5), m=(-3, 6))):
            assert check.to_json_dict() == reference_check(entry, family, **point), point
            failed += not check.passed
    assert failed


SUBFAM = [Identity.SUBFAM_ZERO, Identity.SUBFAM_FACT]


# A SUBFAM_* check at (n, p) is one dot product over the labels m-n..m of the row
# X(n-p, .), which runs where the row's table over m_lo-n..m_hi is not (n-p)! throughout;
# a corrupted member at either end of the window of (n, p) = (7, 2) runs that (n, p).
@pytest.mark.parametrize("entry", SUBFAM, ids=lambda e: e.value)
@pytest.mark.parametrize("family", [HALF, PochhammerFamily(), FIB], ids=lambda f: f.label())
@pytest.mark.parametrize("label", [-3 - 7, 4], ids=["left-edge", "right-edge"])
def test_subfam_window_edges_agree_with_oracle(monkeypatch, entry, family, label):
    corrupt_member(monkeypatch, type(family), 7 - 2, label)  # row n - p at n = 7, p = 2
    report = assert_sweep_matches_oracle(entry, family, SweepRanges(n=(5, 7), m=(-3, 4)))
    failed = {(c.params["n"], c.params["p"]) for c in report.failures}
    if entry is Identity.SUBFAM_FACT and label < 0:
        assert failed == set()  # its sum weighs the label m-n by 0^p = 0
    else:
        assert (7, 2) in failed


# A REC_M check at n is one dot product over the labels m-n+1..m of the row X(n, .),
# which runs where the row's table over m_lo-n+1..m_hi+1 is not n! throughout.  A
# corrupted member at either end of that span at n = 7 fails the one m that reads it,
# with the exact sides of the sum, alone and where the SUBFAM_* entries share the span.
@pytest.mark.parametrize("family", [HALF, PochhammerFamily(), FIB], ids=lambda f: f.label())
@pytest.mark.parametrize("label, m", [(-3 - 7 + 1, -3), (4 + 1, 4)],
                         ids=["left-edge", "right-edge"])
def test_rec_m_window_edges_agree_with_oracle(monkeypatch, family, label, m):
    corrupt_member(monkeypatch, type(family), 7, label)
    ranges = SweepRanges(n=(5, 7), m=(-3, 4))
    report = assert_sweep_matches_oracle(Identity.REC_M, family, ranges)
    assert [(c.params["n"], c.params["m"]) for c in report.failures] == [(7, m)]
    shared = sweep([Identity.REC_M, *SUBFAM], [family], ranges).failures
    assert [c for c in shared if c.identity is Identity.REC_M] == report.failures


@pytest.mark.parametrize("entry", SUBFAM, ids=lambda e: e.value)
@pytest.mark.parametrize("p, q", [((2, 3), (1, 1)), ((1, 2), None), ((3, 5), (0, 2))])
def test_subfam_restricted_p_and_q_agree_with_oracle(monkeypatch, entry, p, q):
    corrupt_member(monkeypatch, PowerFamily, 4, 0)
    corrupt_member(monkeypatch, PowerFamily, 2, 9)
    ranges = SweepRanges(n=(4, 8), m=(-4, 5), p=p, q=q)
    report = assert_sweep_matches_oracle(entry, PowerFamily(Fraction(-3, 2)), ranges)
    assert report.failures


# Each row r serves every n > r; its window at (n, p = n - r) is m_lo-n..m_hi at that
# n.  A corrupted member of row 3 fails exactly the (n, n - 3) whose window holds its
# label at a nonzero weight: every such (n, n - 3) at q = 0, whose weights are C(n, l),
# and for SUBFAM_FACT, weighted by l^p, none whose window holds it at l = 0 alone.
@pytest.mark.parametrize("entry", SUBFAM, ids=lambda e: e.value)
@pytest.mark.parametrize("family", [PowerFamily(Fraction(-3, 2)), FIB], ids=lambda f: f.label())
@pytest.mark.parametrize("m, label, held, at_l_0", [
    ((-3, 4), -3 - 8, {8}, {8}),  # m_lo - n at the largest n only
    ((-3, 4), -3 - 8 + 1, {7, 8}, {7}),
    ((-3, 4), 4, {4, 5, 6, 7, 8}, set()),
    (("n", 12), 12, {4, 5, 6, 7, 8}, set()),  # every window is 0..12
    ((-3, "n"), -3 - 8, {8}, {8}),  # windows -3-n..n
    ((-3, "n"), 8, {8}, set()),
    ((-3, "n"), 7, {7, 8}, set()),
], ids=["m_lo-n", "m_lo-n+1", "m_hi", "n..12", "-3..n-left", "-3..n-right", "-3..n-right-1"])
def test_subfam_fails_exactly_where_a_window_holds_the_member(
        monkeypatch, entry, family, m, label, held, at_l_0):
    corrupt_member(monkeypatch, type(family), 3, label)
    report = assert_sweep_matches_oracle(entry, family, SweepRanges(n=(1, 8), m=m))
    fails = held - at_l_0 if entry is Identity.SUBFAM_FACT else held
    assert {(c.params["n"], c.params["p"]) for c in report.failures} == {
        (n, n - 3) for n in fails}


@pytest.mark.parametrize("entry, label", [
    (Identity.REC_M, -3 - 3 + 1), (Identity.REC_M, 4 + 1),  # the ends of REC_M's window at n = 3
    *((entry, label) for entry in SUBFAM for label in (-3 - 8, 4)),
], ids=["REC_M-left-edge", "REC_M-right-edge", "SUBFAM_ZERO-left-edge", "SUBFAM_ZERO-right-edge",
        "SUBFAM_FACT-left-edge", "SUBFAM_FACT-right-edge"])
def test_kernel_points_do_not_depend_on_the_order_n_is_visited(monkeypatch, entry, label):
    from seqfam import identities

    # a pass runs n up in row order over the windows of every n; a pass of each n on its
    # own, from the last n down, over that n's windows alone
    corrupt_member(monkeypatch, PowerFamily, 3, label)
    family, ranges = PowerFamily(Fraction(-3, 2)), SweepRanges(n=(1, 8), m=(-3, 4))
    points = []
    alone = [_plan([entry], ranges._replace(n=(n, n))) for n in range(8, 0, -1)]
    for plans in ([_plan([entry], ranges)], [plan for plan in alone if plan]):
        points.append(sorted(point for plan in plans
                             for point in identities._Pass(plan, family).run(plan.points,
                                                                             False)[1]))
    assert points[0] == points[1]
    # the corrupted row yields failing points, but for SUBFAM_FACT's left edge, which its sum
    # weighs by 0^p = 0
    assert any(points[0]) == (entry is not Identity.SUBFAM_FACT or label > 0)


# SUBFAM_* at (n, p) is one point, run on row n - p while the pass holds it; where that
# row's table is not r!*d throughout, its checks read the same row.
@pytest.mark.parametrize("entry", SUBFAM, ids=lambda e: e.value)
@pytest.mark.parametrize("family", [HALF, FIB], ids=lambda f: f.label())
def test_subfam_runs_on_the_row_n_minus_p_where_its_table_fails(monkeypatch, entry, family):
    corrupt_member(monkeypatch, type(family), 2, 0)
    ranges = SweepRanges(n=(5, 8), m=(-3, 4))
    report = assert_sweep_matches_oracle(entry, family, ranges)
    assert {(c.params["n"], c.params["p"]) for c in report.failures} == {
        (n, n - 2) for n in range(5, 9)}
    plan = _plan([entry], ranges)
    assert [(n, p, row) for _, n, _, p, _, _, row, _ in plan.points] == sorted(
        ((n, p, n - p) for n in range(5, 9) for p in range(1, n)), key=lambda point: point[2])


@pytest.mark.parametrize("family", [HALF, FIB], ids=lambda f: f.label())
def test_a_kernel_reads_only_the_row_being_run(monkeypatch, family):
    # row 2's table fails, so SUBFAM_* at (n, n - 2) reads row 2 for each n
    corrupt_member(monkeypatch, type(family), 2, 0)
    taken, stale = [], []

    class Noted:
        def __init__(self, r):
            self.r = r

        def add(self, label):
            if self.r != taken[-1]:
                stale.append((taken[-1], self.r, label))

    record_reads(monkeypatch, type(family), lambda r: taken.append(r) or Noted(r))
    report = sweep(ALL_IDENTITIES, [family], SweepRanges(n=(1, 8), m=(-3, 4)))
    assert {(c.params["n"], c.params["p"]) for c in report.failures
            if c.identity is Identity.SUBFAM_ZERO} == {(n, n - 2) for n in range(3, 9)}
    assert taken == list(range(1, 9))
    assert stale == []  # (the row being run, the row read, the label)


class Reads(Counter):
    """The reads of each label, for a RecordingRow to note in place of a set."""

    def add(self, label):
        self[label] += 1


@pytest.mark.parametrize("entries", [[Identity.SUBFAM_ZERO], [Identity.SUBFAM_FACT], SUBFAM,
                                     [Identity.REC_M], [Identity.REC_M, *SUBFAM]],
                         ids=lambda entries: "+".join(e.value for e in entries))
@pytest.mark.parametrize("m", [(-6, 6), ("n", 12), (-3, "n")], ids=str)
def test_differences_each_row_once_per_cell(monkeypatch, entries, m):
    reads = {}
    record_reads(monkeypatch, LucasFamily, lambda r: reads.setdefault(r, Reads()))
    report = sweep(entries, [LucasFamily(2)], SweepRanges(n=(1, 10), m=m))
    assert report.total_checks > 0 and report.failures == []
    # every row's table holds, so every (n, p) and every REC_M n passes without running its
    # kernel, and each member is read once: when its row is differenced, once for every entry
    rows = range(1, 11) if Identity.REC_M in entries else range(1, 10)
    assert set(reads) == set(rows)
    assert {count for row in reads.values() for count in row.values()} == {1}


class Doubled(PowerFamily):
    """A power family with every member doubled: rows of degree r, leading coefficient 2."""

    def rows(self, labels, n_lo, n_hi):
        return ((d, [2 * v for v in row]) for d, row in super().rows(labels, n_lo, n_hi))


@pytest.mark.parametrize("family", [Doubled(2), Doubled(Fraction(1, 2))], ids=["int", "half"])
def test_subfam_on_rows_that_are_not_monic(family):
    ranges = SweepRanges(n=(1, 8), m=(-5, 5))
    # SUBFAM_ZERO needs only degree <= n-p; SUBFAM_FACT needs the leading coefficient 1
    zero = assert_sweep_matches_oracle(Identity.SUBFAM_ZERO, family, ranges)
    assert zero.total_checks > 0 and zero.failures == []
    fact = assert_sweep_matches_oracle(Identity.SUBFAM_FACT, family, ranges)
    assert fact.total_checks > 0 and len(fact.failures) == fact.total_checks
    for check in fact.failures:
        assert check.lhs == 2 * check.rhs == 2 * (-1) ** check.params["n"] * math.factorial(
            check.params["n"])


@pytest.mark.parametrize("family", [*SMALL_FAMILIES, PowerFamily(Fraction(-3, 2)), Doubled(2)],
                         ids=lambda f: f.label() if type(f) is not Doubled else "doubled")
def test_a_family_row_table_is_r_factorial_throughout(monkeypatch, family):
    # row r of a family is monic of degree r, so each table holds and the pass skips the
    # REC_M and SUBFAM_* points that read the row; a doubled row's does not
    from seqfam import identities

    holds, real = [], identities._Pass._holds
    monkeypatch.setattr(identities._Pass, "_holds",
                        lambda ps, *args: holds.append(real(ps, *args)) or holds[-1])
    plan = _plan([Identity.REC_M, *SUBFAM], SweepRanges(n=(1, 12), m=(-6, 6)))
    identities._Pass(plan, family).run(plan.points, False)
    assert len(holds) == 12 and set(holds) == {type(family) is not Doubled}


def test_distrusted_tables_change_no_report(monkeypatch):
    # with no table trusted, every REC_M and SUBFAM_* point runs its kernel, also on the
    # rows whose table holds: the sound families still pass every check, and a corrupted
    # family fails the same checks as when the tables that hold skip their points
    from seqfam import identities
    from seqfam.cli import STANDARD_FAMILIES

    ranges = SweepRanges(n=(1, 8), m=(-4, 5))
    corrupted = [PowerFamily(Fraction(-3, 2)), FIB]
    with monkeypatch.context() as patch:
        corrupt_member(patch, PowerFamily, 3, 2)
        corrupt_member(patch, LucasFamily, 3, 2)
        trusted = sweep(ALL_IDENTITIES, corrupted, ranges).failures
        patch.setattr(identities._Pass, "_holds", lambda *args: False)
        distrusted = sweep(ALL_IDENTITIES, corrupted, ranges).failures
    assert trusted and distrusted == trusted
    monkeypatch.setattr(identities._Pass, "_holds", lambda *args: False)
    report = sweep(ALL_IDENTITIES, STANDARD_FAMILIES, ranges)
    assert report.total_checks == 14716 and report.failures == []


class OffByOne(PowerFamily):
    """A power family with X(3, 2) one too large, in forked children too."""

    def rows(self, labels, n_lo, n_hi):
        for n, (d, row) in enumerate(super().rows(labels, n_lo, n_hi), n_lo):
            yield d, [v + d if (n, m) == (3, 2) else v for m, v in zip(labels, row)]


def test_workers_match_serial_on_a_corrupted_family():
    families = [OffByOne(Fraction(1, 2)), FIB]
    ranges = SweepRanges(n=(1, 7), m=(-4, 5))
    serial = sweep(ALL_IDENTITIES, families, ranges, workers=1).to_json_dict()
    parallel = sweep(ALL_IDENTITIES, families, ranges, workers=2).to_json_dict()
    serial.pop("wall_time_s"), parallel.pop("wall_time_s")
    assert serial["failures"] and serial == parallel


def test_a_child_sends_a_failing_rational_family_without_a_rerun(forks, monkeypatch, tmp_path):
    from seqfam import identities

    run, log = identities._run_cell_star, tmp_path / "tasks"

    def logged(task):  # one line per task, with the pid of the process that runs it
        out = run(task)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {task[2].label()}\n")
        return out

    monkeypatch.setattr(identities, "_run_cell_star", logged)
    families = [FIB, OffByOne(Fraction(1, 2))]  # dealt to a child, whose L1 sides are rational
    ranges = SweepRanges(n=(1, 7), m=(-4, 5))
    parallel = sweep(ALL_IDENTITIES, families, ranges, workers=2)
    assert len(forks) == 1
    tasks = sorted(line.split() for line in log.read_text().splitlines())
    assert tasks == sorted([[str(os.getpid()), "lucas:-1"], [str(forks[0]), "power:1/2"]])
    assert {c.identity for c in parallel.failures} >= {Identity.L1, Identity.L2_SHIFT}
    assert content(parallel) == content(sweep(ALL_IDENTITIES, families, ranges))


def content(report):
    out = report.to_json_dict()
    out.pop("wall_time_s")
    return out


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the sweep forks, on 8 CPUs; after the test, none is left."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_clamped_to_cpus_and_families(forks):
    ranges = SweepRanges(n=(1, 4), m=(-2, 2))
    reports = []
    for workers in (0, 1, 3):
        forks.clear()
        reports.append(content(sweep([Identity.REC_M], [FIB, PochhammerFamily()], ranges,
                                     workers=workers)))
        assert len(forks) == (workers == 3)  # two families: 3 is cut to 2, one of them forked
    assert reports[0] == reports[1] == reports[2]


def test_workers_are_clamped_to_families_with_a_point(forks):
    standard = [PowerFamily(0), PochhammerFamily(), FIB, LucasFamily(2), LucasFamily(-2)]
    ranges = SweepRanges(n=(1, 20), m=(-10, 10))
    only_fib = sweep([Identity.FIB_POLY], standard, ranges, workers=2)
    assert only_fib.total_checks == 20 * 21 and only_fib.families == [f.label() for f in standard]
    none = sweep([Identity.L1], standard, SweepRanges(n=(0, 0)), workers=2)
    assert none.total_checks == 0 and none.passed
    assert forks == []
    assert content(only_fib) == content(sweep([Identity.FIB_POLY], standard, ranges))


def test_sweep_runs_a_lambda_roots_family_in_a_child(forks):
    replica = ExplicitRootsFamily(lambda n, l: 1, label="roots:lambda")
    families, ranges = [FIB, replica], SweepRanges(n=(1, 5), m=(-3, 3))
    serial = sweep([Identity.REC_M], families, ranges)
    assert forks == []
    parallel = sweep([Identity.REC_M], families, ranges, workers=4)
    assert len(forks) == 1
    assert serial.failures == [] and serial.total_checks == 2 * 5 * 7
    assert content(parallel) == content(serial)


def test_sweep_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    families, ranges = [FIB, PochhammerFamily()], SweepRanges(n=(1, 6), m=(-3, 3))
    assert (content(sweep(ALL_IDENTITIES, families, ranges, workers=2))
            == content(sweep(ALL_IDENTITIES, families, ranges)))


class Broken(Exception):
    pass


class Raising(PowerFamily):
    def rows(self, labels, n_lo, n_hi):
        raise Broken(self.c)


@pytest.mark.parametrize("at", [0, 1], ids=["in_the_caller", "in_a_child"])
def test_a_family_that_raises_raises_as_in_a_serial_run(forks, at):
    families = [FIB, PochhammerFamily()]
    families.insert(at, Raising(3))
    ranges = SweepRanges(n=(1, 5), m=(-3, 3))
    with pytest.raises(Broken):
        sweep(ALL_IDENTITIES, families, ranges)
    assert forks == []
    with pytest.raises(Broken):
        sweep(ALL_IDENTITIES, families, ranges, workers=2)
    assert len(forks) == 1


def _exit_0():
    os._exit(0)


def _exit_3():
    os._exit(3)


def _kill_self():
    os.kill(os.getpid(), 9)


@pytest.mark.parametrize("leave", [_exit_0, _exit_3, _kill_self], ids=lambda f: f.__name__)
def test_a_child_that_dies_never_gives_a_short_count(forks, leave):
    caller = os.getpid()

    class Dying(PowerFamily):
        def rows(self, labels, n_lo, n_hi):
            if os.getpid() != caller:
                leave()
            return super().rows(labels, n_lo, n_hi)

    families = [FIB, Dying(1), PochhammerFamily(), OffByOne(2)]
    ranges = SweepRanges(n=(1, 7), m=(-4, 5))
    serial = sweep(ALL_IDENTITIES, families, ranges)
    parallel = sweep(ALL_IDENTITIES, families, ranges, workers=2)
    assert len(forks) == 1
    assert serial.failures and content(parallel) == content(serial)


PARALLEL_VERIFY = """
import os, sys
forks, fork = [], os.fork
os.fork = lambda: forks.append(0) or fork()
os.cpu_count = lambda: 2
pools = lambda: sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules))
import seqfam.cli
print(pools())
code = seqfam.cli.main(["verify", "--family", "fib,power:1", "--n", "1..6", "--m", "-3..3",
                        "--workers", "2", "--format", "json"])
print(code, len(forks), pools())
"""


def test_a_parallel_verify_imports_no_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", PARALLEL_VERIFY], capture_output=True,
                          text=True, env=env, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"  # after import
    assert lines[-1] == "0 1 []"  # a parallel verify: exit 0, one child forked, no pool


def test_a_sweep_is_planned_once(monkeypatch):
    from seqfam import identities

    plans = []
    plan = identities._plan
    monkeypatch.setattr(identities, "_plan", lambda *args: plans.append(args) or plan(*args))
    ranges = SweepRanges(n=(1, 5), m=(-3, 3))
    generic = [PowerFamily(0), PowerFamily(2), PochhammerFamily(), LucasFamily(2)]
    for families in (generic, [FIB, *generic, FIB]):
        for workers in (1, 2):
            plans.clear()
            report = sweep(ALL_IDENTITIES, families, ranges, workers=workers)
            assert report.total_checks > 0 and report.failures == []
            assert len(plans) == 1


def scale_failures(entries, family, ranges):
    failures = sweep(entries, [family], ranges).failures
    return {entry: [check for check in failures if check.identity == entry] for entry in entries}


@pytest.mark.parametrize("label", [2, -4], ids=str)
def test_l2_scale_and_scale_id_share_one_dot_and_keep_their_sides(monkeypatch, label):
    from seqfam import identities

    corrupt_member(monkeypatch, PowerFamily, 3, label)
    family, ranges = PowerFamily(Fraction(1, 2)), SweepRanges(n=(1, 6), m=(-4, 4))
    alone = {**scale_failures([Identity.L2_SCALE], family, ranges),
             **scale_failures([Identity.SCALE_ID], family, ranges)}
    assert all(alone.values())
    for entries in ([Identity.L2_SCALE, Identity.SCALE_ID], [Identity.SCALE_ID, Identity.L2_SCALE]):
        assert scale_failures(entries, family, ranges) == alone

    calls = []
    dots = identities._dots
    monkeypatch.setattr(identities, "_dots", lambda *args: calls.append(args) or dots(*args))

    def sums(entries):
        calls.clear()
        sweep(entries, [family], ranges)
        return len(calls)

    shared = len(identities._plan([Identity.L2_SCALE], ranges).points)  # the n, each all its m
    l2_scale, scale_id = sums([Identity.L2_SCALE]), sums([Identity.SCALE_ID])
    assert sums([Identity.L2_SCALE, Identity.SCALE_ID]) == l2_scale + scale_id - shared


@pytest.mark.parametrize("m", [(-4, 4), (1, 4), (2, 4)], ids=["holds-0", "touches-0", "apart"])
def test_l1_and_l2_shift_keep_their_sides_where_their_spans_meet(monkeypatch, m):
    from seqfam import identities

    corrupt_member(monkeypatch, PowerFamily, 3, 3)
    family, ranges = PowerFamily(Fraction(1, 2)), SweepRanges(n=(1, 6), m=m)
    entries = [Identity.L1, Identity.L2_SHIFT, Identity.SCALE_ID]
    alone = [check for entry in entries for check in sweep([entry], [family], ranges).failures]
    assert {check.identity for check in alone} == set(entries)
    assert content(sweep(entries, [family], ranges))["failures"] == [
        check.to_json_dict() for check in sorted(alone, key=identities._failure_key)]


def test_plan_holds_one_label_list_at_a_time(monkeypatch):
    # 30 n by 600 m: each scaled sum lists n * 600 labels, and the union takes one
    # list at a time; the labels are exactly those a sweep of the grid reads
    ranges = SweepRanges(n=(1, 30), m=(-300, 299))
    tracemalloc.start()
    try:
        plan = _plan(ALL_IDENTITIES, ranges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, f"peak {peak:,} B"
    read = set()
    record_reads(monkeypatch, LucasFamily, lambda r: read)
    assert sweep(ALL_IDENTITIES, [FIB], ranges).failures == []
    assert plan.labels == sorted(read)


def traced_sweep(entries, families, ranges):
    """The report of a sweep and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        report = sweep(entries, families, ranges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_a_sweep_holds_one_family_pass_at_a_time():
    # the headline sweep of every standard family: a pass holds one row's members at a time,
    # and its tables and sums are dropped when the pass ends; 560 KB if a pass holds every
    # row, and 1.2 MB if the passes are kept to the end of the sweep
    from seqfam.cli import parse_families

    report, peak = traced_sweep(ALL_IDENTITIES, parse_families("all"),
                                SweepRanges(n=(1, 20), m=(-10, 10)))
    assert report.total_checks == 337_360 and report.failures == []
    assert peak < 450_000, f"peak {peak:,} B"


def test_a_wide_pass_holds_one_row_at_a_time():
    # 20 rows over 3,707 labels: about 5.9 MB traced with one row's members held at a time,
    # 10.7 MB with every row held for the whole pass
    report, peak = traced_sweep(ALL_IDENTITIES, [PochhammerFamily()],
                                SweepRanges(n=(1, 20), m=(-200, 200)))
    assert report.total_checks == 649_200 and report.failures == []
    assert peak < 8_000_000, f"peak {peak:,} B"
