"""Tests for the family evaluators: closed forms, recursions, windows, roots."""

import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfam.cli import STANDARD_FAMILIES, load_roots_file, table_lines
from seqfam.exact import exact_decimal, parse_exact
from seqfam.families import (FIB, ExplicitRootsFamily, LucasFamily, PochhammerFamily,
                             PowerFamily, X, exact_rows, fibonacci_polynomial, table)

from classic import lucas_binomial_sum

from grids import FIBONACCI_GRID, POCHHAMMER_GRID, POWER0_GRID


def fibonacci_numbers(count):
    """Classic Fibonacci oracle (F_0 = 0, F_1 = 1) by plain addition."""
    out, a, b = [], 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def pell_numbers(count):
    out, a, b = [], 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, 2 * b + a
    return out


def test_member_values_match_reference_grids():
    poch = PochhammerFamily()
    power = PowerFamily(0)
    for i, n in enumerate(range(1, 8)):
        for j, m in enumerate(range(0, 8)):
            assert X(power, n, m) == POWER0_GRID[i][j]
            assert X(poch, n, m) == POCHHAMMER_GRID[i][j]
            assert X(FIB, n, m) == FIBONACCI_GRID[i][j]


def test_member_spot_values():
    assert X(FIB, 4, 2) == 29
    assert X(PochhammerFamily(), 5, 2) == 2520
    assert X(PowerFamily(0), 6, 3) == 729
    # backward label: the degree-3 closed form m^3 + 2m at m = -2
    assert X(FIB, 3, -2) == -12


def test_member_empty_product():
    for family in (FIB, PowerFamily(0), PochhammerFamily(), LucasFamily(2)):
        assert X(family, 0, 7) == 1


def test_member_rejects_negative_n():
    with pytest.raises(ValueError):
        X(FIB, -1, 0)


@pytest.mark.parametrize("label", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_member_takes_integer_labels_only(label):
    halves = ExplicitRootsFamily(lambda n, l: Fraction(1, 2), label="roots:halves")
    for family in (PowerFamily(0), halves):
        with pytest.raises(TypeError):
            X(family, 2, label)
    # at the integer label, both still answer: (2 + 0)^2 and (2 + 1/2)^2
    assert (X(PowerFamily(0), 2, 2), X(halves, 2, 2)) == (4, Fraction(25, 4))


def test_exact_rows_are_the_members_of_each_row():
    # n = 2 roots 1/2 and 2: (m + 1/2)(m + 2), an int at m = 0 and 2, over d = 2 elsewhere
    roots = ExplicitRootsFamily(lambda n, l: (Fraction(1, 2), 2)[l - 1] if n == 2 else l)
    for family in (*STANDARD_FAMILIES, roots):
        rows = zip(range(1, 5), family.rows(range(-3, 4), 1, 4))
        expected = [(n, [Fraction(v, d) for v in row]) for n, (d, row) in rows]
        got = list(exact_rows(family, (1, 4), (-3, 3)))
        assert got == expected
        assert all(type(v) is (int if v.denominator == 1 else Fraction)
                   for _, members in got for v in members)
    assert list(exact_rows(roots, (2, 2), (0, 2))) == [(2, [1, Fraction(9, 2), 10])]


def test_exact_rows_stream_and_check_their_window():
    assert next(exact_rows(FIB, (0, 10 ** 9), (0, 2))) == (0, [1, 1, 1])  # one row at a time
    for window, message in [(((3, 2), (0, 5)), "empty range"), (((0, 2), (0, 0)), ">= 1, got 0")]:
        with pytest.raises(ValueError, match=message):
            next(exact_rows(FIB, *window, n_min=1))


def rising(a, n):
    """The rising product (a)_n = a (a+1) ... (a+n-1), as the Pochhammer member X(n, a-1)."""
    return X(PochhammerFamily(), n, a - 1)


def test_pochhammer_factorial_oracle():
    # (a)_n = (a+n-1)! / (a-1)! for a >= 1
    for a in range(1, 11):
        for n in range(9):
            expected = math.factorial(a + n - 1) // math.factorial(a - 1)
            assert rising(a, n) == expected


def test_pochhammer_known_values():
    assert rising(3, 3) == 60
    assert rising(-2, 4) == 0  # the factor (-2 + 2) kills the product
    assert all(rising(a, 0) == 1 for a in range(-5, 6))


def test_pochhammer_shift_identity():
    # l * (l*m + 1)_n * m == (l*m)_{n+1} for all m != 0
    for m in range(-8, 9):
        if m == 0:
            continue
        for l in range(1, 13):
            for n in range(11):
                assert l * rising(l * m + 1, n) * m == rising(l * m, n + 1)


def test_power_family_zero_label_zero_base():
    # 0^n convention for the c = 0 family at m = 0
    for n in range(1, 10):
        assert X(PowerFamily(0), n, 0) == 0


def test_power_family_rational_parameter():
    family = PowerFamily(Fraction(1, 2))
    assert X(family, 2, 1) == Fraction(9, 4)
    assert X(family, 2, 0) == Fraction(1, 4)
    assert family.root_sum(3) == Fraction(3, 2)


def test_root_sums():
    assert all(FIB.root_sum(n) == 0 for n in range(1, 30))
    assert all(LucasFamily(q).root_sum(9) == 0 for q in (-2, 1, 2))
    assert PochhammerFamily().root_sum(4) == 10
    assert PowerFamily(2).root_sum(3) == 6


def test_fibonacci_and_pell_columns():
    fibs = fibonacci_numbers(32)
    pells = pell_numbers(32)
    for n in range(1, 31):
        assert X(FIB, n, 1) == fibs[n + 1]
        assert X(FIB, n, 2) == pells[n + 1]


def test_first_row_is_linear():
    for m in range(-25, 26):
        assert X(FIB, 1, m) == m


def test_closed_form_matches_recursion():
    for n in range(0, 31):
        for m in range(-10, 11):
            assert fibonacci_polynomial(n, m) == X(FIB, n, m)


def test_fibonacci_polynomial_spot_values():
    assert fibonacci_polynomial(4, 2) == 29  # 16 + 12 + 1
    assert fibonacci_polynomial(0, 5) == 1
    for m in range(-6, 7):
        assert fibonacci_polynomial(2, m) == m * m + 1


def test_fibonacci_polynomial_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="degree n must be >= 0"):
        fibonacci_polynomial(-1, 2)


def test_negative_label_totality():
    families = (FIB, LucasFamily(2), PowerFamily(-1), PochhammerFamily())
    for family in families:
        for n in range(1, 26):
            for m in (-50, -17, -1, 0, 1, 17, 50):
                value = X(family, n, m)
                assert isinstance(value, int)


def _power_roots(c):
    def generator(n, l):
        return c
    return generator


def _pochhammer_roots(n, l):
    return l


def test_explicit_roots_replicate_dedicated_evaluators():
    replica_power = ExplicitRootsFamily(_power_roots(3), label="roots:power3")
    replica_poch = ExplicitRootsFamily(_pochhammer_roots, label="roots:poch")
    for n in range(1, 16):
        for m in range(-10, 11):
            assert X(replica_power, n, m) == X(PowerFamily(3), n, m)
            assert X(replica_poch, n, m) == X(PochhammerFamily(), n, m)


@given(st.integers(-6, 6), st.integers(1, 12), st.integers(-10, 10))
@settings(max_examples=150)
def test_literal_product_equals_power_closed_form(c, n, m):
    replica = ExplicitRootsFamily(_power_roots(c), label="roots:prop")
    assert X(replica, n, m) == (m + c) ** n


def test_lucas_rejects_zero_q():
    with pytest.raises(ValueError):
        LucasFamily(0)


VALUES = [PowerFamily(), PowerFamily(-1), PowerFamily(Fraction(1, 2)), PochhammerFamily(),
          LucasFamily(-1), LucasFamily(2)]


@pytest.mark.parametrize("family", VALUES, ids=repr)
def test_families_are_values_of_their_type_and_parameters(family):
    twin = type(family)(*family._params())
    assert twin == family and hash(twin) == hash(family) and twin is not family
    assert pickle.loads(pickle.dumps(family)) == family
    # different types are never equal, even over the same parameters
    assert [other for other in VALUES if other == family] == [family]
    assert family != family._params()
    for name in (*family.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(family, name, 3)


def test_family_equality_and_repr():
    assert PowerFamily(-1) != LucasFamily(-1) and LucasFamily(-1) == FIB
    assert PowerFamily(0) == PowerFamily() and PowerFamily(Fraction(2)) == PowerFamily(2)
    assert PochhammerFamily() != PowerFamily(0)
    assert len({PowerFamily(1), PowerFamily(1), LucasFamily(1), PochhammerFamily()}) == 3
    assert repr(FIB) == "LucasFamily(q=-1)" and repr(PochhammerFamily()) == "PochhammerFamily()"
    assert repr(PowerFamily(Fraction(1, 2))) == "PowerFamily(c=Fraction(1, 2))"


def test_roots_float_values():
    assert PowerFamily(2).float_roots(5) == [2.0] * 5
    assert PochhammerFamily().float_roots(3) == [1.0, 2.0, 3.0]
    assert LucasFamily(1).float_roots(1) == [0.0]
    assert abs(sum(FIB.float_roots(10))) < 1e-12
    assert len(FIB.float_roots(25)) == 25
    # q < 0: purely imaginary roots i*v, carried as complex(0.0, v)
    assert all(isinstance(r, complex) and r.real == 0.0 for r in FIB.float_roots(10))
    assert all(isinstance(r, float) for r in LucasFamily(2).float_roots(10))


def test_window_matches_reference_grid():
    window = table(FIB, (1, 7), (0, 7))
    assert [list(row) for row in window.values] == FIBONACCI_GRID
    assert window.values[3][2] == X(FIB, 4, 2) == 29  # row n = 4, column m = 2
    assert window.values[1] == (1, 2, 5, 10, 17, 26, 37, 50)
    assert tuple(row[1] for row in window.values) == (1, 2, 3, 5, 8, 13, 21)


def test_window_single_cell():
    window = table(PochhammerFamily(), (1, 1), (0, 0))
    assert window.values == ((1,),)


def test_window_rejects_empty_ranges():
    with pytest.raises(ValueError):
        table(FIB, (3, 2), (0, 5))


def test_decimal_table_rows_refuse_the_rounding_default_context(monkeypatch):
    # the default context rounds at 28 digits: 40! and 2^40 would be inexact
    families = [PochhammerFamily(), PowerFamily(Fraction(1, 2)), LucasFamily(2)]
    for family in families:
        with pytest.raises(RuntimeError, match="exact_decimal"):
            next(family.rows([Decimal(3)], 0, 40))
    monkeypatch.setattr("seqfam.cli.DECIMAL_FROM_BITS", 0)  # decimal labels at any length
    for family in families:
        with pytest.raises(RuntimeError, match="exact_decimal"):
            list(table_lines(family, (0, 40), (3, 3), "csv"))


ROOTS_FILE = {"label": "mixed", "roots": {"1": ["1/2"], "2": ["3", "-1/3"],
                                          "3": ["1/2", "2/3", "-5"], "4": ["1", "2", "3", "4"]}}


def literal_member(family, n, m):
    """X(n, m) from the binomial sum of the Lucas numbers or the literal root product."""
    if isinstance(family, LucasFamily):
        return lucas_binomial_sum(family.q, n, m)
    if isinstance(family, PowerFamily):
        roots = [family.c] * n
    elif isinstance(family, PochhammerFamily):
        roots = range(1, n + 1)
    else:
        roots = [parse_exact(x) for x in ROOTS_FILE["roots"][str(n)]]
    return math.prod((m + x for x in roots), start=Fraction(1))


@pytest.mark.parametrize("label_type", [int, Decimal], ids=["int", "decimal"])
def test_rows_are_the_members_over_a_common_denominator(tmp_path, label_type):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(ROOTS_FILE))
    labels = range(-6, 7)
    for family in [*STANDARD_FAMILIES, load_roots_file(str(path))]:
        roots = isinstance(family, ExplicitRootsFamily)
        n_lo, n_hi = (1, 4) if roots else (0, 14)
        with exact_decimal():
            rows = list(family.rows([label_type(m) for m in labels], n_lo, n_hi))
        assert len(rows) == n_hi - n_lo + 1
        for n, (d, row) in enumerate(rows, n_lo):
            members = [literal_member(family, n, m) for m in labels]
            assert [Fraction(v) for v in row] == [Fraction(d) * x for x in members], family
            assert d == math.lcm(*(x.denominator for x in members))
            # the labels' number type, but explicit roots multiply exact rationals
            assert {type(d), *map(type, row)} == {int if roots else label_type}


@pytest.mark.parametrize("label_type", [int, Decimal], ids=["int", "decimal"])
def test_stepped_rows_from_any_n_lo_are_the_rows_from_zero(label_type):
    labels = [label_type(m) for m in range(-6, 7)]
    for family in STANDARD_FAMILIES:  # power, pochhammer and lucas: all stepped
        with exact_decimal():
            assert list(family.rows(labels, 5, 14)) == list(family.rows(labels, 0, 14))[5:]
