"""Families of product-representable number sequences.

A family is a two-parameter root set ``x[n,l]``; member (n, m) of the family
is the product

    X(n, m) = prod_{l=1..n} (m + x[n,l])

where ``m`` labels the individual sequences and ``n`` the members within each
sequence.  Four concrete families are provided:

* ``PowerFamily(c)``      -- constant roots c, so X(n, m) = (m + c)^n
* ``PochhammerFamily()``  -- roots l, so X(n, m) = (m+1)(m+2)...(m+n)
* ``LucasFamily(q)``      -- roots -2*sqrt(q)*cos(l*pi/(n+1)); X(n, m) is the
  general Lucas number L[n+1] of the recursion L[k] = m*L[k-1] - q*L[k-2]
  with L[0] = 0, L[1] = 1.  ``q = -1`` gives the generalized Fibonacci
  family (Fibonacci at m = 1, Pell at m = 2).
* ``ExplicitRootsFamily(generator)`` -- caller-supplied exact roots, with
  X(n, m) evaluated as the literal product.

Every family answers four methods, and no other module tests a family's type.
``label()`` names it in reports.  ``rows(labels, n_lo, n_hi)`` is its one
evaluation path: it yields each row n_lo..n_hi as ``(d, numerators)``, where d
is the row's common denominator and ``numerators[i] = d * X(n, labels[i])``.
The power, Pochhammer and Lucas families pass their step to one driver, which
runs it over every label at once, up from the empty product X(0, m) = 1: a
factor (b*m + a) over d = b^n for powers of c = a/b, (m + n) for rising
products, or the Lucas recursion, in the labels' number type (int, or
``decimal.Decimal`` inside :func:`seqfam.exact.exact_decimal`, so that writing
a member is a linear copy of its digits).  Explicit roots take the literal
product of each n on its own, in exact rationals at each label's integer
value, over the row's least common denominator.  :func:`exact_rows` reads a
window's rows as exact members, one row at a time, for ``X``, ``table``,
``float-check`` and ``oeis``; only it, the sweeps' integer kernels and
``seqfam table`` read ``rows``, and nothing is cached between calls.
``root_sum(n)`` is the exact root sum sum_l x[n,l], which the identities read.
``float_roots(n)`` gives the roots as floats in increasing l order, for
:mod:`seqfam.floatcheck`; those of LucasFamily(q) with q < 0 are purely
imaginary, ``complex(0.0, v)``.  Lucas-type roots are irrational, so those
members come from the integer recursion rather than the product.  All
evaluators are exact for every integer m, positive or negative.

``PowerFamily``, ``PochhammerFamily`` and ``LucasFamily`` are values: two are
equal, and hash alike, when they have the same type and parameters, so
``PowerFamily(-1) != LucasFamily(-1)``.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, List, NamedTuple, Sequence, Tuple, Union

from .exact import ExactScalar, format_exact, normalize, require_exact_decimal

Label = Union[int, Decimal]
#: One row of a family, (d, numerators): numerators[i] = d * X(n, labels[i]).
Row = Tuple[Label, List[Label]]


def _stepped(labels: Sequence[Label], n_lo: int, n_hi: int,
             step: Callable[[int, Label, List[Label], List[Label]], Row],
             three_term: bool = False) -> Iterator[Row]:
    """Rows n_lo..n_hi of a family's recurrence over every label at once, up from the empty
    product at n = 0 (over 1, row -1 all zero) in the labels' number type: ``step(n, d, row,
    prev)`` gives row n as (d, numerators) from row n-1, over d, and row n-2, which is held
    only when ``three_term``.  Decimal labels only inside exact_decimal(), which never rounds."""
    one = 1
    if labels and isinstance(labels[0], Decimal):
        require_exact_decimal()
        one = Decimal(1)
    d, row, prev = one, [one] * len(labels), [0] * len(labels)
    for n in range(n_hi + 1):
        if n:
            prev, (d, row) = row if three_term else None, step(n, d, row, prev)
        if n >= n_lo:
            yield d, row


def cleared(values: Sequence[ExactScalar]) -> Tuple[int, List[int]]:
    """Exact scalars as (d, numerators) over their least common denominator d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


class _Parameters:
    """Equality, hash, repr, immutability and pickling keyed on the parameters named
    in ``__slots__``, in order; objects of different types are never equal."""

    __slots__ = ()

    def __init__(self, *params) -> None:
        for name, value in zip(self.__slots__, params, strict=True):
            object.__setattr__(self, name, value)

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash(self._params())

    def __repr__(self) -> str:
        params = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({params})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._params()


class PowerFamily(_Parameters):
    """Constant roots x[n,l] = c; members are the pure powers (m + c)^n."""

    __slots__ = ("c",)

    def __init__(self, c: ExactScalar = 0) -> None:
        super().__init__(c)

    def label(self) -> str:
        return f"power:{format_exact(self.c)}"

    def rows(self, labels: Sequence[Label], n_lo: int, n_hi: int) -> Iterator[Row]:
        """For c = a/b: numerators (b*m + a)^n over d = b^n, one factor per step; they are
        coprime to d, as gcd(a, b) = 1."""
        a, b = self.c.numerator, self.c.denominator
        factors = [b * m + a for m in labels]
        return _stepped(labels, n_lo, n_hi,
                        lambda n, d, row, prev: (d * b, list(map(mul, row, factors))))

    def root_sum(self, n: int) -> ExactScalar:
        return normalize(n * self.c)

    def float_roots(self, n: int) -> List[float]:
        return [float(self.c)] * n


class PochhammerFamily(_Parameters):
    """Roots x[n,l] = l; members are the rising products (m+1)_n."""

    __slots__ = ()

    def label(self) -> str:
        return "pochhammer"

    def rows(self, labels: Sequence[Label], n_lo: int, n_hi: int) -> Iterator[Row]:
        """One factor (m + n) per step, over d = 1."""
        return _stepped(labels, n_lo, n_hi,
                        lambda n, d, row, prev: (d, [v * (m + n) for v, m in zip(row, labels)]))

    def root_sum(self, n: int) -> int:
        return n * (n + 1) // 2

    def float_roots(self, n: int) -> List[float]:
        return [float(l) for l in range(1, n + 1)]


class LucasFamily(_Parameters):
    """Scaled Chebyshev-cosine roots; members are general Lucas numbers.

    X(n, m) = L[n+1] for L[0] = 0, L[1] = 1, L[k] = m*L[k-1] - q*L[k-2].
    q must be a nonzero integer; q = -1 is the generalized Fibonacci family.
    """

    __slots__ = ("q",)

    def __init__(self, q: int) -> None:
        if not isinstance(q, int) or q == 0:
            raise ValueError(f"LucasFamily requires a nonzero integer q, got {q!r}")
        super().__init__(q)

    def label(self) -> str:
        return f"lucas:{self.q}"

    def rows(self, labels: Sequence[Label], n_lo: int, n_hi: int) -> Iterator[Row]:
        """L[n_lo+1..n_hi+1] over d = 1, stepped up from L[0] = 0, L[1] = 1."""
        q = self.q
        return _stepped(labels, n_lo, n_hi, lambda n, d, row, prev: (
            d, [m * v - q * u for m, v, u in zip(labels, row, prev)]), three_term=True)

    def root_sum(self, n: int) -> int:
        return 0  # the scaled Chebyshev zeros are symmetric about 0

    def float_roots(self, n: int) -> List[complex]:
        """-2*sqrt(q)*cos(l*pi/(n+1)); for q < 0 each is i*v, returned as complex(0.0, v)."""
        # the midpoint zero (2l = n+1) is exact by symmetry; cos(pi/2) is not
        scale = 2.0 * math.sqrt(abs(self.q))
        roots = [0.0 if 2 * l == n + 1 else -scale * math.cos(l * math.pi / (n + 1))
                 for l in range(1, n + 1)]
        return [complex(0.0, v) for v in roots] if self.q < 0 else roots


class ExplicitRootsFamily:
    """Family with caller-supplied exact roots.

    ``generator(n, l)`` must return an exact scalar for every n >= 1 and
    1 <= l <= n.  Members are evaluated as the literal product, so this is
    also the brute-force oracle for families that have a dedicated evaluator.
    """

    def __init__(self, generator: Callable[[int, int], ExactScalar], label: str = "roots"):
        self.generator = generator
        self._label = label

    def label(self) -> str:
        return self._label

    def rows(self, labels: Sequence[Label], n_lo: int, n_hi: int) -> Iterator[Row]:
        """The literal products of the n root factors, in exact rationals at each label's
        integer value, over their least common denominator: ints at any labels."""
        labels = [int(m) for m in labels]
        for n in range(n_lo, n_hi + 1):
            roots = [self.generator(n, l) for l in range(1, n + 1)]
            yield cleared([math.prod((m + x for x in roots), start=1) for m in labels])

    def root_sum(self, n: int) -> ExactScalar:
        return normalize(sum(self.generator(n, l) for l in range(1, n + 1)))

    def float_roots(self, n: int) -> List[float]:
        return [float(self.generator(n, l)) for l in range(1, n + 1)]

    def __repr__(self) -> str:
        return f"ExplicitRootsFamily({self._label!r})"


Family = Union[PowerFamily, PochhammerFamily, LucasFamily, ExplicitRootsFamily]

#: The generalized Fibonacci family (CLI selector "fib").
FIB = LucasFamily(-1)


def X(family: Family, n: int, m: int) -> ExactScalar:
    """Member (n, m) of the family, the product over l of (m + x[n,l]), at an integer m:
    1 at n = 0, the empty product, and an integer whenever all roots are integers."""
    (_, (member,)), = exact_rows(family, (n, n), (m, m))
    return member


def fibonacci_polynomial(n: int, m: int) -> int:
    """Closed form sum_{l=0..floor(n/2)} C(n-l, l) m^(n-2l).

    Evaluates to the same value as X(LucasFamily(-1), n, m) for every
    integer m, i.e. the generalized Fibonacci number with label m.
    """
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    return sum(math.comb(n - l, l) * m ** (n - 2 * l) for l in range(n // 2 + 1))


class SequenceWindow(NamedTuple):
    """A rectangular window of family members, rows indexed by n, columns by m."""

    family: Family
    n_range: Tuple[int, int]
    m_range: Tuple[int, int]
    values: Tuple[Tuple[ExactScalar, ...], ...]


def check_window(n_range: Tuple[int, int], m_range: Tuple[int, int], n_min: int = 0) -> None:
    """ValueError unless the inclusive ranges are nonempty and n >= n_min."""
    if n_range[0] > n_range[1] or m_range[0] > m_range[1]:
        raise ValueError(f"empty range: n {n_range}, m {m_range}")
    if n_range[0] < n_min:
        raise ValueError(f"member index n must be >= {n_min}, got {n_range[0]}")


def exact_rows(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int],
               n_min: int = 0) -> Iterator[Tuple[int, List[ExactScalar]]]:
    """Each row of an inclusive window as (n, [X(n, m) for each m]), one row at a time from
    ``family.rows``: ints, or reduced Fractions where the row's d is not 1.  ValueError
    (from :func:`check_window`) unless the ranges are nonempty and n >= n_min."""
    check_window(n_range, m_range, n_min)
    rows = family.rows(range(m_range[0], m_range[1] + 1), *n_range)
    for n, (d, row) in zip(range(n_range[0], n_range[1] + 1), rows):
        yield n, row if d == 1 else [normalize(Fraction(v, d)) for v in row]


def table(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int]) -> SequenceWindow:
    """Fully populated window of X values over inclusive n and m ranges."""
    values = tuple(tuple(row) for _, row in exact_rows(family, n_range, m_range))
    return SequenceWindow(family, tuple(n_range), tuple(m_range), values)
