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

Every family answers six methods, and no other module tests a family's type.
``label()`` names it in reports.  ``column(m, n_lo, n_hi)`` yields X(n_lo..n_hi,
m) in one pass of the family's own recurrence, stepped up from the empty
product X(0, m) = 1 (a factor (m + c) per step for powers, (m + n) for rising
products, the Lucas recursion, or the literal product per n for explicit
roots), in whatever number type m has.  ``X``, ``table`` and the sweeps run it
at int labels, and nothing is cached between calls.  ``formatted_column(m,
n_lo, n_hi)`` yields the same members as the strings ``format_exact`` writes,
and ``formatted_width`` the length of the longest of them: ``seqfam table``
reads these for a window of long members.  The three recurrence families
compute them by running ``column`` at a decimal label
(:func:`seqfam.exact.exact_decimal`), so that formatting a member is a linear
copy of its digits; ``power:a/b`` runs the ``power:a`` column at label b*m,
over b^n.  ``root_sum(n)`` is the exact root
sum sum_l x[n,l], which the identities read.  ``float_roots(n)`` gives the
roots as floats in increasing l order, for :mod:`seqfam.floatcheck`; those of
LucasFamily(q) with q < 0 are purely imaginary, ``complex(0.0, v)``.
Lucas-type roots are irrational, so those members come from the integer
recursion rather than the product.  All evaluators are exact for every
integer m, positive or negative.

``PowerFamily``, ``PochhammerFamily`` and ``LucasFamily`` are values: two are
equal, and hash alike, when they have the same type and parameters, so
``PowerFamily(-1) != LucasFamily(-1)``.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Callable, Iterator, List, NamedTuple, Tuple, Union

from .exact import (ExactScalar, decimal_text, decimal_width, format_exact, normalize,
                    require_exact_decimal)

Label = Union[int, Decimal]


def _powers(base, one, n_lo: int, n_hi: int) -> Iterator:
    """base^n_lo..base^n_hi, one factor per step from ``one``, the empty product in the
    labels' number type (a decimal 0 ** 0 raises, so no column starts from a power)."""
    value = one
    for n in range(n_hi + 1):
        if n >= n_lo:
            yield value
        value *= base


class _Parameters:
    """Equality, hash, repr, immutability and pickling keyed on the parameters named
    in ``__slots__``, in order; objects of different types are never equal.  Also the
    formatted column, from ``column`` run at a decimal label."""

    __slots__ = ()

    def formatted_column(self, m: int, n_lo: int, n_hi: int) -> Iterator[str]:
        """X(n_lo..n_hi, m) as ``format_exact`` writes them; inside ``exact_decimal()``."""
        return map(decimal_text, *self._decimal_parts(m, n_lo, n_hi))

    def formatted_width(self, m: int, n_lo: int, n_hi: int) -> int:
        """The length of the longest of ``formatted_column(m, n_lo, n_hi)``."""
        return max(map(decimal_width, *self._decimal_parts(m, n_lo, n_hi)))

    def _decimal_parts(self, m: int, n_lo: int, n_hi: int) -> Tuple[Iterator[Decimal], ...]:
        """The column as decimals: its members, or their numerators and denominators."""
        require_exact_decimal()
        return (self.column(Decimal(m), n_lo, n_hi),)

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

    def column(self, m: Label, n_lo: int, n_hi: int) -> Iterator[ExactScalar]:
        """X(n_lo..n_hi, m), one factor (m + c) per step."""
        return _powers(normalize(m + self.c), 0 * m + 1, n_lo, n_hi)

    def _decimal_parts(self, m: int, n_lo: int, n_hi: int) -> Tuple[Iterator[Decimal], ...]:
        # c = a/b: X(n, m) = (b*m + a)^n / b^n, in lowest terms as gcd(a, b) = 1
        a, b = self.c.numerator, self.c.denominator
        if b == 1:
            return super()._decimal_parts(m, n_lo, n_hi)
        require_exact_decimal()
        return (type(self)(a).column(Decimal(b * m), n_lo, n_hi),
                _powers(Decimal(b), Decimal(1), n_lo, n_hi))

    def root_sum(self, n: int) -> ExactScalar:
        return normalize(n * self.c)

    def float_roots(self, n: int) -> List[float]:
        return [float(self.c)] * n


class PochhammerFamily(_Parameters):
    """Roots x[n,l] = l; members are the rising products (m+1)_n."""

    __slots__ = ()

    def label(self) -> str:
        return "pochhammer"

    def column(self, m: Label, n_lo: int, n_hi: int) -> Iterator[ExactScalar]:
        """X(n_lo..n_hi, m), one factor (m + n) per step."""
        value = 0 * m + 1  # the empty product, in m's number type
        for n in range(n_hi + 1):
            if n >= n_lo:
                yield value
            value *= m + n + 1

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

    def column(self, m: Label, n_lo: int, n_hi: int) -> Iterator[ExactScalar]:
        """X(n_lo..n_hi, m) = L[n_lo+1..n_hi+1], stepped up from L[0] = 0, L[1] = 1."""
        prev, value = 0, 0 * m + 1  # L[1], the empty product, in m's number type
        for n in range(n_hi + 1):
            if n >= n_lo:
                yield value
            prev, value = value, m * value - self.q * prev

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

    def column(self, m: int, n_lo: int, n_hi: int) -> Iterator[ExactScalar]:
        """X(n_lo..n_hi, m), each the literal product of its n root factors."""
        return (normalize(math.prod((m + self.generator(n, l) for l in range(1, n + 1)),
                                    start=1))
                for n in range(n_lo, n_hi + 1))

    def formatted_column(self, m: int, n_lo: int, n_hi: int) -> Iterator[str]:
        return map(format_exact, self.column(m, n_lo, n_hi))

    def formatted_width(self, m: int, n_lo: int, n_hi: int) -> int:
        return max(map(len, self.formatted_column(m, n_lo, n_hi)))

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
    """Member (n, m) of the family: the product over l of (m + x[n,l]).

    n = 0 is the empty product (1 for every family); the result is an integer
    whenever all roots and m are integers.
    """
    if n < 0:
        raise ValueError(f"member index n must be >= 0, got {n}")
    return next(family.column(m, n, n))


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

    def row(self, n: int) -> Tuple[ExactScalar, ...]:
        return self.values[n - self.n_range[0]]


def check_window(n_range: Tuple[int, int], m_range: Tuple[int, int]) -> None:
    """ValueError unless the inclusive ranges are nonempty and n >= 0."""
    if n_range[0] > n_range[1] or m_range[0] > m_range[1]:
        raise ValueError(f"empty range: n {n_range}, m {m_range}")
    if n_range[0] < 0:
        raise ValueError(f"member index n must be >= 0, got {n_range[0]}")


def table(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int]) -> SequenceWindow:
    """Fully populated window of X values over inclusive n and m ranges."""
    check_window(n_range, m_range)
    n_lo, n_hi = n_range
    m_lo, m_hi = m_range
    # each column is drained as it is made: a generator per label would outweigh short members
    values = tuple(zip(*(tuple(family.column(m, n_lo, n_hi)) for m in range(m_lo, m_hi + 1))))
    return SequenceWindow(family=family, n_range=(n_lo, n_hi), m_range=(m_lo, m_hi), values=values)
