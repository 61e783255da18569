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

Every family answers four methods, and no other module tests a family's
type.  ``label()`` names it in reports.  ``column(m, n_lo, n_hi)`` returns
X(n_lo..n_hi, m) in one pass of the family's own recurrence (a factor (m + c)
per step for powers, (m + n) for rising products, the Lucas recursion, or the
literal product per n for explicit roots); ``X`` and ``table`` both read this
one path, and nothing is cached between calls.  ``root_sum(n)`` is the exact
root sum sum_l x[n,l], which the identities read.  ``float_roots(n)`` gives
the roots as floats in increasing l order, for :mod:`seqfam.floatcheck`;
those of LucasFamily(q) with q < 0 are purely imaginary, ``complex(0.0, v)``.
Lucas-type roots are irrational, so those members come from the integer
recursion rather than the product.  All evaluators are exact for every
integer m, positive or negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

from .exact import ExactScalar, format_exact, normalize, pochhammer


@dataclass(frozen=True)
class PowerFamily:
    """Constant roots x[n,l] = c; members are the pure powers (m + c)^n."""

    c: ExactScalar = 0

    def label(self) -> str:
        return f"power:{format_exact(self.c)}"

    def column(self, m: int, n_lo: int, n_hi: int) -> List[ExactScalar]:
        """X(n_lo..n_hi, m), one factor (m + c) per step."""
        base = normalize(m + self.c)
        out = [normalize(base ** n_lo)]
        for _ in range(n_lo, n_hi):
            out.append(out[-1] * base)
        return out

    def root_sum(self, n: int) -> ExactScalar:
        return normalize(n * self.c)

    def float_roots(self, n: int) -> List[float]:
        return [float(self.c)] * n


@dataclass(frozen=True)
class PochhammerFamily:
    """Roots x[n,l] = l; members are the rising products (m+1)_n."""

    def label(self) -> str:
        return "pochhammer"

    def column(self, m: int, n_lo: int, n_hi: int) -> List[ExactScalar]:
        """X(n_lo..n_hi, m), one factor (m + n) per step."""
        out = [pochhammer(m + 1, n_lo)]
        for n in range(n_lo + 1, n_hi + 1):
            out.append(out[-1] * (m + n))
        return out

    def root_sum(self, n: int) -> int:
        return n * (n + 1) // 2

    def float_roots(self, n: int) -> List[float]:
        return [float(l) for l in range(1, n + 1)]


@dataclass(frozen=True)
class LucasFamily:
    """Scaled Chebyshev-cosine roots; members are general Lucas numbers.

    X(n, m) = L[n+1] for L[0] = 0, L[1] = 1, L[k] = m*L[k-1] - q*L[k-2].
    q must be a nonzero integer; q = -1 is the generalized Fibonacci family.
    """

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q == 0:
            raise ValueError(f"LucasFamily requires a nonzero integer q, got {self.q!r}")

    def label(self) -> str:
        return f"lucas:{self.q}"

    def column(self, m: int, n_lo: int, n_hi: int) -> List[ExactScalar]:
        """X(n_lo..n_hi, m) = L[n_lo+1..n_hi+1], stepped up from L[0] = 0, L[1] = 1."""
        prev, value, out = 0, 1, []
        for n in range(n_hi + 1):
            if n >= n_lo:
                out.append(value)
            prev, value = value, m * value - self.q * prev
        return out

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

    def column(self, m: int, n_lo: int, n_hi: int) -> List[ExactScalar]:
        """X(n_lo..n_hi, m), each the literal product of its n root factors."""
        return [normalize(math.prod((m + self.generator(n, l) for l in range(1, n + 1)),
                                    start=1))
                for n in range(n_lo, n_hi + 1)]

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
    return family.column(m, n, n)[0]


def fibonacci_polynomial(n: int, m: int) -> int:
    """Closed form sum_{l=0..floor(n/2)} C(n-l, l) m^(n-2l).

    Evaluates to the same value as X(LucasFamily(-1), n, m) for every
    integer m, i.e. the generalized Fibonacci number with label m.
    """
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    return sum(math.comb(n - l, l) * m ** (n - 2 * l) for l in range(n // 2 + 1))


@dataclass(frozen=True)
class SequenceWindow:
    """A rectangular window of family members, rows indexed by n, columns by m."""

    family: Family
    n_range: Tuple[int, int]
    m_range: Tuple[int, int]
    values: Tuple[Tuple[ExactScalar, ...], ...]

    def row(self, n: int) -> Tuple[ExactScalar, ...]:
        return self.values[n - self.n_range[0]]


def table(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int]) -> SequenceWindow:
    """Fully populated window of X values over inclusive n and m ranges."""
    n_lo, n_hi = n_range
    m_lo, m_hi = m_range
    if n_lo > n_hi or m_lo > m_hi:
        raise ValueError(f"empty range: n {n_range}, m {m_range}")
    if n_lo < 0:
        raise ValueError(f"member index n must be >= 0, got {n_lo}")
    values = tuple(zip(*(family.column(m, n_lo, n_hi) for m in range(m_lo, m_hi + 1))))
    return SequenceWindow(family=family, n_range=(n_lo, n_hi), m_range=(m_lo, m_hi), values=values)
