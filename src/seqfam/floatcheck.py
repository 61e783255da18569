"""Floating-point evaluation of the literal root products.

The exact evaluators in :mod:`seqfam.families` never touch the cosine
products that define the Lucas-type families; this module multiplies those
factors out in double precision and quantifies the agreement with the exact
members, validating the product representation numerically.  Factors are
multiplied in increasing l order; at desk scale (n <= 30, |m| <= 10) the
rounding error stays orders of magnitude below the default 1e-9 tolerance.
Members beyond the double range are compared exactly, and a product that
overflows to inf or nan has an infinite relative error, so it fails.  The
points stream from :func:`seqfam.families.exact_rows`, one row at a time, and
``summarize`` folds them into a report that holds only the failing points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Tuple

from .exact import ExactScalar, format_exact
from .families import Family, exact_rows


#: The keys of ``FloatCompareResult.to_json_dict()``, in order: float-check's csv columns.
FIELDS = ("family", "n", "m", "exact", "float_real", "float_imag", "relative_error",
          "imaginary_residual")


class FloatCompareResult(NamedTuple):
    """Float product vs exact member at one point.

    ``real``/``imag`` are the components of the evaluated product; for
    families with complex root factors (LucasFamily with q < 0) the imaginary
    part should cancel, and its magnitude is kept as ``imaginary_residual``.
    ``relative_error`` uses max(1, |exact|) as denominator so exact zeros are
    handled without special cases.
    """

    family: str
    n: int
    m: int
    exact: ExactScalar
    real: float
    imag: float
    relative_error: float
    imaginary_residual: float

    @property
    def imaginary_ratio(self) -> float:
        """imaginary_residual / max(1, |exact|)."""
        return self.imaginary_residual / _magnitude(self.exact)

    def within(self, tol: float) -> bool:
        return self.relative_error < tol and self.imaginary_ratio < tol

    def to_json_dict(self) -> dict:
        floats = self.real, self.imag, self.relative_error, self.imaginary_residual
        return dict(zip(FIELDS, (self.family, self.n, self.m, format_exact(self.exact),
                                 *map(json_float, floats))))


def json_float(value: float) -> object:
    """A float as JSON allows it: finite as is, otherwise "inf", "-inf" or "nan"."""
    return value if math.isfinite(value) else str(value)


def _magnitude(exact: ExactScalar) -> float:
    """max(1, |exact|) as a float; inf beyond the double range."""
    try:
        return max(1.0, abs(float(exact)))
    except OverflowError:
        return math.inf


def _relative_error(real: float, exact: ExactScalar) -> float:
    """|real - exact| / max(1, |exact|), exact beyond the double range; inf if real is."""
    if not math.isfinite(real):
        return math.inf
    try:
        return abs(real - float(exact)) / _magnitude(exact)
    except OverflowError:
        return float(abs(Fraction(real) - exact) / abs(exact))


def iter_compare_grid(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int]
                      ) -> Iterator[FloatCompareResult]:
    """Multiply the n root factors (m + x[n,l]) in double precision at each point of an
    inclusive (n, m) rectangle, n-major, against the exact member, read from
    :func:`exact_rows` one row at a time; n >= 1, as X(0, m) has no roots.  Where the float
    roots are complex (LucasFamily with q < 0) the product's imaginary part should cancel to
    rounding noise."""
    label = family.label()
    for n, members in exact_rows(family, n_range, m_range, 1):
        roots = family.float_roots(n)
        for m, exact in enumerate(members, m_range[0]):
            product = 1.0  # complex only for complex roots, so real rows keep imag = 0.0
            for r in roots:
                product *= m + r
            yield FloatCompareResult(label, n, m, exact, product.real, product.imag,
                                     _relative_error(product.real, exact), abs(product.imag))


def compare_grid(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int]
                 ) -> List[FloatCompareResult]:
    """The points of :func:`iter_compare_grid`, as a list."""
    return list(iter_compare_grid(family, n_range, m_range))


def summarize(results: Iterable[FloatCompareResult], tol: float
              ) -> Tuple[int, float, float, List[FloatCompareResult]]:
    """(count, max relative error, max imaginary ratio, the points not within ``tol``).
    Each maximum is that of max(..., default=0.0): seeded from the first point, so a
    nan there is kept and a later one passed over."""
    count, worst_rel, worst_imag, failures = 0, 0.0, 0.0, []
    for count, r in enumerate(results, 1):
        worst_rel = max(worst_rel, r.relative_error) if count > 1 else r.relative_error
        worst_imag = max(worst_imag, r.imaginary_ratio) if count > 1 else r.imaginary_ratio
        if not r.within(tol):
            failures.append(r)
    return count, worst_rel, worst_imag, failures
