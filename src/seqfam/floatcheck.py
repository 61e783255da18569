"""Floating-point evaluation of the literal root products.

The exact evaluators in :mod:`seqfam.families` never touch the cosine
products that define the Lucas-type families; this module multiplies those
factors out in double precision and quantifies the agreement with the exact
members, validating the product representation numerically.  Factors are
multiplied in increasing l order; at desk scale (n <= 30, |m| <= 10) the
rounding error stays orders of magnitude below the default 1e-9 tolerance.
Members beyond the double range are compared exactly, and a product that
overflows to inf or nan has an infinite relative error, so it fails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .exact import ExactScalar, format_exact
from .families import Family, table


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
        return {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "exact": format_exact(self.exact),
            "float_real": json_float(self.real),
            "float_imag": json_float(self.imag),
            "relative_error": json_float(self.relative_error),
            "imaginary_residual": json_float(self.imaginary_residual),
        }


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
        return abs(real - float(exact)) / max(1.0, abs(float(exact)))
    except OverflowError:
        return float(abs(Fraction(real) - exact) / abs(exact))


def check_n(n_range: Tuple[int, int]) -> None:
    """ValueError unless every member index is at least 1: X(0, m) has no roots."""
    if n_range[0] < 1:
        raise ValueError(f"member index n must be >= 1, got {n_range[0]}")


def compare_grid(family: Family, n_range: Tuple[int, int], m_range: Tuple[int, int]
                 ) -> List[FloatCompareResult]:
    """Multiply the n root factors (m + x[n,l]) in double precision at each point
    of an inclusive (n, m) rectangle, n-major, against the exact member.

    Where the family's float roots are complex (LucasFamily with q < 0) the
    product's imaginary part is expected to cancel to rounding noise.
    """
    check_n(n_range)
    window = table(family, n_range, m_range)
    results = []
    for n, row in zip(range(n_range[0], n_range[1] + 1), window.values):
        roots = family.float_roots(n)
        for m, exact in zip(range(m_range[0], m_range[1] + 1), row):
            product = 1.0  # complex only for complex roots, so real rows keep imag = 0.0
            for r in roots:
                product *= m + r
            results.append(FloatCompareResult(
                family=family.label(), n=n, m=m, exact=exact, real=product.real,
                imag=product.imag, relative_error=_relative_error(product.real, exact),
                imaginary_residual=abs(product.imag)))
    return results

