"""Catalog of the product-family identities and the exact sweep driver.

Every entry names one identity between members X(n, m) of a single family,
written so that ``lhs - rhs`` is exactly zero whenever the identity holds.
All arithmetic is exact (ints, with Fractions wherever an entry divides by
n! or by a power of m); a check passes iff its residual is the exact zero.

Catalog, with S_n denoting the root sum ``script_X(family, n)``:

    L1                S_n = (-1)^n/n! * sum_{l=1..n} (-1)^l C(n,l) l X(n,l) - n(n+1)/2
    L2_SHIFT          same with X(n,l+m), extra term -n*m            (any m)
    L2_SCALE          same with X(n,l*m)/m^(n-1), constant -n(n+1)m/2  (m != 0)
    REC_M             X(n,m+1) = (-1)^n sum_{l=1..n} (-1)^l C(n,l-1) X(n,l+m-n) + n!
    SCALE_ID          1/m^(n-1) sum (-1)^l C(n,l) l X(n,lm)
                          = sum (-1)^l C(n,l) l X(n,l) + (-1)^(n-1)(1-m) n (n+1)!/2
    EXPL_POS          X(n,m)  = sum_{l=0..n-1} (-1)^(n+l) (n-l)/(l-m) C(m,n) C(n,l) X(n,l)
                          + m!/(m-n)!                                 (m >= n)
    EXPL_NEG          X(n,-m) = same sum over X(n,-l) + (-1)^n m!/(m-n)!   (m >= n)
    SUBFAM_ZERO       0 = sum_{l=0..n} (-1)^l C(n,l) l^q X(n-p, m-n+l)   (0 <= q < p)
    SUBFAM_FACT       sum_{l=0..n} (-1)^l C(n,l) l^p X(n-p, m-n+l) = (-1)^n n!
    FIB_POSNEG        sum_{l=1..n} (-1)^l C(n,l) l (X(n,-l) - X(n,l))
                          = 0 (n even) / n(n+1)! (n odd)       [lucas:-1 only]
    FIB_POSNEG_COMPL  sum_{l=1..n} (-1)^l C(n,l) l (X(n,-l) + (-1)^n X(n,l))
                          = n(n+1)!                            [lucas:-1 only]
    FIB_POLY          X(n,m) equals the closed-form polynomial
                      sum_l C(n-l,l) m^(n-2l)                  [lucas:-1 only]

The first nine entries hold for every family; the last three are specific to
the generalized Fibonacci family, where the root sum vanishes identically.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact import ExactScalar, falling_factorial, format_exact, normalize
from .families import FIB, Family, X, family_label, fibonacci_polynomial, script_X


class Identity(str, Enum):
    L1 = "L1"
    L2_SHIFT = "L2_SHIFT"
    L2_SCALE = "L2_SCALE"
    REC_M = "REC_M"
    SCALE_ID = "SCALE_ID"
    EXPL_POS = "EXPL_POS"
    EXPL_NEG = "EXPL_NEG"
    SUBFAM_ZERO = "SUBFAM_ZERO"
    SUBFAM_FACT = "SUBFAM_FACT"
    FIB_POSNEG = "FIB_POSNEG"
    FIB_POSNEG_COMPL = "FIB_POSNEG_COMPL"
    FIB_POLY = "FIB_POLY"


ALL_IDENTITIES: Tuple[Identity, ...] = tuple(Identity)

#: Entries that only apply to the generalized Fibonacci family.
FIB_ONLY = frozenset({Identity.FIB_POSNEG, Identity.FIB_POSNEG_COMPL, Identity.FIB_POLY})

#: Entries whose parameter point includes m.
USES_M = frozenset(Identity) - {Identity.L1, Identity.FIB_POSNEG, Identity.FIB_POSNEG_COMPL}

#: Entries whose parameter point includes p (and, for SUBFAM_ZERO, q).
USES_P = frozenset({Identity.SUBFAM_ZERO, Identity.SUBFAM_FACT})


class DomainError(ValueError):
    """A parameter point violates an identity's stated hypothesis."""


@dataclass(frozen=True)
class IdentityCheck:
    """Result of one identity evaluated at one parameter point."""

    identity: Identity
    family: Family
    params: Dict[str, int]
    lhs: ExactScalar
    rhs: ExactScalar
    residual: ExactScalar
    passed: bool

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "identity": self.identity.value,
            "family": family_label(self.family),
            "params": dict(self.params),
            "lhs": format_exact(self.lhs),
            "rhs": format_exact(self.rhs),
            "residual": format_exact(self.residual),
            "pass": self.passed,
        }


def _require(condition: bool, identity: Identity, constraint: str) -> None:
    if not condition:
        raise DomainError(f"{identity.value} requires {constraint}")


def _validate(identity: Identity, family: Family, n: int,
              m: Optional[int], p: Optional[int], q: Optional[int]) -> None:
    _require(n >= 1, identity, f"n >= 1 (got n={n})")
    if identity in FIB_ONLY:
        _require(family == FIB, identity,
                 f"the generalized Fibonacci family lucas:-1 (got {family_label(family)})")
    if identity in USES_M:
        _require(m is not None, identity, "an m parameter")
    if identity in (Identity.L2_SCALE, Identity.SCALE_ID):
        _require(m != 0, identity, "m != 0")
    if identity in (Identity.EXPL_POS, Identity.EXPL_NEG):
        _require(m is not None and m >= n, identity, f"m >= n (got n={n}, m={m})")
    if identity in USES_P:
        _require(p is not None and p >= 1, identity, f"p >= 1 (got p={p})")
        _require(p is not None and n >= p + 1, identity, f"n >= p+1 (got n={n}, p={p})")
    if identity is Identity.SUBFAM_ZERO:
        _require(q is not None and p is not None and 0 <= q < p, identity,
                 f"0 <= q < p (got p={p}, q={q})")


def _weights(n: int, k: int = 0) -> List[int]:
    """(-1)^l C(n, l) l^k for l = 0..n."""
    return [(math.comb(n, l) if l % 2 == 0 else -math.comb(n, l)) * l ** k for l in range(n + 1)]


def _sides_l1(family: Family, n: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    total = sum(signed[l] * l * X(family, n, l) for l in range(1, n + 1))
    rhs = Fraction((-1) ** n, math.factorial(n)) * total - Fraction(n * (n + 1), 2)
    return script_X(family, n), normalize(rhs)


def _sides_l2_shift(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    total = sum(signed[l] * l * X(family, n, l + m) for l in range(1, n + 1))
    rhs = Fraction((-1) ** n, math.factorial(n)) * total - Fraction(n * (n + 1), 2) - n * m
    return script_X(family, n), normalize(rhs)


def _sides_l2_scale(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    total = sum(signed[l] * l * X(family, n, l * m) for l in range(1, n + 1))
    rhs = (Fraction((-1) ** n, math.factorial(n) * m ** (n - 1)) * total
           - Fraction(n * (n + 1) * m, 2))
    return script_X(family, n), normalize(rhs)


def _rec_m_rhs(family: Family, n: int, m: int) -> ExactScalar:
    sign = (-1) ** n
    total = 0
    for l in range(1, n + 1):
        total += (-1) ** l * math.comb(n, l - 1) * X(family, n, l + m - n)
    return normalize(sign * total + math.factorial(n))


def _sides_rec_m(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    return X(family, n, m + 1), _rec_m_rhs(family, n, m)


def _sides_scale_id(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    scaled = sum(signed[l] * l * X(family, n, l * m) for l in range(1, n + 1))
    plain = sum(signed[l] * l * X(family, n, l) for l in range(1, n + 1))
    lhs = Fraction(1, m ** (n - 1)) * scaled
    rhs = plain + Fraction((-1) ** (n - 1) * (1 - m) * n * math.factorial(n + 1), 2)
    return normalize(lhs), normalize(rhs)


def _expl_sum(family: Family, n: int, m: int, negate: bool) -> ExactScalar:
    c_mn = math.comb(m, n)
    total: ExactScalar = 0
    for l in range(n):
        coeff = Fraction((-1) ** (n + l) * (n - l) * c_mn * math.comb(n, l), l - m)
        total += coeff * X(family, n, -l if negate else l)
    return total


def _sides_expl_pos(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    rhs = _expl_sum(family, n, m, negate=False) + falling_factorial(m, n)
    return X(family, n, m), normalize(rhs)


def _sides_expl_neg(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    rhs = _expl_sum(family, n, m, negate=True) + (-1) ** n * falling_factorial(m, n)
    return X(family, n, -m), normalize(rhs)


def _sides_subfam_zero(family: Family, n: int, m: int, p: int, q: int) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    base = m - n
    if q == 0:
        total = sum(signed[l] * X(family, n - p, base + l) for l in range(n + 1))
    else:
        total = sum(signed[l] * l ** q * X(family, n - p, base + l) for l in range(1, n + 1))
    return normalize(total), 0


def _sides_subfam_fact(family: Family, n: int, m: int, p: int, *_
                       ) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    base = m - n
    total = sum(signed[l] * l ** p * X(family, n - p, base + l) for l in range(1, n + 1))
    return normalize(total), (-1) ** n * math.factorial(n)


def _sides_fib_posneg(family: Family, n: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    total = sum(signed[l] * l * (X(family, n, -l) - X(family, n, l)) for l in range(1, n + 1))
    rhs = 0 if n % 2 == 0 else n * math.factorial(n + 1)
    return total, rhs


def _sides_fib_posneg_compl(family: Family, n: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    signed = _weights(n)
    sign = (-1) ** n
    total = sum(signed[l] * l * (X(family, n, -l) + sign * X(family, n, l))
                for l in range(1, n + 1))
    return total, n * math.factorial(n + 1)


def _sides_fib_poly(family: Family, n: int, m: int, *_) -> Tuple[ExactScalar, ExactScalar]:
    return fibonacci_polynomial(n, m), X(family, n, m)


def _params_dict(identity: Identity, n: int, m: Optional[int],
                 p: Optional[int], q: Optional[int]) -> Dict[str, int]:
    params = {"n": n}
    if identity in USES_M:
        params["m"] = m
    if identity in USES_P:
        params["p"] = p
    if identity is Identity.SUBFAM_ZERO:
        params["q"] = q
    return params


def _make_check(identity: Identity, family: Family, n: int, m: Optional[int],
                p: Optional[int], q: Optional[int],
                lhs: ExactScalar, rhs: ExactScalar) -> IdentityCheck:
    residual = normalize(lhs - rhs)
    return IdentityCheck(
        identity=identity,
        family=family,
        params=_params_dict(identity, n, m, p, q),
        lhs=normalize(lhs),
        rhs=normalize(rhs),
        residual=residual,
        passed=residual == 0,
    )


def eval_identity(identity: Identity, family: Family, *, n: int,
                  m: Optional[int] = None, p: Optional[int] = None,
                  q: Optional[int] = None) -> IdentityCheck:
    """Evaluate one catalog entry at one parameter point, exactly.

    Raises :class:`DomainError` when the point violates the entry's stated
    hypothesis; an identity that merely fails to hold is reported through the
    returned check, never as an exception.
    """
    identity = Identity(identity)
    _validate(identity, family, n, m, p, q)
    lhs, rhs = _ENTRIES[identity][0](family, n, m, p, q)
    return _make_check(identity, family, n, m, p, q, lhs, rhs)


def eval_m_recursion(family: Family, n: int, m: int) -> IdentityCheck:
    """Check the row recursion X(n,m+1) = sum_{l=0..n-1} (-1)^l C(n,l+1) X(n,m-l) + n!.

    This is the member recursion of the catalog entry REC_M with the summation
    reversed; both right-hand sides are computed and cross-asserted equal, so
    the two transcriptions can never drift apart.
    """
    if n < 1:
        raise DomainError(f"REC_M requires n >= 1 (got n={n})")
    rhs = normalize(
        sum((-1) ** l * math.comb(n, l + 1) * X(family, n, m - l) for l in range(n))
        + math.factorial(n)
    )
    other = _rec_m_rhs(family, n, m)
    if rhs != other:
        raise ArithmeticError(
            f"row-recursion transcriptions disagree at n={n}, m={m}: {rhs} != {other}")
    return _make_check(Identity.REC_M, family, n, m, None, None, X(family, n, m + 1), rhs)


# ---------------------------------------------------------------------------
# Sweeps

Bound = Union[int, str]  # int, or "n" to couple the bound to the current n


def resolve_bound(bound: Bound, n: int) -> int:
    if isinstance(bound, str):
        if bound != "n":
            raise ValueError(f"symbolic bound must be 'n', got {bound!r}")
        return n
    return bound


@dataclass(frozen=True)
class SweepRanges:
    """Inclusive parameter ranges for a sweep.

    m bounds may be the string "n", resolved against the current n (so
    m_range=("n", 20) sweeps m from n to 20 at every n).  p and q default to
    every admissible value for the current point.
    """

    n: Tuple[int, int]
    m: Optional[Tuple[Bound, Bound]] = None
    p: Optional[Tuple[int, int]] = None
    q: Optional[Tuple[int, int]] = None

    def describe(self) -> Dict[str, str]:
        out = {"n": f"{self.n[0]}..{self.n[1]}"}
        out["m"] = f"{self.m[0]}..{self.m[1]}" if self.m else "none"
        out["p"] = f"{self.p[0]}..{self.p[1]}" if self.p else "admissible"
        out["q"] = f"{self.q[0]}..{self.q[1]}" if self.q else "admissible"
        return out

    def m_values(self, n: int) -> List[int]:
        if self.m is None:
            return []
        lo = resolve_bound(self.m[0], n)
        hi = resolve_bound(self.m[1], n)
        return list(range(lo, hi + 1))

    def p_values(self, n: int) -> List[int]:
        lo, hi = 1, n - 1
        if self.p is not None:
            lo, hi = max(lo, self.p[0]), min(hi, self.p[1])
        return list(range(lo, hi + 1))

    def q_values(self, p: int) -> List[int]:
        lo, hi = 0, p - 1
        if self.q is not None:
            lo, hi = max(lo, self.q[0]), min(hi, self.q[1])
        return list(range(lo, hi + 1))


@dataclass
class SweepReport:
    """Outcome of an identity sweep over a parameter grid."""

    identities: List[str]
    families: List[str]
    ranges: Dict[str, str]
    total_checks: int
    failures: List[IdentityCheck]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": "identity-sweep",
            "identities": list(self.identities),
            "families": list(self.families),
            "ranges": dict(self.ranges),
            "total_checks": self.total_checks,
            "failure_count": len(self.failures),
            "failures": [check.to_json_dict() for check in self.failures],
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _failure_key(check: IdentityCheck) -> Tuple:
    params = check.params
    return (check.identity.value, family_label(check.family), params.get("n", 0),
            params.get("m", 0), params.get("p", 0), params.get("q", 0))


# Fraction-free sweep kernels.  Every entry is linear in the members of one
# row X(r, .), so a sweep cell builds each row once, as ints over the row's
# common denominator d, and decides every check as an integer equation: both
# sides multiplied by one nonzero clearing factor (d, n!, m^(n-1), the (l - m)
# product or 2).  A kernel yields (m, p, q, passed) for each check at one n;
# ``rows[r]`` is (d, row), ``row[at[k]]`` is d * X(r, k), and every run of
# consecutive labels that a kernel slices is in the window whole.

Rows = List[Tuple[int, List[int]]]
Index = Dict[int, int]


def _int_rows(family: Family, n_hi: int, labels: List[int]) -> Rows:
    rows = []
    for row in zip(*(family.column(m, 0, n_hi) for m in labels)):
        d = math.lcm(*(v.denominator for v in row))
        rows.append((d, [v.numerator * (d // v.denominator) for v in row]))
    return rows


def _kernel_l1(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges):
    d, row = rows[n]
    fd = math.factorial(n) * d
    total = sum(map(mul, _weights(n, 1), row[at[0]:at[0] + n + 1]))
    yield None, None, None, script_X(family, n) * fd == (-1) ** n * total - n * (n + 1) // 2 * fd


def _kernel_l2_shift(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges):
    d, row = rows[n]
    fd, sign, w = math.factorial(n) * d, (-1) ** n, _weights(n, 1)
    lhs = script_X(family, n) * fd
    for m in ranges.m_values(n):
        total = sum(map(mul, w, row[at[m]:at[m] + n + 1]))
        yield m, None, None, lhs == sign * total - (n * (n + 1) // 2 + n * m) * fd


def _kernel_l2_scale(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges):
    d, row = rows[n]
    fd, sign, w = math.factorial(n) * d, (-1) ** n, _weights(n, 1)
    root_sum = script_X(family, n)
    for m in filter(None, ranges.m_values(n)):  # m != 0
        k = fd * m ** (n - 1)
        total = sum(map(mul, w, [row[at[l * m]] for l in range(n + 1)]))
        yield m, None, None, root_sum * k == sign * total - n * (n + 1) * m // 2 * k


def _kernel_rec_m(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges):
    d, row = rows[n]
    w = [(-1) ** (n + l) * math.comb(n, l - 1) for l in range(1, n + 1)]
    fd = math.factorial(n) * d
    for m in ranges.m_values(n):
        s = at[m]
        yield m, None, None, row[s + 1] == sum(map(mul, w, row[s - n + 1:s + 1])) + fd


def _kernel_scale_id(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges):
    d, row = rows[n]
    w = _weights(n, 1)
    plain = sum(map(mul, w, row[at[0]:at[0] + n + 1]))
    half = (-1) ** (n - 1) * n * math.factorial(n + 1) // 2 * d
    for m in filter(None, ranges.m_values(n)):  # m != 0
        scaled = sum(map(mul, w, [row[at[l * m]] for l in range(n + 1)]))
        yield m, None, None, scaled == m ** (n - 1) * (plain + (1 - m) * half)


def _kernel_expl(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges, sign: int):
    d, row = rows[n]
    coeffs = [(-1) ** (n + l) * (n - l) * math.comb(n, l) for l in range(n)]
    values = row[at[0]:at[0] + n] if sign > 0 else row[at[1 - n]:at[0] + 1][::-1]  # X(n, sign*l)
    for m in ranges.m_values(n):
        if m >= n:
            ff, c = math.perm(m, n), math.comb(m, n)
            w = [a * c * (ff // (l - m)) for l, a in enumerate(coeffs)]
            total = sum(map(mul, w, values)) + sign ** n * ff * ff * d
            yield m, None, None, ff * row[at[sign * m]] == total


def _kernel_subfam(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges,
                   fact: bool):
    weights = [_weights(n, k) for k in range(n)]
    target = (-1) ** n * math.factorial(n) if fact else 0
    for p in ranges.p_values(n):
        qs = [p] if fact else ranges.q_values(p)
        d, row = rows[n - p]
        for m in ranges.m_values(n):
            segment = row[at[m - n]:at[m] + 1]
            for q in qs:
                yield m, p, None if fact else q, sum(map(mul, weights[q], segment)) == target * d


def _kernel_fib_posneg(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges,
                       compl: bool):
    d, row = rows[n]
    w = _weights(n, 1)
    pos = sum(map(mul, w, row[at[0]:at[0] + n + 1]))
    neg = sum(map(mul, w, row[at[-n]:at[0] + 1][::-1]))
    rhs = n * math.factorial(n + 1) * d
    yield None, None, None, (neg + (-1) ** n * pos == rhs) if compl else (neg - pos == n % 2 * rhs)


def _kernel_fib_poly(rows: Rows, at: Index, family: Family, n: int, ranges: SweepRanges):
    d, row = rows[n]
    for m in ranges.m_values(n):
        yield m, None, None, row[at[m]] == fibonacci_polynomial(n, m) * d


#: Per catalog entry: its exact sides at one point (the oracle) and its sweep kernel.
_ENTRIES = {
    Identity.L1: (_sides_l1, _kernel_l1),
    Identity.L2_SHIFT: (_sides_l2_shift, _kernel_l2_shift),
    Identity.L2_SCALE: (_sides_l2_scale, _kernel_l2_scale),
    Identity.REC_M: (_sides_rec_m, _kernel_rec_m),
    Identity.SCALE_ID: (_sides_scale_id, _kernel_scale_id),
    Identity.EXPL_POS: (_sides_expl_pos, functools.partial(_kernel_expl, sign=1)),
    Identity.EXPL_NEG: (_sides_expl_neg, functools.partial(_kernel_expl, sign=-1)),
    Identity.SUBFAM_ZERO: (_sides_subfam_zero, functools.partial(_kernel_subfam, fact=False)),
    Identity.SUBFAM_FACT: (_sides_subfam_fact, functools.partial(_kernel_subfam, fact=True)),
    Identity.FIB_POSNEG: (_sides_fib_posneg, functools.partial(_kernel_fib_posneg, compl=False)),
    Identity.FIB_POSNEG_COMPL: (_sides_fib_posneg_compl,
                                functools.partial(_kernel_fib_posneg, compl=True)),
    Identity.FIB_POLY: (_sides_fib_poly, _kernel_fib_poly),
}


def _run_cell(identity: Identity, family: Family, ranges: SweepRanges
              ) -> Tuple[int, List[IdentityCheck]]:
    """Evaluate every admissible point of one (identity, family) pair.

    Each failing point is recorded as :func:`eval_identity` checks it."""
    n_values = range(max(ranges.n[0], 1), ranges.n[1] + 1)
    if (identity in FIB_ONLY and family != FIB) or not n_values:
        return 0, []
    read = set()  # labels of the members the cell reads: near 0, near m and near -m
    for n in n_values:
        ms = ranges.m_values(n) or [0]
        read.update(range(-n, n + 1), range(ms[0] - n, ms[-1] + n + 1), range(-ms[-1], 1 - ms[0]))
        if identity in (Identity.L2_SCALE, Identity.SCALE_ID):
            read.update(l * m for m in ms for l in range(n + 1))
    labels = sorted(read)
    rows = _int_rows(family, n_values[-1], labels)
    at = {label: i for i, label in enumerate(labels)}
    count = 0
    failures: List[IdentityCheck] = []
    for n in n_values:
        for m, p, q, passed in _ENTRIES[identity][1](rows, at, family, n, ranges):
            count += 1
            if not passed:
                failures.append(eval_identity(identity, family, n=n, m=m, p=p, q=q))
    return count, failures


def _run_cell_star(args: Tuple[Identity, Family, SweepRanges]) -> Tuple[int, List[IdentityCheck]]:
    return _run_cell(*args)


def sweep(identities: Sequence[Identity], families: Sequence[Family],
          ranges: SweepRanges, workers: int = 1) -> SweepReport:
    """Verify identities over every admissible point of the grid.

    Failures are data (collected, sorted, reported), never exceptions.  The
    report content is independent of ``workers``; only wall time changes.
    ``workers`` is clamped to the CPU count and to the number of cells.
    """
    identities = [Identity(i) for i in identities]
    started = time.perf_counter()
    cells = [(identity, family, ranges) for identity in identities for family in families]

    workers = max(1, min(os.cpu_count() or 1, len(cells), workers))
    if workers > 1 and not _picklable(families):
        workers = 1

    total = 0
    failures: List[IdentityCheck] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for count, cell_failures in pool.map(_run_cell_star, cells, chunksize=1):
                total += count
                failures.extend(cell_failures)
    else:
        for cell in cells:
            count, cell_failures = _run_cell_star(cell)
            total += count
            failures.extend(cell_failures)

    failures.sort(key=_failure_key)
    return SweepReport(
        identities=[i.value for i in identities],
        families=[family_label(f) for f in families],
        ranges=ranges.describe(),
        total_checks=total,
        failures=failures,
        wall_time_s=time.perf_counter() - started,
    )


def _picklable(families: Sequence[Family]) -> bool:
    try:
        pickle.dumps(tuple(families))
        return True
    except Exception:
        return False
