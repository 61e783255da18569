"""Catalog of the product-family identities and the exact sweep driver.

Every entry names one identity between members X(n, m) of a single family,
written so that ``lhs - rhs`` is exactly zero whenever the identity holds.
All arithmetic is exact: an entry's integer kernel computes both sides times
one nonzero clearing factor k, a check passes iff the two integers are equal,
and the sides it reports are the exact rationals lhs/k and rhs/k.

``CATALOG`` is the one definition of each entry: the parameters a point
carries beyond n, the entry's hypothesis on m, whether it is specific to the
generalized Fibonacci family, the labels x of the members X(r, x) it reads,
and its integer kernel, the one evaluation of its two sides.  ``eval_identity``
(one point) and ``sweep`` (a grid, planned once for all its families and run
as one pass per family over rows built once) both run that kernel, so they
agree on what is admissible and on every value; the admissible p and q are
stated once, in ``P_SPAN`` and ``Q_SPAN``.

The entries, with S_n denoting the root sum ``family.root_sum(n)``:

    L1                S_n = (-1)^n/n! * sum_{l=1..n} (-1)^l C(n,l) l X(n,l) - n(n+1)/2
    L2_SHIFT          L1 of the family relabeled x -> a + b*x, with root sum (S_n + n*a)/b:
    L2_SCALE          S_n = (-1)^n/(n! b^(n-1)) sum_{l=1..n} (-1)^l C(n,l) l X(n,a+b*l)
                          - n*a - n(n+1)b/2 at (a, b) = (m, 1) and (0, m); L1 is (0, 1)
    REC_M             X(n,m+1) = (-1)^n sum_{l=1..n} (-1)^l C(n,l-1) X(n,l+m-n) + n!
    SCALE_ID          1/m^(n-1) sum (-1)^l C(n,l) l X(n,lm)
                          = sum (-1)^l C(n,l) l X(n,l) + (-1)^(n-1)(1-m) n (n+1)!/2
    EXPL_POS          X(n,m)  = sum_{l=0..n-1} (-1)^(n+l) (n-l)/(l-m) C(m,n) C(n,l) X(n,l)
                          + m!/(m-n)!
    EXPL_NEG          X(n,-m) = same sum over X(n,-l) + (-1)^n m!/(m-n)!
    SUBFAM_ZERO       0 = sum_{l=0..n} (-1)^l C(n,l) l^q X(n-p, m-n+l)
    SUBFAM_FACT       the same sum at q = p equals (-1)^n n!
    FIB_POSNEG        sum_{l=1..n} (-1)^l C(n,l) l (X(n,-l) - X(n,l))
                          = 0 (n even) / n(n+1)! (n odd)
    FIB_POSNEG_COMPL  sum_{l=1..n} (-1)^l C(n,l) l (X(n,-l) + (-1)^n X(n,l))
                          = n(n+1)!
    FIB_POLY          X(n,m) equals the closed-form polynomial
                      sum_l C(n-l,l) m^(n-2l)

The first nine entries hold for every family; the last three are specific to
the generalized Fibonacci family, where the root sum vanishes identically.
"""

from __future__ import annotations

import marshal
import math
import os
import time
from enum import Enum
from fractions import Fraction
from functools import partial
from operator import mul, sub
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact import ExactScalar, format_exact, normalize
from .families import FIB, Family, fibonacci_polynomial


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


class DomainError(ValueError):
    """A parameter point violates an identity's stated hypothesis."""


class IdentityCheck(NamedTuple):
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
            "family": self.family.label(),
            "params": dict(self.params),
            "lhs": format_exact(self.lhs),
            "rhs": format_exact(self.rhs),
            "residual": format_exact(self.residual),
            "pass": self.passed,
        }


class Span(NamedTuple):
    """The admissible values of one parameter, given the parameter it depends on."""

    bounds: Callable[[int], Tuple[int, int]]
    statement: str

    def values(self, of: int, restrict: Optional[Tuple[int, int]] = None) -> range:
        lo, hi = self.bounds(of)
        if restrict is not None:
            lo, hi = max(lo, restrict[0]), min(hi, restrict[1])
        return range(lo, hi + 1)


#: Admissible p at each n and q at each p; the sweep and eval_identity both read these.
P_SPAN = Span(lambda n: (1, n - 1), "p >= 1 and n >= p+1")
Q_SPAN = Span(lambda p: (0, p - 1), "0 <= q < p")


def _weights(n: int, k: int = 0) -> List[int]:
    """(-1)^l C(n, l) l^k for l = 0..n."""
    return [(math.comb(n, l) if l % 2 == 0 else -math.comb(n, l)) * l ** k for l in range(n + 1)]


def eval_identity(identity: Identity, family: Family, *, n: int,
                  m: Optional[int] = None, p: Optional[int] = None,
                  q: Optional[int] = None) -> IdentityCheck:
    """Evaluate one catalog entry at one parameter point, exactly: the sweep
    of the one-point grid, through the same kernel.

    Raises :class:`DomainError` when the point violates the entry's stated
    hypothesis; an identity that merely fails to hold is reported through the
    returned check, never as an exception.
    """
    identity = Identity(identity)
    entry = CATALOG[identity]

    def require(holds: bool, statement: str) -> None:
        if not holds:
            raise DomainError(f"{identity.value} requires {statement}")

    require(n >= 1, f"n >= 1 (got n={n})")
    require(not entry.fib_only or family == FIB,
            f"the generalized Fibonacci family lucas:-1 (got {family.label()})")
    if "m" in entry.params:
        require(m is not None, "an m parameter")
        if entry.m_hypothesis is not None:
            holds, statement = entry.m_hypothesis
            require(holds(n, m), f"{statement} (got n={n}, m={m})")
    if "p" in entry.params:
        require(p in P_SPAN.values(n), f"{P_SPAN.statement} (got n={n}, p={p})")
    if "q" in entry.params:
        require(q in Q_SPAN.values(p), f"{Q_SPAN.statement} (got p={p}, q={q})")
    plan = _plan([identity], SweepRanges(n=(n, n), m=(m, m), p=(p, p), q=(q, q)))
    ((_, _, ((m,), p, (q,), lhs, rhs, k)),) = _blocks(plan, plan.points, family)
    return _record(family, identity, n, m, p, q, lhs, rhs, k)


# ---------------------------------------------------------------------------
# Sweeps

Bound = Union[int, str]  # int, or "n" to couple the bound to the current n


class SweepRanges(NamedTuple):
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
        for bound in self.m:
            if isinstance(bound, str) and bound != "n":
                raise ValueError(f"symbolic bound must be 'n', got {bound!r}")
        lo, hi = (n if bound == "n" else bound for bound in self.m)
        return list(range(lo, hi + 1))


class SweepReport(NamedTuple):
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


def _failure_key(check: IdentityCheck) -> Tuple:
    params = check.params
    return (check.identity.value, check.family.label(), params.get("n", 0),
            params.get("m", 0), params.get("p", 0), params.get("q", 0))


# Fraction-free kernels, the one evaluation of every entry.  Each entry is
# linear in the members of one row X(r, .), so a family's pass builds each row
# once for every entry, as the family's ``rows`` yields it, ints over a common
# denominator d: ``rows[r]`` is (d, row), and ``row[x]`` is d * X(r, x) for each
# label x that some entry's ``reads`` names at some n.  A kernel yields blocks
# (ms, p, qs, lhs, rhs, k) at one n: the checks at every m in ms and q in qs
# share the two sides lhs and rhs, each times one nonzero clearing factor k (d,
# n!*d*b^(n-1), m!/(m-n)!*d or m^(n-1)*d), so they pass iff lhs == rhs, and
# their exact sides are lhs/k and rhs/k.  Most blocks hold one point, (m,) and
# (q,), with None for a parameter the entry does not carry; the SUBFAM_* kernel
# yields whole blocks, below.  Every kernel also gets ``memo``, a dict that lives
# for one family's pass: the SUBFAM_* kernels keep there the differences of each
# row, and L2_SCALE and SCALE_ID the one sum they share at each (n, m).

Rows = Dict[int, Tuple[int, Dict[int, int]]]
Memo = Dict[Tuple, object]
PQs = List[Tuple[Optional[int], Sequence[Optional[int]]]]  # (p, the q at p) at one n
_ONE = (None,)  # the values of a parameter that a block does not carry


def _int_rows(family: Family, r_lo: int, r_hi: int, labels: List[int]) -> Rows:
    return {r: (d, dict(zip(labels, row)))
            for r, (d, row) in enumerate(family.rows(labels, r_lo, r_hi), r_lo)}


def _dot(weights: Sequence[int], row: Dict[int, int], labels: Sequence[int]) -> int:
    return sum(map(mul, weights, map(row.__getitem__, labels)))


def _scaled_dot(w: List[int], row: Dict[int, int], n: int, m: int, memo: Memo) -> int:
    """sum_{l=1..n} (-1)^l C(n,l) l d*X(n, l*m), for w = _weights(n, 1)[1:]: L2_SCALE's
    sum at (a, b) = (0, m) and SCALE_ID's scaled sum, computed once per pass at (n, m)."""
    key = ("scaled", n, m)
    if key not in memo:
        memo[key] = _dot(w, row, range(m, (n + 1) * m, m))
    return memo[key]


def _kernel_root_sum(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo,
                     scale: bool):
    # L1 of the family relabeled x -> a + b*x, (a, b) = (0, m) if scale else (m, 1): its
    # members are X(n, a + b*l)/b^n and its root sum is (S_n + n*a)/b; k = n!*d*b^(n-1)*e,
    # where e is the denominator of S_n, so that both sides are ints.
    d, row = rows[n]
    fd, sign, w = math.factorial(n) * d, (-1) ** n, _weights(n, 1)[1:]
    root_sum = family.root_sum(n)
    s, e = root_sum.numerator, root_sum.denominator
    for m in ms:
        a, b = (0, m) if scale else (m, 1)
        k = fd * b ** (n - 1)
        total = (_scaled_dot(w, row, n, m, memo) if scale
                 else _dot(w, row, range(a + b, a + (n + 1) * b, b)))  # a + b*l for l = 1..n
        rhs = sign * total - (n * a + n * (n + 1) // 2 * b) * k
        yield (m,), None, _ONE, s * k, rhs * e, k * e


def _kernel_rec_m(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo):
    d, row = rows[n]
    w = [(-1) ** (n + l) * math.comb(n, l - 1) for l in range(1, n + 1)]
    fd = math.factorial(n) * d
    for m in ms:
        yield (m,), None, _ONE, row[m + 1], _dot(w, row, range(m - n + 1, m + 1)) + fd, d


def _kernel_scale_id(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo):
    d, row = rows[n]
    w = _weights(n, 1)[1:]
    plain = _dot(w, row, range(1, n + 1))
    half = (-1) ** (n - 1) * n * math.factorial(n + 1) // 2 * d
    for m in ms:
        power = m ** (n - 1)
        scaled = _scaled_dot(w, row, n, m, memo)
        yield (m,), None, _ONE, scaled, power * (plain + (1 - m) * half), power * d


def _kernel_expl(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo,
                 sign: int):
    d, row = rows[n]
    coeffs = [(-1) ** (n + l) * (n - l) * math.comb(n, l) for l in range(n)]
    values = [row[sign * l] for l in range(n)]  # X(n, sign*l)
    for m in ms:
        ff, c = math.perm(m, n), math.comb(m, n)
        w = [a * c * (ff // (l - m)) for l, a in enumerate(coeffs)]
        total = sum(map(mul, w, values)) + sign ** n * ff * ff * d
        yield (m,), None, _ONE, ff * row[sign * m], total, ff * d


def _differences(row: Dict[int, int], r: int, lo: int, hi: int) -> List[int]:
    """D for the row f over the labels lo..hi: D[i] = Delta^r f(lo + i)."""
    diffs = [row[x] for x in range(lo, hi + 1)]
    for _ in range(r):
        diffs = list(map(sub, diffs[1:], diffs))
    return diffs


def _kernel_subfam(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo,
                   fact: bool):
    # With f = d*X(n-p, .), r = n-p and Stirling numbers S(q, j), the entry's sum is
    # T_q(m) = (-1)^n sum_{j<=q} S(q,j) n!/(n-j)! Delta^(n-j) f(m-n+j).  Where
    # Delta^r f is constant on ms[0]-n..ms[-1]-r, so on the window ms[0]-n..ms[-1]
    # that the (n, p) checks read, every term with j < p vanishes: T_q = 0 for every
    # q < p and every m, and T_p = (-1)^n n!/(n-p)! Delta^r f.  memo["differences", r]
    # is (lo, hi, Delta^r f on lo..hi), redone on the union span when a window leaves
    # it; a pass visits n largest first, so each row is differenced once and serves
    # every n > r.
    # Elsewhere each check is its own dot product, so failing sides stay exact.
    sign = (-1) ** n
    for p, qs in pqs:
        r = n - p
        d, row = rows[r]
        lo, hi, diffs = memo.get(("differences", r), (ms[0] - n, ms[-1], None))
        if diffs is None or ms[0] - n < lo or ms[-1] > hi:
            lo, hi = min(lo, ms[0] - n), max(hi, ms[-1])
            diffs = _differences(row, r, lo, hi)
            memo["differences", r] = lo, hi, diffs
        rhs = sign * math.factorial(n) * d if fact else 0
        window = diffs[ms[0] - n - lo:ms[-1] - r - lo + 1]
        if window.count(window[0]) == len(window):
            lhs = sign * math.perm(n, p) * window[0] if fact else 0
            yield ms, p, qs, lhs, rhs, d
            continue
        weights = [_weights(n, p if fact else q) for q in qs]
        for m in ms:
            for q, w in zip(qs, weights):
                yield (m,), p, (q,), _dot(w, row, range(m - n, m + 1)), rhs, d


def _kernel_fib_posneg(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo,
                       compl: bool):
    d, row = rows[n]
    w = _weights(n, 1)[1:]
    pos, neg = _dot(w, row, range(1, n + 1)), _dot(w, row, range(-1, -n - 1, -1))
    rhs = n * math.factorial(n + 1) * d * (1 if compl else n % 2)
    yield _ONE, None, _ONE, neg + ((-1) ** n if compl else -1) * pos, rhs, d


def _kernel_fib_poly(rows: Rows, family: Family, n: int, ms: List[int], pqs: PQs, memo: Memo):
    d, row = rows[n]
    for m in ms:
        yield (m,), None, _ONE, fibonacci_polynomial(n, m) * d, row[m], d


class Entry(NamedTuple):
    """One catalog entry, defined once."""

    params: str  # the parameters a point carries beyond n: "", "m", "mp" or "mpq"
    m_hypothesis: Optional[Tuple[Callable[[int, int], bool], str]]  # holds(n, m), statement
    fib_only: bool  # holds for the generalized Fibonacci family lucas:-1 only
    reads: Callable[[int, List[int]], Sequence[int]]  # (n, ms) -> the labels the kernel reads
    kernel: Callable  # the integer kernel: yields blocks (ms, p, qs, lhs, rhs, k) of checks

    def points(self, n: int, ranges: SweepRanges) -> Tuple[List[int], PQs]:
        """The admissible m of a sweep at n, and its admissible p that have an admissible q,
        each with those q; [0] and [(None, (None,))] for an entry without m or p."""
        holds = self.m_hypothesis[0] if self.m_hypothesis else lambda n, m: True
        ms = [m for m in ranges.m_values(n) if holds(n, m)] if "m" in self.params else [0]
        if "p" not in self.params:
            return ms, [(None, _ONE)]
        pqs = [(p, Q_SPAN.values(p, ranges.q) if "q" in self.params else _ONE)
               for p in P_SPAN.values(n, ranges.p)]
        return ms, [(p, qs) for p, qs in pqs if qs]


def _shifted(n: int, ms: Sequence[int]) -> List[int]:
    return [l + m for m in ms for l in range(1, n + 1)]


def _scaled(n: int, ms: Sequence[int]) -> List[int]:
    return [l * m for m in ms for l in range(1, n + 1)]


_M_NONZERO = (lambda n, m: m != 0, "m != 0")
_M_AT_LEAST_N = (lambda n, m: m >= n, "m >= n")

#: The identity catalog.  L1, L2_SHIFT and L2_SCALE are one root-sum kernel, relabeled;
#: EXPL_NEG is EXPL_POS over the labels -l and -m; FIB_POSNEG_COMPL flips the sign of X(n, l).
CATALOG: Dict[Identity, Entry] = {
    Identity.L1: Entry("", None, False, _shifted, partial(_kernel_root_sum, scale=False)),
    Identity.L2_SHIFT: Entry("m", None, False, _shifted, partial(_kernel_root_sum, scale=False)),
    Identity.L2_SCALE: Entry("m", _M_NONZERO, False, _scaled,
                             partial(_kernel_root_sum, scale=True)),
    Identity.REC_M: Entry("m", None, False, lambda n, ms: _shifted(n + 1, [m - n for m in ms]),
                          _kernel_rec_m),  # X(n, l+m-n) for l = 1..n+1
    Identity.SCALE_ID: Entry("m", _M_NONZERO, False, lambda n, ms: _scaled(n, [1, *ms]),
                             _kernel_scale_id),
    Identity.EXPL_POS: Entry("m", _M_AT_LEAST_N, False, lambda n, ms: [*range(n), *ms],
                             partial(_kernel_expl, sign=1)),
    Identity.EXPL_NEG: Entry("m", _M_AT_LEAST_N, False,
                             lambda n, ms: [*range(1 - n, 1), *(-m for m in ms)],
                             partial(_kernel_expl, sign=-1)),
    Identity.SUBFAM_ZERO: Entry("mpq", None, False, lambda n, ms: range(ms[0] - n, ms[-1] + 1),
                                partial(_kernel_subfam, fact=False)),
    Identity.SUBFAM_FACT: Entry("mp", None, False, lambda n, ms: range(ms[0] - n, ms[-1] + 1),
                                partial(_kernel_subfam, fact=True)),
    Identity.FIB_POSNEG: Entry("", None, True, lambda n, ms: _scaled(n, (1, -1)),
                               partial(_kernel_fib_posneg, compl=False)),
    Identity.FIB_POSNEG_COMPL: Entry("", None, True, lambda n, ms: _scaled(n, (1, -1)),
                                     partial(_kernel_fib_posneg, compl=True)),
    Identity.FIB_POLY: Entry("m", None, True, lambda n, ms: ms, _kernel_fib_poly),
}


class _Plan(NamedTuple):
    """What every family's pass runs: each entry's admissible points at each n, n largest
    first, and the rows r_lo..r_hi it builds, over the labels the kernels read."""

    points: List[Tuple[Identity, int, List[int], PQs]]  # (identity, n, ms, pqs)
    labels: List[int]
    r_lo: int
    r_hi: int


def _plan(identities: Sequence[Identity], ranges: SweepRanges) -> Optional[_Plan]:
    """The plan of every family of a sweep; None when no entry has an admissible point."""
    points = [(identity, n, *CATALOG[identity].points(n, ranges)) for identity in identities
              for n in range(ranges.n[1], max(ranges.n[0], 1) - 1, -1)]
    points = [(identity, n, ms, pqs) for identity, n, ms, pqs in points if ms and pqs]
    if not points:
        return None
    labels = sorted(set().union(*(CATALOG[i].reads(n, ms) for i, n, ms, _ in points)))
    r_values = [n - (p or 0) for _, n, _, pqs in points for p, _ in pqs]  # rows n - p
    return _Plan(points, labels, min(r_values), max(r_values))


def _points(plan: Optional[_Plan], family: Family) -> List[Tuple]:
    """The points of the plan on one family; the fib_only entries run on lucas:-1 alone."""
    fib = family == FIB
    return [pt for pt in plan.points if fib or not CATALOG[pt[0]].fib_only] if plan else []


def _blocks(plan: _Plan, points: List[Tuple], family: Family
            ) -> Iterator[Tuple[Identity, int, Tuple]]:
    """(identity, n, block) for every check block of some points of the plan on one family."""
    rows, memo = _int_rows(family, plan.r_lo, plan.r_hi, plan.labels), {}
    for identity, n, ms, pqs in points:
        for block in CATALOG[identity].kernel(rows, family, n, ms, pqs, memo):
            yield identity, n, block


def _record(family: Family, identity: str, n: int, m: Optional[int], p: Optional[int],
            q: Optional[int], lhs: ExactScalar, rhs: ExactScalar, k: int) -> IdentityCheck:
    """The check at one point, from its kernel's cleared sides."""
    identity = Identity(identity)
    point = {"n": n, "m": m, "p": p, "q": q}
    params = {name: point[name] for name in "n" + CATALOG[identity].params}
    lhs, rhs = normalize(Fraction(lhs, k)), normalize(Fraction(rhs, k))
    residual = normalize(lhs - rhs)
    return IdentityCheck(identity=identity, family=family, params=params, lhs=lhs, rhs=rhs,
                         residual=residual, passed=residual == 0)


def _run_cell_star(task: Tuple[_Plan, List[Tuple], Family]) -> Tuple[int, List[Tuple]]:
    """One task of a sweep, (plan, its points on one family, the family): its check count
    and its failing points, each (identity, n, m, p, q, lhs, rhs, k) in ints and strings,
    as a forked child sends it.  perfbench/layers.py times each process's tasks by
    wrapping this name, so every process calls it through the module."""
    count = 0
    failing = []
    for identity, n, (ms, p, qs, lhs, rhs, k) in _blocks(*task):
        count += len(ms) * len(qs)
        if lhs != rhs:
            failing.extend((identity.value, n, m, p, q, lhs, rhs, k) for m in ms for q in qs)
    return count, failing


def _deal(shares: List[List[Tuple]]) -> List[List[Tuple]]:
    """The results of each share of tasks: shares[0] run here, each other share in a child
    forked here, which inherits the tasks and sends its results down a pipe.  A child that
    fails has its share rerun here, so that its exception surfaces as in a serial run.  No
    child outlives the call."""
    children = []  # (pid, read end of its pipe, share) of each child not yet reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if not pid:  # the child: exit status 0 only once its whole result is written
                try:
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps([_run_cell_star(task) for task in share]))
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, open(read, "rb"), share))
            os.close(write)
        results = [[_run_cell_star(task) for task in shares[0]]]
        while children:
            pid, pipe, share = children[0]
            data = pipe.read()
            sent = os.waitpid(pid, 0)[1] == 0 and data
            children.pop(0)
            pipe.close()
            results.append(marshal.loads(data) if sent else list(map(_run_cell_star, share)))
        return results
    finally:  # after an exception: kill and reap each child still running
        for pid, pipe, _ in children:
            pipe.close()
            try:  # a child reaped just before the exception is no longer ours, and raises
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, 9)  # SIGKILL
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def sweep(identities: Sequence[Identity], families: Sequence[Family],
          ranges: SweepRanges, workers: int = 1) -> SweepReport:
    """Verify identities over every admissible point of the grid.

    Failures are data (collected, sorted, reported), never exceptions; only
    wall time depends on ``workers``.  The sweep is planned once, and each
    family is one pass of that plan.  ``workers`` is clamped to the CPU count
    and to the families with a point, which are dealt round-robin into that
    many shares: the caller runs the first, forked children the others.
    Without ``os.fork`` the sweep runs serially.
    """
    identities = [Identity(i) for i in identities]
    started = time.perf_counter()
    plan = _plan(identities, ranges)
    tasks = [(plan, points, family) for family in families if (points := _points(plan, family))]
    k = max(1, min(os.cpu_count() or 1, len(tasks), workers)) if hasattr(os, "fork") else 1
    results = _deal([tasks[i::k] for i in range(k)])
    total = 0
    failures: List[IdentityCheck] = []
    for j, (_, _, family) in enumerate(tasks):
        count, failing = results[j % k][j // k]
        total += count
        failures.extend(_record(family, *point) for point in failing)

    failures.sort(key=_failure_key)
    return SweepReport(
        identities=[i.value for i in identities],
        families=[f.label() for f in families],
        ranges=ranges.describe(),
        total_checks=total,
        failures=failures,
        wall_time_s=time.perf_counter() - started,
    )
