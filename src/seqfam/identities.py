"""Catalog of the product-family identities and the exact sweep driver.

Every entry names one identity between members X(n, m) of a single family,
written so that ``lhs - rhs`` is exactly zero whenever the identity holds.
All arithmetic is exact: an entry's integer kernel computes both sides times
one nonzero clearing factor k, a check passes iff the two integers are equal,
and the sides it reports are the exact rationals lhs/k and rhs/k.

``CATALOG`` is the one definition of each entry: the parameters a point
carries beyond n, the entry's hypothesis on m, whether it is specific to the
generalized Fibonacci family, its integer kernel, the one evaluation of its two
sides, and what that kernel reads: the span of the row whose difference table
decides whether its points run, the spans of its sums, and the labels of the three
kernels that index members themselves.
``eval_identity`` (one point) and ``sweep`` (a grid, planned once for all its
families and run as one pass per family, row by row) both run that kernel, so
they agree on what is admissible and on every value; the admissible p and q
are stated once, in ``P_SPAN`` and ``Q_SPAN``.

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
from itertools import chain, cycle
from operator import add, itemgetter, mul, sub
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

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
            admit, statement = entry.m_hypothesis
            require(bool(admit(n, range(m, m + 1))), f"{statement} (got n={n}, m={m})")
    if "p" in entry.params:
        require(p in P_SPAN.values(n), f"{P_SPAN.statement} (got n={n}, p={p})")
    if "q" in entry.params:
        require(q in Q_SPAN.values(p), f"{Q_SPAN.statement} (got p={p}, q={q})")
    plan = _plan([identity], SweepRanges(n=(n, n), m=(m, m), p=(p, p), q=(q, q)))
    _, (point,) = _Pass(plan, family).run(plan.points, True)
    return _record(family, *point)


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

    def m_values(self, n: int) -> range:
        if self.m is None:
            return range(0)
        for bound in self.m:
            if isinstance(bound, str) and bound != "n":
                raise ValueError(f"symbolic bound must be 'n', got {bound!r}")
        lo, hi = (n if bound == "n" else bound for bound in self.m)
        return range(lo, hi + 1)


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
# linear in the members of one row X(r, .), and each point of a plan reads one row:
# row n, or the row of its ``table``.  A family's pass runs in row order: it takes
# each row as the family's ``rows`` yields it, ints over a common denominator d over
# the plan's labels (``row[plan.at[x]]`` is d * X(r, x) for each label x of some
# entry's table span, sum or own ``reads`` at some n), runs the points the plan
# assigns to it, and drops the row.  A kernel builds the checks of one (entry, n, p)
# as lists over ms, one pair of lists per q: the two sides each check compares, times
# one nonzero clearing factor k, with the point (m, p, q, lhs, rhs, k) of the check at
# each index, whose exact sides are lhs/k and rhs/k.  ``_Pass.run`` computes a point
# only where the two lists differ, or at every index for eval_identity.  The sums over
# consecutive labels of a row are ``_Pass.windows``, dot products in C.  The difference
# table of a row decides which points run and nothing else: REC_M and SUBFAM_* hold at
# every point that reads a row whose table, the row differenced r times over the span of
# labels the plan states for it, is r!*d throughout, as a family's always is, so the
# pass skips those points.  What a kernel reads that depends on the grid alone (weights,
# n!*b^(n-1), row positions, m!/(m-n)!, C(m, n)) is made once per sweep and kept in the
# plan for every family (``_Pass.grid``).

PQs = List[Tuple[Optional[int], Sequence[Optional[int]]]]  # (p, the q at p) at one n
_ONE = (None,)  # the values of a parameter that a point does not carry


def _dots(a: Iterable[int], b: Iterable[int], size: int) -> List[int]:
    """The sum of each run of ``size`` consecutive products a[i]*b[i], in C: with a =
    cycle(w), the dot product of w with each window of b."""
    return list(map(sum, zip(*[map(mul, a, b)] * size)))


class _Pass:
    """One family's pass of a plan, run row by row; it holds the row being run and nothing
    of any other.  ``row`` is (d, its members) and ``memo`` holds the row's sums."""

    def __init__(self, plan: "_Plan", family: Family):
        self.plan, self.family, self.row, self.memo = plan, family, None, {}

    def run(self, points: List[Tuple], every: bool) -> Tuple[int, List[Tuple]]:
        """The check count of points of the plan, in its row order, and the point (identity,
        n, m, p, q, lhs, rhs, k) of each failing check, or of every check when ``every``."""
        plan, count, out = self.plan, 0, []
        todo = iter(points)
        point = next(todo, None)
        rows = self.family.rows(plan.labels, plan.r_lo, plan.r_hi)
        for r, (d, row) in zip(range(plan.r_lo, plan.r_hi + 1), rows):
            self.row, self.memo = (d, row), {}
            holds = not every and r in plan.spans and self._holds(r, d, row)
            while point is not None and point[6] == r:
                identity, n, ms, p, qs, checks, _, tabled = point
                count += checks
                if not (tabled and holds):  # a table that holds passes its points
                    for got, want, check in CATALOG[identity].kernel(self, n, ms, p, qs):
                        if every or got != want:
                            out += [(identity.value, n, *check(i)) for i, (a, b)
                                    in enumerate(zip(got, want)) if every or a != b]
                point = next(todo, None)
            if point is None:
                break
        return count, out

    def _holds(self, r: int, d: int, row: List[int]) -> bool:
        """Whether row r's table, the row differenced r times over the span the plan states
        for it, is r!*d throughout, as every family's is: its rows are monic of degree r."""
        lo, hi = self.plan.spans[r]
        table = row[self.plan.at[lo]:self.plan.at[hi] + 1]
        for _ in range(r):
            table = list(map(sub, table[1:], table))
        return table.count(math.factorial(r) * d) == len(table)

    def grid(self, key: Tuple, make: Callable):
        """make(), which depends on the grid alone: the plan keeps it for every pass."""
        if key not in self.plan.grid:
            self.plan.grid[key] = make()
        return self.plan.grid[key]

    def windows(self, w: List[int], first: int, count: int) -> List[int]:
        """The dot product of w with the len(w) members of the row from each of the count
        labels first, first + 1, ..., which the plan holds as one run."""
        get, start, size = self.row[1].__getitem__, self.plan.at[first], len(w)
        values = chain.from_iterable(map(get, map(slice, range(start, start + count),
                                                  range(start + size, start + size + count))))
        return _dots(cycle(w), values, size)

    def sums(self, n: int, ms: Sequence[int],
             scale: bool) -> Tuple[List[int], List[int], List[int]]:
        """(k, term, the sum) at each m of ms, for (a, b) = (0, m) if scale else (m, 1), where
        the sum is sum_{l=1..n} (-1)^l C(n,l) l d*X(n, a + b*l), the sum of L1 relabeled
        x -> a + b*x, k = n!*b^(n-1) and term = n*a + n(n+1)/2*b.  k and term depend on the
        grid alone.  The sums are computed once per row and ms, which entries that read the
        same ms share: L1, SCALE_ID and FIB_POSNEG* at m = 0, L2_SCALE and SCALE_ID."""
        key = (scale, n, ms[0], ms[-1])
        w, fact, half = self.grid(n, lambda: (_weights(n, 1)[1:], math.factorial(n),
                                              n * (n + 1) // 2))

        def make():  # the row positions of X(n, l*m) if scale, k and term at each m
            return ([*map(self.plan.at.__getitem__, _scaled(n, ms))] if scale else None,
                    [fact * m ** (n - 1) if scale else fact for m in ms],
                    [half * m if scale else half + n * m for m in ms])

        where, ks, terms = self.grid(key, make)
        if key not in self.memo:  # the n labels from m + 1 at each m, unless scale
            self.memo[key] = (_dots(cycle(w), map(self.row[1].__getitem__, where), n) if scale
                              else self.windows(w, ms[0] + 1, len(ms)))
        return ks, terms, self.memo[key]


def _kernel_root_sum(ps, n, ms, p, qs, scale):
    # L1 of the family relabeled x -> a + b*x, (a, b) = (0, m) if scale else (m, 1): its
    # members are X(n, a + b*l)/b^n and its root sum is (S_n + n*a)/b.  With S_n = s/e and
    # k, term and the sum of ``sums``, both sides times k*d*e are ints, and a check passes
    # iff (-1)^n e*sum == k*(d*s + d*e*term).
    d, root_sum = ps.row[0], ps.family.root_sum(n)
    s, e = root_sum.numerator * d, root_sum.denominator
    ks, terms, sums = ps.sums(n, ms, scale)
    got = list(map(((-1) ** n * e).__mul__, sums))
    want = list(map(mul, ks, map(s.__add__, map((d * e).__mul__, terms))))
    return [(got, want, lambda i: (
        ms[i], None, None, s * ks[i], got[i] - want[i] + s * ks[i], ks[i] * d * e))]


def _kernel_rec_m(ps, n, ms, p, qs):
    # d*X(n, m+1) against sum_{l=1..n} (-1)^(n+l) C(n,l-1) d*X(n, l+m-n) + n!*d
    d, row = ps.row
    w = ps.grid(("rec", n), lambda: [(-1) ** (n + l) * math.comb(n, l - 1)
                                     for l in range(1, n + 1)])
    fd, start = math.factorial(n) * d, ps.plan.at[ms[0] + 1]
    got = row[start:start + len(ms)]
    want = list(map(fd.__add__, ps.windows(w, ms[0] - n + 1, len(ms))))
    return [(got, want, lambda i: (ms[i], None, None, got[i], want[i], d))]


def _kernel_scale_id(ps, n, ms, p, qs):
    # With the sums of L2_SCALE at m and of L1 (plain), times k*d = n!*m^(n-1)*d a check
    # passes iff n!*sum == k*(plain + c*(n(n+1)/2 - term)), c = (-1)^(n-1) n!*d.
    d = ps.row[0]
    ks, terms, sums = ps.sums(n, ms, True)
    (fact,), (half,), (plain,) = ps.sums(n, [0], False)  # m = 0: k = n!, term = n(n+1)/2
    c = (-1) ** (n - 1) * fact * d
    got = list(map(fact.__mul__, sums))
    want = list(map(mul, ks, map((plain + c * half).__sub__, map(c.__mul__, terms))))
    return [(got, want, lambda i: (ms[i], None, None, got[i], want[i], ks[i] * d))]


def _kernel_expl(ps, n, ms, p, qs, sign):
    d, row = ps.row
    at = ps.plan.at
    ffs, weights = ps.grid(("expl", n), lambda: ([math.perm(m, n) for m in ms], [
        (-1) ** (n + l) * (n - l) * math.comb(n, l) * math.comb(m, n) * (math.perm(m, n) // (l - m))
        for m in ms for l in range(n)]))
    values = [row[at[sign * l]] for l in range(n)]  # X(n, sign*l), l = 0..n-1
    want = list(map(add, _dots(weights, cycle(values), n),
                    map((sign ** n * d).__mul__, map(mul, ffs, ffs))))
    got = [ff * row[at[sign * m]] for ff, m in zip(ffs, ms)]  # m!/(m-n)! * X(n, sign*m)
    return [(got, want, lambda i: (ms[i], None, None, got[i], want[i], ffs[i] * d))]


def _kernel_subfam(ps, n, ms, p, qs, fact):
    # sum_{l=0..n} (-1)^l C(n,l) l^q d*X(n-p, m-n+l) against 0, and for SUBFAM_FACT at
    # q = p against (-1)^n n!*d
    d = ps.row[0]
    rhs = (-1) ** n * math.factorial(n) * d if fact else 0
    want = [rhs] * len(ms)

    def check(q):
        got = ps.windows(_weights(n, p if fact else q), ms[0] - n, len(ms))
        return got, want, lambda i: (ms[i], p, q, got[i], rhs, d)

    return [*map(check, qs)]


def _kernel_fib_posneg(ps, n, ms, p, qs, compl):
    d = ps.row[0]
    (pos,), (neg,) = ps.sums(n, [0], False)[2], ps.sums(n, [-1], True)[2]  # X(n, l), X(n, -l)
    lhs = neg + ((-1) ** n if compl else -1) * pos
    rhs = n * math.factorial(n + 1) * d * (1 if compl else n % 2)
    return [([lhs], [rhs], lambda i: (None, None, None, lhs, rhs, d))]


def _kernel_fib_poly(ps, n, ms, p, qs):
    d, row = ps.row
    got = [fibonacci_polynomial(n, m) * d for m in ms]
    start = ps.plan.at[ms[0]]
    want = row[start:start + len(ms)]
    return [(got, want, lambda i: (ms[i], None, None, got[i], want[i], d))]


class Entry(NamedTuple):
    """One catalog entry, defined once."""

    params: str  # the parameters a point carries beyond n: "", "m", "mp" or "mpq"
    # (n, a range of m) -> the m of the range that the hypothesis admits; the statement
    m_hypothesis: Optional[Tuple[Callable[[int, range], Sequence[int]], str]]
    fib_only: bool  # holds for the generalized Fibonacci family lucas:-1 only
    # (ps, n, ms, p, qs) -> the checks at (n, p), for the pass ps and the admissible ms, p and
    # its qs of Entry.points: a (got, want, point) per q, where point(i) is (m, p, q, lhs,
    # rhs, k) of the check at ms[i]
    kernel: Callable
    # What the kernel reads, stated once: the plan takes a pass's labels and rows from it.
    # (n, ms, p) -> (r, lo, hi) if the kernel reads row r at labels within lo..hi, and a
    # table of row r that holds there passes its checks
    table: Callable = lambda n, ms, p: None
    # (n, ms) -> (scale, ms[0], ms[-1]) of each call _Pass.sums(n, ms, scale) of the kernel
    sums: Callable = lambda n, ms: ()
    # (n, ms) -> the labels of row n that the kernel indexes itself, beyond its table and sums
    reads: Optional[Callable[[int, Sequence[int]], Iterable[int]]] = None

    def points(self, n: int, ranges: SweepRanges) -> Tuple[Sequence[int], PQs]:
        """The admissible m of a sweep at n, a range where they are contiguous, and its
        admissible p that have an admissible q, each with those q; range(1), that is m = 0,
        and [(None, (None,))] for an entry without m or p."""
        ms = ranges.m_values(n) if "m" in self.params else range(1)
        if self.m_hypothesis:
            ms = self.m_hypothesis[0](n, ms)
        if "p" not in self.params:
            return ms, [(None, _ONE)]
        pqs = [(p, Q_SPAN.values(p, ranges.q) if "q" in self.params else _ONE)
               for p in P_SPAN.values(n, ranges.p)]
        return ms, [(p, qs) for p, qs in pqs if qs]


def _scaled(n: int, ms: Iterable[int]) -> List[int]:
    return [l * m for m in ms for l in range(1, n + 1)]  # l*m for l = 1..n, at each m


_M_NONZERO = (lambda n, ms: [m for m in ms if m] if 0 in ms else ms, "m != 0")
_M_AT_LEAST_N = (lambda n, ms: range(max(n, ms.start), ms.stop), "m >= n")
_SHIFT = lambda n, ms: [(False, ms[0], ms[-1])]
_FIB_SUMS = lambda n, ms: [(False, 0, 0), (True, -1, -1)]
_SUBFAM = lambda n, ms, p: (n - p, ms[0] - n, ms[-1])  # X(n-p, m-n+l) for l = 0..n

#: The identity catalog.  L1, L2_SHIFT and L2_SCALE are one root-sum kernel, relabeled;
#: EXPL_NEG is EXPL_POS over the labels -l and -m; FIB_POSNEG_COMPL flips the sign of X(n, l).
CATALOG: Dict[Identity, Entry] = {
    Identity.L1: Entry("", None, False, partial(_kernel_root_sum, scale=False), sums=_SHIFT),
    Identity.L2_SHIFT: Entry("m", None, False, partial(_kernel_root_sum, scale=False),
                             sums=_SHIFT),
    Identity.L2_SCALE: Entry("m", _M_NONZERO, False, partial(_kernel_root_sum, scale=True),
                             sums=lambda n, ms: [(True, ms[0], ms[-1])]),
    Identity.REC_M: Entry("m", None, False, _kernel_rec_m,  # X(n, l+m-n) for l = 1..n+1
                          lambda n, ms, p: (n, ms[0] - n + 1, ms[-1] + 1)),
    Identity.SCALE_ID: Entry("m", _M_NONZERO, False, _kernel_scale_id,
                             sums=lambda n, ms: [(True, ms[0], ms[-1]), (False, 0, 0)]),
    Identity.EXPL_POS: Entry("m", _M_AT_LEAST_N, False, partial(_kernel_expl, sign=1),
                             reads=lambda n, ms: [*range(n), *ms]),
    Identity.EXPL_NEG: Entry("m", _M_AT_LEAST_N, False, partial(_kernel_expl, sign=-1),
                             reads=lambda n, ms: [*range(1 - n, 1), *(-m for m in ms)]),
    Identity.SUBFAM_ZERO: Entry("mpq", None, False, partial(_kernel_subfam, fact=False), _SUBFAM),
    Identity.SUBFAM_FACT: Entry("mp", None, False, partial(_kernel_subfam, fact=True), _SUBFAM),
    Identity.FIB_POSNEG: Entry("", None, True, partial(_kernel_fib_posneg, compl=False),
                               sums=_FIB_SUMS),
    Identity.FIB_POSNEG_COMPL: Entry("", None, True, partial(_kernel_fib_posneg, compl=True),
                                     sums=_FIB_SUMS),
    Identity.FIB_POLY: Entry("m", None, True, _kernel_fib_poly, reads=lambda n, ms: ms),
}


class _Plan(NamedTuple):
    """What every family's pass runs: each entry's admissible points at each (n, p), with
    their check counts, in the order of the one row each reads; the rows r_lo..r_hi a pass
    takes, over the labels the kernels read, and the position of each label in a row; the
    span of labels lo..hi of each row's difference table; and what the kernels read that
    depends on the grid alone, made on first use."""

    points: List[Tuple]  # (identity, n, ms, p, qs, its check count, its row, reads a table)
    labels: List[int]
    at: Dict[int, int]
    r_lo: int
    r_hi: int
    spans: Dict[int, Tuple[int, int]]
    grid: Dict[Tuple, object]


def _plan(identities: Sequence[Identity], ranges: SweepRanges) -> Optional[_Plan]:
    """The plan of every family of a sweep, its rows and labels those of the tables and sums
    the entries state; None when no entry has an admissible point."""
    points, spans, sums = [], {}, set()
    for identity in identities:
        entry = CATALOG[identity]
        for n in range(max(ranges.n[0], 1), ranges.n[1] + 1):
            ms, pqs = entry.points(n, ranges)
            if not (ms and pqs):
                continue
            sums.update((scale, n, lo, hi) for scale, lo, hi in entry.sums(n, ms))
            for p, qs in pqs:
                table = entry.table(n, ms, p)
                if table:
                    r, lo, hi = table
                    old = spans.get(r, (lo, hi))
                    spans[r] = min(lo, old[0]), max(hi, old[1])
                # a point runs on the row of its table, or on row n without one
                points.append((identity, n, ms, p, qs, len(ms) * len(qs),
                               table[0] if table else n, bool(table)))
    if not points:
        return None
    points.sort(key=itemgetter(6))
    # the labels of each table span, of each sum (m + l, or l*m with m != 0, for l = 1..n)
    # and of each entry's own reads, one list at a time
    labels = sorted(set(chain.from_iterable(chain(
        (range(lo, hi + 1) for lo, hi in spans.values()),
        (_scaled(n, (m for m in range(lo, hi + 1) if m)) if scale else range(lo + 1, hi + n + 1)
         for scale, n, lo, hi in sums),
        (CATALOG[i].reads(n, ms) for i, n, ms, *_ in points if CATALOG[i].reads)))))
    return _Plan(points, labels, {x: i for i, x in enumerate(labels)},
                 points[0][6], points[-1][6], spans, {})


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
    plan, points, family = task
    return _Pass(plan, family).run(points, False)


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
    # the points of the plan on lucas:-1 and on every other family, which share theirs: the
    # fib_only entries run on lucas:-1 alone
    on = {fib: [pt for pt in plan.points if fib or not CATALOG[pt[0]].fib_only] if plan else []
          for fib in (False, True)}
    tasks = [(plan, on[family == FIB], family) for family in families if on[family == FIB]]
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
