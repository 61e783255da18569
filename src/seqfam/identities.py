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
from itertools import chain, cycle
from operator import add, mul, sub
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
            holds, statement = entry.m_hypothesis
            require(holds(n, m), f"{statement} (got n={n}, m={m})")
    if "p" in entry.params:
        require(p in P_SPAN.values(n), f"{P_SPAN.statement} (got n={n}, p={p})")
    if "q" in entry.params:
        require(q in Q_SPAN.values(p), f"{Q_SPAN.statement} (got p={p}, q={q})")
    plan = _plan([identity], SweepRanges(n=(n, n), m=(m, m), p=(p, p), q=(q, q)))
    ((_, _, ms, pqs, _),) = plan.points
    (point,) = entry.kernel(_Pass(plan, family), n, ms, pqs, True)
    return _record(family, identity, n, *point)


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
# denominator d over the plan's labels: ``rows[r]`` is (d, row), and
# ``row[plan.at[x]]`` is d * X(r, x) for each label x that some entry's ``reads``
# names at some n.  A kernel decides every check of one (entry, n) at once: it
# builds, as lists over ms, the two things each check compares, each times one
# nonzero clearing factor k, and the checks pass iff the two lists are equal.
# Only at an m where they differ does it compute the point (m, p, q, lhs, rhs, k)
# of a failing check, whose exact sides are lhs/k and rhs/k; with ``every`` it
# computes every point, which is how eval_identity reads a passing check.  The
# root-sum entries read ``_Pass.sums``, dot products over a row in C.  REC_M and
# SUBFAM_* read forward differences: a pass differences each row r r times, once,
# over the span of labels the plan states for it from the entries' ``tables``,
# and a table that is r!*d throughout, as a family's always is, passes every
# check that reads it.  What a kernel reads that depends on the grid alone
# (weights, n!*b^(n-1), row positions, m!/(m-n)!, C(m, n)) is made once per sweep
# and kept in the plan for every family (``_Pass.grid``).

Rows = Dict[int, Tuple[int, List[int]]]
PQs = List[Tuple[Optional[int], Sequence[Optional[int]]]]  # (p, the q at p) at one n
_ONE = (None,)  # the values of a parameter that a point does not carry


def _int_rows(family: Family, labels: List[int], r_lo: int, r_hi: int) -> Rows:
    return dict(zip(range(r_lo, r_hi + 1), family.rows(labels, r_lo, r_hi)))


def _dots(a: Iterable[int], b: Iterable[int], size: int) -> List[int]:
    """The sum of each run of ``size`` consecutive products a[i]*b[i], in C: with a =
    cycle(w), the dot product of w with each window of b."""
    return list(map(sum, zip(*[map(mul, a, b)] * size)))


def _failing(got: List[int], want: List[int], every: bool, point: Callable) -> Sequence:
    """point(i) at each i where got[i] != want[i], or at every i when ``every``."""
    if got == want and not every:
        return ()
    return [point(i) for i, (a, b) in enumerate(zip(got, want)) if every or a != b]


class _Pass:
    """One family's pass of a plan: its rows, built once, and what its kernels compute
    once from them, in ``memo``: the tables of ``table`` and the sums of ``sums``.  It
    lives for the pass."""

    def __init__(self, plan: "_Plan", family: Family):
        self.plan, self.family, self.memo = plan, family, {}
        self.rows = _int_rows(family, plan.labels, plan.r_lo, plan.r_hi)

    def grid(self, key: Tuple, make: Callable):
        """make(), which depends on the grid alone: the plan keeps it for every pass."""
        if key not in self.plan.grid:
            self.plan.grid[key] = make()
        return self.plan.grid[key]

    def table(self, r: int) -> Tuple[int, List[int], bool]:
        """(lo, Delta^r d*X(r, .) at the labels lo..hi of the span the plan states for row
        r, whether every value is r!*d): the row differenced r times, once.  Every row of a
        family is a monic polynomial of degree r, so its table is r!*d throughout."""
        if r not in self.memo:
            lo, hi = self.plan.spans[r]
            (d, row), at = self.rows[r], self.plan.at
            table = row[at[lo]:at[hi] + 1]
            for _ in range(r):
                table = list(map(sub, table[1:], table))
            self.memo[r] = lo, table, table.count(math.factorial(r) * d) == len(table)
        return self.memo[r]

    def sums(self, n: int, ms: List[int], scale: bool) -> Tuple[List[int], List[int], List[int]]:
        """(k, term, the sum) at each m of ms, for (a, b) = (0, m) if scale else (m, 1), where
        the sum is sum_{l=1..n} (-1)^l C(n,l) l d*X(n, a + b*l), the sum of L1 relabeled
        x -> a + b*x, k = n!*b^(n-1) and term = n*a + n(n+1)/2*b.  k and term depend on the
        grid alone; each sum is computed once per pass, so L2_SCALE and SCALE_ID share theirs."""
        key, at, count = (scale, n, ms[0], ms[-1]), self.plan.at, len(ms)
        w, fact, half = self.grid(n, lambda: (_weights(n, 1)[1:], math.factorial(n),
                                              n * (n + 1) // 2))
        where, ks, terms = self.grid(key, lambda: (  # the row positions of X(n, a + b*l)
            [at[l * m] for m in ms for l in range(1, n + 1)], [fact * m ** (n - 1) for m in ms],
            [half * m for m in ms]) if scale else (
            at[ms[0] + 1], [fact] * count, [half + n * m for m in ms]))
        if key not in self.memo:
            get = self.rows[n][1].__getitem__
            if scale:
                values = map(get, where)
            else:  # the n labels from m + 1, m by m
                values = chain.from_iterable(map(get, map(slice, range(where, where + count),
                                                          range(where + n, where + n + count))))
            self.memo[key] = _dots(cycle(w), values, n)
        return ks, terms, self.memo[key]


def _kernel_root_sum(ps, n, ms, pqs, every, scale):
    # L1 of the family relabeled x -> a + b*x, (a, b) = (0, m) if scale else (m, 1): its
    # members are X(n, a + b*l)/b^n and its root sum is (S_n + n*a)/b.  With S_n = s/e and
    # k, term and the sum of ``sums``, both sides times k*d*e are ints, and a check passes
    # iff (-1)^n e*sum == k*(d*s + d*e*term).
    d, root_sum = ps.rows[n][0], ps.family.root_sum(n)
    s, e = root_sum.numerator * d, root_sum.denominator
    ks, terms, sums = ps.sums(n, ms, scale)
    got = list(map(((-1) ** n * e).__mul__, sums))
    want = list(map(mul, ks, map(s.__add__, map((d * e).__mul__, terms))))
    return _failing(got, want, every, lambda i: (
        ms[i], None, None, s * ks[i], got[i] - want[i] + s * ks[i], ks[i] * d * e))


def _kernel_rec_m(ps, n, ms, pqs, every):
    # sum_{l=1..n} (-1)^(n+l) C(n,l-1) f(m-n+l) = f(m+1) - Delta^n f(m-n+1), so with
    # f = d*X(n, .) a check holds iff Delta^n f(m-n+1) == n!*d; its rhs is the same int.
    lo, table, holds = ps.table(n)
    if holds and not every:
        return ()
    d, row = ps.rows[n]
    fd, start = math.factorial(n) * d, ms[0] - n + 1 - lo
    window = table[start:start + len(ms)]

    def point(i):
        lhs = row[ps.plan.at[ms[i] + 1]]
        return ms[i], None, None, lhs, lhs - window[i] + fd, d

    return _failing(window, [fd] * len(ms), every, point)


def _kernel_scale_id(ps, n, ms, pqs, every):
    # With the sums of L2_SCALE at m and of L1 (plain), times k*d = n!*m^(n-1)*d a check
    # passes iff n!*sum == k*(plain + c*(n(n+1)/2 - term)), c = (-1)^(n-1) n!*d.
    d = ps.rows[n][0]
    ks, terms, sums = ps.sums(n, ms, True)
    (fact,), (half,), (plain,) = ps.sums(n, [0], False)  # m = 0: k = n!, term = n(n+1)/2
    c = (-1) ** (n - 1) * fact * d
    got = list(map(fact.__mul__, sums))
    want = list(map(mul, ks, map((plain + c * half).__sub__, map(c.__mul__, terms))))
    return _failing(got, want, every, lambda i: (ms[i], None, None, got[i], want[i], ks[i] * d))


def _kernel_expl(ps, n, ms, pqs, every, sign):
    d, row = ps.rows[n]
    at = ps.plan.at
    ffs, weights = ps.grid(("expl", n), lambda: ([math.perm(m, n) for m in ms], [
        (-1) ** (n + l) * (n - l) * math.comb(n, l) * math.comb(m, n) * (math.perm(m, n) // (l - m))
        for m in ms for l in range(n)]))
    values = [row[at[sign * l]] for l in range(n)]  # X(n, sign*l), l = 0..n-1
    want = list(map(add, _dots(weights, cycle(values), n),
                    map((sign ** n * d).__mul__, map(mul, ffs, ffs))))
    got = [ff * row[at[sign * m]] for ff, m in zip(ffs, ms)]  # m!/(m-n)! * X(n, sign*m)
    return _failing(got, want, every, lambda i: (ms[i], None, None, got[i], want[i], ffs[i] * d))


def _kernel_subfam(ps, n, ms, pqs, every, fact):
    # With f = d*X(n-p, .), r = n-p and Stirling numbers S(q, j), the entry's sum is
    # T_q(m) = (-1)^n sum_{j<=q} S(q,j) n!/(n-j)! Delta^(n-j) f(m-n+j).  Where
    # Delta^r f is constant on the window ms[0]-n..ms[-1]-r that the (n, p) checks read,
    # every term with j < p vanishes: T_q = 0 for every q < p and every m, and
    # T_p = (-1)^n n!/(n-p)! Delta^r f, which is (-1)^n n!*d where the table holds.
    # Elsewhere _subfam_points sums each check.
    sign, failing = (-1) ** n, []
    for p, qs in pqs:
        lo, table, holds = ps.table(n - p)
        if holds and not every:
            continue
        d = ps.rows[n - p][0]
        rhs = sign * math.factorial(n) * d if fact else 0
        window = table[ms[0] - n - lo:ms[0] - n - lo + len(ms) + p]
        if window.count(window[0]) != len(window):
            failing += _subfam_points(ps, n, ms, p, qs, rhs, every, fact)
            continue
        lhs = sign * math.perm(n, p) * window[0] if fact else 0
        if every or lhs != rhs:
            failing += [(m, p, q, lhs, rhs, d) for m in ms for q in qs]
    return failing


def _subfam_points(ps, n, ms, p, qs, rhs, every, fact):
    """The SUBFAM_* checks at one (n, p) whose window is not constant, each its own sum."""
    d, row = ps.rows[n - p]
    start, failing = ps.plan.at[ms[0] - n], []
    for q in qs:
        w = _weights(n, p if fact else q)
        sums = [sum(map(mul, w, row[start + i:start + i + n + 1])) for i in range(len(ms))]
        failing += [(m, p, q, lhs, rhs, d) for m, lhs in zip(ms, sums) if every or lhs != rhs]
    return failing


def _kernel_fib_posneg(ps, n, ms, pqs, every, compl):
    d = ps.rows[n][0]
    (pos,), (neg,) = ps.sums(n, [0], False)[2], ps.sums(n, [-1], True)[2]  # X(n, l), X(n, -l)
    lhs = neg + ((-1) ** n if compl else -1) * pos
    rhs = n * math.factorial(n + 1) * d * (1 if compl else n % 2)
    return _failing([lhs], [rhs], every, lambda i: (None, None, None, lhs, rhs, d))


def _kernel_fib_poly(ps, n, ms, pqs, every):
    d, row = ps.rows[n]
    got = [fibonacci_polynomial(n, m) * d for m in ms]
    start = ps.plan.at[ms[0]]
    want = row[start:start + len(ms)]
    return _failing(got, want, every, lambda i: (ms[i], None, None, got[i], want[i], d))


class Entry(NamedTuple):
    """One catalog entry, defined once."""

    params: str  # the parameters a point carries beyond n: "", "m", "mp" or "mpq"
    m_hypothesis: Optional[Tuple[Callable[[int, int], bool], str]]  # holds(n, m), statement
    fib_only: bool  # holds for the generalized Fibonacci family lucas:-1 only
    reads: Callable[[int, List[int]], Sequence[int]]  # (n, ms) -> the labels the kernel reads
    # (ps, n, ms, pqs, every) -> the points (m, p, q, lhs, rhs, k) of the failing checks at
    # n, for the pass ps, the admissible ms and pqs of Entry.points, and every: bool
    kernel: Callable
    # (n, ms, pqs) -> (r, lo, hi) for each row r whose differences at lo..hi the kernel reads
    tables: Callable = lambda n, ms, pqs: ()

    def points(self, n: int, ranges: SweepRanges) -> Tuple[List[int], PQs]:
        """The admissible m of a sweep at n, and its admissible p that have an admissible q,
        each with those q; [0] and [(None, (None,))] for an entry without m or p."""
        ms = ranges.m_values(n) if "m" in self.params else [0]
        if self.m_hypothesis:
            holds = self.m_hypothesis[0]
            ms = [m for m in ms if holds(n, m)]
        if "p" not in self.params:
            return ms, [(None, _ONE)]
        pqs = [(p, Q_SPAN.values(p, ranges.q) if "q" in self.params else _ONE)
               for p in P_SPAN.values(n, ranges.p)]
        return ms, [(p, qs) for p, qs in pqs if qs]


def _shifted(n: int, ms: List[int]) -> range:
    return range(ms[0] + 1, ms[-1] + n + 1)  # l + m for l = 1..n, at each m of a range


def _scaled(n: int, ms: Sequence[int]) -> List[int]:
    return [l * m for m in ms for l in range(1, n + 1)]


_M_NONZERO = (lambda n, m: m != 0, "m != 0")
_M_AT_LEAST_N = (lambda n, m: m >= n, "m >= n")
_SUBFAM = (lambda n, ms: range(ms[0] - n, ms[-1] + 1),  # reads, of the row n - p at each p
           lambda n, ms, pqs: [(n - p, ms[0] - n, ms[-1]) for p, _ in pqs])

#: The identity catalog.  L1, L2_SHIFT and L2_SCALE are one root-sum kernel, relabeled;
#: EXPL_NEG is EXPL_POS over the labels -l and -m; FIB_POSNEG_COMPL flips the sign of X(n, l).
CATALOG: Dict[Identity, Entry] = {
    Identity.L1: Entry("", None, False, _shifted, partial(_kernel_root_sum, scale=False)),
    Identity.L2_SHIFT: Entry("m", None, False, _shifted, partial(_kernel_root_sum, scale=False)),
    Identity.L2_SCALE: Entry("m", _M_NONZERO, False, _scaled,
                             partial(_kernel_root_sum, scale=True)),
    Identity.REC_M: Entry("m", None, False, lambda n, ms: range(ms[0] - n + 1, ms[-1] + 2),
                          _kernel_rec_m,  # X(n, l+m-n) for l = 1..n+1
                          lambda n, ms, pqs: [(n, ms[0] - n + 1, ms[-1] + 1)]),
    Identity.SCALE_ID: Entry("m", _M_NONZERO, False, lambda n, ms: _scaled(n, [1, *ms]),
                             _kernel_scale_id),
    Identity.EXPL_POS: Entry("m", _M_AT_LEAST_N, False, lambda n, ms: [*range(n), *ms],
                             partial(_kernel_expl, sign=1)),
    Identity.EXPL_NEG: Entry("m", _M_AT_LEAST_N, False,
                             lambda n, ms: [*range(1 - n, 1), *(-m for m in ms)],
                             partial(_kernel_expl, sign=-1)),
    Identity.SUBFAM_ZERO: Entry("mpq", None, False, _SUBFAM[0],
                                partial(_kernel_subfam, fact=False), _SUBFAM[1]),
    Identity.SUBFAM_FACT: Entry("mp", None, False, _SUBFAM[0],
                                partial(_kernel_subfam, fact=True), _SUBFAM[1]),
    Identity.FIB_POSNEG: Entry("", None, True, lambda n, ms: _scaled(n, (1, -1)),
                               partial(_kernel_fib_posneg, compl=False)),
    Identity.FIB_POSNEG_COMPL: Entry("", None, True, lambda n, ms: _scaled(n, (1, -1)),
                                     partial(_kernel_fib_posneg, compl=True)),
    Identity.FIB_POLY: Entry("m", None, True, lambda n, ms: ms, _kernel_fib_poly),
}


class _Plan(NamedTuple):
    """What every family's pass runs: each entry's admissible points at each n, with their
    check counts; the rows r_lo..r_hi it builds, over the labels the kernels read, and the
    position of each label in a row; the span of labels lo..hi of each row's difference
    table; and what the kernels read that depends on the grid alone, made on first use."""

    points: List[Tuple]  # (identity, n, ms, pqs, its check count)
    labels: List[int]
    at: Dict[int, int]
    r_lo: int
    r_hi: int
    spans: Dict[int, Tuple[int, int]]
    grid: Dict[Tuple, object]


def _plan(identities: Sequence[Identity], ranges: SweepRanges) -> Optional[_Plan]:
    """The plan of every family of a sweep; None when no entry has an admissible point."""
    points = [(identity, n, *CATALOG[identity].points(n, ranges)) for identity in identities
              for n in range(max(ranges.n[0], 1), ranges.n[1] + 1)]
    points = [(identity, n, ms, pqs, len(ms) * sum(len(qs) for _, qs in pqs))
              for identity, n, ms, pqs in points if ms and pqs]
    if not points:
        return None
    # the windows of one row's table overlap, so its span holds only labels ``reads`` names
    spans: Dict[int, Tuple[int, int]] = {}
    for identity, n, ms, pqs, _ in points:
        for r, lo, hi in CATALOG[identity].tables(n, ms, pqs):
            old = spans.get(r, (lo, hi))
            spans[r] = min(lo, old[0]), max(hi, old[1])
    labels = sorted(set(chain.from_iterable(CATALOG[i].reads(n, ms) for i, n, ms, *_ in points)))
    r_values = [n - (p or 0) for _, n, _, pqs, _ in points for p, _ in pqs]  # rows n - p
    return _Plan(points, labels, {x: i for i, x in enumerate(labels)}, min(r_values),
                 max(r_values), spans, {})


def _points(plan: Optional[_Plan], family: Family) -> List[Tuple]:
    """The points of the plan on one family; the fib_only entries run on lucas:-1 alone."""
    fib = family == FIB
    return [pt for pt in plan.points if fib or not CATALOG[pt[0]].fib_only] if plan else []


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
    ps = _Pass(plan, family)
    count = 0
    failing = []
    for identity, n, ms, pqs, checks in points:
        count += checks
        failing += [(identity.value, n, *point)
                    for point in CATALOG[identity].kernel(ps, n, ms, pqs, False)]
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
