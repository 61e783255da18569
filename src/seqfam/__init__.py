"""seqfam: exact-arithmetic families of product-representable number sequences.

Build families X(n, m) = prod_l (m + x[n,l]) -- pure powers, rising
factorials, general Lucas and generalized Fibonacci numbers, or explicit
roots -- and verify the linear identities and recursions that interlink the
sequences of each family, exactly, over parameter sweeps.  Floating-point
cosine products and OEIS leading-term lookups provide independent
cross-checks.
"""

from .exact import ExactScalar, format_exact, normalize, parse_exact, pochhammer
from .families import (FIB, ExplicitRootsFamily, Family, LucasFamily, PochhammerFamily,
                       PowerFamily, SequenceWindow, X, fibonacci_polynomial, table)
from .floatcheck import FloatCompareResult, compare_grid
from .identities import (ALL_IDENTITIES, DomainError, Identity, IdentityCheck, SweepRanges,
                         SweepReport, eval_identity, sweep)
from .oeis import OeisClient, OeisMatch, ParseError, TransportError, cross_check

__version__ = "0.1.0"

__all__ = [
    "ExactScalar", "format_exact", "normalize", "parse_exact", "pochhammer",
    "FIB", "ExplicitRootsFamily", "Family", "LucasFamily", "PochhammerFamily",
    "PowerFamily", "SequenceWindow", "X", "fibonacci_polynomial", "table",
    "FloatCompareResult", "compare_grid",
    "ALL_IDENTITIES", "DomainError", "Identity", "IdentityCheck", "SweepRanges",
    "SweepReport", "eval_identity", "sweep",
    "OeisClient", "OeisMatch", "ParseError", "TransportError", "cross_check",
    "__version__",
]
