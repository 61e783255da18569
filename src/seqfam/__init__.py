"""seqfam: exact-arithmetic families of product-representable number sequences.

Build families X(n, m) = prod_l (m + x[n,l]) -- pure powers, rising
factorials, general Lucas and generalized Fibonacci numbers, or explicit
roots -- and verify the linear identities and recursions that interlink the
sequences of each family, exactly, over parameter sweeps.  Floating-point
cosine products and OEIS leading-term lookups provide independent
cross-checks.

Each export is resolved on first access (PEP 562), so importing the package,
or one of its modules, runs only the modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The submodule that defines each export.
_EXPORTS = {
    **dict.fromkeys(["ExactScalar", "format_exact", "normalize", "parse_exact", "pochhammer"],
                    "exact"),
    **dict.fromkeys(["FIB", "ExplicitRootsFamily", "Family", "LucasFamily", "PochhammerFamily",
                     "PowerFamily", "SequenceWindow", "X", "fibonacci_polynomial", "table"],
                    "families"),
    **dict.fromkeys(["FloatCompareResult", "compare_grid"], "floatcheck"),
    **dict.fromkeys(["ALL_IDENTITIES", "DomainError", "Identity", "IdentityCheck",
                     "SweepRanges", "SweepReport", "eval_identity", "sweep"], "identities"),
    **dict.fromkeys(["OeisClient", "OeisMatch", "ParseError", "TransportError", "cross_check"],
                    "oeis"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
