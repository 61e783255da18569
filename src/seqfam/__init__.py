"""seqfam: exact-arithmetic families of product-representable number sequences.

Build families X(n, m) = prod_l (m + x[n,l]) -- pure powers, rising
factorials, general Lucas and generalized Fibonacci numbers, or explicit
roots -- and verify the linear identities and recursions that interlink the
sequences of each family, exactly, over parameter sweeps.  Floating-point
cosine products and OEIS leading-term lookups provide independent
cross-checks.

Importing the package runs none of its modules.  Every submodule but ``cli``
is registered here, in sys.modules and as an attribute of the package, and
runs when one of its attributes is first read (importlib.util.LazyLoader);
each export is read from its module on first access (PEP 562).  So a process
runs only the modules it uses, and ``cli``, run as ``python -m seqfam.cli``,
is not in sys.modules before it starts.
"""

__version__ = "0.1.0"

#: The submodule that defines each export.
_EXPORTS = {
    **dict.fromkeys(["ExactScalar", "format_exact", "normalize", "parse_exact"], "exact"),
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


def _register_lazily(names):
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in names:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[spec.name] = globals()[name] = module_from_spec(spec)
        spec.loader.exec_module(module)


_register_lazily(dict.fromkeys(_EXPORTS.values()))
del _register_lazily


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_EXPORTS[name]], name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
