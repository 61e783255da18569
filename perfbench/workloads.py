"""The benchmark's workloads: the CLI operations each one runs, made from a seed.

Seed 0 gives exactly the grids below.  Any other seed shifts each m window
by a small seed-derived offset and runs the table-render operations in a
seed-derived order, so a claim can be re-checked on inputs it was not tuned
on.  Shifts stay small so that the work per operation, and hence the spread
of the timings across seeds, changes little (the headline sweep makes
337,160 to 337,580 checks).  The offsets depend on the seed alone, so
verify-headline and verify-headline-par2 sweep the same grid.

Each operation is a dict: ``kind``, the ``argv`` given to ``seqfam``, and the
parameters the oracle needs to judge its output.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from oracle import ENTRIES, STANDARD_FAMILIES

WORKLOADS = ("verify-headline", "verify-headline-par2", "table-render")

#: Grids per size.  "full" is the benchmark; "tiny" is for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "full": {"headline_n": (1, 20), "headline_m": (-10, 10),
             "lucas_n": (0, 600), "table_n": (0, 300), "table_m": (-60, 60),
             "float_n": (1, 25), "float_m": (-10, 10)},
    "tiny": {"headline_n": (1, 5), "headline_m": (-3, 3),
             "lucas_n": (0, 24), "table_n": (0, 12), "table_m": (-4, 4),
             "float_n": (1, 5), "float_m": (-3, 3)},
}

#: Which m windows shift, and within which offsets.  The OEIS fixtures hold each
#: sequence from its first term, so the row windows only shift upwards; the
#: column (a fixed m) does not move.
SHIFTS = (("headline", -1, 1), ("lucas", -1, 1), ("pochhammer", -1, 1),
          ("power", -1, 1), ("float", -1, 1), ("fib_row", 0, 1), ("pochhammer_row", 0, 1))

#: The window that times table() per family in the traced run.
FAMILY_WINDOW = {"full": ((0, 300), (-60, 60)), "tiny": ((0, 12), (-4, 4))}


def _text(rng: Tuple[int, int]) -> str:
    return f"{rng[0]}..{rng[1]}"


def _shifted(rng: Tuple[int, int], offset: int) -> Tuple[int, int]:
    return rng[0] + offset, rng[1] + offset


def verify_op(n, m, workers=1) -> Dict:
    """Every catalog entry over every standard family."""
    argv = ["verify", "--family", "all", "--identity", "all",
            "--n", _text(n), "--m", _text(m), "--format", "json"]
    if workers > 1:
        argv += ["--workers", str(workers)]
    return {"kind": "verify", "argv": argv, "entries": list(ENTRIES),
            "families": list(STANDARD_FAMILIES), "n": n, "m": m, "workers": workers}


def table_op(family, n, m, fmt) -> Dict:
    return {"kind": "table", "family": family, "n": n, "m": m, "format": fmt,
            "argv": ["table", "--family", family, "--n", _text(n), "--m", _text(m),
                     "--format", fmt]}


def float_op(n, m) -> Dict:
    """float-check over every standard family; flags only where not the defaults."""
    argv = ["float-check", "--family", "all", "--format", "json"]
    if n != (1, 25):
        argv += ["--n", _text(n)]
    if m != (-10, 10):
        argv += ["--m", _text(m)]
    return {"kind": "float-check", "argv": argv, "families": list(STANDARD_FAMILIES),
            "n": n, "m": m}


def oeis_op(selector, family, axis, fixed, rng, ident, default_rng) -> Dict:
    argv = ["oeis", "--family", selector, f"--{axis}", str(fixed), "--offline",
            "--format", "json"]
    if rng != default_rng:
        argv += ["--m" if axis == "row" else "--n", _text(rng)]
    return {"kind": "oeis", "argv": argv, "family": family, "axis": axis, "fixed": fixed,
            "range": rng, "id": ident}


def make_ops(workload: str, seed: int, size: str = "full") -> List[Dict]:
    """The operations of one pass of ``workload``, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    g = SIZES[size]
    rng = random.Random(f"perfbench/{seed}")
    shift = {name: 0 if seed == 0 else rng.randint(lo, hi) for name, lo, hi in SHIFTS}
    headline_m = _shifted(g["headline_m"], shift["headline"])

    if workload == "verify-headline":
        return [verify_op(g["headline_n"], headline_m)]
    if workload == "verify-headline-par2":
        return [verify_op(g["headline_n"], headline_m, workers=2)]

    ops = [
        table_op("lucas:2", g["lucas_n"], _shifted(g["table_m"], shift["lucas"]), "json"),
        table_op("pochhammer", g["table_n"], _shifted(g["table_m"], shift["pochhammer"]),
                 "text"),
        table_op("power:1/2", g["table_n"], _shifted(g["table_m"], shift["power"]), "csv"),
        float_op(g["float_n"], _shifted(g["float_m"], shift["float"])),
        oeis_op("fib", "lucas:-1", "column", 1, (0, 11), "A000045", (0, 11)),
        oeis_op("fib", "lucas:-1", "row", 3, _shifted((0, 9), shift["fib_row"]), "A054602",
                (0, 9)),
        oeis_op("pochhammer", "pochhammer", "row", 2,
                _shifted((0, 9), shift["pochhammer_row"]), "A002378", (0, 9)),
    ]
    if seed != 0:
        rng.shuffle(ops)
    return ops


def headline_grid(seed: int, size: str = "full") -> Dict:
    """The headline sweep at this seed, whose cells the traced run times one
    by one on every workload."""
    op = make_ops("verify-headline", seed, size)[0]
    return {"entries": op["entries"], "n": op["n"], "m": op["m"]}
