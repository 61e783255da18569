"""Layer groups of the traced run; each group runs in a fresh interpreter.

    python perfbench/layers.py <group> <out.json> '<params as JSON>'

The member memo in seqfam.families is global to a process and has no public
reset, so timing a group after another in one interpreter would measure a
warm memo that no CLI user sees.  Every group therefore gets its own process.
A group times calls into one module's public functions, keeps its spans in
memory and writes them, with its result, to ``out.json`` when it ends.

The group ``cli`` runs one seqfam CLI command with spans around the public
functions at each module boundary; its output goes to stdout as usual.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

from spans import Tracer, duration


def _families(labels):
    from seqfam.cli import parse_one_family
    return [parse_one_family(label) for label in labels]


def _ranges(p):
    from seqfam.identities import SweepRanges
    return SweepRanges(n=tuple(p["n"]), m=tuple(p["m"]))


def identities_cells(tracer, p):
    """One single-cell sweep per family for one catalog entry."""
    from seqfam.cli import parse_identities
    from seqfam.identities import sweep
    entry, ranges, cells = parse_identities(p["entry"]), _ranges(p), []
    for label, family in zip(p["families"], _families(p["families"])):
        with tracer.span("identities.cell", entry=p["entry"], family=label) as span:
            report = sweep(entry, [family], ranges)
        cells.append({"family": label, "s": duration(span), "checks": report.total_checks,
                      "failures": len(report.failures)})
    return {"cells": cells}


def _log_pool_cells(path):
    """Make every pool worker append "<pid> <seconds>" for each cell it runs to ``path``.

    The pool's task function is private to seqfam.identities.  The pool forks
    its workers after this patch, so they run the wrapper; if the function is
    renamed, nothing is logged and the caller falls back to a model.
    """
    import seqfam.identities as identities
    fn = getattr(identities, "_run_cell_star", None)
    if fn is None:
        return

    @functools.wraps(fn)
    def timed(args):
        started = time.perf_counter()
        out = fn(args)
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {time.perf_counter() - started}\n")
        return out

    identities._run_cell_star = timed


def identities_sweep(tracer, p):
    """The whole verify command as one sweep call with the given worker count.

    With workers, ``worker_busy_s`` is each worker's summed cell time in this
    very sweep, so that the pool's overhead is measured against the same run.
    """
    from seqfam.cli import parse_identities
    from seqfam.identities import sweep
    entries, families = parse_identities(",".join(p["entries"])), _families(p["families"])
    log = Path(p["cell_log"])
    log.unlink(missing_ok=True)
    if p["workers"] > 1:
        _log_pool_cells(log)
    with tracer.span("identities.sweep", workers=p["workers"]) as span:
        report = sweep(entries, families, _ranges(p), workers=p["workers"])
    busy = {}
    if log.exists():
        for line in log.read_text().splitlines():
            pid, seconds = line.split()
            busy[pid] = busy.get(pid, 0.0) + float(seconds)
        log.unlink()
    return {"s": duration(span), "checks": report.total_checks,
            "failures": len(report.failures), "worker_busy_s": sorted(busy.values())}


def families_tables(tracer, p):
    """table() per family on one window: member evaluation from a cold memo."""
    from seqfam.families import table
    out = {}
    for label, family in zip(p["families"], _families(p["families"])):
        with tracer.span("families.table", family=label) as span:
            window = table(family, tuple(p["n"]), tuple(p["m"]))
        out[label] = {"s": duration(span), "members": sum(len(row) for row in window.values)}
    return out


def cli_render(tracer, p):
    """Each renderer once on a prebuilt window, then format_exact on every value."""
    from seqfam.cli import render_table_csv, render_table_text, window_json_dict
    from seqfam.exact import format_exact
    from seqfam.families import table
    render = {
        "json": lambda w: json.dumps(window_json_dict(w), indent=2),
        "text": render_table_text,
        "csv": render_table_csv,
    }
    windows, out = [], {}
    for spec, family in zip(p["windows"], _families([w["family"] for w in p["windows"]])):
        with tracer.span("families.table", family=spec["family"]):
            windows.append(table(family, tuple(spec["n"]), tuple(spec["m"])))
    for spec, window in zip(p["windows"], windows):
        with tracer.span("cli.render", format=spec["format"]) as span:
            text = render[spec["format"]](window)
        out[spec["format"]] = {"s": duration(span), "bytes": len(text.encode())}
    with tracer.span("exact.format_exact") as span:
        for window in windows:
            for row in window.values:
                for value in row:
                    format_exact(value)
    out["format_s"] = duration(span)
    return out


def floatcheck_grid(tracer, p):
    from seqfam.floatcheck import compare_grid
    seconds = points = failures = 0
    for label, family in zip(p["families"], _families(p["families"])):
        with tracer.span("floatcheck.compare_grid", family=label) as span:
            results = compare_grid(family, tuple(p["n"]), tuple(p["m"]))
        seconds += duration(span)
        points += len(results)
        failures += sum(1 for r in results if not r.within(p["tol"]))
    return {"s": seconds, "points": points, "failures": failures}


def oeis_lookups(tracer, p):
    from seqfam.oeis import OeisClient, cross_check, fixture_entries
    with tracer.span("oeis.fixture_entries") as span:
        fixture_entries()
    load_s = duration(span)
    client = OeisClient(offline=True, cache_dir=Path(p["cache_dir"]))
    lookups = []
    for spec, family in zip(p["lookups"], _families([q["family"] for q in p["lookups"]])):
        with tracer.span("oeis.cross_check", family=spec["family"], axis=spec["axis"]) as span:
            match, verdict = cross_check(family, spec["axis"], spec["fixed"],
                                         tuple(spec["range"]), client)
        lookups.append({"s": duration(span), "verdict": verdict, "ids": list(match.ids),
                        "terms": list(match.terms)})
    return {"fixture_load_s": load_s, "lookups": lookups}


#: Public functions at the module boundaries that a traced CLI command crosses.
#: Per-member functions (X, format_exact) are left out: a span per call would
#: cost more than the work it times.
CLI_BOUNDARIES = (
    ("seqfam.cli", "main"), ("seqfam.cli", "cmd_table"), ("seqfam.cli", "cmd_verify"),
    ("seqfam.cli", "cmd_float_check"), ("seqfam.cli", "cmd_oeis"),
    ("seqfam.cli", "window_json_dict"), ("seqfam.cli", "render_table_text"),
    ("seqfam.cli", "render_table_csv"), ("seqfam.identities", "sweep"),
    ("seqfam.families", "table"), ("seqfam.floatcheck", "compare_grid"),
    ("seqfam.oeis", "cross_check"), ("seqfam.oeis", "fixture_entries"),
)


def _wrap_boundaries(tracer):
    import seqfam.cli  # noqa: F401 - imports every module of the package
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "seqfam"]
    for module_name, attr in CLI_BOUNDARIES:
        fn = getattr(sys.modules[module_name], attr, None)
        if fn is None:
            continue
        name = f"{module_name.split('.')[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, _fn=fn, _name=name, **kwargs):
            with tracer.span(_name):
                return _fn(*args, **kwargs)

        for module in modules:  # also the names other modules imported
            if getattr(module, attr, None) is fn:
                setattr(module, attr, traced)


def run_cli(tracer, p, out_path):
    _wrap_boundaries(tracer)
    import seqfam.cli
    try:
        code = seqfam.cli.main(p["argv"])
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps({"spans": tracer.spans, "result": {}}))
    sys.exit(code)


GROUPS = {
    "identities-cells": identities_cells,
    "identities-sweep": identities_sweep,
    "families": families_tables,
    "render": cli_render,
    "floatcheck": floatcheck_grid,
    "oeis": oeis_lookups,
}


def main(argv):
    group, out_path, params = argv[0], argv[1], json.loads(argv[2])
    tracer = Tracer(run=params["run"])
    if group == "cli":
        run_cli(tracer, params, out_path)
    result = GROUPS[group](tracer, params)
    Path(out_path).write_text(json.dumps({"spans": tracer.spans, "result": result}))


if __name__ == "__main__":
    main(sys.argv[1:])
