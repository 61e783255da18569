"""Benchmark of the seqfam CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-headline --seed 0 --seconds 35 --trace 0

Run it from anywhere inside a checkout of the repository; it uses the
sources under ``src/`` next to this directory and writes only under
``.perfbench/`` in the checkout.

``--trace 0`` measures what a user waits for.  Every operation is a fresh
``python -m seqfam.cli`` process, as users run seqfam, so every operation
starts with a cold member memo.  One client runs the workload's operations
back to back (a closed loop) and repeats the whole pass for as long as
another pass still fits into ``--seconds``; timings are medians over the
passes.  Set-up time is sampled in batches between the passes, within the
same budget, so it sees the same machine as they do.
Every output is checked against an independent oracle, and the last line of
stdout is one JSON object with the end-to-end metrics.

``--trace 1`` runs untraced passes alternating with passes that have spans
around the public functions at each module boundary, and then times calls
into each module's public functions in fresh interpreters (see layers.py).
The layer groups do not depend on ``--workload``: every workload reports the
same per-layer metrics, and their values differ between workloads by noise
alone.  It writes every span to ``.perfbench/trace/`` and prints the
per-layer metrics.

An operation fails when it exits non-zero, prints a traceback or fails its
correctness gate.  The run exits 1 when any operation failed, and 2, before
measuring anything, when the checkout holds no seqfam sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracle
from spans import Tracer, totals_by_name
from workloads import FAMILY_WINDOW, WORKLOADS, headline_grid, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_SPAWNS = 30
SETUP_BATCH = 5
TRACE_PAIRS = 3
SWEEP_REPEATS = 3
OP_TIMEOUT_S = 150.0
SETUP_CODE = "import seqfam.cli as cli; cli.build_parser()"


def family_name(label: str) -> str:
    return label.replace(":", "_").replace("/", "_")


# -- processes ------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["SEQFAM_CACHE_DIR"] = str(OUT / "cache")
    return env


class Finished:
    """An ended child process: exit code, wall time, peak RSS and its output."""

    def __init__(self, returncode: int, wall_s: float, rss_mb: float, stdout: str, stderr: str):
        self.returncode, self.wall_s, self.rss_mb = returncode, wall_s, rss_mb
        self.stdout, self.stderr = stdout, stderr


class Launcher:
    """Runs children through launch.py, a process started while this one is small."""

    def __init__(self):
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)

    def spawn(self, argv: List[str]) -> Finished:
        out_path, err_path = self.tmp / f"stdout-{os.getpid()}", self.tmp / f"stderr-{os.getpid()}"
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(out_path),
                                          "stderr": str(err_path), "timeout": OP_TIMEOUT_S}))
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        ended = json.loads(reply)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Finished(ended["returncode"], ended["wall_s"], ended["rss_mb"], stdout, stderr)

    def close(self) -> None:
        """End the launcher; if a command is still running, it is killed first."""
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()


def cli_argv(op: Dict) -> List[str]:
    return [sys.executable, "-m", "seqfam.cli", *op["argv"]]


def layer_argv(group: str, out_path: Path, params: Dict) -> List[str]:
    return [sys.executable, str(HERE / "layers.py"), group, str(out_path), json.dumps(params)]


# -- end to end -------------------------------------------------------------------------

def measure_setup(launcher: Launcher, spawns: int) -> List[float]:
    """Fresh interpreter, seqfam.cli imported, build_parser() called, nothing run."""
    samples = []
    for _ in range(spawns):
        done = launcher.spawn([sys.executable, "-c", SETUP_CODE])
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-400:]}")
        samples.append(done.wall_s)
    return samples


class Pass:
    """One run of every operation of a workload, in order."""

    def __init__(self):
        self.walls: List[float] = []
        self.rss: List[float] = []
        self.problems: List[List[str]] = []

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def run_pass(launcher: Launcher, ops, expected, tracer: Optional[Tracer] = None) -> Pass:
    result = Pass()
    for op, exp in zip(ops, expected):
        if tracer is None:
            done = launcher.spawn(cli_argv(op))
        else:
            span_file = OUT / "tmp" / f"cli-spans-{os.getpid()}.json"
            params = {"run": tracer.run, "argv": op["argv"]}
            with tracer.span(f"op.{op['kind']}", argv=op["argv"]) as span:
                done = launcher.spawn(layer_argv("cli", span_file, params))
            if span_file.exists():
                tracer.adopt(json.loads(span_file.read_text())["spans"], span["id"])
                span_file.unlink()
        result.walls.append(done.wall_s)
        result.rss.append(done.rss_mb)
        result.problems.append(oracle.gate(op, exp, done.returncode, done.stdout, done.stderr))
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(launcher: Launcher, workload: str, seed: int, seconds: int, size: str
               ) -> Tuple[Dict, int, int]:
    ops = make_ops(workload, seed, size)
    expected = [oracle.expect(op) for op in ops]
    setup: List[float] = []
    passes: List[Pass] = []
    # passes and set-up batches share the --seconds budget: another pass starts
    # only if, as long as the longest so far, it and the set-up spawns still
    # to come end within the budget
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        setup += measure_setup(launcher, min(SETUP_BATCH, SETUP_SPAWNS - len(setup)))
        started = time.perf_counter()
        passes.append(run_pass(launcher, ops, expected))
        ended = time.perf_counter()
        longest = max(longest, ended - started)
        setup_left = (SETUP_SPAWNS - len(setup)) * statistics.median(setup)
        if ended + longest + setup_left > deadline:
            break
    setup += measure_setup(launcher, SETUP_SPAWNS - len(setup))

    sweeps = [i for i, op in enumerate(ops) if op["kind"] == "verify"]
    checks = sum(expected[i]["total_checks"] for i in sweeps)
    tables = [i for i, op in enumerate(ops) if op["kind"] == "table"]
    members = sum(expected[i]["members"] for i in tables)
    op_medians = [statistics.median(p.walls[i] for p in passes) for i in range(len(ops))]
    wall = sum(op_medians)
    attempted = len(ops) * len(passes)
    failed = sum(1 for p in passes for problems in p.problems if problems)
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(max(p.rss) for p in passes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }

    print(f"workload {workload}  seed {seed}  size {size}: {len(passes)} passes of "
          f"{len(ops)} operations, closed loop, 1 client")
    for i, op in enumerate(ops):
        q1, _, q3 = quartiles([p.walls[i] for p in passes])
        print(f"  op {i}: median {op_medians[i]:.3f} s (quartiles {q1:.3f}..{q3:.3f}), max RSS "
              f"{max(p.rss[i] for p in passes):.1f} MB  seqfam {' '.join(op['argv'])}")
    print(f"  wall_s        {wall:.4f} s   (sum over operations of the median of "
          f"{len(passes)} passes)")
    if sweeps:
        print(f"  checks_per_s  {checks / wall:.1f} 1/s   ({checks} checks a pass)")
    if tables:
        rate = members / sum(op_medians[i] for i in tables)
        print(f"  members_per_s {rate:.1f} 1/s   ({members} table members a pass)")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB  (median over passes of the "
          f"largest process tree)")
    print(f"  setup_s       {metrics['setup_s'][0]:.4f} s   (median of {len(setup)} spawns)")
    print(f"  ops_failed_ratio {failed / attempted:.4f}  ({failed} of {attempted})")
    report_problems(ops, passes)
    return metrics, attempted, failed


def report_problems(ops, passes) -> None:
    for n, p in enumerate(passes):
        for op, problems in zip(ops, p.problems):
            for problem in problems:
                print(f"  FAILED pass {n} seqfam {' '.join(op['argv'])}: {problem}")


# -- traced run ----------------------------------------------------------------------------

def run_group(launcher: Launcher, tracer: Tracer, group: str, params: Dict, label: str
              ) -> Tuple[Dict, bool]:
    out_path = OUT / "tmp" / f"group-{os.getpid()}.json"
    with tracer.span(f"group.{label}") as span:
        done = launcher.spawn(layer_argv(group, out_path, dict(params, run=tracer.run)))
    ok = done.returncode == 0 and "Traceback" not in done.stderr and out_path.exists()
    if not ok:
        print(f"  layer group {label}: exit {done.returncode} {done.stderr.strip()[-400:]}")
        return {}, False
    body = json.loads(out_path.read_text())
    out_path.unlink()
    tracer.adopt(body["spans"], span["id"])
    return body["result"], True


def greedy_makespan(cell_times: List[float], workers: int) -> float:
    """Largest per-worker sum when cells go, in order, to the least-loaded worker.

    A pool whose idle workers take the next task behaves this way when task
    times do not depend on the worker that runs them.
    """
    loads = [0.0] * workers
    for t in cell_times:
        loads[loads.index(min(loads))] += t
    return max(loads)


def traced(launcher: Launcher, workload: str, seed: int, size: str) -> Tuple[Dict, int, int]:
    run_id = f"{workload}-seed{seed}-{size}-{os.getpid()}-{int(time.time())}"
    tracer = Tracer(run_id)
    ops = make_ops(workload, seed, size)
    expected = [oracle.expect(op) for op in ops]
    families = list(oracle.STANDARD_FAMILIES)
    grid = headline_grid(seed, size)
    table_ops = make_ops("table-render", seed, size)
    metrics: Dict[str, Tuple[float, str]] = {}
    problems: List[Tuple[str, str]] = []  # (layer group, what is wrong)
    groups: List[str] = []

    def group(name, params, label):
        groups.append(label)
        result, ok = run_group(launcher, tracer, name, params, label)
        if not ok:
            problems.append((label, "the group process failed"))
        return result

    with tracer.span("run", workload=workload, seed=seed):
        # untraced and traced passes alternate, so that each pair sees the same
        # machine; the overhead is the median of the pairs' ratios
        untraced, traced_passes = [], []
        for _ in range(TRACE_PAIRS):
            with tracer.span("pass.untraced"):
                untraced.append(run_pass(launcher, ops, expected))
            with tracer.span("pass.traced"):
                traced_passes.append(run_pass(launcher, ops, expected, tracer))
        ratios = [t.wall_s / u.wall_s for u, t in zip(untraced, traced_passes)]
        metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")

        # identities: every cell of the headline sweep, one catalog entry per
        # interpreter
        cell_times, family_s = [], {f: 0.0 for f in families}
        n_rng, m_rng = tuple(grid["n"]), tuple(grid["m"])
        for entry in grid["entries"]:
            label = f"identities.{entry}"
            result = group("identities-cells", {"entry": entry, "families": families,
                                                "n": n_rng, "m": m_rng}, label)
            cells = result.get("cells", [])
            metrics[f"{label}.s"] = (sum(c["s"] for c in cells), "s")
            metrics[f"{label}.checks"] = (sum(c["checks"] for c in cells), "count")
            for c in cells:
                want = oracle.count_checks(entry, c["family"], n_rng, m_rng)
                if c["checks"] != want or c["failures"]:
                    problems.append((label, f"{c['family']}: {c['checks']} checks, "
                                            f"{c['failures']} failures; expected {want}, 0"))
                cell_times.append(c["s"])
                family_s[c["family"]] += c["s"]
        for f in families:
            metrics[f"identities.family.{family_name(f)}.s"] = (family_s[f], "s")
        metrics["identities.max_cell_s"] = (max(cell_times, default=0.0), "s")

        # the whole headline sweep, serial and with 2 workers in turn
        sweep_params = {"entries": grid["entries"], "families": families,
                        "n": grid["n"], "m": grid["m"],
                        "cell_log": str(OUT / "tmp" / f"cells-{os.getpid()}.txt")}
        want = oracle.sweep_checks(grid["entries"], families, n_rng, m_rng)
        serial_s, par2_s, par2_overhead = [], [], []
        for _ in range(SWEEP_REPEATS):
            for workers, label in ((1, "identities.serial"), (2, "identities.par2")):
                result = group("identities-sweep", dict(sweep_params, workers=workers), label)
                if result.get("checks") != want or result.get("failures"):
                    problems.append((label, f"{result}; expected {want} checks, no failures"))
                    continue
                if workers == 1:
                    serial_s.append(result["s"])
                    continue
                par2_s.append(result["s"])
                busy = result["worker_busy_s"]
                par2_overhead.append(result["s"] - (max(busy) if busy else
                                                    greedy_makespan(cell_times, 2)))
        if serial_s and par2_s:
            metrics["identities.par2_efficiency"] = (
                statistics.median(serial_s) / (2 * statistics.median(par2_s)), "ratio")
            metrics["identities.par2_overhead_s"] = (statistics.median(par2_overhead), "s")

        n_win, m_win = FAMILY_WINDOW[size]
        tables = group("families", {"families": families, "n": n_win, "m": m_win}, "families")
        for f in families:
            row = tables.get(f, {})
            metrics[f"families.{family_name(f)}.eval_s"] = (row.get("s", 0.0), "s")
            metrics[f"families.{family_name(f)}.members"] = (row.get("members", 0), "count")
            if row.get("members") != (n_win[1] - n_win[0] + 1) * (m_win[1] - m_win[0] + 1):
                problems.append(("families", f"{f}: {row}"))

        windows = [{"family": op["family"], "n": op["n"], "m": op["m"], "format": op["format"]}
                   for op in table_ops if op["kind"] == "table"]
        render = group("render", {"windows": windows}, "render")
        for fmt in ("json", "text", "csv"):
            metrics[f"cli.render_s.{fmt}"] = (render.get(fmt, {}).get("s", 0.0), "s")
            metrics[f"cli.render_bytes.{fmt}"] = (render.get(fmt, {}).get("bytes", 0), "bytes")
        metrics["exact.format_s"] = (render.get("format_s", 0.0), "s")

        fop = next(op for op in table_ops if op["kind"] == "float-check")
        fc = group("floatcheck", {"families": families, "n": fop["n"], "m": fop["m"],
                                  "tol": 1e-9}, "floatcheck")
        metrics["floatcheck.compare_s"] = (fc.get("s", 0.0), "s")
        metrics["floatcheck.points"] = (fc.get("points", 0), "count")
        if fc.get("points") != oracle.expect(fop)["total_checks"] or fc.get("failures"):
            problems.append(("floatcheck", f"{fc}"))

        lookups = [op for op in table_ops if op["kind"] == "oeis"]
        oe = group("oeis", {"cache_dir": str(OUT / "cache"), "lookups": [
            {"family": op["family"], "axis": op["axis"], "fixed": op["fixed"],
             "range": op["range"]} for op in lookups]}, "oeis")
        metrics["oeis.fixture_load_s"] = (oe.get("fixture_load_s", 0.0), "s")
        metrics["oeis.cross_check_s"] = (sum(x["s"] for x in oe.get("lookups", [])), "s")
        for op, got in zip(lookups, oe.get("lookups", [])):
            exp = oracle.expect(op)
            if not got["verdict"] or exp["id"] not in got["ids"] or got["terms"] != exp["terms"]:
                problems.append(("oeis", f"{op['argv']}: {got}"))

    passes = untraced + traced_passes
    attempted = len(passes) * len(ops) + len(groups)
    failed = (sum(1 for p in passes for bad in p.problems if bad)
              + len({label for label, _ in problems}))
    write_spans(tracer, workload, seed, size)
    print_trace(workload, seed, size, untraced, traced_passes, grid, metrics, tracer)
    print(f"  identities.serial sweep {fmt_list(serial_s)} s, par2 {fmt_list(par2_s)} s, "
          f"par2 overhead {fmt_list(par2_overhead)} s")
    report_problems(ops, passes)
    for label, problem in problems:
        print(f"  FAILED layer group {label}: {problem}")
    return metrics, attempted, failed


def write_spans(tracer: Tracer, workload: str, seed: int, size: str) -> None:
    path = OUT / "trace" / f"{workload}-seed{seed}-{size}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"run": tracer.run, "spans": tracer.spans,
                                "by_name": totals_by_name(tracer.spans)}))
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def fmt_list(values: List[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def print_trace(workload, seed, size, untraced, traced_passes, grid, metrics, tracer):
    print(f"workload {workload}  seed {seed}  size {size}: traced run")
    print(f"  wall_s untraced {fmt_list([p.wall_s for p in untraced])} s, traced "
          f"{fmt_list([p.wall_s for p in traced_passes])} s, tracing overhead "
          f"{metrics['trace.overhead_ratio'][0]:.4f} (median traced/untraced ratio of "
          f"{len(untraced)} adjacent pairs)")
    total = sum(metrics[f"identities.{e}.checks"][0] for e in grid["entries"])
    want = oracle.sweep_checks(grid["entries"], oracle.STANDARD_FAMILIES, grid["n"], grid["m"])
    print(f"  identities.*.checks sum to {total}; the headline sweep reports {want}")
    print("  self time by span name (count, total s, self s):")
    for name, row in sorted(totals_by_name(tracer.spans).items(),
                            key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:34s} {row['count']:5d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")


# -- entry point -----------------------------------------------------------------------

def git_commit() -> Optional[str]:
    """The commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny grids, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "seqfam" / "cli.py").is_file():
        print(f"error: no seqfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"commit {git_commit() or 'unknown'}")
    launcher = Launcher()
    try:
        if args.trace:
            metrics, attempted, failed = traced(launcher, args.workload, args.seed, args.size)
        else:
            metrics, attempted, failed = end_to_end(launcher, args.workload, args.seed,
                                                    args.seconds, args.size)
    finally:
        launcher.close()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
