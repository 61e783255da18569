"""Run the benchmark over ten seeds and record the results with the machine.

    python3 perfbench/baseline.py --out perfbench/results/baseline.json
    python3 perfbench/baseline.py --no-trace --against perfbench/results/baseline.json \
        --out perfbench/results/second-set.json

For each workload it makes one run per seed (seeds 0..9) with tracing off,
and one traced run at seed 0 unless --no-trace is given.  For every
end-to-end metric it reports the median and the spread, the distance
between the first and third quartiles of the per-run values as a share of
their median, next to the bound from BENCHMARK.json.  With --against, it
also compares each median with that of an earlier set.  The output file
holds the machine record (CPU count and model, Python version, commit),
every run's result line, the spreads and the comparison.

It exits 1 when a spread exceeds its metric's bound or a median is worse
than the earlier set's by more than the bound.  A spread at or above a
third of the bound, the steadiness target, is flagged "above target" but
does not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, git_commit
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": sys.version.split()[0], "platform": platform.platform(),
            "commit": git_commit(), "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--against", default=None, help="an earlier output file to compare with")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    record = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    accepted = True
    for workload in WORKLOADS:
        runs = [bench(workload, seed, 0) for seed in range(SEEDS)]
        entry = {"runs": runs, "spread": {}}
        for name, bound in bounds.items():
            median, share = spread([r["metrics"][name]["value"] for r in runs])
            row = {"median": median, "iqr_share": share, "bound": bound,
                   "within_bound": share <= bound, "below_target": share < bound / 3}
            verdict = "ok" if row["below_target"] else "above target" if row["within_bound"] \
                else "OUTSIDE BOUND"
            if workload in earlier:
                before = earlier[workload]["spread"][name]["median"]
                row["change"] = median / before - 1
                row["not_worse"] = row["change"] <= bound
                verdict += f"; {row['change']:+.3f} against the earlier set"
                accepted &= row["not_worse"]
            accepted &= row["within_bound"]
            entry["spread"][name] = row
            print(f"{workload:22s} {name:14s} median {median:14.4f}  spread {share:.4f}  "
                  f"bound {bound}  {verdict}", flush=True)
        if not args.no_trace:
            entry["traced_seed0"] = bench(workload, 0, 1)
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
