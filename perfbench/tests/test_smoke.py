"""Tiny-size runs of the benchmark command itself, from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, *args, timeout=170):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=timeout)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return done, last


def result(done_last):
    done, last = done_last
    body = json.loads(last)
    assert set(body) == {"correct", "attempted", "failed", "metrics"}
    return done, body


def checkout(tmp_path, with_src=True):
    """A copy of the files the benchmark sees: BENCHMARK.json, its paths, and src/."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    done, body = result(bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", "0", "--size", "tiny"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert body["correct"] is True and body["failed"] == 0 and body["attempted"] >= 1
    assert set(body["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in body["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0
    assert "ops_failed_ratio 0.0000" in done.stdout


def test_tiny_traced_run_reports_every_per_layer_metric():
    done, body = result(bench(ROOT, "--workload", "table-render", "--seed", "3",
                              "--seconds", "1", "--trace", "1", "--size", "tiny"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert body["correct"] is True
    assert set(body["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # timed inside the pool, the busiest worker's cells fit inside the sweep's wall time
    assert body["metrics"]["identities.par2_overhead_s"]["value"] > 0
    assert body["metrics"]["trace.overhead_ratio"]["value"] > 0
    checks = sum(v["value"] for k, v in body["metrics"].items()
                 if k.startswith("identities.") and k.endswith(".checks") and k.count(".") == 2)
    assert f"  identities.*.checks sum to {checks}; the headline sweep reports {checks}\n" \
        in done.stdout
    spans = json.loads((ROOT / ".perfbench/trace/table-render-seed3-tiny.json").read_text())
    assert {"id", "name", "start", "end", "parent", "run"} <= set(spans["spans"][0])


def test_wrong_program_output_fails_the_run(tmp_path):
    root = checkout(tmp_path)
    families = root / "src/seqfam/families.py"
    text = families.read_text()
    wrong = "return pochhammer(m + 1, n) + (1 if (n, m) == (3, 1) else 0)"
    families.write_text(text.replace("return pochhammer(m + 1, n)", wrong))
    for workload in ("verify-headline", "table-render"):
        done, body = result(bench(root, "--workload", workload, "--seed", "0", "--seconds",
                                  "1", "--trace", "0", "--size", "tiny"))
        assert done.returncode == 1
        assert body["correct"] is False and body["failed"] >= 1
        assert "ops_failed_ratio 0.0000" not in done.stdout


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    root = checkout(tmp_path, with_src=False)
    done, last = bench(root, "--workload", "verify-headline", "--seed", "0", "--seconds", "1",
                       "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
