#!/usr/bin/env python3
"""Smoke and repeatability checks of the benchmark itself.

    python3 perfbench/check.py

For every workload, at the tiny ``--smoke`` sizes:

* an untraced run passes every check and prints every end-to-end metric of
  BENCHMARK.json with its unit;
* two traced runs on one seed print every per-layer metric with its unit,
  and their count metrics agree exactly;
* the trace file links every span to an enclosing parent, and every span
  under an item or probe carries that item's id.

Last, a directory holding only BENCHMARK.json and the benchmark's own files
must make the benchmark exit non-zero without a result line.  Exits 1 and
lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SEED = 7
COUNT_UNITS = ("count", "bytes")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess):
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_result(done, wanted: list[dict], label: str) -> list[str]:
    result = result_of(done)
    if done.returncode != 0 or result is None:
        return [f"{label}: exit {done.returncode}, no result line\n{done.stderr[-2000:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {got}, expected a number in {m['unit']}")
    return problems


def check_trace(path: Path, label: str) -> list[str]:
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    by_id = {rec["id"]: rec for rec in spans}
    problems = []
    if not any(rec["parent"] is not None for rec in spans):
        problems.append(f"{label}: no span has a parent")
    for rec in spans:
        parent = by_id.get(rec["parent"]) if rec["parent"] is not None else None
        if rec["parent"] is not None and (
            parent is None or parent["start"] > rec["start"] or parent["end"] < rec["end"]
        ):
            problems.append(f"{label}: span {rec['id']} ({rec['name']}) has no enclosing parent")
            continue
        root = rec
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if root["name"] in ("bench.item", "bench.probe") and (not rec["item"] or rec["item"] != root["item"]):
            problems.append(f"{label}: span {rec['id']} ({rec['name']}) lacks its item id")
    return problems[:10]


def check_bare_copy(spec: dict) -> list[str]:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result_of(done) is not None:
        return [f"bare copy: exit {done.returncode}, printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_result(run(workload, 0), spec["end_to_end"], f"{workload} trace 0")
        first = run(workload, 1)
        problems += check_result(first, spec["per_layer"], f"{workload} trace 1")
        trace_file = OUT_DIR / f"trace-{workload}-seed{SEED}-smoke.json"
        if trace_file.is_file():
            problems += check_trace(trace_file, f"{workload} trace file")
        else:
            problems.append(f"{workload}: no trace file {trace_file.name}")
        second = run(workload, 1)
        a, b = result_of(first), result_of(second)
        if a and b:
            differ = [n for n in counted if a["metrics"].get(n) != b["metrics"].get(n)]
            if differ:
                problems.append(f"{workload}: counts differ between two runs on one seed: {differ}")
        print(f"{workload}: checked", flush=True)
    problems += check_bare_copy(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("all checks passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
