#!/usr/bin/env python3
"""Benchmark of the unishift package: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload identity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric of BENCHMARK.json; ``--trace 1`` runs a fixed set of
rounds untraced, then traced, then a probe replay, and prints every
per-layer metric.  ``--smoke`` shrinks every input so a run takes seconds.
The package is imported from ``src/`` of the same checkout; nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
machine description and (traced) all spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import NULL_TRACER, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Files the export workload's CLI runs write; removed when the run ends.
WORK_DIR = OUT_DIR / f"cli-{os.getpid()}"
# One BLAS thread, within ``nproc``: with a thread per CPU the speed probe
# (see ``speed``) no longer tracks the dense work of the reduction workload.
BLAS_THREADS = 1
SETUP_SAMPLES = 7
# Extra timed rounds stop once this much time has passed, so a run ends well within 180 s.
MAX_TIMED_S = 120.0
TAIL_BEYOND = 10


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def run_item(wl, r: int, k: int, tr, out) -> None:
    """Run one item; any exception counts as one failed check."""
    try:
        wl.item(r, k, tr, out)
    except Exception:  # the loop must go on; the failure is counted and shown
        traceback.print_exc(file=sys.stderr)
        out.attempted += 1
        out.failed += 1


def set_up(name: str, seed: int, smoke: bool, tr):
    """Import the package, draw the inputs and run one untimed warm-up item.

    Returns the workload, the warm-up's checks, the set-up's wall time and
    the part of it spent importing numpy (see ``speed.setup_at_nominal``).
    """
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed apart: it sets the speed scale)

    numpy_done = time.perf_counter()
    import workloads

    with tr.span("bench.setup"):
        wl = workloads.make(name, seed, smoke, tr, str(WORK_DIR))
    warm = workloads.Outcome()
    run_item(wl, 0, 0, NULL_TRACER, warm)
    end = time.perf_counter()
    return wl, warm, {"raw_setup_s": end - start, "numpy_import_s": numpy_done - start}


def setup_sample(args) -> dict:
    """Set-up time of a fresh interpreter, as measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_phase(wl, seconds: float, out) -> tuple[list[list[float]], list[list[float]], list]:
    """Closed loop of whole rounds: at least ``wl.window`` rounds and ``seconds`` of wall time.

    Returns the item times rescaled to the machine's nominal speed (see
    ``speed``), the raw wall times and every probe's (start, duration), the
    start counted from the first probe.  The speed probe runs after every
    item, once the item's garbage is collected.
    """
    import speed

    spans, probes = [], []

    def probe():
        gc.collect()
        start = time.perf_counter()
        probes.append((start, speed.probe_seconds()))

    probe()
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if r >= wl.window and (elapsed >= seconds or elapsed >= MAX_TIMED_S):
            break
        for k in range(wl.round_items):
            item_start = time.perf_counter()
            run_item(wl, r, k, NULL_TRACER, out)
            spans.append((item_start, time.perf_counter()))
            probe()
        r += 1
    n = wl.round_items
    scaled = speed.rescaled(spans, probes)
    raw = [end - begin for begin, end in spans]
    return ([scaled[i:i + n] for i in range(0, len(scaled), n)],
            [raw[i:i + n] for i in range(0, len(raw), n)],
            [(at - probes[0][0], seconds) for at, seconds in probes])


def end_to_end(args) -> tuple[dict, dict, object]:
    wl, out, first_setup = set_up(args.workload, args.seed, args.smoke, NULL_TRACER)
    item_times, raw_times, probes = timed_phase(wl, args.seconds, out)
    import speed

    round_times = [sum(times) for times in item_times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [first_setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    # The tail uses the first ``window`` rounds only: the same item mix on every
    # run and every version of the code, however fast it is.  The median needs
    # no window, since each round holds the same mix.
    window = sorted((t for times in item_times[: wl.window] for t in times), reverse=True)
    values = {
        "items_per_s": wl.round_items / statistics.median(round_times),
        "item_p50_ms": 1000.0 * statistics.median(t for times in item_times for t in times),
        "item_tail_ms": 1000.0 * window[TAIL_BEYOND],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": speed.setup_at_nominal([sample["raw_setup_s"] for sample in setups],
                                          [sample["numpy_import_s"] for sample in setups]),
    }
    n = len(window)
    details = {
        "rounds": len(round_times),
        "items": len(round_times) * wl.round_items,
        "item_s": item_times,
        "raw_item_s": raw_times,
        "probe_median_s": statistics.median(seconds for _, seconds in probes),
        "probe_s": probes,
        "wall_items_per_s": wl.round_items / statistics.median(sum(times) for times in raw_times),
        "wall_item_p50_ms": 1000.0 * statistics.median(t for times in raw_times for t in times),
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "tail_items": n,
        "raw_setup_samples_s": [sample["raw_setup_s"] for sample in setups],
        "numpy_import_samples_s": [sample["numpy_import_s"] for sample in setups],
        "fail_ratio": out.failed / out.attempted,
    }
    return values, details, out


def per_layer(args, spec) -> tuple[dict, dict, object]:
    import workloads

    tr = Tracer()
    with workloads.count_library_calls(tr) as library_calls:
        wl, warm, _ = set_up(args.workload, args.seed, args.smoke, tr)
        plain, traced, untraced_s, traced_s, schedule = traced_passes(wl, tr)

    probe_counts: Counter = Counter()
    for r, k in schedule:
        tr.item = f"r{r}k{k}"
        with tr.span("bench.probe"):
            wl.probe(r, k, tr, probe_counts)
    tr.item = None

    # Two passes over the same inputs in one process must agree on every count.
    repeatable = plain.counts == traced.counts and plain.attempted == traced.attempted
    seconds, calls = tr.self_times()
    counts = traced.counts + probe_counts
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer, _, kind = name.rpartition(".")
        if name == "bench.trace_overhead_s":
            values[name] = traced_s - untraced_s
        elif name == "cli.write.s":
            values[name] = workloads.cli_write_seconds(tr.spans)
        elif kind == "calls" and layer in workloads.COUNTED_LAYERS:
            values[name] = library_calls[layer]
        elif kind in ("s", "calls"):
            table = seconds if kind == "s" else calls
            values[name] = sum(v for span, v in table.items()
                               if span == layer or span.startswith(layer + "."))
        else:
            values[name] = counts.get(name, 0)
    out = workloads.Outcome()
    for part in (warm, plain, traced):
        out.attempted += part.attempted
        out.failed += part.failed
    if not repeatable:
        out.attempted += 1
        out.failed += 1
        print(f"count mismatch between passes: {dict(plain.counts)} vs {dict(traced.counts)}",
              file=sys.stderr)
    details = {"items": len(schedule), "untraced_s": untraced_s, "traced_s": traced_s,
               "repeatable_counts": repeatable, "spans": len(tr.spans)}
    trace_file = OUT_DIR / f"trace-{tag(args)}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": tr.spans}, fh)
    details["trace_file"] = str(trace_file.relative_to(ROOT))
    return values, details, out


def traced_passes(wl, tr):
    """The first ceil(window / 3) rounds, each item untraced and traced back to back.

    The order alternates from item to item, so machine-speed drift and warm
    caches cancel in the tracing overhead.
    """
    import workloads

    schedule = [(r, k) for r in range(math.ceil(wl.window / 3)) for k in range(wl.round_items)]
    plain, traced = workloads.Outcome(), workloads.Outcome()
    untraced_s = traced_s = 0.0
    for i, (r, k) in enumerate(schedule):
        tr.item = f"r{r}k{k}"
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if with_spans:
                with tr.span("bench.item"):
                    run_item(wl, r, k, tr, traced)
                traced_s += time.perf_counter() - start
            else:
                run_item(wl, r, k, NULL_TRACER, plain)
                untraced_s += time.perf_counter() - start
    return plain, traced, untraced_s, traced_s, schedule


def tag(args) -> str:
    return f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")


def report(args, spec, values, details, out, machine) -> dict:
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{out.attempted} checks, {out.failed} failed")
    for name, m in metrics.items():
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{details['tail_percentile']:.1f} of {details['tail_items']} items)"
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"  {'fail_ratio':<34} {details['fail_ratio']:>16.6g} ratio")
        print(f"  wall clock before rescaling: {details['wall_items_per_s']:.6g} items/s, "
              f"p50 {details['wall_item_p50_ms']:.6g} ms, "
              f"median probe {1000.0 * details['probe_median_s']:.4g} ms")
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine, "details": details,
              **result}
    with open(OUT_DIR / f"result-{tag(args)}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return result


def run_all(args) -> int:
    """Every workload in its own process, then one table and one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in load_spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the benchmark")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "unishift" / "__init__.py").is_file():
        print(f"error: no unishift sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_only:
            print(json.dumps(set_up(args.workload, args.seed, args.smoke, NULL_TRACER)[2]))
            return 0
        values, details, out = per_layer(args, spec) if args.trace else end_to_end(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result = report(args, spec, values, details, out, machine_info())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
