"""mvtool benchmark: one workload, one process, one caller, closed loop.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and their hand-written expectations are in ``workloads.py``.
Each run parses the workload's models (set-up, not timed), then runs the
whole batch of items again and again until ``--seconds`` have passed, and
at least three times.  Every result is checked against its expectation
and against the first batch; a mismatch or an exception counts as a
failed item and the run exits with status 1.

``--trace 0`` reports the end-to-end metrics:

  wall_s          median time of one batch, first call to last verdict
  slowest_item_s  the largest per-item median: the worst call a user waits on
  setup_s         median over fresh interpreters of import + first registry
                  access + parsing the workload's descriptors
  peak_rss_mb     ru_maxrss of this process

``wall_s`` and ``slowest_item_s`` are given at the reference speed of
``speed.py``: each batch's times are scaled by the host's speed measured
between its items, and the record keeps the raw times as well.
``setup_s`` is scaled the same way by a reference of its own kind, a
fresh interpreter importing a fixed set of standard-library modules, run
after each set-up probe.

``--trace 1`` alternates untraced and traced batches (at least two of
each) and reports the per-layer metrics of ``tracing.py`` as medians over
the traced batches, plus ``trace.overhead_s``, the traced minus the
untraced median batch time.  The exact counts (``tracing.COUNT_METRICS``)
must repeat in every traced batch, and traced results must equal
untraced ones, or the run fails.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record with the
provenance (git sha, dirty flags, Python, numpy, CPU) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and a traced run
writes its spans next to it as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_PROBES = 7
MIN_BATCHES = 3
MIN_TRACED_BATCHES = 2

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
# Every metric's unit, as BENCHMARK.json declares it.
UNITS = {m["name"]: m["unit"]
         for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def load_mvtool():
    """Import mvtool from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import mvtool
        import mvtool.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mvtool from {SRC}: {exc}")
    if Path(mvtool.__file__).resolve().parent != SRC / "mvtool":
        raise SystemExit(f"perfbench: mvtool was imported from "
                         f"{mvtool.__file__}, not from {SRC}")
    return mvtool


def measure_setup(descriptors):
    """Raw set-up times of fresh interpreters, each followed by a run of
    the set-up reference; returns (set-up times, reference times)."""
    def probe(*args):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.split()[-1])

    times, refs = [], []
    for _ in range(SETUP_PROBES):
        times.append(probe(str(SRC), *descriptors))
        refs.append(probe("--reference"))
    return times, refs


def run_batch(calls, tracer=None, speed=None):
    """Run every item once; returns (wall, per-item times, results).

    The wall time is the sum of the item times, so the speed samples
    taken between items are not part of it."""
    times, results = [], []
    for item_id, call, _ in calls:
        span = None
        if tracer is not None:
            tracer.item = item_id
            span = tracer.open("item")
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an item that raises is a failed item
            traceback.print_exc(file=sys.stderr)
            result = {"error": repr(exc)}
        times.append(time.perf_counter() - t0)
        if span is not None:
            tracer.close(span)
            tracer.item = None
        results.append(result)
        if speed is not None:
            speed.keep_up(times[-1])
    return sum(times), times, results


def measure(mv, items, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its record (metrics, errors, spans)."""
    models = {d: mv.parse_model(d) for d in workloads.descriptors(items)}
    mv.lookup("MV.1")  # first registry access parses every sequent
    items = workloads.ordered(items, seed)
    plain = workloads.prepare(items, seed, mv, models)
    tracer = tracing.Tracer() if trace else None
    traced = (workloads.prepare(items, seed, mv, models, tracer)
              if trace else None)

    walls, traced_walls, item_times, batch_results = [], [], [], []
    layer, counts, spans = [], [], []
    # Traced runs compare raw times, so only untraced runs read the speed.
    speed = None if trace else Speed()
    factors = []
    started = time.perf_counter()
    while True:
        mark = speed.mark() if speed is not None else 0
        wall, times, results = run_batch(plain, speed=speed)
        if speed is not None:
            factors.append(speed.factor(mark))
        walls.append(wall)
        item_times.append(times)
        batch_results.append(results)
        if trace:
            tracer.reset()
            tracer.install()
            try:
                wall, _, results = run_batch(traced, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            batch_results.append(results)
            layer.append(tracer.layer_metrics())
            counts.append({k: layer[-1][k] for k in tracing.COUNT_METRICS})
            spans.append([s.to_json(i) for i, s in enumerate(tracer.spans)])
        enough = (len(traced_walls) >= MIN_TRACED_BATCHES if trace
                  else len(walls) >= MIN_BATCHES)
        if enough and time.perf_counter() - started >= seconds:
            break

    errors = []
    failed = 0
    for b, results in enumerate(batch_results):
        for (item_id, _, expect), result, first in zip(
                plain, results, batch_results[0]):
            if not workloads.matches(result, expect):
                failed += 1
                errors.append(f"batch {b}: {item_id}: got {result!r}")
            elif result != first:
                failed += 1
                errors.append(f"batch {b}: {item_id}: differs from batch 0")
    for b, c in enumerate(counts):
        if c != counts[0]:
            errors.append(f"traced batch {b}: counts {c} differ from {counts[0]}")
    attempted = len(plain) * len(batch_results)

    record = {"attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "errors": errors,
              "batches": len(walls), "items": len(plain)}
    if trace:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        record.update(traced_batches=len(traced_walls), counts=counts[0],
                      spans=spans)
    else:
        per_item = [statistics.median(t * f for t, f in zip(ts, factors))
                    for ts in zip(*item_times)]
        metrics = {"wall_s": statistics.median(
                       w * f for w, f in zip(walls, factors)),
                   "slowest_item_s": max(per_item),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        record["item_s"] = {item_id: t for (item_id, _, _), t
                            in zip(plain, per_item)}
        record["raw"] = {
            "wall_s": statistics.median(walls),
            "slowest_item_s": max(statistics.median(t)
                                  for t in zip(*item_times))}
        record["wall_samples"] = walls
        record["speed_factors"] = factors
    record["metrics"] = metrics
    return record


def provenance() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    sha = git("rev-parse", "HEAD") if in_repo else None

    def dirty(*paths):
        """Whether ``paths`` differ from HEAD (None outside a checkout)."""
        if not in_repo:
            return None
        status = git("status", "--porcelain", "--", *paths)
        return None if status is None else bool(status)

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"git_sha": sha.strip() if sha else None,
            # The program, and the benchmark that loads and measures it
            # (its recorded results aside).
            "src_dirty": dirty("src"),
            "bench_dirty": dirty("BENCHMARK.json", "perfbench",
                                 ":(exclude)perfbench/results"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    mv = load_mvtool()
    items = workloads.WORKLOADS[args.workload]
    setup = (None if args.trace else
             measure_setup(workloads.descriptors(items)))
    record = measure(mv, items, args.seed, args.seconds, bool(args.trace))
    metrics = record["metrics"]
    if setup:
        times, refs = setup
        metrics["setup_s"] = speed.REFERENCE_SETUP_S * statistics.median(
            t / r for t, r in zip(times, refs))
        record["raw"]["setup_s"] = statistics.median(times)
        record["setup_samples"] = times
        record["setup_reference_samples"] = refs

    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  provenance=provenance())
    spans = record.pop("spans", None)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"{stem}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for b, batch in enumerate(spans):
                for span in batch:
                    fh.write(json.dumps(dict(span, batch=b)) + "\n")

    for err in record["errors"]:
        print(f"ERROR {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {record['items']} items,"
          f" {record['batches']} batches, {record['attempted']} attempted,"
          f" {record['failed']} failed")
    for name in sorted(metrics):
        print(f"  {name:40} {metrics[name]:.6g} {UNITS[name]}")
    print(f"  {'error_rate':40} {record['error_rate']:.6g} ratio")
    correct = record["failed"] == 0 and not record["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
