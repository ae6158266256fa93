"""Run the benchmark once per (workload, seed) and record every run.

usage: python3 perfbench/series.py --seeds 1-10 --out FILE [--trace 0|1]

Each run is a fresh ``run.py`` process, one after another, over every
workload of ``BENCHMARK.json`` for its ``run_seconds``.  The file
written holds every run's provenance, metrics and samples; it is the
input of ``compare.py``.  For each (workload, end-to-end metric) the
summary shows the median, the quartiles and the spread (quartile distance
over median) next to the metric's bound from ``BENCHMARK.json``; a spread
above a third of the bound is flagged as not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fields of a run's record that the series file keeps.
KEPT = ("workload", "seed", "trace", "provenance", "attempted", "failed",
        "error_rate", "batches", "traced_batches", "wall_samples",
        "setup_samples", "counts", "raw", "speed_factors",
        "setup_reference_samples")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"series: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json",
              encoding="utf-8") as fh:
        record = json.load(fh)
    run = {k: record[k] for k in KEPT if k in record}
    run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return run


def summarize(runs: list, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_key: dict = {}
    for run in runs:
        for name, value in run["metrics"].items():
            by_key.setdefault((run["workload"], name), []).append(value)
    print(f"{'workload':12} {'metric':40} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(by_key.items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  NOT STEADY"
        print(f"{workload:12} {name:40} {len(values):3d} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else bound:>6}{flag}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    runs = []
    # Seed-major order, so a slow spell of the machine spreads over the
    # workloads instead of landing on one of them.
    for seed in parse_seeds(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            record = run_one(workload, seed, seconds, args.trace)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(record["metrics"].items())
                if args.trace == 0), flush=True)
            runs.append(record)
    out = {"seconds": seconds, "trace": args.trace, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    summarize(runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
