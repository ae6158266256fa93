"""Compare two result files written by ``series.py``.

usage: python3 perfbench/compare.py BASE.json NEW.json

One row per (workload, metric) found in both: each side's median and
quartiles, the ratio NEW/BASE of the medians, and for end-to-end metrics
a verdict against the metric's bound in ``BENCHMARK.json``:

  within      NEW's median is not worse than BASE's by more than the bound
  beyond      NEW's median is worse than BASE's by more than the bound
  unresolved  either side's spread (quartile distance over median) is
              wider than the bound, and NEW's runs do not all beat BASE's

Per-layer metrics have no bound and get no verdict.  Files whose runs
differ in length or in ``--trace`` are not compared.
"""

from __future__ import annotations

import json
import sys

from series import load_spec, quartiles


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_values(data: dict) -> dict:
    values: dict = {}
    for run in data["runs"]:
        for name, value in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(value)
    return values


def verdict(base: list, new: list, better: str, bound: float) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if spread > bound and not all_better:
        return "unresolved"
    return "beyond" if worse > bound else "within"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    spec = load_spec()
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    for key in ("seconds", "trace"):
        if base[key] != new[key]:
            print(f"compare: {key} differs ({base[key]} and {new[key]}); "
                  f"the files are not comparable", file=sys.stderr)
            return 1
    base, new = load_values(base), load_values(new)
    print(f"{'workload':12} {'metric':40} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'ratio':>7}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        ratio = f"{nm / bm:7.3f}" if bm else "      -"
        spec_m = bounded.get(name)
        v = ("" if spec_m is None else
             verdict(base[key], new[key], spec_m["better"], spec_m["bound"]))
        print(f"{workload:12} {name:40} "
              f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>36} "
              f"{f'{nm:.5g} [{n1:.5g}, {n3:.5g}]':>36} {ratio}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
