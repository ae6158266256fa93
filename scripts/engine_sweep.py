"""Time bounded checks on both checking engines, to place the crossover.

For each check it prints the context grid (|window|^k cells) and the best
of three wall times on the scalar and on the vector engine, then the
summed time of each group of checks for candidate values of
``checking._VECTOR_THRESHOLD`` (a check with k >= 1 goes to the vector
engine once its grid reaches the threshold).  Three groups of checks: the
benchmark's ``axiom-suite`` and ``wide-window`` workloads, whose carriers
have int64 kernels; the L and M axioms on the Delta side of C,
``delta(C)`` and the radical monoid of C, whose kernels come from the
radical monoid's codec; and the L axioms on ``pair_group_ops(C)``, which
has no codec.

    PYTHONPATH=src python3 scripts/engine_sweep.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import mvtool as mv  # noqa: E402
import workloads  # noqa: E402
from mvtool import registry  # noqa: E402
from mvtool.checking import check_sequent  # noqa: E402

THRESHOLDS = (1, 16, 64, 128, 160, 256, 512, 1024, 4096)


L_AXIOMS = [f"L.{i}" for i in range(1, 13)]
M_AXIOMS = [f"M.{i}" for i in range(1, 15)]


def radical_checks():
    C = mv.ChangAlgebra()
    for bound in (2, 4, 6, 8):
        for label in L_AXIOMS:
            yield label, mv.delta(C), bound, None
    for bound in (3, 7, 15):
        for label in M_AXIOMS:
            yield label, mv.RadicalMonoid(C), bound, 2 * bound


def no_codec_checks():
    C = mv.ChangAlgebra()
    for bound in (2, 4, 6, 8):
        for label in L_AXIOMS:
            yield label, mv.pair_group_ops(C), bound, None


def codec_checks():
    models = {}
    for item in workloads.AXIOM_SUITE + workloads.WIDE_WINDOW:
        model = models.setdefault(item.model, mv.parse_model(item.model))
        yield item.label, model, item.bound, item.exists_bound


def best_of_three(model, seq, bound, exists_bound, engine):
    times, verdict = [], None
    for _ in range(3):
        started = time.perf_counter()
        verdict = check_sequent(model, seq, bound, exists_bound=exists_bound,
                                engine=engine)
        times.append(time.perf_counter() - started)
        if times[-1] > 0.5:
            break
    return min(times), verdict


def sweep(name, checks):
    rows = []
    print(f"# {name}: label model bound cells scalar_ms vector_ms")
    for label, model, bound, exists_bound in checks:
        seq = registry.lookup(label)
        k = len(seq.context)
        cells = model.window_size(bound) ** k
        ts, vs = best_of_three(model, seq, bound, exists_bound, "scalar")
        tv, vv = best_of_three(model, seq, bound, exists_bound, "vector")
        assert vs == vv, (label, model.descriptor(), vs, vv)
        rows.append((k, cells, ts, tv))
        print(f"{label} {model.descriptor()} {bound} {cells} "
              f"{1e3 * ts:.2f} {1e3 * tv:.2f}", flush=True)
    for threshold in THRESHOLDS:
        total = sum(tv if k >= 1 and cells >= threshold else ts
                    for k, cells, ts, tv in rows)
        print(f"# {name}: threshold {threshold}: {total:.3f} s")


def main():
    sweep("codec", codec_checks())
    sweep("radical", radical_checks())
    sweep("no-codec", no_codec_checks())


if __name__ == "__main__":
    main()
