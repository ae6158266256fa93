"""The committed verdict corpus (``tests/data/verdict_corpus.tsv``, written
by ``scripts/verdict_sweep.py``): the ``auto`` lines at bounds 1-2 are
recomputed here; the full sweep runs the forced engines and bound 3
too."""

import importlib.util
from pathlib import Path

import mvtool as mv

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "verdict_sweep", ROOT / "scripts" / "verdict_sweep.py")
verdict_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_sweep)


def test_auto_lines_at_bounds_1_and_2_match_the_corpus():
    committed = [line for line in verdict_sweep.CORPUS.read_text().splitlines()
                 if line.split("\t")[2:4] in (["1", "auto"], ["2", "auto"])]
    computed = list(verdict_sweep.sweep(bounds=(1, 2), engines=("auto",)))
    labels = len(mv.named_sequents())
    assert len(computed) == 2 * labels * len(verdict_sweep.carriers())
    assert computed == committed


def test_windows_are_nested_on_every_corpus_carrier():
    # A counterexample at bound b stays in every larger window.
    for model in verdict_sweep.carriers():
        windows = [set(model.enumerate(b)) for b in range(1, 6)]
        for b in range(1, 5):
            assert windows[b - 1] <= windows[b], (model.descriptor(), b)
