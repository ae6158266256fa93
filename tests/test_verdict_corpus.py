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


def test_counterexamples_persist_at_every_larger_corpus_bound():
    # Each committed counterexample, found at bound b by any engine, is
    # replayed on the scalar engine's closures at every larger corpus
    # bound b': its elements are found in enumerate(b') by their printed
    # form (the windows nest, as the test above checks), the antecedent
    # must hold there and the consequent be definitely false, with
    # existential witnesses searched in the larger window.
    from mvtool import checking

    models = {model.descriptor(): model for model in verdict_sweep.carriers()}
    cases = {tuple(line.split("\t")[:3]) + (line.split("\t")[5],)
             for line in verdict_sweep.CORPUS.read_text().splitlines()
             if line.split("\t")[4] == "counterexample"}
    replayed = 0
    for label, desc, bound, env in sorted(cases):
        model, seq = models[desc], mv.lookup(label)
        texts = dict(item.split("=", 1) for item in env.split())
        assert list(texts) == list(seq.context), (label, desc, env)
        for larger in (b for b in verdict_sweep.BOUNDS if b > int(bound)):
            window = checking._window(model, larger)
            by_text = {model.format_element(x): x for x in window}
            values = tuple(by_text[texts[name]] for name in seq.context)
            D = checking._Elements(model, window)
            antecedent = checking._compile_formula(D, seq.antecedent, seq.context, {})
            consequent = checking._compile_formula(D, seq.consequent, seq.context, {})
            assert antecedent(values)[0], (label, desc, bound, env, larger)
            assert consequent(values) == (False, True), (label, desc, bound, env, larger)
            replayed += 1
    assert replayed
