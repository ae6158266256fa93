"""Check every registry sequent on a fixed list of carriers and print one
line per check: the committed verdict corpus.

Each line holds, separated by tabs, the sequent's label, the carrier's
descriptor as it prints, the bound, the engine, and either the verdict
kind followed by its environment (``x=<element> y=<element>``, in
context order, each element as the carrier formats it) and note, or
``error`` followed by the error type and message.  A sequent over
another signature gives its ``SignatureError`` line, so every label
appears on every carrier.

The carriers are those of ``DESCRIPTORS``, then the ones the functor
round trips build and no descriptor spells: Delta(C), Delta(Sigma(Z^2))
and Sigma over each, which print as ``Groth(Rad(C))`` and so on.

The corpus is the oracle for changes that reroute or delete code: such a
change must leave ``tests/data/verdict_corpus.tsv`` byte-identical, or
name in its description each line that it changes.  The tier-1 test
``tests/test_verdict_corpus.py`` recomputes the ``auto`` lines at bounds
1-2; this script computes all of them (about a minute and a half on one
core, of which the forced scalar lines of ``Groth(Rad(Sigma(Z^2)))``
take about 20 s).

    PYTHONPATH=src python3 scripts/verdict_sweep.py > tests/data/verdict_corpus.tsv
    PYTHONPATH=src python3 scripts/verdict_sweep.py --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mvtool as mv
from mvtool.errors import MvToolError

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "verdict_corpus.tsv"

# N and N^n next to the cones of Z and Z^n that they are, Grothendieck
# groups over both spellings, a cone whose order is not componentwise,
# and a unital group over a Grothendieck group.  Then the carriers whose
# elements are Chang elements (C), plain tuples of them (Prod(C,C)),
# integers (L(3)) and lexicographic pairs, over vector tails among them
# (Sigma, Pointed, Lex, Unital and Gamma over Lex).
# Groth(PosCone(Lex(Z,Z))) is left out: it alone takes over a minute.
DESCRIPTORS = (
    "N", "N^2", "N^3", "PosCone(Z)", "PosCone(Z^2)", "PosCone(Z^3)",
    "PosCone(Lex(Z,Z))", "Groth(N)", "Groth(N^2)", "Groth(PosCone(Z))",
    "Groth(PosCone(Z^2))", "Unital(Groth(N^2),[(1,1),(0,0)])",
    "C", "L(3)", "Prod(C,C)", "Sigma(Z^2)", "Sigma(Lex(Z,Z))",
    "Pointed(Sigma(Z^2),(0,(1,1)))", "Lex(Z,Z)", "Unital(Lex(Z,Z),(1,0))",
    "Gamma(Lex(Z,Z),(2,-1))",
)
BOUNDS = (1, 2, 3)
ENGINES = ("auto", "scalar", "vector")


def verdict_line(model, label: str, bound: int, engine: str) -> str:
    head = f"{label}\t{model.descriptor()}\t{bound}\t{engine}"
    try:
        v = mv.check_sequent(model, mv.lookup(label), bound, engine=engine)
    except MvToolError as e:
        return f"{head}\terror\t{type(e).__name__}: {e}"
    env = getattr(v, "env", None) or {}
    detail = " ".join(f"{k}={model.format_element(x)}" for k, x in env.items())
    return f"{head}\t{v.kind}\t{detail}\t{getattr(v, 'note', None) or ''}"


def carriers() -> list:
    """The swept carriers: those of ``DESCRIPTORS``, then Delta(C) and
    Delta(Sigma(Z^2)), the groups of differences of the cones of Z and
    Z^2 that their radicals are, and Sigma over each."""
    deltas = [mv.delta(mv.parse_model(text)) for text in ("C", "Sigma(Z^2)")]
    return ([mv.parse_model(text) for text in DESCRIPTORS]
            + deltas + [mv.sigma(D) for D in deltas])


def sweep(bounds=BOUNDS, engines=ENGINES):
    """The corpus lines, by carrier, bound, engine and registry order."""
    labels = list(mv.named_sequents())
    for model in carriers():
        for bound in bounds:
            for engine in engines:
                for label in labels:
                    yield verdict_line(model, label, bound, engine)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed corpus instead of printing")
    args = ap.parse_args(argv)
    lines = list(sweep())
    if not args.check:
        sys.stdout.write("".join(line + "\n" for line in lines))
        return 0
    committed = CORPUS.read_text().splitlines()
    changed = [(a, b) for a, b in zip(committed, lines) if a != b]
    for a, b in changed:
        print(f"- {a}\n+ {b}")
    if len(committed) != len(lines):
        print(f"{len(committed)} committed lines, {len(lines)} computed")
    return 1 if changed or len(committed) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main())
