"""Verdict values returned by the bounded checkers.

A check over a finite enumeration ends in one of three ways: it holds
everywhere, a concrete counterexample was found, or the only failures
involve a bounded search that ran out of candidates (so the verdict
cannot soundly be "fails").
"""

from __future__ import annotations

from typing import Any

from .sequents import _Node


class Verdict(_Node):
    # Each kind of verdict names itself: a field that ``repr`` and ``==``
    # read but no constructor takes.
    _fixed = ("kind",)
    kind: str = ""

    @property
    def ok(self) -> bool:
        return isinstance(self, Holds)


class Holds(Verdict):
    kind = "holds"


class CounterExample(Verdict):
    """A concrete refutation.

    ``env`` is the offending assignment: a variable-to-value mapping for
    sequent checks, or a bare element / tuple for the algebra-level
    checkers.  ``axiom`` names the failed axiom where relevant and
    ``note`` carries bounded-search caveats.
    """

    env: Any
    axiom: str | None = None
    note: str | None = None
    kind = "counterexample"


class InconclusiveAtBound(Verdict):
    """Every concrete failure candidate involved an unwitnessed bounded
    existential or capped infinitary disjunction, so the check is neither
    confirmed nor refuted at this bound."""

    bound: int
    note: str | None = None
    kind = "inconclusive-at-bound"


class Finite(_Node):
    """Result of an order computation: the least n with nx = 1."""

    n: int


class NoneUpTo(_Node):
    """No n <= bound satisfied nx = 1 (sound under-approximation of
    infinite order)."""

    bound: int

