"""Both checking engines against the tree-walk oracle.

``checking._compile_formula`` compiles each formula once per check into
closures, which the scalar engine runs on carrier elements one cell at a
time and the vector engine on index grids one slice at a time;
``helpers.walk_check`` walks the tree at every cell, as the definition
reads.  Each engine, the vector engine sliced or not, must give the
oracle's verdict (kind, env and note) or raise its error; the scalar
engine must also call the carrier's operations in the same order.
"""

import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvtool as mv
from mvtool import checking, vector
from mvtool import sequents as S
from mvtool.checking import check_sequent

from helpers import README_DESCRIPTORS, spy_on_chunks, walk_check

README_MODELS = {d: mv.parse_model(d) for d in README_DESCRIPTORS}
# Cells a drawn check may visit, search cells included.
_BUDGET = 600

_BINARY = {"mv": (S.Oplus, S.Odot, S.Inf, S.Sup, S.D),
           "lgroup": (S.Add, S.Inf, S.Sup),
           "monoid": (S.Add, S.Inf, S.Sup)}
_UNARY = {"mv": (S.Neg,), "lgroup": (S.Minus,), "monoid": ()}


def _term(data, sig, scope, scalars, depth):
    leaves = [S.Var(v) for v in scope] + [S.Zero()]
    if sig == "mv":
        leaves.append(S.One())
    if sig != "monoid":
        leaves.append(S.Unit())
    kind = data.draw(st.sampled_from(
        ["leaf"] if depth == 0 else ["leaf", "binary", "unary", "scalar", "power"]))
    if kind == "binary":
        cls = data.draw(st.sampled_from(_BINARY[sig]))
        return cls(_term(data, sig, scope, scalars, depth - 1),
                   _term(data, sig, scope, scalars, depth - 1))
    if kind == "unary" and _UNARY[sig]:
        cls = data.draw(st.sampled_from(_UNARY[sig]))
        return cls(_term(data, sig, scope, scalars, depth - 1))
    if kind == "scalar":
        coeff = data.draw(st.sampled_from(list(scalars) + [0, 1, 2, 5]))
        return S.NatScalar(coeff, _term(data, sig, scope, scalars, depth - 1))
    if kind == "power" and sig == "mv":
        return S.MvPower(_term(data, sig, scope, scalars, depth - 1),
                         data.draw(st.integers(0, 5)))
    return data.draw(st.sampled_from(leaves))


def _formula(data, sig, scope, scalars, depth, searches):
    """A formula over the variables ``scope``; ``searches`` is how many
    more exists levels the cell budget allows."""
    kinds = ["atom", "atom", "true", "false"]
    if depth > 0:
        kinds += ["and", "or", "bigvee"] + ["exists"] * (searches > 0)
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("and", "or"):
        cls = S.And if kind == "and" else S.Or
        return cls(_formula(data, sig, scope, scalars, depth - 1, searches),
                   _formula(data, sig, scope, scalars, depth - 1, searches))
    if kind == "exists":
        # Now and then a name already bound, which raises when reached.
        var = data.draw(st.sampled_from(["y", "z", "w"] + list(scope)))
        return S.Exists(var, _formula(data, sig, scope + (var,), scalars,
                                      depth - 1, searches - 1))
    if kind == "bigvee":
        var = data.draw(st.sampled_from(["n", "m"]))
        return S.BoundedOrOverN(var, data.draw(st.integers(0, 3)),
                                _formula(data, sig, scope, scalars | {var},
                                         depth - 1, searches))
    if kind == "true":
        return S.Top()
    if kind == "false":
        return S.Bot()
    cls = data.draw(st.sampled_from([S.Eq, S.Leq]))
    return cls(_term(data, sig, scope, scalars, 2), _term(data, sig, scope, scalars, 2))


def _draw_sequent(data, M, size):
    """A sequent in ``M``'s signature whose grid, with its exists levels,
    has at most ``_BUDGET`` cells over a window of ``size`` elements."""
    def levels(k):
        d = 0
        while size ** (k + d + 1) <= _BUDGET and d < 2:
            d += 1
        return d

    k = data.draw(st.integers(0, max(j for j in range(3) if size ** j <= _BUDGET)))
    context = ("x", "y")[:k]
    sig = M.signature
    return S.Sequent(context,
                     _formula(data, sig, context, frozenset(), 2, levels(k)),
                     _formula(data, sig, context, frozenset(), 3, levels(k)))


def _outcome(check):
    try:
        return check()
    except mv.MvToolError as e:
        return type(e), str(e)


def _drawn_check(desc, data):
    """A carrier, a bound, its window and a sequent drawn for them."""
    M = README_MODELS[desc]
    bound = data.draw(st.integers(1, 2), label="bound")
    window = M.enumerate(bound)
    return M, bound, window, _draw_sequent(data, M, len(window))


@pytest.mark.parametrize("desc", README_DESCRIPTORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compiled_walk_equals_the_tree_walk(desc, data):
    M, bound, window, seq = _drawn_check(desc, data)
    got = _outcome(lambda: checking._check_scalar(M, seq, window, window, bound))
    assert got == _outcome(lambda: walk_check(M, seq, window, window, bound)), \
        S.print_sequent(seq)


@pytest.mark.parametrize("desc", README_DESCRIPTORS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_vector_engine_equals_the_tree_walk(desc, data):
    """The vector engine on the same drawn sequents, over the whole grid
    and in slices of at most 8 cells."""
    M, bound, window, seq = _drawn_check(desc, data)
    expect = _outcome(lambda: walk_check(M, seq, window, window, bound))
    ctx = [window] * len(seq.context)
    for max_cells in (vector._MAX_CELLS, 8):
        with mock.patch.object(vector, "_MAX_CELLS", max_cells):
            got = _outcome(lambda: checking._check_vector(M, seq, ctx, window, bound))
        assert got == expect, (S.print_sequent(seq), max_cells)


class _Logged(mv.ChangAlgebra):
    """C, recording every call of an operation the sequents can name;
    pointed at ``unit`` when one is given."""

    def __init__(self, unit=None):
        super().__init__()
        self.log = []
        if unit is not None:
            self.unit = unit

    @property
    def one(self):
        # A constant, which the compiled walk reads once per check: MvAlgebra
        # derives it as neg 0, which would be logged.
        return mv.CoFin(0)

    def oplus(self, x, y):
        self.log.append(("oplus", x, y))
        return super().oplus(x, y)

    def odot(self, x, y):
        self.log.append(("odot", x, y))
        return super().odot(x, y)

    def neg(self, x):
        self.log.append(("neg", x))
        return super().neg(x)

    def inf(self, x, y):
        self.log.append(("inf", x, y))
        return super().inf(x, y)

    def sup(self, x, y):
        self.log.append(("sup", x, y))
        return super().sup(x, y)

    def d(self, x, y):
        self.log.append(("d", x, y))
        return super().d(x, y)

    def leq(self, x, y):
        self.log.append(("leq", x, y))
        return super().leq(x, y)


# Each connective's rule, a search that fails, nested bigvee and exists,
# n*t and t^n, and u: on C it raises where it is reached.
LOGGED_SEQUENTS = [
    "true |-[x,y] (x (+) y = y (+) x /\\ neg x <= y) \\/ x (.) y = d(x,y)",
    "x <= y |-[x,y] exists z. x (+) z = y",
    "true |-[x] x = 0 /\\ (exists y. y = neg y)",
    "true |-[x] x = 0 \\/ (exists y. y = neg y)",
    "true |-[x] x (+) x = x \\/ x^2 = x",
    "true |-[x] bigvee n<=4. (2*x <= n*x /\\ x^3 <= x)",
    "true |-[x] exists y. bigvee n<=3. (n*y = x \\/ (bigvee m<=2. m*x = neg y))",
    "x (.) x = x |-[x] (x = 0 \\/ x = 1) /\\ u <= inf(x, neg x)",
    "x = 1 |-[x,y] y <= u \\/ (exists z. z (+) z = y)",
]


@pytest.mark.parametrize("src", LOGGED_SEQUENTS)
@pytest.mark.parametrize("pointed", [False, True], ids=["C", "Pointed"])
def test_same_operations_in_the_same_order(src, pointed):
    """The compiled walk and the tree walk call the carrier's operations
    with the same operands in the same order, and end alike."""
    seq = mv.parse_sequent(src)
    runs = []
    for check in (checking._check_scalar, walk_check):
        M = _Logged(mv.CoFin(1) if pointed else None)
        window = M.enumerate(3)
        outcome = _outcome(lambda: check(M, seq, window, window, 3))
        runs.append((outcome, M.log))
    assert runs[0] == runs[1]
    outcome, log = runs[0]
    assert log or isinstance(outcome, tuple)  # operations ran, or u raised


def _nodes(f) -> Counter:
    """How many formula and term nodes ``f`` has."""
    def terms(t):
        return 1 + sum(map(terms, S.term_children(t)))

    if isinstance(f, (S.Eq, S.Leq)):
        return Counter(_compile_formula=1, _compile_term=terms(f.left) + terms(f.right))
    parts = [f.left, f.right] if isinstance(f, (S.And, S.Or)) else (
        [f.body] if isinstance(f, (S.Exists, S.BoundedOrOverN)) else [])
    return sum(map(_nodes, parts), Counter(_compile_formula=1))


def test_one_compile_per_check(monkeypatch):
    """Each check compiles every node of its sequent once, however many
    cells it visits, and on the vector engine however many slices it
    takes: here one per element of the first axis."""
    calls = Counter()
    for name in ("_compile_term", "_compile_formula"):
        def spy(*args, real=getattr(checking, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(checking, name, spy)
    monkeypatch.setattr(vector, "_MAX_CELLS", 1)
    seq = mv.parse_sequent(LOGGED_SEQUENTS[6])
    chunks = spy_on_chunks(monkeypatch, seq)
    expect = _nodes(seq.antecedent) + _nodes(seq.consequent)
    C = mv.ChangAlgebra()
    for engine in ("scalar", "vector"):
        for bound in (1, 3, 8):
            calls.clear()
            chunks.clear()
            check_sequent(C, seq, bound, engine=engine)
            assert calls == expect, (engine, bound)
            assert len(chunks) == (C.window_size(bound) if engine == "vector" else 0)
    assert expect == Counter(_compile_formula=7, _compile_term=7)
    assert C.window_size(1) >= 3


@pytest.mark.parametrize("src, error", [
    ("false |-[x] u = x", None),
    ("true |-[x] u = x", "C has no distinguished constant for 'u'"),
    ("false |-[x] exists x. x = x", None),
    ("true |-[x] exists x. x = x", "quantifier shadows variable 'x'"),
])
@pytest.mark.parametrize("engine", ["auto", "scalar", "vector"])
def test_errors_are_raised_when_reached(src, error, engine):
    """u on a carrier without one, and an exists that shadows a variable,
    raise only when the check reaches them: never under a false
    antecedent, in either engine (auto picks the vector engine at bound
    100, 202 cells)."""
    seq = mv.parse_sequent(src)
    C = mv.ChangAlgebra()
    for bound in (3, 100):
        if error is None:
            assert check_sequent(C, seq, bound, engine=engine) == mv.Holds()
        else:
            with pytest.raises(mv.SignatureError, match=re.escape(error)):
                check_sequent(C, seq, bound, engine=engine)
