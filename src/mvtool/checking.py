"""Bounded evaluation and checking of sequents over concrete carriers.

One compiler serves both engines.  ``_compile_formula`` and
``_compile_term``, the only code that reads the sequent AST, turn each
formula once per check into closures, one per AST node, over a value
domain.  They write the shared rules once: both sides of a conjunction
and of a disjunction run, as ``&``/``|`` on (value, definitely_false);
``true`` and ``false``; variables as positions in a tuple environment
(the context, then the enclosing ``exists`` variables); and the errors
(``u`` on a carrier without one, a shadowing ``exists``, an unbound
variable or coefficient), each a node that raises when a cell reaches
it.  The domain supplies the operations, the constants, ``n*t`` and
``t^n``, the ``=``/``<=`` atoms and the ``exists`` and ``bigvee`` loops.
The scalar engine, here, runs the closures over ``_Elements`` (elements
and bools) one environment at a time and is the reference: it runs every
carrier operation the formula names, in order, and never evaluates a
consequent under a false antecedent; ``tests/helpers`` keeps the
per-cell tree walk as its oracle.  The vector engine, in ``vector``,
runs them over grids of interned indices; an error that an operation
raises only on particular elements can come there from a cell whose
antecedent is false (see that module).

One size rule picks the engine.  A check with k >= 1 context variables
goes to the vector engine once its context grid ``|window|^k`` reaches
``_VECTOR_THRESHOLD`` cells; below it the scalar walk is cheaper than
numpy's per-table set-up.  ``_check_vector`` imports ``vector`` on its
first call, so this module, and every module that imports it, loads
without numpy: a check that the scalar engine or the product route
answers never loads it.

A sequent check universally quantifies its context over
``enumerate(bound)``.  Existentials and capped infinitary disjunctions
are searched within a finite window, so a failing environment whose
consequent hinges on an unwitnessed search is reported as inconclusive
rather than as a counterexample; counterexamples are always concrete and
therefore persist at every larger bound.

Each window is read once per carrier and bound.  ``_window`` memoises
``enumerate(bound)`` per live carrier, in a ``weakref.WeakKeyDictionary``
so that the memo never keeps a carrier alive, and keeps the last few
bounds of each carrier; every check at that bound, the product route's
position lookups included, shares the one list, and no caller mutates
it.  The window's int64 code rows live with it, one (width, n) array per
codec, which the vector engine encodes on its first use of the window.

Horn sequents on direct products are checked one factor at a time.  The
``auto`` engine takes this route for a sequent with context variables
whose antecedent is ``true`` or a conjunction of ``=``/``<=`` atoms,
whose consequent is a conjunction of atoms or ``false``, and which does
not mention ``u``, on a ``ProductAlgebra``, a ``ZnGroup``, the cone of
one (N^n, PosCone(Z^n): its factors are cones of Z) or Gamma(Z^n, u)
(its factors are the chains Gamma(Z, u_i)), by exact type, with at
least one factor.  Their operations and order
are componentwise, so a tuple fails iff every factor's part satisfies
the antecedent and some factor's part fails the sequent (Horn, JSL 16,
1951).  Each factor goes back through ``check_sequent``, so it picks its
own engine and a nested product recurses; the product's window is never
built.  That window is ``itertools.product`` of the factor windows, so
grid order compares the factors' window positions lexicographically
(x_0, x_1, ..., y_0, ...), and the full grid's first failure is the
least, in that order, of each factor's first failing tuple combined with
the other factors' first antecedent-satisfying tuples.  A disjunction,
``\\/`` or ``bigvee``, is not preserved by products (one part may satisfy
one disjunct and another part another), and an ``exists`` would need the
inconclusive rule split across factors, so these keep the full grid; so
does ``u``, which these carriers lack, so that the error names the
carrier and not a factor.  Forced ``scalar`` and ``vector`` engines keep
the full grid and stay the reference.

Every counterexample of a route other than the scalar engine (the
vector engine, the product route) is replayed before ``check_sequent``
returns it: the scalar engine's closures, compiled once more, must find
the antecedent true and the consequent definitely false at its env.  A
counterexample that does not replay is a fault of its route, and raises
an internal error rather than be returned.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable, Dict, Optional

from . import sequents as S
from .errors import SignatureError, UnboundVariableError
from .lgroup_core import PositiveConeMonoid, ZGroup, ZnGroup
from .mv_core import (GammaAlgebra, ProductAlgebra, _repeat, _repeated, mv_power,
                      nat_scalar)
from .verdicts import CounterExample, Holds, InconclusiveAtBound, Verdict

# Context grids of at least this many cells go to the vector engine; below
# it the scalar engine's walk is cheaper than numpy's per-table set-up.
# scripts/engine_sweep.py places the crossover between 64 and 256 cells on
# carriers with and without codecs; 160 keeps C's window at bound 64 (130
# cells), the benchmark's scalar-engine case, on the scalar engine.
_VECTOR_THRESHOLD = 160
# Windows kept per carrier; the least recently read goes first.  Checks on
# one carrier interleave a few bounds (a context and a search bound, a
# wide and a narrow window), so keeping only the last check's bounds would
# read them again and again; a sweep over many bounds must not pile up
# windows either.
_WINDOWS_PER_CARRIER = 4
# Live carrier -> {bound: (window, code rows)}, least recently read first.
_WINDOWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# The compiler: each term and formula compiled once into closures
# ---------------------------------------------------------------------------


def eval_term(model, term, env: Dict[str, Any],
              scalars: Optional[Dict[str, int]] = None):
    """Tarskian evaluation of a term in a model under an environment.

    ``scalars`` supplies values for bigvee-bound coefficient variables.
    """
    if model.signature not in S.term_signatures(term):
        raise SignatureError(
            f"term {S.print_term(term)!r} is not well-signed for a "
            f"{model.signature} carrier"
        )
    cells = {name: [n] for name, n in (scalars or {}).items()}
    return _compile_term(_Elements(model), term, tuple(env), cells)(tuple(env.values()))


def _constant(M, t):
    """The value of the constant ``t``: 0, 1 or u."""
    if isinstance(t, S.Zero):
        return M.zero
    if isinstance(t, S.One):
        return M.one
    if isinstance(t, S.Unit):
        unit = getattr(M, "unit", None)
        if unit is None:
            raise SignatureError(
                f"{M.descriptor()} has no distinguished constant for 'u'"
            )
        return unit
    raise TypeError(f"not a term: {t!r}")


def _raising(error, message):
    """A compiled node that raises ``error(message)`` when it is reached."""
    def reached(env):
        raise error(message)
    return reached


class _Elements:
    """The scalar engine's value domain: a value is a carrier element, a
    truth value a bool, and an environment a tuple of elements.
    ``exists`` tries the elements of ``search`` one by one."""

    def __init__(self, M, search=()):
        self.M = M
        self.search = search

    def binary(self, op):
        return getattr(self.M, op)

    unary = binary

    def constant(self, value):
        return value

    def repeat(self, op, arg, cell):
        """n*t or t^n (``op`` is ``nat_scalar`` or ``mv_power``) on the
        compiled ``arg``, with n read from ``cell``: ``mv_core._repeat``
        with the operation and unit resolved once."""
        M = self.M
        name, unit = _repeated(M, op)
        fn = getattr(M, name)

        def repeated(env):
            n = cell[0]
            x = arg(env)
            if n < 0:  # the reference raises its ValueError
                return mv_power(M, x, n) if op == "mv_power" else nat_scalar(M, n, x)
            return _repeat(fn, unit, x, n)
        return repeated

    def eq(self, left, right):
        def eq(env):
            v = left(env) == right(env)
            return v, not v
        return eq

    def leq(self, left, right):
        leq = self.M.leq

        def le(env):
            v = leq(left(env), right(env))
            return v, not v
        return le

    def exists(self, body, axis):
        search = self.search

        def exists(env):
            for cand in search:
                if body(env + (cand,))[0]:
                    return True, False
            return False, False
        return exists

    def bigvee(self, body, cell, cap):
        ns = range(cap + 1)

        def bigvee(env):
            for n in ns:
                cell[0] = n
                if body(env)[0]:
                    return True, False
            return False, False
        return bigvee


def _compile_term(D, t, scope: tuple, scalars: dict):
    """``t`` as a function of an environment tuple whose i-th value is
    bound to ``scope[i]``, over the value domain ``D`` (``_Elements``, or
    the vector engine's index grids).  The domain's operations, the
    constants and the variables' positions are resolved here, once; a
    bigvee-bound coefficient ``n`` is read from the cell ``scalars[n]``
    when the node runs.  An error the evaluation meets (u on a carrier
    without one, an unbound variable, an unbound coefficient) is raised
    when its node is reached, not here."""
    op = S.BINARY_OPS.get(type(t))
    if op is not None:
        fn = D.binary(op)
        left = _compile_term(D, t.left, scope, scalars)
        right = _compile_term(D, t.right, scope, scalars)
        return lambda env: fn(left(env), right(env))
    op = S.UNARY_OPS.get(type(t))
    if op is not None:
        fn = D.unary(op)
        arg = _compile_term(D, t.arg, scope, scalars)
        return lambda env: fn(arg(env))
    if isinstance(t, S.Var):
        if t.name not in scope:
            return _raising(UnboundVariableError, f"variable {t.name!r} is unbound")
        return itemgetter(scope.index(t.name))
    if isinstance(t, (S.NatScalar, S.MvPower)):
        arg = _compile_term(D, t.arg, scope, scalars)
        op, n = ("mv_power", t.n) if isinstance(t, S.MvPower) else ("nat_scalar", t.coeff)
        cell = [n] if isinstance(n, int) else scalars.get(n)
        if cell is None:
            return _raising(KeyError, n)
        return D.repeat(op, arg, cell)
    M = D.M
    if isinstance(t, S.Unit) and getattr(M, "unit", None) is None:
        return lambda env: _constant(M, t)  # raises the SignatureError
    value = D.constant(_constant(M, t))
    return lambda env: value


def _compile_formula(D, f, scope: tuple, scalars: dict):
    """``f`` as a function of an environment tuple (see
    ``_compile_term``) giving (value, definitely_false): the second
    component marks a False that no larger search window could repair.
    ``exists x`` is the domain's search over one more value after the
    environment's; ``bigvee n`` sets its own cell.  Both sides of a
    conjunction and of a disjunction are evaluated, so every operation
    runs that the semantics names, in order."""
    if isinstance(f, S.Top):
        return lambda env: (True, False)
    if isinstance(f, S.Bot):
        return lambda env: (False, True)
    if isinstance(f, (S.Eq, S.Leq)):
        atom = D.eq if isinstance(f, S.Eq) else D.leq
        return atom(_compile_term(D, f.left, scope, scalars),
                    _compile_term(D, f.right, scope, scalars))
    if isinstance(f, S.And):
        left = _compile_formula(D, f.left, scope, scalars)
        right = _compile_formula(D, f.right, scope, scalars)

        def conjunction(env):
            lv, ldf = left(env)
            rv, rdf = right(env)
            return lv & rv, ldf | rdf
        return conjunction
    if isinstance(f, S.Or):
        left = _compile_formula(D, f.left, scope, scalars)
        right = _compile_formula(D, f.right, scope, scalars)

        def disjunction(env):
            lv, ldf = left(env)
            rv, rdf = right(env)
            return lv | rv, ldf & rdf
        return disjunction
    if isinstance(f, S.Exists):
        if f.var in scope:
            return _raising(SignatureError, f"quantifier shadows variable {f.var!r}")
        body = _compile_formula(D, f.body, scope + (f.var,), scalars)
        return D.exists(body, len(scope))
    if isinstance(f, S.BoundedOrOverN):
        cell = [0]
        body = _compile_formula(D, f.body, scope, {**scalars, f.var: cell})
        return D.bigvee(body, cell, f.cap)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# check_sequent
# ---------------------------------------------------------------------------


def _exists_depth(f) -> int:
    if isinstance(f, (S.Top, S.Bot, S.Eq, S.Leq)):
        return 0
    if isinstance(f, (S.And, S.Or)):
        return max(_exists_depth(f.left), _exists_depth(f.right))
    if isinstance(f, S.Exists):
        return 1 + _exists_depth(f.body)
    if isinstance(f, S.BoundedOrOverN):
        return _exists_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


def _window(model, bound: int) -> list:
    """``model.enumerate(bound)``, read once per live carrier and bound.

    Callers read the list and never mutate it: every check of the carrier
    at that bound shares it.  A carrier that cannot be weakly referenced
    or hashed is enumerated on every call."""
    try:
        windows = _WINDOWS.get(model)
        if windows is None:
            windows = _WINDOWS[model] = OrderedDict()
    except TypeError:
        return model.enumerate(bound)
    entry = windows.get(bound)
    if entry is None:
        entry = windows[bound] = (model.enumerate(bound), {})
        if len(windows) > _WINDOWS_PER_CARRIER:
            windows.popitem(last=False)
    else:
        windows.move_to_end(bound)
    return entry[0]


def _window_codes(model, window: list) -> Optional[dict]:
    """The code rows of ``window`` by codec, which the vector engine
    fills, when ``window`` is a window of ``model`` that ``_window``
    holds; None otherwise."""
    try:
        windows = _WINDOWS.get(model)
    except TypeError:
        return None
    for elems, codes in (windows or {}).values():
        if elems is window:
            return codes
    return None


def searches(seq: S.Sequent) -> bool:
    """Whether checking ``seq`` reads an existential search window."""
    return _exists_depth(seq.antecedent) > 0 or _exists_depth(seq.consequent) > 0


def check_sequent(model, seq: S.Sequent, bound: int, *,
                  exists_bound: Optional[int] = None,
                  engine: str = "auto") -> Verdict:
    """Check a sequent over all context assignments from
    ``model.enumerate(bound)``.

    Existential witnesses are searched within
    ``model.enumerate(exists_bound)`` (default: the same bound).  With
    the ``auto`` engine, a Horn sequent on a direct product is checked
    one factor at a time, with the verdict of the full grid (see the
    module docstring).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if exists_bound is not None and exists_bound < 1:
        raise ValueError("exists_bound must be >= 1")
    if model.signature not in seq.signatures():
        raise SignatureError(
            f"sequent is over {sorted(seq.signatures())} but model "
            f"{model.descriptor()} has signature {model.signature}"
        )
    factors = _product_factors(model) if engine == "auto" else ()
    if factors and _is_horn(seq):
        # A Horn sequent has no exists: the replay searches nothing.
        return _replayed(model, seq, (), _check_product(model, factors, seq, bound))
    ctx_enum = _window(model, bound)
    search = ctx_enum
    if exists_bound is not None and searches(seq):
        search = _window(model, exists_bound)

    k = len(seq.context)
    if engine == "auto":
        vector = k >= 1 and len(ctx_enum) ** k >= _VECTOR_THRESHOLD
        engine = "vector" if vector else "scalar"
    if engine == "scalar":
        return _check_scalar(model, seq, ctx_enum, search, bound)
    if engine != "vector":
        raise ValueError(f"unknown engine {engine!r}")
    return _replayed(model, seq, search,
                     _check_vector(model, seq, [ctx_enum] * k, search, bound))


def _replayed(model, seq, search, verdict: Verdict) -> Verdict:
    """``verdict``, from a route other than the scalar engine, once the
    scalar engine's closures, the reference, refute ``seq`` at its
    counterexample's env, with witnesses from ``search``: the antecedent
    is true there and the consequent definitely false.  A counterexample
    that does not replay is a fault of its route, and raises."""
    if isinstance(verdict, CounterExample):
        D = _Elements(model, search)
        values = tuple(verdict.env[v] for v in seq.context)
        antecedent = _compile_formula(D, seq.antecedent, seq.context, {})
        consequent = _compile_formula(D, seq.consequent, seq.context, {})
        cv, cdf = consequent(values) if antecedent(values)[0] else (True, False)
        if cv or not cdf:
            raise RuntimeError(
                f"internal error: the counterexample {verdict.env!r} to "
                f"{seq.name or 'a sequent'} on {model.descriptor()} does not "
                "replay on the scalar engine")
    return verdict


def _check_scalar(model, seq, ctx_enum, search, bound) -> Verdict:
    D = _Elements(model, search)
    antecedent = _compile_formula(D, seq.antecedent, seq.context, {})
    consequent = _compile_formula(D, seq.consequent, seq.context, {})
    inconclusive = False
    for values in itertools.product(ctx_enum, repeat=len(seq.context)):
        if not antecedent(values)[0]:
            continue
        cv, cdf = consequent(values)
        if cv:
            continue
        if cdf:
            return CounterExample(dict(zip(seq.context, values)), axiom=seq.name)
        inconclusive = True
    if inconclusive:
        return InconclusiveAtBound(bound, note="unwitnessed bounded search")
    return Holds()


def _check_vector(model, seq, ctx_enums, search, bound) -> Verdict:
    # Imported here, so that numpy loads with the first vector check.
    from .vector import check_grid

    return check_grid(model, seq, ctx_enums, search, bound)


# ---------------------------------------------------------------------------
# The product route
# ---------------------------------------------------------------------------


def _product_factors(model) -> tuple:
    """The factors of a carrier that is, by its exact type, a direct
    product with componentwise operations and order; () otherwise.  The
    cone of a product group is the product of the factors' cones, and
    Gamma(Z^n, u) is the product of the chains Gamma(Z, u_i), with the
    same window, in the same order.  The one product decision: the product
    route and ``decompose._quotient_with_map`` read it."""
    kind = type(model)
    if kind is ProductAlgebra:
        return model.factors
    if kind is ZnGroup:
        return (ZGroup(),) * model.rank
    if kind is GammaAlgebra and type(model.group) is ZnGroup:
        return tuple(GammaAlgebra(ZGroup(), ui) for ui in model.unit)
    if kind is PositiveConeMonoid:
        return tuple(map(PositiveConeMonoid, _product_factors(model.group)))
    return ()


def _mentions_unit(t) -> bool:
    return isinstance(t, S.Unit) or any(map(_mentions_unit, S.term_children(t)))


def _atoms(f) -> bool:
    """Whether ``f`` is a conjunction of =/<= atoms that do not mention u."""
    if isinstance(f, S.And):
        return _atoms(f.left) and _atoms(f.right)
    return isinstance(f, (S.Eq, S.Leq)) and not (
        _mentions_unit(f.left) or _mentions_unit(f.right))


def _is_horn(seq: S.Sequent) -> bool:
    """Whether ``seq`` has context variables, a ``true`` or atomic
    antecedent and an atomic or ``false`` consequent, and no u."""
    return (bool(seq.context)
            and (isinstance(seq.antecedent, S.Top) or _atoms(seq.antecedent))
            and (isinstance(seq.consequent, S.Bot) or _atoms(seq.consequent)))


def _check_product(model, factors, seq, bound) -> Verdict:
    """A Horn sequent on a direct product, one factor at a time: a tuple
    fails iff every factor's part satisfies the antecedent and some
    factor's part fails the sequent."""
    if isinstance(seq.consequent, S.Bot):
        bad = ant = [_first_antecedent(f, seq, bound) for f in factors]
    else:
        bad = [getattr(check_sequent(f, seq, bound), "env", None) for f in factors]
        if all(b is None for b in bad):
            return Holds()
        ant = [_first_antecedent(f, seq, bound) for f in factors]
    if None in ant:
        return Holds()
    # The first failing tuple of factor i with the first antecedent tuple
    # of every other factor is the first failure whose i-th part fails.
    candidates = [
        {v: tuple((b if j == i else a)[v] for j, a in enumerate(ant))
         for v in seq.context}
        for i, b in enumerate(bad) if b is not None
    ]
    position = _window_position(model, factors, bound)
    env = min(candidates, key=lambda env: [position(env[v]) for v in seq.context])
    return CounterExample(env, axiom=seq.name)


def _first_antecedent(model, seq, bound) -> Optional[Dict[str, Any]]:
    """The first environment of ``model``'s grid that satisfies the
    antecedent of ``seq``, or None."""
    if isinstance(seq.antecedent, S.Top) and not _product_factors(model):
        window = _window(model, bound)
        return dict.fromkeys(seq.context, window[0]) if window else None
    v = check_sequent(model, S.Sequent(seq.context, seq.antecedent, S.Bot()), bound)
    return getattr(v, "env", None)


def _window_position(model, factors, bound) -> Callable:
    """The position of an element in ``model.enumerate(bound)``, as a
    function; on a product with the factors ``factors``, the tuple of its
    parts' positions, which sorts the same way and builds no product
    window.  Each factor window is read once, into one dict."""
    if factors:
        parts = [_window_position(f, _product_factors(f), bound) for f in factors]
        return lambda x: tuple(p(a) for p, a in zip(parts, x))
    index: Dict[Any, int] = {}
    for i, x in enumerate(_window(model, bound)):
        index.setdefault(x, i)
    return index.__getitem__
