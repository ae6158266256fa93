"""Bounded evaluation and checking of sequents over concrete carriers.

Two engines implement the same semantics.  The scalar engine, here,
walks environments one by one and is the reference.  The vector engine,
in ``vector``, interns carrier elements into integer indices and
evaluates whole environment grids with numpy table lookups (see that
module for its table routes, code space and slicing).

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
it.  The window's int64 code rows live with it, one set per codec, which
the vector engine encodes on its first use of the window.

Horn sequents on direct products are checked one factor at a time.  The
``auto`` engine takes this route for a sequent with context variables
whose antecedent is ``true`` or a conjunction of ``=``/``<=`` atoms,
whose consequent is a conjunction of atoms or ``false``, and which does
not mention ``u``, on a ``ProductAlgebra``, ``ZnGroup`` or ``NnMonoid``
(by exact type) with at least one factor.  Their operations and order
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
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from . import sequents as S
from .errors import SignatureError, UnboundVariableError
from .lgroup_core import NMonoid, NnMonoid, ZGroup, ZnGroup
from .mv_core import ProductAlgebra, mv_power, nat_scalar
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
# Scalar evaluation
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
    return _eval(model, term, env, scalars or {})


def _eval(M, t, env, scalars):
    if isinstance(t, S.Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariableError(f"variable {t.name!r} is unbound") from None
    op = S.BINARY_OPS.get(type(t))
    if op is not None:
        return getattr(M, op)(_eval(M, t.left, env, scalars),
                              _eval(M, t.right, env, scalars))
    op = S.UNARY_OPS.get(type(t))
    if op is not None:
        return getattr(M, op)(_eval(M, t.arg, env, scalars))
    if isinstance(t, S.NatScalar):
        n = t.coeff if isinstance(t.coeff, int) else scalars[t.coeff]
        return nat_scalar(M, n, _eval(M, t.arg, env, scalars))
    if isinstance(t, S.MvPower):
        return mv_power(M, _eval(M, t.arg, env, scalars), t.n)
    return _constant(M, t)


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


def _eval_formula(M, f, env, scalars, search) -> Tuple[bool, bool]:
    """Returns (value, definitely_false): the second component marks a
    False that no larger search window could repair."""
    if isinstance(f, S.Top):
        return True, False
    if isinstance(f, S.Bot):
        return False, True
    if isinstance(f, S.Eq):
        v = _eval(M, f.left, env, scalars) == _eval(M, f.right, env, scalars)
        return v, not v
    if isinstance(f, S.Leq):
        v = M.leq(_eval(M, f.left, env, scalars), _eval(M, f.right, env, scalars))
        return v, not v
    if isinstance(f, S.And):
        lv, ldf = _eval_formula(M, f.left, env, scalars, search)
        rv, rdf = _eval_formula(M, f.right, env, scalars, search)
        return lv and rv, ldf or rdf
    if isinstance(f, S.Or):
        lv, ldf = _eval_formula(M, f.left, env, scalars, search)
        rv, rdf = _eval_formula(M, f.right, env, scalars, search)
        return lv or rv, ldf and rdf
    if isinstance(f, S.Exists):
        if f.var in env:
            raise SignatureError(f"quantifier shadows variable {f.var!r}")
        for cand in search:
            sub = dict(env)
            sub[f.var] = cand
            if _eval_formula(M, f.body, sub, scalars, search)[0]:
                return True, False
        return False, False
    if isinstance(f, S.BoundedOrOverN):
        for n in range(f.cap + 1):
            sub = dict(scalars)
            sub[f.var] = n
            if _eval_formula(M, f.body, env, sub, search)[0]:
                return True, False
        return False, False
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
        return _check_product(model, factors, seq, bound)
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
    return _check_vector(model, seq, [ctx_enum] * k, search, bound)


def _check_scalar(model, seq, ctx_enum, search, bound) -> Verdict:
    inconclusive = False
    for values in itertools.product(ctx_enum, repeat=len(seq.context)):
        env = dict(zip(seq.context, values))
        av, _ = _eval_formula(model, seq.antecedent, env, {}, search)
        if not av:
            continue
        cv, cdf = _eval_formula(model, seq.consequent, env, {}, search)
        if cv:
            continue
        if cdf:
            return CounterExample(env, axiom=seq.name)
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
    product with componentwise operations and order; () otherwise."""
    kind = type(model)
    if kind is ProductAlgebra:
        return model.factors
    if kind is ZnGroup:
        return (ZGroup(),) * model.rank
    if kind is NnMonoid:
        return (NMonoid(),) * model.rank
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
    env = min(candidates, key=lambda env: [
        _window_position(model, bound, env[v]) for v in seq.context])
    return CounterExample(env, axiom=seq.name)


def _first_antecedent(model, seq, bound) -> Optional[Dict[str, Any]]:
    """The first environment of ``model``'s grid that satisfies the
    antecedent of ``seq``, or None."""
    if isinstance(seq.antecedent, S.Top) and not _product_factors(model):
        window = _window(model, bound)
        return dict.fromkeys(seq.context, window[0]) if window else None
    v = check_sequent(model, S.Sequent(seq.context, seq.antecedent, S.Bot()), bound)
    return getattr(v, "env", None)


def _window_position(model, bound, x):
    """The position of ``x`` in ``model.enumerate(bound)``; on a product,
    the tuple of its parts' positions, which sorts the same way and
    builds no product window."""
    factors = _product_factors(model)
    if factors:
        return tuple(_window_position(f, bound, a) for f, a in zip(factors, x))
    return _window(model, bound).index(x)
