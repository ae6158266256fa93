"""Bounded evaluation and checking of sequents over concrete carriers.

Two engines implement the same semantics.  The scalar engine walks
environments one by one and is the reference.  The vector engine interns
carrier elements into integer indices and evaluates whole environment
grids with numpy table lookups; elements produced by operations outside
the enumerated window are interned lazily, so evaluation stays exact.

A sequent check universally quantifies its context over
``enumerate(bound)``.  Existentials and capped infinitary disjunctions
are searched within a finite window, so a failing environment whose
consequent hinges on an unwitnessed search is reported as inconclusive
rather than as a counterexample; counterexamples are always concrete and
therefore persist at every larger bound.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import sequents as S
from .errors import SignatureError, UnboundVariableError
from .mv_core import mv_power
from .verdicts import CounterExample, Holds, InconclusiveAtBound, Verdict

# Grids larger than this are chunked along the first context axis.
_MAX_CELLS = 1 << 25
# Below this many environments the scalar engine beats numpy setup costs.
_VECTOR_THRESHOLD = 4096
# Dense sub-table route is used when |left values| * |right values| fits.
_DENSE_PAIR_LIMIT = 1 << 18


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
    if isinstance(t, S.Zero):
        return M.zero
    if isinstance(t, S.One):
        return M.one
    if isinstance(t, S.Unit):
        return _unit_of(M)
    if isinstance(t, S.Oplus):
        return M.oplus(_eval(M, t.left, env, scalars), _eval(M, t.right, env, scalars))
    if isinstance(t, S.Odot):
        return M.odot(_eval(M, t.left, env, scalars), _eval(M, t.right, env, scalars))
    if isinstance(t, S.Neg):
        return M.neg(_eval(M, t.arg, env, scalars))
    if isinstance(t, S.Inf):
        return M.inf(_eval(M, t.left, env, scalars), _eval(M, t.right, env, scalars))
    if isinstance(t, S.Sup):
        return M.sup(_eval(M, t.left, env, scalars), _eval(M, t.right, env, scalars))
    if isinstance(t, S.Add):
        return M.add(_eval(M, t.left, env, scalars), _eval(M, t.right, env, scalars))
    if isinstance(t, S.Minus):
        return M.negate(_eval(M, t.arg, env, scalars))
    if isinstance(t, S.D):
        return M.d(_eval(M, t.left, env, scalars), _eval(M, t.right, env, scalars))
    if isinstance(t, S.NatScalar):
        n = t.coeff if isinstance(t.coeff, int) else scalars[t.coeff]
        return _nat_scalar(M, n, _eval(M, t.arg, env, scalars))
    if isinstance(t, S.MvPower):
        return mv_power(M, _eval(M, t.arg, env, scalars), t.n)
    raise TypeError(f"not a term: {t!r}")


def _unit_of(M):
    unit = getattr(M, "unit", None)
    if unit is None:
        raise SignatureError(
            f"{M.descriptor()} has no distinguished constant for 'u'"
        )
    return unit


def _nat_scalar(M, n, x):
    plus = M.oplus if M.signature == "mv" else M.add
    acc = M.zero
    for _ in range(n):
        acc = plus(acc, x)
    return acc


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
# Vector evaluation
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


class _VectorEval:
    """Evaluates one formula over the full environment grid.

    Every array has a fixed number of dimensions: one leading axis per
    context variable (whose lengths may differ when the first axis is
    chunked) followed by one axis per level of existential nesting.
    Existential reductions use keepdims, so shapes stay aligned.
    """

    def __init__(self, model, ctx_vars: Sequence[str],
                 ctx_enums: Sequence[list], search_enum: list, formula):
        self.M = model
        self.interner_elems: List[Any] = []
        self.interner_index: Dict[Any, int] = {}
        self.n_ctx = len(ctx_vars)
        self.ndim = self.n_ctx + _exists_depth(formula)
        self.axes: Dict[str, int] = {v: i for i, v in enumerate(ctx_vars)}
        self.var_idx: Dict[str, np.ndarray] = {
            v: self._intern_all(ctx_enums[i]) for i, v in enumerate(ctx_vars)
        }
        self.search_enum = search_enum
        self._search_idx: Optional[np.ndarray] = None
        self.scalars: Dict[str, int] = {}

    # -- interning -----------------------------------------------------------

    def intern(self, v) -> int:
        idx = self.interner_index.get(v)
        if idx is None:
            idx = len(self.interner_elems)
            self.interner_index[v] = idx
            self.interner_elems.append(v)
        return idx

    def _intern_all(self, values) -> np.ndarray:
        return np.array([self.intern(v) for v in values], dtype=np.int64)

    # -- table machinery -------------------------------------------------------

    def _unary_table(self, fn, arr):
        arr = np.asarray(arr)
        uniq = np.unique(arr)
        vals = np.array([self.intern(fn(self.interner_elems[int(i)])) for i in uniq],
                        dtype=np.int64)
        lk = np.zeros(int(uniq[-1]) + 1, dtype=np.int64)
        lk[uniq] = vals
        return lk[arr]

    def _binary_table(self, fn, a, b, out_bool=False):
        a, b = np.asarray(a), np.asarray(b)
        ua, ub = np.unique(a), np.unique(b)
        elems = self.interner_elems
        if len(ua) * len(ub) <= _DENSE_PAIR_LIMIT:
            dtype = bool if out_bool else np.int64
            table = np.empty((len(ua), len(ub)), dtype=dtype)
            for i, ia in enumerate(ua):
                xi = elems[int(ia)]
                for j, jb in enumerate(ub):
                    r = fn(xi, elems[int(jb)])
                    table[i, j] = r if out_bool else self.intern(r)
            pos_a = np.zeros(int(ua[-1]) + 1, dtype=np.int64)
            pos_a[ua] = np.arange(len(ua))
            pos_b = np.zeros(int(ub[-1]) + 1, dtype=np.int64)
            pos_b[ub] = np.arange(len(ub))
            return table[pos_a[a], pos_b[b]]
        # Sparse route: encode pairs as single codes, map the unique ones.
        m = len(elems)
        codes = a.astype(np.int64) * m + b
        uniq = np.unique(codes)
        if out_bool:
            vals = np.array([fn(elems[int(c) // m], elems[int(c) % m]) for c in uniq],
                            dtype=bool)
        else:
            vals = np.array(
                [self.intern(fn(elems[int(c) // m], elems[int(c) % m])) for c in uniq],
                dtype=np.int64,
            )
        return vals[np.searchsorted(uniq, codes)]

    # -- terms -------------------------------------------------------------------

    def _shaped(self, idx_array: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.ndim
        shape[axis] = len(idx_array)
        return idx_array.reshape(shape)

    def term(self, t):
        M = self.M
        if isinstance(t, S.Var):
            return self._shaped(self.var_idx[t.name], self.axes[t.name])
        if isinstance(t, S.Zero):
            return np.int64(self.intern(M.zero))
        if isinstance(t, S.One):
            return np.int64(self.intern(M.one))
        if isinstance(t, S.Unit):
            return np.int64(self.intern(_unit_of(M)))
        if isinstance(t, S.Oplus):
            return self._binary_table(M.oplus, self.term(t.left), self.term(t.right))
        if isinstance(t, S.Odot):
            return self._binary_table(M.odot, self.term(t.left), self.term(t.right))
        if isinstance(t, S.Neg):
            return self._unary_table(M.neg, self.term(t.arg))
        if isinstance(t, S.Inf):
            return self._binary_table(M.inf, self.term(t.left), self.term(t.right))
        if isinstance(t, S.Sup):
            return self._binary_table(M.sup, self.term(t.left), self.term(t.right))
        if isinstance(t, S.Add):
            return self._binary_table(M.add, self.term(t.left), self.term(t.right))
        if isinstance(t, S.Minus):
            return self._unary_table(M.negate, self.term(t.arg))
        if isinstance(t, S.D):
            return self._binary_table(M.d, self.term(t.left), self.term(t.right))
        if isinstance(t, S.NatScalar):
            n = t.coeff if isinstance(t.coeff, int) else self.scalars[t.coeff]
            return self._unary_table(lambda v: _nat_scalar(M, n, v), self.term(t.arg))
        if isinstance(t, S.MvPower):
            return self._unary_table(lambda v: mv_power(M, v, t.n), self.term(t.arg))
        raise TypeError(f"not a term: {t!r}")

    # -- formulas ------------------------------------------------------------------

    def formula(self, f, depth: int = 0):
        if isinstance(f, S.Top):
            return np.ones((), dtype=bool), np.zeros((), dtype=bool)
        if isinstance(f, S.Bot):
            return np.zeros((), dtype=bool), np.ones((), dtype=bool)
        if isinstance(f, S.Eq):
            v = np.asarray(self.term(f.left) == self.term(f.right))
            return v, ~v
        if isinstance(f, S.Leq):
            v = np.asarray(self._binary_table(self.M.leq, self.term(f.left),
                                              self.term(f.right), out_bool=True))
            return v, ~v
        if isinstance(f, S.And):
            lv, ldf = self.formula(f.left, depth)
            rv, rdf = self.formula(f.right, depth)
            return lv & rv, ldf | rdf
        if isinstance(f, S.Or):
            lv, ldf = self.formula(f.left, depth)
            rv, rdf = self.formula(f.right, depth)
            return lv | rv, ldf & rdf
        if isinstance(f, S.Exists):
            if f.var in self.axes:
                raise SignatureError(f"quantifier shadows variable {f.var!r}")
            if self._search_idx is None:
                self._search_idx = self._intern_all(self.search_enum)
            ax = self.n_ctx + depth
            self.axes[f.var] = ax
            self.var_idx[f.var] = self._search_idx
            try:
                bv, _ = self.formula(f.body, depth + 1)
            finally:
                del self.axes[f.var]
                del self.var_idx[f.var]
            if bv.ndim > ax:
                v = np.asarray(bv.any(axis=ax, keepdims=True))
            else:
                v = bv  # body never materialized the quantified axis
            return v, np.zeros(v.shape, dtype=bool)
        if isinstance(f, S.BoundedOrOverN):
            acc = None
            saved = self.scalars.get(f.var)
            try:
                for n in range(f.cap + 1):
                    self.scalars[f.var] = n
                    bv, _ = self.formula(f.body, depth)
                    acc = bv if acc is None else (acc | bv)
                    if acc.all():
                        break
            finally:
                if saved is None:
                    self.scalars.pop(f.var, None)
                else:
                    self.scalars[f.var] = saved
            acc = np.asarray(acc)
            return acc, np.zeros(acc.shape, dtype=bool)
        raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# check_sequent
# ---------------------------------------------------------------------------


def searches(seq: S.Sequent) -> bool:
    """Whether checking ``seq`` reads an existential search window."""
    return _exists_depth(seq.antecedent) > 0 or _exists_depth(seq.consequent) > 0


def check_sequent(model, seq: S.Sequent, bound: int, *,
                  exists_bound: Optional[int] = None,
                  engine: str = "auto") -> Verdict:
    """Check a sequent over all context assignments from
    ``model.enumerate(bound)``.

    Existential witnesses are searched within
    ``model.enumerate(exists_bound)`` (default: the same bound).
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
    ctx_enum = model.enumerate(bound)
    search = ctx_enum
    if exists_bound is not None and searches(seq):
        search = model.enumerate(exists_bound)

    k = len(seq.context)
    cells = len(ctx_enum) ** k
    if engine == "auto":
        engine = "vector" if k >= 1 and cells >= _VECTOR_THRESHOLD else "scalar"

    if engine == "scalar":
        return _check_scalar(model, seq, ctx_enum, search, bound)
    if engine != "vector":
        raise ValueError(f"unknown engine {engine!r}")

    if cells > _MAX_CELLS and len(ctx_enum) > 1 and k > 1:
        per_chunk_cells = max(1, cells // len(ctx_enum))
        step = max(1, _MAX_CELLS // per_chunk_cells)
        inconclusive = False
        for start in range(0, len(ctx_enum), step):
            chunk = ctx_enum[start:start + step]
            sub = _check_vector(model, seq, [chunk] + [ctx_enum] * (k - 1),
                                search, bound)
            if isinstance(sub, CounterExample):
                return sub
            if isinstance(sub, InconclusiveAtBound):
                inconclusive = True
        if inconclusive:
            return InconclusiveAtBound(bound, note="unwitnessed bounded search")
        return Holds()
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
    k = len(seq.context)
    grid = tuple(len(e) for e in ctx_enums)

    ev_a = _VectorEval(model, seq.context, ctx_enums, search, seq.antecedent)
    av, _ = ev_a.formula(seq.antecedent)
    ev_c = _VectorEval(model, seq.context, ctx_enums, search, seq.consequent)
    cv, cdf = ev_c.formula(seq.consequent)

    def to_grid(arr):
        arr = np.asarray(arr)
        if arr.ndim > k:
            arr = arr[(...,) + (0,) * (arr.ndim - k)]
        return np.broadcast_to(arr, grid)

    bad = to_grid(av) & ~to_grid(cv)
    if not bad.any():
        return Holds()
    concrete = bad & to_grid(cdf)
    if concrete.any():
        flat = int(np.argmax(concrete.reshape(-1)))
        coords = np.unravel_index(flat, grid)
        env = {v: ctx_enums[i][coords[i]] for i, v in enumerate(seq.context)}
        return CounterExample(env, axiom=seq.name)
    return InconclusiveAtBound(bound, note="unwitnessed bounded search")
