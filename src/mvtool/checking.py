"""Bounded evaluation and checking of sequents over concrete carriers.

Two engines implement the same semantics.  The scalar engine walks
environments one by one and is the reference.  The vector engine interns
carrier elements into integer indices and evaluates whole environment
grids with numpy table lookups; elements produced by operations outside
the enumerated window are interned lazily, so evaluation stays exact.

One size rule picks the engine and the table route.  A check with
k >= 1 context variables goes to the vector engine once its context grid
``|window|^k`` reaches ``_VECTOR_THRESHOLD`` cells; below it the scalar
walk is cheaper than numpy's per-table set-up.  A table is dense, one
entry per pair of distinct operands, when it has no more entries than the
broadcast operand grid it indexes, and otherwise holds only the pairs
that occur; so no table outgrows the arrays the evaluation already
holds.  The vector grid also has one axis per level of existential
nesting, and a grid above ``_MAX_CELLS`` cells, search axes included, is
checked in chunks along its first context axis.

The vector engine builds each operation table over the unique operand
pairs.  When the carrier has a codec (``kernels.codec_for``), every
interned element is keyed by its int64 code row: a window is encoded
once, in one batch, and a table is one kernel call over the pairs' rows
whose distinct result rows are looked up and appended by row, so the
engine stays in code space and decodes an element only when something
reads it (a fallback table, a homomorphism check's ``forward``).  This
rests on row equality being element equality, which the kernel tests
pin.  ``leq`` tables are boolean and intern nothing.  A table falls back
to calling the carrier's own operation on each pair when one of its
inputs has no valid code (a coordinate of magnitude 2^60 or more) or one
of its result rows reaches 2^60; such elements are keyed by themselves.
Below that bound no kernel can overflow int64, so the kernels are exact:
no floats, no tolerances, no wraparound.  The interning, the code rows
and the tables live in ``OperationTables``, which the homomorphism
checks share; one interner serves a whole check, antecedent and
consequent alike.

A sequent check universally quantifies its context over
``enumerate(bound)``.  Existentials and capped infinitary disjunctions
are searched within a finite window, so a failing environment whose
consequent hinges on an unwitnessed search is reported as inconclusive
rather than as a counterexample; counterexamples are always concrete and
therefore persist at every larger bound.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import sequents as S
from .errors import SignatureError, UnboundVariableError
from .kernels import LIMIT, codec_for, fits
from .mv_core import mv_power
from .verdicts import CounterExample, Holds, InconclusiveAtBound, Verdict

# Vector grids (context axes times search axes) larger than this are
# chunked along the first context axis.
_MAX_CELLS = 1 << 25
# Context grids of at least this many cells go to the vector engine; below
# it the scalar engine's walk is cheaper than numpy's per-table set-up.
# scripts/engine_sweep.py places the crossover between 64 and 256 cells on
# carriers with and without codecs; 160 keeps C's window at bound 64 (130
# cells), the benchmark's scalar-engine case, on the scalar engine.
_VECTOR_THRESHOLD = 160
# Operand pairs per kernel call (see _VectorEval._pair_kernel).
_KERNEL_BLOCK = 1 << 14
# The element of a kernel result that nothing has read yet.
_PENDING = object()


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


def _unique_rows(rows, lo, hi):
    """The ``first`` and ``inverse`` of ``np.unique(rows, axis=0)``: the
    position of each distinct row's first occurrence, and each row's
    distinct row.  Through one integer key per row when the columns'
    ranges ``lo``..``hi`` fit a mixed-radix number below 2^62; sorting the
    keys is much faster than sorting rows."""
    spans = [int(h) - int(l) + 1 for l, h in zip(lo.tolist(), hi.tolist())]
    total = 1
    for s in spans:
        total *= s
    if total >= 1 << 62:
        _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
        return first, inverse.reshape(-1)
    key = np.zeros(len(rows), dtype=np.int64)
    for c, s in enumerate(spans):
        key = key * s + (rows[:, c] - lo[c])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _row_keys(rows) -> list:
    """One dict key per int64 code row of the 2-D array ``rows``: its
    bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


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


class OperationTables:
    """Interned elements of one carrier and its operation tables over them.

    Elements are interned into integer indices.  When the carrier has a
    codec, an element is keyed by its int64 code row: a table is one
    kernel call over the rows of its operands, and its distinct result
    rows are looked up and appended as rows, so a kernel result is
    decoded only when something reads it through ``element``.  An element
    without a valid code (a coordinate of magnitude ``LIMIT`` or more) is
    keyed by itself, and a table that meets one, or whose result rows
    reach ``LIMIT``, calls the carrier's own operation on each operand
    (pair).  Without a codec every element is keyed by itself.  One
    instance serves a whole check: a sequent's antecedent and consequent,
    or a homomorphism check's source or target side.
    """

    def __init__(self, model):
        self.M = model
        self.codec = codec_for(model)
        # Element i, or _PENDING until a kernel result is first read.
        self._elems: List[Any] = []
        # Element -> index, for every element interned from Python; with a
        # codec this is a cache in front of _row_index for those that fit.
        self.interner_index: Dict[Any, int] = {}
        # Code row (its bytes) -> index, for every element with a valid code.
        self._row_index: Dict[bytes, int] = {}
        # One int64 code row per interned element, valid where _ok is set;
        # both have spare capacity beyond len(self._elems).
        width = 0 if self.codec is None else self.codec.width
        self._codes = np.zeros((16, width), dtype=np.int64)
        self._ok = np.zeros(16, dtype=bool)

    # -- interning -----------------------------------------------------------

    def element(self, i: int):
        """The element with interned index ``i``."""
        v = self._elems[i]
        if v is _PENDING:
            v = self._elems[i] = self.codec.decode(self._codes[i].tolist())
        return v

    def intern(self, v) -> int:
        idx = self.interner_index.get(v)
        if idx is None:
            idx = self._intern_new(v)
            self.interner_index[v] = idx
        return idx

    def _intern_new(self, v) -> int:
        if self.codec is None:
            return self._append([v])
        row = self.codec.encode(v)
        if not fits(row):
            return self._append([v])
        row = np.array([row], dtype=np.int64)
        key = _row_keys(row)[0]
        idx = self._row_index.get(key)
        if idx is None:
            idx = self._row_index[key] = self._append([v], row)
        return idx

    def intern_all(self, values) -> np.ndarray:
        """The indices of the list ``values``; with a codec they are
        encoded in one batch and interned by row."""
        if self.codec is not None and values:
            encode = self.codec.encode
            try:
                rows = np.array([encode(v) for v in values], dtype=np.int64)
            except OverflowError:
                rows = None
            if rows is not None:
                idx = self._intern_rows(rows, values)
                if idx is not None:
                    return idx
        return np.array([self.intern(v) for v in values], dtype=np.int64)

    def _append(self, elems, rows=None) -> int:
        """Append new elements with their code rows (None: no valid code,
        or no codec); returns the first new index."""
        start = len(self._elems)
        self._elems.extend(elems)
        end = len(self._elems)
        if self.codec is not None:
            if end > len(self._ok):
                grow = max(end, 2 * len(self._ok))
                self._codes = np.resize(self._codes, (grow, self.codec.width))
                self._ok = np.resize(self._ok, grow)
            self._ok[start:end] = rows is not None
            if rows is not None:
                self._codes[start:end] = rows
        return start

    # -- code rows -------------------------------------------------------------

    def _rows(self, idx) -> Optional[np.ndarray]:
        """The code rows of the interned elements ``idx``, or None when
        the carrier has no codec or one of them has no valid code."""
        if self.codec is None or not self._ok[idx].all():
            return None
        return self._codes[idx]

    def _intern_rows(self, rows, elems=None) -> Optional[np.ndarray]:
        """Intern the elements whose code rows are ``rows``: a kernel's
        results, or the rows of the list ``elems``.  None when a row
        reaches ``LIMIT``, so that the caller falls back."""
        rows = rows.reshape(-1, self.codec.width)
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        if max(-int(lo.min()), int(hi.max())) >= LIMIT:
            return None
        first, inverse = _unique_rows(rows, lo, hi)
        uniq = rows[first]
        get = self._row_index.get
        keys = _row_keys(uniq)
        idx = [get(key) for key in keys]
        new = [j for j, i in enumerate(idx) if i is None]
        if new:
            start = self._append(
                [_PENDING] * len(new) if elems is None
                else [elems[first[j]] for j in new],
                uniq[new])
            for n, j in enumerate(new, start):
                idx[j] = self._row_index[keys[j]] = n
        return np.array(idx, dtype=np.int64)[inverse]

    def _kernel(self, op):
        return None if self.codec is None else getattr(self.codec, op, None)

    def _reference(self, op, n=0):
        """The carrier's own operation: the fallback of every kernel."""
        M = self.M
        if op == "nat_scalar":
            return lambda v: _nat_scalar(M, n, v)
        if op == "mv_power":
            return lambda v: mv_power(M, v, n)
        return getattr(M, op)

    # -- table machinery -------------------------------------------------------

    def unary_table(self, op, arr, n=0):
        """``op`` is ``neg``, ``negate``, ``nat_scalar`` (n*x) or
        ``mv_power`` (x^n), applied to the interned indices ``arr``."""
        arr = np.asarray(arr)
        uniq = np.unique(arr)
        vals = self._unary_kernel(op, uniq, n)
        if vals is None:
            fn = self._reference(op, n)
            vals = np.array([self.intern(fn(self.element(i))) for i in uniq.tolist()],
                            dtype=np.int64)
        lk = np.zeros(int(uniq[-1]) + 1, dtype=np.int64)
        lk[uniq] = vals
        return lk[arr]

    def _unary_kernel(self, op, uniq, n):
        if op in ("nat_scalar", "mv_power"):
            # n*x and x^n repeat oplus/add or odot from 0 or 1, as the
            # reference does; every step's rows must stay below LIMIT.
            if op == "mv_power":
                step, start = "odot", self.M.one
            else:
                step = "oplus" if self.M.signature == "mv" else "add"
                start = self.M.zero
            kernel = self._kernel(step)
            if kernel is None:
                return None
            start = self.intern(start)
            rows = self._rows(uniq)
            acc = self._rows(np.array([start]))
            if rows is None or acc is None:
                return None
            for _ in range(n):
                acc = kernel(acc, rows)
                if np.abs(acc).max() >= LIMIT:
                    return None
            acc = np.broadcast_to(acc, rows.shape)
        else:
            kernel = self._kernel(op)
            rows = self._rows(uniq)
            if kernel is None or rows is None:
                return None
            acc = kernel(rows)
        return self._intern_rows(acc)

    def binary_table(self, op, a, b, out_bool=False):
        a, b = np.asarray(a), np.asarray(b)
        ua, ub = np.unique(a), np.unique(b)
        # A dense table over the distinct operands costs no more than the
        # grid it indexes; otherwise only the pairs that occur are computed.
        if len(ua) * len(ub) <= math.prod(np.broadcast_shapes(a.shape, b.shape)):
            table = self._pair_values(op, ua[:, None], ub[None, :], out_bool)
            pos_a = np.zeros(int(ua[-1]) + 1, dtype=np.int64)
            pos_a[ua] = np.arange(len(ua))
            pos_b = np.zeros(int(ub[-1]) + 1, dtype=np.int64)
            pos_b[ub] = np.arange(len(ub))
            return table[pos_a[a], pos_b[b]]
        # Sparse route: encode pairs as single codes, map the unique ones.
        m = len(self._elems)
        codes = a.astype(np.int64) * m + b
        uniq = np.unique(codes)
        vals = self._pair_values(op, uniq // m, uniq % m, out_bool)
        return vals[np.searchsorted(uniq, codes)]

    def _pair_values(self, op, ia, ib, out_bool):
        """``op`` on the pairs of interned indices ``ia`` and ``ib``,
        broadcast against each other: a (rows, 1) by (1, cols) grid, or
        two equal-length lists."""
        shape = np.broadcast_shapes(ia.shape, ib.shape)
        vals = self._pair_kernel(op, ia, ib, shape, out_bool)
        if vals is not None:
            return vals
        fn = self._reference(op)
        el = self.element
        if ia.ndim == 2:
            pairs = itertools.product(list(map(el, ia[:, 0].tolist())),
                                      list(map(el, ib[0].tolist())))
        else:
            pairs = zip(map(el, ia.tolist()), map(el, ib.tolist()))
        if out_bool:
            vals = np.array([fn(x, y) for x, y in pairs], dtype=bool)
        else:
            vals = np.array([self.intern(fn(x, y)) for x, y in pairs],
                            dtype=np.int64)
        return vals.reshape(shape)

    def _pair_kernel(self, op, ia, ib, shape, out_bool):
        kernel = self._kernel(op)
        if kernel is None:
            return None
        # Row blocks of at most _KERNEL_BLOCK pairs keep the kernel's int64
        # temporaries below the size of a dense table.
        step = max(1, _KERNEL_BLOCK // (shape[1] if len(shape) > 1 else 1))
        out = []
        for s in range(0, shape[0], step):
            xa = self._rows(ia if len(ia) == 1 else ia[s:s + step])
            xb = self._rows(ib if len(ib) == 1 else ib[s:s + step])
            if xa is None or xb is None:
                return None
            r = kernel(xa, xb)
            if not out_bool:
                r = self._intern_rows(r)
                if r is None:
                    return None
            out.append(r.reshape((-1,) + shape[1:]))
        return np.concatenate(out)


class _VectorEval(OperationTables):
    """Evaluates formulas over the full environment grid, sharing one
    interner and its code rows among them.

    Every array has a fixed number of dimensions: one leading axis per
    context variable (whose lengths may differ when the first axis is
    chunked) followed by one axis per level of existential nesting, as
    deep as the deepest of ``formulas``.  Existential reductions use
    keepdims, so shapes stay aligned.
    """

    def __init__(self, model, ctx_vars: Sequence[str],
                 ctx_enums: Sequence[list], search_enum: list, *formulas):
        super().__init__(model)
        self.n_ctx = len(ctx_vars)
        self.ndim = self.n_ctx + max(map(_exists_depth, formulas))
        self.axes: Dict[str, int] = {v: i for i, v in enumerate(ctx_vars)}
        # The indices of each distinct window list, interned once: the
        # context axes and the search window usually share one list.
        self._windows: Dict[int, np.ndarray] = {}
        self.var_idx: Dict[str, np.ndarray] = {
            v: self._window(ctx_enums[i]) for i, v in enumerate(ctx_vars)
        }
        self.search_enum = search_enum
        self.scalars: Dict[str, int] = {}

    def _window(self, values: list) -> np.ndarray:
        idx = self._windows.get(id(values))
        if idx is None:
            idx = self._windows[id(values)] = self.intern_all(values)
        return idx

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
            return self.binary_table("oplus", self.term(t.left), self.term(t.right))
        if isinstance(t, S.Odot):
            return self.binary_table("odot", self.term(t.left), self.term(t.right))
        if isinstance(t, S.Neg):
            return self.unary_table("neg", self.term(t.arg))
        if isinstance(t, S.Inf):
            return self.binary_table("inf", self.term(t.left), self.term(t.right))
        if isinstance(t, S.Sup):
            return self.binary_table("sup", self.term(t.left), self.term(t.right))
        if isinstance(t, S.Add):
            return self.binary_table("add", self.term(t.left), self.term(t.right))
        if isinstance(t, S.Minus):
            return self.unary_table("negate", self.term(t.arg))
        if isinstance(t, S.D):
            return self.binary_table("d", self.term(t.left), self.term(t.right))
        if isinstance(t, S.NatScalar):
            n = t.coeff if isinstance(t.coeff, int) else self.scalars[t.coeff]
            return self.unary_table("nat_scalar", self.term(t.arg), n)
        if isinstance(t, S.MvPower):
            return self.unary_table("mv_power", self.term(t.arg), t.n)
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
            v = np.asarray(self.binary_table("leq", self.term(f.left),
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
            ax = self.n_ctx + depth
            self.axes[f.var] = ax
            self.var_idx[f.var] = self._window(self.search_enum)
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
    depth = max(_exists_depth(seq.antecedent), _exists_depth(seq.consequent))
    if exists_bound is not None and depth:
        search = model.enumerate(exists_bound)

    k = len(seq.context)
    cells = len(ctx_enum) ** k
    if engine == "auto":
        engine = "vector" if k >= 1 and cells >= _VECTOR_THRESHOLD else "scalar"

    if engine == "scalar":
        return _check_scalar(model, seq, ctx_enum, search, bound)
    if engine != "vector":
        raise ValueError(f"unknown engine {engine!r}")

    # The vector grid has one axis per context variable and one per level
    # of existential nesting; chunks split the first context axis.
    grid_cells = cells * len(search) ** depth
    if grid_cells > _MAX_CELLS and len(ctx_enum) > 1 and k >= 1:
        step = max(1, _MAX_CELLS // (grid_cells // len(ctx_enum)))
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

    ev = _VectorEval(model, seq.context, ctx_enums, search,
                     seq.antecedent, seq.consequent)
    av, _ = ev.formula(seq.antecedent)
    cv, cdf = ev.formula(seq.consequent)

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
