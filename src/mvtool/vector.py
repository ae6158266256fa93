"""The vector engine: sequent checks over whole environment grids, and
the operation tables it shares with the homomorphism checks (their sides
without a codec, and every side after a switch at ``LIMIT``).

Besides ``kernels``, this is the one module of the package that imports
numpy at load time.  ``checking._check_vector`` and
``homomorphism.homomorphism_failures`` import it on their first call (and
``lgroup_core`` imports ``kernels`` on the first Grothendieck window it
builds from code rows), so a check that the scalar engine or the product
route answers never loads numpy.

The engine interns carrier elements into integer indices and evaluates
whole environment grids with numpy table lookups; elements produced by
operations outside the enumerated window are interned lazily, so
evaluation stays exact.  A table is dense, one entry per pair of distinct
operands, when it has no more entries than the broadcast operand grid it
indexes, and otherwise holds only the pairs that occur; so no table
outgrows the arrays the evaluation already holds.  The grid has one axis
per context variable and one per level of existential nesting.  A grid
above ``_MAX_CELLS`` cells, search axes included, is evaluated in slices
of its first context axis, one after the other, by the same evaluator;
the verdict rule is the one an unsliced grid has, and the one of the
scalar engine in ``checking``, which is the reference.

Each operation table is built over the unique operand pairs.  When the
carrier has a codec (``kernels.codec_for``), the engine starts in code
space: every interned element is keyed by its int64 code row, and a
table is one kernel call over the pairs' rows whose distinct result rows
are looked up and appended by row, so an element is decoded only when
something reads it (``forward`` on an interned homomorphism side, a
test).  A window that ``checking._window`` memoises keeps its code rows
and their keys with it, one set per codec type and width: they are
encoded on the window's first use, and every later check at that
carrier and bound interns them with one append and one dict update (its elements are
distinct), or, after another window, appends only the rows not interned
yet.  Any other window, and one with an element that cannot be encoded
below ``LIMIT`` or a repeated element, is encoded once per check, in one
batch, by ``intern_all``.  This rests on row equality being element
equality, which the kernel tests pin.  ``leq`` tables are boolean and
intern nothing.  Below 2^60 no kernel can overflow int64, so
the kernels are exact: no floats, no tolerances, no wraparound.  The
switch out of code space is one-way: the first value of magnitude 2^60
or more (an input it cannot encode, a kernel result row, a step of n*x
or x^n) keys every element interned so far by itself and drops the
codec, and from then on every table, the current one included, calls the
carrier's own operation on each operand pair.  The indices already
handed out stay valid, so the check goes on where it was.  Without a
codec the engine takes the per-pair path throughout.  The interning, the
code rows and the tables live in ``OperationTables``; one interner
serves a whole check, antecedent and consequent alike, and every slice
of a sliced grid.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from . import sequents as S
from .checking import _constant, _exists_depth, _window_codes
from .errors import SignatureError
from .kernels import LIMIT, _fit_rows, codec_for, unique_rows
from .mv_core import mv_power, nat_scalar
from .verdicts import CounterExample, Holds, InconclusiveAtBound, Verdict

# Vector grids (context axes times search axes) larger than this are
# evaluated in slices of the first context axis.
_MAX_CELLS = 1 << 25
# Operand pairs per kernel call (see OperationTables._pair_kernel).
_KERNEL_BLOCK = 1 << 14
# The element of a kernel result that nothing has read yet.
_PENDING = object()


def _row_keys(rows) -> list:
    """One dict key per int64 code row of the 2-D array ``rows``: its
    bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _window_rows(model, window: list, codec):
    """The code rows of ``window`` under ``codec`` and their keys, kept with
    the window by ``checking._window`` and encoded on first use; None when
    ``window`` is not a window it holds, or has an element that cannot be
    encoded, a coordinate of magnitude ``LIMIT`` or more, or a repeated
    element."""
    codes = _window_codes(model, window)
    if codes is None:
        return None
    # Rows are valid only for the codec that made them.
    key = (type(codec), codec.width)
    if key not in codes:
        codes[key] = _encode_window(window, codec)
    return codes[key]


def _encode_window(window: list, codec):
    """``(rows, keys)`` of ``window`` under ``codec``, or None (see
    ``_window_rows``)."""
    try:
        rows = np.array([codec.encode(x) for x in window],
                        dtype=np.int64).reshape(-1, codec.width)
    except OverflowError:
        return None
    if len(rows) and not _fit_rows(rows):
        return None
    keys = _row_keys(rows)
    return (rows, keys) if len(set(keys)) == len(keys) else None


class OperationTables:
    """Interned elements of one carrier and its operation tables over them.

    Elements are interned into integer indices.  An instance over a
    carrier with a codec starts in code space, where every interned index
    has an int64 code row and an element is keyed by its row: a table is
    one kernel call over the rows of its operands, and its distinct
    result rows are looked up and appended as rows, so a kernel result is
    decoded only when something reads it through ``element``.  The first
    value of magnitude ``LIMIT`` or more (an input that cannot be
    encoded, a kernel result row, a step of n*x or x^n) makes the
    instance leave code space for good: every element is then keyed by
    itself, and the current table and every later one call the carrier's
    own operation on each operand (pair).  Indices already handed out
    stay valid.  Without a codec an instance is never in code space.  One
    instance serves a whole check: a sequent's antecedent and consequent,
    or a homomorphism check's source or target side when it is keyed by
    interned indices.
    """

    def __init__(self, model):
        self.M = model
        self.codec = codec_for(model)
        # Element i, or _PENDING until a kernel result is first read.
        self._elems: List[Any] = []
        # Element -> index: in code space a cache, in front of _row_index,
        # of the elements interned one by one; outside it every element.
        self.interner_index: Dict[Any, int] = {}
        # In code space: code row (its bytes) -> index, and the code row of
        # every interned element, with spare capacity beyond len(self._elems).
        self._row_index: Optional[Dict[bytes, int]] = {}
        width = 0 if self.codec is None else self.codec.width
        self._codes: Optional[np.ndarray] = np.zeros((16, width), dtype=np.int64)

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
            idx = (self._append([v]) if self.codec is None
                   else int(self.intern_all([v])[0]))
            self.interner_index[v] = idx
        return idx

    def intern_all(self, values) -> np.ndarray:
        """The indices of the list ``values``; in code space they are
        encoded in one batch and interned by row."""
        if self.codec is not None and values:
            encode = self.codec.encode
            try:
                rows = np.array([encode(v) for v in values], dtype=np.int64)
            except OverflowError:
                self._leave_code_space()
            else:
                idx = self._intern_rows(rows, values)
                if idx is not None:
                    return idx
        return np.array([self.intern(v) for v in values], dtype=np.int64)

    def _append(self, elems, rows=None) -> int:
        """Append new elements, with their code rows in code space;
        returns the first new index."""
        start = len(self._elems)
        self._elems.extend(elems)
        end = len(self._elems)
        if self.codec is not None:
            if end > len(self._codes):
                grow = max(end, 2 * len(self._codes))
                self._codes = np.resize(self._codes, (grow, self.codec.width))
            self._codes[start:end] = rows
        return start

    def _leave_code_space(self) -> None:
        """Key every interned element by itself and drop the codec, for
        good; the indices already handed out stay valid."""
        self.interner_index = {self.element(i): i for i in range(len(self._elems))}
        self.codec = self._row_index = self._codes = None

    # -- code rows -------------------------------------------------------------

    def _intern_rows(self, rows, elems=None) -> Optional[np.ndarray]:
        """Intern the elements whose code rows are ``rows``: a kernel's
        results, or the rows of the list ``elems``.  A row reaching
        ``LIMIT`` leaves code space and gives None, so that the caller
        takes the per-pair path."""
        rows = rows.reshape(-1, self.codec.width)
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        if max(-int(lo.min()), int(hi.max())) >= LIMIT:
            self._leave_code_space()
            return None
        first, inverse = unique_rows(rows, lo, hi)
        uniq = rows[first]
        if elems is not None:
            elems = [elems[i] for i in first.tolist()]
        return self._intern_distinct(uniq, _row_keys(uniq), elems)[inverse]

    def _intern_distinct(self, rows, keys, elems=None) -> np.ndarray:
        """The indices of the distinct code rows ``rows``, whose dict keys
        are ``keys``.  The rows not interned yet are appended, with their
        elements ``elems`` (one per row), or pending when that is None."""
        if not self._elems:
            # Every row is new: one append and one dict update.
            self._append([_PENDING] * len(keys) if elems is None else elems, rows)
            self._row_index.update(zip(keys, range(len(keys))))
            return np.arange(len(keys), dtype=np.int64)
        get = self._row_index.get
        idx = [get(key) for key in keys]
        new = [j for j, i in enumerate(idx) if i is None]
        if new:
            start = self._append(
                [_PENDING] * len(new) if elems is None
                else [elems[j] for j in new],
                rows[new])
            for n, j in enumerate(new, start):
                idx[j] = self._row_index[keys[j]] = n
        return np.array(idx, dtype=np.int64)

    def _kernel(self, op):
        return None if self.codec is None else getattr(self.codec, op, None)

    def _reference(self, op, n=0):
        """The carrier's own operation: the fallback of every kernel."""
        M = self.M
        if op == "nat_scalar":
            return lambda v: nat_scalar(M, n, v)
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
            # 0 and 1 always have a code (kernels.codec_for).
            start = self.intern(start)
            rows, acc = self._codes[uniq], self._codes[[start]]
            for _ in range(n):
                acc = kernel(acc, rows)
                if np.abs(acc).max() >= LIMIT:
                    self._leave_code_space()
                    return None
            acc = np.broadcast_to(acc, rows.shape)
        else:
            kernel = self._kernel(op)
            if kernel is None:
                return None
            acc = kernel(self._codes[uniq])
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
            r = kernel(self._codes[ia if len(ia) == 1 else ia[s:s + step]],
                       self._codes[ib if len(ib) == 1 else ib[s:s + step]])
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
            coded = (None if self.codec is None
                     else _window_rows(self.M, values, self.codec))
            idx = (self.intern_all(values) if coded is None
                   else self._intern_distinct(*coded, values))
            self._windows[id(values)] = idx
        return idx

    # -- terms -------------------------------------------------------------------

    def _shaped(self, idx_array: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.ndim
        shape[axis] = len(idx_array)
        return idx_array.reshape(shape)

    def term(self, t):
        if isinstance(t, S.Var):
            return self._shaped(self.var_idx[t.name], self.axes[t.name])
        op = S.BINARY_OPS.get(type(t))
        if op is not None:
            return self.binary_table(op, self.term(t.left), self.term(t.right))
        op = S.UNARY_OPS.get(type(t))
        if op is not None:
            return self.unary_table(op, self.term(t.arg))
        if isinstance(t, S.NatScalar):
            n = t.coeff if isinstance(t.coeff, int) else self.scalars[t.coeff]
            return self.unary_table("nat_scalar", self.term(t.arg), n)
        if isinstance(t, S.MvPower):
            return self.unary_table("mv_power", self.term(t.arg), t.n)
        return np.int64(self.intern(_constant(self.M, t)))

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


def check_grid(model, seq, ctx_enums, search, bound) -> Verdict:
    """Check ``seq`` over the grid of the context windows ``ctx_enums``,
    with existential witnesses from ``search``: the vector engine behind
    ``checking._check_vector``."""
    k = len(seq.context)
    ev = _VectorEval(model, seq.context, ctx_enums, search,
                     seq.antecedent, seq.consequent)
    grid = [len(e) for e in ctx_enums]
    # Slices of the first context axis of at most _MAX_CELLS cells each.
    row_cells = math.prod(grid[1:]) * len(search) ** (ev.ndim - k)
    step = max(1, _MAX_CELLS // max(1, row_cells))
    first = ev.var_idx[seq.context[0]] if k else None

    def to_grid(arr):
        arr = np.asarray(arr)
        if arr.ndim > k:
            arr = arr[(...,) + (0,) * (arr.ndim - k)]
        return np.broadcast_to(arr, grid)

    inconclusive = False
    for start in range(0, grid[0] if k else 1, step):
        if k:
            chunk = ev.var_idx[seq.context[0]] = first[start:start + step]
            grid[0] = len(chunk)
        av, _ = ev.formula(seq.antecedent)
        cv, cdf = ev.formula(seq.consequent)
        bad = to_grid(av) & ~to_grid(cv)
        if not bad.any():
            continue
        concrete = bad & to_grid(cdf)
        if concrete.any():
            coords = np.unravel_index(int(np.argmax(concrete.reshape(-1))), grid)
            env = {v: ctx_enums[i][coords[i] + (start if i == 0 else 0)]
                   for i, v in enumerate(seq.context)}
            return CounterExample(env, axiom=seq.name)
        inconclusive = True
    if inconclusive:
        return InconclusiveAtBound(bound, note="unwitnessed bounded search")
    return Holds()
