"""The vector engine: sequent checks over whole environment grids, and
its operation tables.

Besides ``kernels``, this is the one module of the package that imports
numpy at load time.  ``checking._check_vector`` imports it on its first
call (``homomorphism.homomorphism_failures`` and ``lgroup_core`` import
only ``kernels``, on their first homomorphism check and on the first
Grothendieck window built from code rows), so a check that the scalar
engine or the product route answers never loads numpy.

The engine runs the closures that ``checking._compile_formula`` compiles
for the scalar engine, over another value domain, ``_IndexGrids``:
carrier elements interned into integer indices, whole environment grids
at a time, with numpy table lookups.  The grid has one axis per context
variable and one per level of existential nesting; an ``exists``
appends the search window on its axis and reduces it with ``any``.
Elements produced outside the enumerated window are interned lazily, so
evaluation stays exact.  A table is dense, one entry per pair of
distinct operands, when it has no more entries than the broadcast
operand grid it indexes, and otherwise holds only the pairs that occur;
so no table outgrows the arrays the evaluation already holds.  A grid
above ``_MAX_CELLS`` cells, search axes included, is evaluated in slices
of its first context axis, one after the other, by the closures compiled
once for the check; the verdict rule is the one an unsliced grid has,
and the one of the scalar engine, which is the reference.  A slice's
consequent is evaluated only when some cell of the slice satisfies the
antecedent, so a consequent's error that does not depend on the element
(``u`` on a carrier without one, a shadowing quantifier) is raised
exactly when the scalar engine raises it.  The consequent is still
evaluated on every cell of such a slice, so an operation that raises on
particular elements can raise from a cell whose antecedent is false,
where the scalar engine would not (ROADMAP item 15).

Each operation table is built over the unique operand pairs.  Interned
indices are small dense integers, below the interner's length, so the
distinct operands, and on the sparse route the distinct pair codes, are
found by ``kernels.unique_ints``: counted, with no sort, whenever their
span is small.  When the carrier has a codec (``kernels.codec_for``),
the engine starts in code space: the interner keeps every interned
element's int64 code row in one ``kernels.KeyIndex`` per check, whose
rows are numbered by interned index, and a table is one kernel call over
the pairs' rows whose result rows the index looks up among the interned
ones (a direct-address table of their keys, so a table costs its own
size, not the interner's) and numbers when new, so an element is decoded
only when something reads it (a counterexample, a test).  A window that
``checking._window`` memoises keeps its code rows with it, one array per
codec type and width: they are encoded on the window's first use, and
every later check at that carrier and bound interns them by row with no
encoding.  Any other window is encoded once per check, in one batch, by
``intern_all``.  This rests on row equality being element equality,
which the kernel tests pin.  ``leq`` tables are boolean and intern
nothing.  Below 2^60 no kernel can overflow int64, so the kernels are
exact: no floats, no tolerances, no wraparound.  At ``LIMIT`` the check
starts over without a codec, by the rule that ``kernels`` states; then,
as throughout for a carrier without a codec, every table calls the
carrier's own operation on each operand pair.  The interning, the code
rows and the tables live in ``OperationTables``; one interner serves a
whole run of a check, antecedent and consequent alike, and every slice
of a sliced grid.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Any, Dict, List

import numpy as np

from . import checking
from .kernels import (_KERNEL_BLOCK, KeyIndex, _AtLimit, _encoded, _fit_rows,
                      _fitted, codec_for, unique_ints)
from .mv_core import _repeat, _repeated, mv_power, nat_scalar
from .verdicts import CounterExample, Holds, InconclusiveAtBound, Verdict

# Vector grids (context axes times search axes) larger than this are
# evaluated in slices of the first context axis.
_MAX_CELLS = 1 << 25
# The element of a kernel result that nothing has read yet.
_PENDING = object()


def _window_rows(model, window: list, codec):
    """The code rows of ``window`` under ``codec``, kept with the window by
    ``checking._window`` and encoded on first use; None when ``window`` is
    not a window it holds, is empty, or has an element that cannot be
    encoded or a coordinate of magnitude ``LIMIT`` or more."""
    codes = checking._window_codes(model, window)
    if codes is None:
        return None
    # Rows are valid only for the codec that made them.
    key = (type(codec), codec.width)
    if key not in codes:
        codes[key] = _encode_window(window, codec)
    return codes[key]


def _encode_window(window: list, codec):
    """The code rows of ``window`` under ``codec``, or None (see
    ``_window_rows``)."""
    try:
        rows = codec.encode_all(window)
    except OverflowError:
        return None
    return rows if window and _fit_rows(rows) else None


class OperationTables:
    """Interned elements of one carrier and its operation tables over them.

    Elements are interned into integer indices.  An instance with a codec
    (``codec_for(model)``, given by the caller) is in code space, where
    every interned index has an int64 code row and an element is found by
    its row, in one ``kernels.KeyIndex``: a table is one kernel call over
    the rows of its operands, and the index numbers its result rows not
    interned yet, so a kernel result is decoded only when something reads
    it through ``element``.  A value that reaches ``LIMIT`` there
    raises ``_AtLimit`` (see ``kernels``).  An instance without a codec keys
    every element by itself and calls the carrier's own operation on each
    operand (pair).  One instance serves a whole run of a check, a
    sequent's antecedent and consequent alike.
    """

    def __init__(self, model, codec=None):
        self.M = model
        self.codec = codec
        # Element i, or _PENDING until a kernel result is first read.
        self._elems: List[Any] = []
        # Element -> index: with a codec a cache, in front of the key
        # index, of the elements interned one by one; without one every
        # element.
        self.interner_index: Dict[Any, int] = {}
        # With a codec: the code row of every interned element, numbered
        # by its index (the rows of one kernels.KeyIndex).
        self._index = None if codec is None else KeyIndex(codec.width)

    # -- interning -----------------------------------------------------------

    def element(self, i: int):
        """The element with interned index ``i``."""
        v = self._elems[i]
        return self.elements([i])[0] if v is _PENDING else v

    def elements(self, idx: list) -> list:
        """The elements with the interned indices ``idx``; those that no
        one has read yet are decoded in one batch."""
        elems = self._elems
        pending = list(dict.fromkeys(i for i in idx if elems[i] is _PENDING))
        if pending:
            values = self.codec.decode_all(self._index.rows.take(pending, axis=1))
            for i, v in zip(pending, values):
                elems[i] = v
        return [elems[i] for i in idx]

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
        if self.codec is None or not values:
            return np.array([self.intern(v) for v in values], dtype=np.int64)
        return self._intern_rows(_encoded(self.codec, values), values)

    def _append(self, elems) -> int:
        """Append new elements; returns the first new index."""
        start = len(self._elems)
        self._elems.extend(elems)
        return start

    # -- code rows -------------------------------------------------------------

    def _intern_rows(self, rows, elems=None) -> np.ndarray:
        """Intern the elements whose code rows are the columns of ``rows``
        (a kernel's results, flattened after the first axis, or the rows
        of the list ``elems``): the key index numbers the rows not
        interned yet, which are appended with their elements, or pending
        when ``elems`` is None.  A row reaching ``LIMIT`` raises
        ``_AtLimit``."""
        rows = _fitted(rows.reshape(self.codec.width, -1))
        idx, fresh = self._index.intern(rows)
        self._append([_PENDING] * len(fresh) if elems is None
                     else [elems[j] for j in fresh.tolist()])
        return idx

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
        uniq, inv = unique_ints(arr, len(self._elems))
        vals = self._unary_kernel(op, uniq, n)
        if vals is None:
            fn = self._reference(op, n)
            vals = np.array([self.intern(fn(v)) for v in self.elements(uniq.tolist())],
                            dtype=np.int64)
        return vals[inv]

    def _unary_kernel(self, op, uniq, n):
        if op in ("nat_scalar", "mv_power"):
            # n*x and x^n by the reference's doubling (mv_core._repeat) on
            # code rows, from the row of 0 or 1; every step's rows must
            # stay below LIMIT.
            name, unit = _repeated(self.M, op)
            kernel = self._kernel(name)
            if kernel is None:
                return None

            def step(a, b):
                return _fitted(kernel(a, b))

            # 0 and 1 always have a code (kernels.codec_for).
            unit = self.intern(unit)
            rows = self._index.rows.take(uniq, axis=1)
            start = self._index.rows.take([unit], axis=1)
            acc = np.broadcast_to(_repeat(step, start, rows, n), rows.shape)
        else:
            kernel = self._kernel(op)
            if kernel is None:
                return None
            acc = kernel(self._index.rows.take(uniq, axis=1))
        return self._intern_rows(acc)

    def binary_table(self, op, a, b, out_bool=False):
        a, b = np.asarray(a), np.asarray(b)
        m = len(self._elems)
        ua, inv_a = unique_ints(a, m)
        ub, inv_b = unique_ints(b, m)
        # A dense table over the distinct operands costs no more than the
        # grid it indexes; otherwise only the pairs that occur are computed.
        if len(ua) * len(ub) <= math.prod(np.broadcast_shapes(a.shape, b.shape)):
            table = self._pair_values(op, ua[:, None], ub[None, :], out_bool)
            return table[inv_a, inv_b]
        # Sparse route: encode pairs as single codes, map the unique ones.
        uniq, inv = unique_ints(a.astype(np.int64) * m + b, m * m)
        vals = self._pair_values(op, uniq // m, uniq % m, out_bool)
        return vals[inv]

    def _pair_values(self, op, ia, ib, out_bool):
        """``op`` on the pairs of interned indices ``ia`` and ``ib``,
        broadcast against each other: a (rows, 1) by (1, cols) grid, or
        two equal-length lists."""
        shape = np.broadcast_shapes(ia.shape, ib.shape)
        vals = self._pair_kernel(op, ia, ib, shape, out_bool)
        if vals is not None:
            return vals
        fn = self._reference(op)
        el = self.elements
        if ia.ndim == 2:
            pairs = itertools.product(el(ia[:, 0].tolist()), el(ib[0].tolist()))
        else:
            pairs = zip(el(ia.tolist()), el(ib.tolist()))
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
        # Every operand is interned already: no block's new rows move them.
        codes, out = self._index.rows, []
        for s in range(0, shape[0], step):
            r = kernel(codes.take(ia if len(ia) == 1 else ia[s:s + step], axis=1),
                       codes.take(ib if len(ib) == 1 else ib[s:s + step], axis=1))
            if not out_bool:
                r = self._intern_rows(r)
            out.append(r.reshape((-1,) + shape[1:]))
        return np.concatenate(out)


class _IndexGrids(OperationTables):
    """The vector engine's value domain for ``checking``'s compiler: a
    value is an array of interned indices, a truth value a bool array, and
    an environment a tuple of index arrays, one per context variable and
    enclosing ``exists``.  Every array has ``ndim`` dimensions, so that
    any two broadcast, and ``exists`` reduces its axis with keepdims.
    One instance, and its interner, serves a whole run of a check."""

    def __init__(self, model, codec, ndim: int, search: list):
        super().__init__(model, codec)
        self.ndim = ndim
        self.search = search
        # The indices of each distinct window list, interned once: the
        # context axes and the search window usually share one list.
        self._windows: Dict[int, np.ndarray] = {}

    def axis(self, values: list, axis: int) -> np.ndarray:
        """The interned indices of the window ``values`` along ``axis``."""
        idx = self._windows.get(id(values))
        if idx is None:
            coded = (None if self.codec is None
                     else _window_rows(self.M, values, self.codec))
            idx = (self.intern_all(values) if coded is None
                   else self._intern_rows(coded, values))
            self._windows[id(values)] = idx
        return idx.reshape((1,) * axis + (-1,) + (1,) * (self.ndim - axis - 1))

    def binary(self, op):
        return partial(self.binary_table, op)

    def unary(self, op):
        return partial(self.unary_table, op)

    def constant(self, value):
        return np.int64(self.intern(value))

    def repeat(self, op, arg, cell):
        table = self.unary_table
        return lambda env: table(op, arg(env), cell[0])

    def eq(self, left, right):
        def eq(env):
            v = left(env) == right(env)
            return v, ~v
        return eq

    def leq(self, left, right):
        table = self.binary_table

        def le(env):
            v = table("leq", left(env), right(env), out_bool=True)
            return v, ~v
        return le

    def exists(self, body, axis):
        window = self.axis(self.search, axis)

        def exists(env):
            v = np.asarray(body(env + (window,))[0])
            # A 0-d body (one that reads no variable) keeps its value.
            return (v.any(axis=axis, keepdims=True) if v.ndim > axis else v), False
        return exists

    def bigvee(self, body, cell, cap):
        def bigvee(env):
            acc = False
            for n in range(cap + 1):
                cell[0] = n
                acc = acc | body(env)[0]
                if np.all(acc):
                    break
            return acc, False
        return bigvee


def check_grid(model, seq, ctx_enums, search, bound) -> Verdict:
    """Check ``seq`` over the grid of the context windows ``ctx_enums``,
    with existential witnesses from ``search``: the vector engine behind
    ``checking._check_vector``.  The check runs in code space when the
    carrier has a codec, and at ``LIMIT`` once more without one."""
    try:
        return _check_grid(model, codec_for(model), seq, ctx_enums, search, bound)
    except _AtLimit:
        return _check_grid(model, None, seq, ctx_enums, search, bound)


def _check_grid(model, codec, seq, ctx_enums, search, bound) -> Verdict:
    k = len(seq.context)
    ndim = k + max(map(checking._exists_depth, (seq.antecedent, seq.consequent)))
    D = _IndexGrids(model, codec, ndim, search)
    axes = tuple(D.axis(e, i) for i, e in enumerate(ctx_enums))
    antecedent = checking._compile_formula(D, seq.antecedent, seq.context, {})
    consequent = checking._compile_formula(D, seq.consequent, seq.context, {})
    grid = [len(e) for e in ctx_enums]
    # Slices of the first context axis of at most _MAX_CELLS cells each.
    row_cells = math.prod(grid[1:]) * len(search) ** (ndim - k)
    step = max(1, _MAX_CELLS // max(1, row_cells))

    def to_grid(arr):
        arr = np.asarray(arr)
        if arr.ndim > k:
            arr = arr[(...,) + (0,) * (arr.ndim - k)]
        return np.broadcast_to(arr, grid)

    inconclusive = False
    for start in range(0, grid[0] if k else 1, step):
        chunk = axes
        if k:
            chunk = (axes[0][start:start + step],) + axes[1:]
            grid[0] = len(chunk[0])
        av = to_grid(antecedent(chunk)[0])
        # The consequent is evaluated only where some cell reaches it, so
        # that its errors that do not depend on the element (u, shadowing)
        # are raised exactly when the scalar engine raises them (both
        # engines evaluate both sides of every And and Or).
        if not av.any():
            continue
        cv, cdf = consequent(chunk)
        bad = av & ~to_grid(cv)
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
