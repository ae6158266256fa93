"""Exact int64 kernels for the carriers' operations.

Every carrier of the library is a set of integer coordinates: Z^n and N^n
directly, Z x_lex G as a head followed by the tail's coordinates, the
Grothendieck group of a cone as the coordinates of the difference u - v of
a class [u, v], the unit interval Gamma(G, u) as a part of G (Mundici
1986, J. Funct. Anal. 65), the chain L(m) as Gamma(Z, m), Chang's algebra
C as Sigma(Z) = Gamma(Z x_lex Z, (1, 0)) under nc -> (0, n) and
1 - nc -> (1, -n), and the radical monoid of such a unit interval as the
same rows under oplus.  A codec maps elements to such rows of integers and
back a batch at a time, column-first: ``encode_all(values)`` gives a
(width, n) int64 array, one column per element and one row per
coordinate, and ``decode_all(rows)`` the list of elements (``Prod``
splits its tuples into per-factor lists, ``Lex`` its heads from its
tails); ``encode_all`` raises ``OverflowError`` where a coordinate has no
int64, and with ``dtype=object`` gives Python integers, which ``Diff``
subtracts exactly beyond ``LIMIT``.  It computes the carrier's operations
with numpy on int64 arrays of shape (width, ...): a coordinate is one
contiguous block, so every group codec's ``add``, ``sub`` and ``negate``
are numpy's ufuncs, a comparison reduces over axis 0, and ``Prod``
stacks its factors' blocks on axis 0.  The code of one element is still
called its row below: it is one column of such an array.

``codec_for(model)`` dispatches on the exact type of the model and its
parts; a subclass (a test double, the radical pairs of ``equivalence``)
or any other carrier gets ``None``.

Exactness.  A caller encodes only elements whose coordinates are all
below ``LIMIT`` = 2^60 in absolute value, and accepts a kernel's result
only if its coordinates are below ``LIMIT`` too.  A check (the vector
engine's, a homomorphism check) has one rule at the limit: a value that
reaches ``LIMIT`` in code space (an element that cannot be encoded, a
kernel result row, a step of n*x or x^n) raises ``_AtLimit``, and the
check starts over on the carriers' own operations.  Every group codec
computes with the coordinate and lexicographic arithmetic, and no kernel
composes more than two additions or subtractions of such coordinates (the
deepest is Gamma's x odot y = sup(0, x + y - u)), so every intermediate
value stays below 3 * 2^60 < 2^62 and int64 arithmetic never wraps.  A
nested difference is a row of its own: a code reaching ``LIMIT`` is
rejected like any other.

The group of differences of a cone G+ is G itself (the content of the
Morita equivalence between l-groups and cancellative lattice-ordered
abelian monoids with bottom element), and there is one codec for it,
``Diff``, over G's codec: a class [u, v] is coded as the row of u - v
in G, its canonical pair is ((u - v)+, (u - v)-), and the group
operations are G's own kernels.  Which monoids are cones, of which G,
and how their elements map into G and back is ``lgroup_core._cone``'s
decision alone; ``groth_codec`` reads it.  So Delta(Sigma(G)) and
Delta(C) compute with G's kernels, and Sigma(Delta(A)) is a unit
interval over a group codec like any other.

``groth_window`` builds a Grothendieck window from the cone's rows in G:
the differences of all pairs of the monoid window in one numpy pass,
numbered in walk order by one ``KeyIndex``, whose new rows, the first
appearance of each class, are decoded once.

``unique_ints`` gives ``np.unique``'s output for the interned indices
that the vector engine's tables start from.  Its keys are small
integers: when n keys span at most max(n, ``_COUNT_SPAN``) values, the
distinct ones are counted (a presence array and its running count), with
no comparisons and no buffer longer than that; wider spans are sorted.
``KeyIndex`` is the package's one code-row lookup and its one numbering
of code rows by first appearance: the vector engine's interner, a
homomorphism check's mapper and ``groth_window`` each keep one per
check, a direct-address table from each known row's mixed-radix key to
its number, so a batch costs its own size.  When its box would be too
sparse it falls back to ``intern_rows``, which numbers the rows the same
way by one ``unique_rows`` over the known rows and the batch (a sort of
one mixed-radix key per row, read one coordinate row at a time), at the
cost of every known row.  ``SYMMETRIC`` names the operations whose
kernels give (b, a) the row of (a, b), which lets a check compute half
of each grid.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .lgroup_core import (
    CanonPair,
    GrothendieckGroup,
    LexGroup,
    LexPair,
    PositiveConeMonoid,
    UnitalGroup,
    ZGroup,
    ZnGroup,
    _cone,
)
from .mv_core import (
    ChangAlgebra,
    ChangElem,
    FiniteChainAlgebra,
    GammaAlgebra,
    PointedAlgebra,
    ProductAlgebra,
    RadicalMonoid,
    SigmaAlgebra,
)

LIMIT = 1 << 60
# The row blocks of one kernel call: at most this many operand pairs in a
# vector-engine table, and this many int64 coordinates a side in a
# homomorphism check.
_KERNEL_BLOCK = 1 << 14


class _AtLimit(Exception):
    """A value reached ``LIMIT`` in code space: the check starts over on
    the carriers' own operations."""


def fits(row) -> bool:
    """Whether every coordinate of ``row`` is below ``LIMIT`` in
    absolute value."""
    return all(-LIMIT < c < LIMIT for c in row)


def _fit_rows(rows) -> bool:
    """``fits`` for every row of an int64 array."""
    return max(-int(rows.min()), int(rows.max())) < LIMIT


def _fitted(rows):
    """The int64 array ``rows`` when ``_fit_rows``; ``_AtLimit``
    otherwise."""
    if not _fit_rows(rows):
        raise _AtLimit
    return rows


def _encoded(codec, values: list):
    """The code rows of ``values`` under ``codec``; ``_AtLimit`` when one
    has no int64 code or reaches ``LIMIT``."""
    try:
        return _fitted(codec.encode_all(values))
    except OverflowError:
        raise _AtLimit from None


def _column(row, a):
    """The one-element row ``row``, of shape (width,), shaped to broadcast
    against the (width, ...) array ``a``."""
    return row.reshape(row.shape + (1,) * (a.ndim - 1))


# Key spans up to this many values are counted whatever the number of
# keys.  Replaying the benchmark's recorded keys, 4096 was the fastest of
# 1024 to 16384 on wide-window and within noise of the fastest on the
# other workloads (the sweep is in CHANGES.md).
_COUNT_SPAN = 4096


def _count(key, span: int):
    """The distinct values of the flat int64 array ``key``, all in
    [0, span), in increasing order, and each key's position among them, by
    distribution counting (Knuth, TAOCP vol. 3, 5.2): a presence array and
    its running count, no comparisons."""
    present = np.zeros(span, dtype=bool)
    present[key] = True
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    return np.flatnonzero(present), rank[key]


def unique_ints(arr, end: int):
    """The distinct values of the int64 array ``arr``, all in [0, end), in
    increasing order, and each entry's position among them, shaped like
    ``arr``: ``np.unique(arr, return_inverse=True)``.  Counted when the
    presence array is no longer than the entries, or than
    ``_COUNT_SPAN``; sorted otherwise."""
    arr = np.asarray(arr)
    if end <= max(arr.size, _COUNT_SPAN):
        vals, inverse = _count(arr.reshape(-1), end)
    else:
        # np.unique's inverse is shaped like its input from numpy 2.0 on,
        # and flat before that.
        vals, inverse = np.unique(arr, return_inverse=True)
    return vals, inverse.reshape(arr.shape)


def _radix_key(rows, lo: list, spans: list):
    """The mixed-radix number of each row of the (width, n) array ``rows``
    in the box with least corner ``lo`` and sides ``spans``, read one
    coordinate at a time; it orders the rows as they are ordered."""
    key = np.zeros(rows.shape[1], dtype=np.int64)
    for col, low, span in zip(rows, lo, spans):
        key *= span
        key += col - low
    return key


def unique_rows(rows):
    """The ``first`` and ``inverse`` of ``np.unique(rows, axis=1)``, for
    the (width, n) array ``rows``: the position of each distinct row's
    first occurrence, and each row's distinct row.  Through one integer
    key per row when the coordinates' ranges fit a mixed-radix number
    below 2^62, whose order is the rows' order: sorting the keys is much
    faster than sorting rows.  The ranges and the key are read one
    contiguous coordinate at a time."""
    lo = rows.min(axis=1).tolist()
    spans = [h - l + 1 for h, l in zip(rows.max(axis=1).tolist(), lo)]
    if math.prod(spans) >= 1 << 62:
        _, first, inverse = np.unique(rows, axis=1, return_index=True,
                                      return_inverse=True)
    else:
        _, first, inverse = np.unique(_radix_key(rows, lo, spans),
                                      return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def intern_rows(known, rows):
    """Look the rows of the (width, n) array ``rows`` up among the k
    distinct rows of the (width, k) array ``known``, numbering the rows
    not known in order of first appearance from k on.  Returns each row's
    number, and the position in ``rows`` of the first appearance of each
    new row, in that order.  One ``unique_rows`` over the known rows
    followed by the new ones: a known row is its own first appearance."""
    k = known.shape[1]
    first, inverse = unique_rows(np.concatenate([known, rows], axis=1))
    new = first >= k
    fresh = np.sort(first[new])
    first[new] = np.searchsorted(fresh, first[new]) + k
    return first[inverse[k:]], fresh - k


def _put(buf, k: int, new):
    """``buf`` with the (width, m) array ``new`` written at columns
    [k, k + m): the same array while its capacity holds them, else a copy
    of columns [0, k) with twice the capacity or more."""
    m = new.shape[1]
    if k + m > buf.shape[1]:
        wider = np.empty((buf.shape[0], max(2 * buf.shape[1], k + m)), dtype=buf.dtype)
        wider[:, :k] = buf[:, :k]
        buf = wider
    buf[:, k:k + m] = new
    return buf


# A key index keeps a direct-address table while the table has at most
# this many slots per known row, or _COUNT_SPAN slots.
_INDEX_SLACK = 8


class KeyIndex:
    """The distinct rows met so far, numbered in order of first appearance:
    ``intern(rows)`` is ``intern_rows(self.rows, rows)``, after which the
    new rows are known too.  The rows are keyed by their mixed-radix
    number in a box around them, as ``unique_rows`` keys them, and a
    direct-address table maps each key to its row's number, so a batch
    costs its own size, not that of every row met so far.  A row outside
    the box rebuilds the table over the box that holds both; when that box
    would have more than max(``_INDEX_SLACK`` * (k + m), ``_COUNT_SPAN``)
    slots for k known rows and a batch of m, the batch goes to
    ``intern_rows`` instead, and the table waits for a batch whose box is
    small enough."""

    def __init__(self, width: int):
        """An index of rows of ``width`` coordinates, with none known."""
        self._buf, self.k = np.empty((width, 0), dtype=np.int64), 0
        # The box of the known rows, empty so far, and the table over it
        # (None while the box is too wide).
        self._lo, self._hi = [math.inf] * width, [-math.inf] * width
        self._table = None

    @property
    def rows(self):
        """The known rows, a (width, k) array in order of number."""
        return self._buf[:, :self.k]

    def _widen(self, lo: list, hi: list, m: int) -> bool:
        """Widen the box to hold [lo, hi], the box of a batch of m rows,
        and rebuild the table over it; False, with no table, when the box
        is too wide for one."""
        self._lo = [min(a, b) for a, b in zip(self._lo, lo)]
        self._hi = [max(a, b) for a, b in zip(self._hi, hi)]
        self._spans = [h - l + 1 for h, l in zip(self._hi, self._lo)]
        slots = math.prod(self._spans)
        self._table = None
        if slots > max(_INDEX_SLACK * (self.k + m), _COUNT_SPAN):
            return False
        self._table = np.full(slots, -1, dtype=np.int64)
        self._table[_radix_key(self.rows, self._lo, self._spans)] = np.arange(self.k)
        return True

    def intern(self, rows):
        """Each row's number, and the position in ``rows`` of the first
        appearance of each new row, in order: ``intern_rows``' output."""
        if not rows.shape[1]:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        lo, hi = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
        inside = all(a <= b for a, b in zip(self._lo, lo)) and \
            all(a >= b for a, b in zip(self._hi, hi))
        if (self._table is None or not inside) and \
                not self._widen(lo, hi, rows.shape[1]):
            numbers, fresh = intern_rows(self.rows, rows)
        else:
            table, key = self._table, _radix_key(rows, self._lo, self._spans)
            numbers = table[key]
            pos = np.flatnonzero(numbers < 0)
            # Each new key's least position, through its absent slot: the
            # slots take a position past every one, then the least.
            slots = key[pos]
            table[slots] = rows.shape[1]
            np.minimum.at(table, slots, pos)
            fresh = pos[table[slots] == pos]
            table[key[fresh]] = np.arange(self.k, self.k + len(fresh))
            numbers[pos] = table[slots]
        self._buf = _put(self._buf, self.k, rows.take(fresh, axis=1))
        self.k += len(fresh)
        return numbers, fresh


def rows_differ(a, b):
    """Whether the rows of the (width, ...) arrays ``a`` and ``b`` differ
    in some coordinate: the reduction of ``a != b`` over axis 0."""
    return (a != b).any(axis=0)


# The operations whose kernels give (b, a) the row they give (a, b), by
# construction: numpy's add, minimum and maximum, Lex's pick of the
# operand whose head comes first (equal heads combine the tails), and
# Gamma's oplus = inf(u, a + b); Radical's add is oplus, and Prod and
# Diff apply their parts' kernels.
SYMMETRIC = frozenset({"add", "inf", "sup", "oplus"})


class Coords:
    """Z^n or N^n (Z and N when ``scalar``): the pointwise operations."""

    def __init__(self, width: int, scalar: bool):
        self.width = width
        self.scalar = scalar

    def encode_all(self, values, dtype=np.int64):
        if self.scalar:
            return np.array(values, dtype=dtype).reshape(1, -1)
        return np.array(values, dtype=dtype).reshape(-1, self.width).T.copy()

    def decode_all(self, rows):
        if self.scalar:
            return rows[0].tolist()
        return list(zip(*rows.tolist()))

    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    negate = staticmethod(np.negative)
    inf = staticmethod(np.minimum)
    sup = staticmethod(np.maximum)

    @staticmethod
    def leq(a, b):
        return (a <= b).all(axis=0)


class Lex:
    """Z x_lex G: the head in row 0, the tail's rows after it."""

    def __init__(self, tail):
        self.tail = tail
        self.width = 1 + tail.width

    def encode_all(self, values, dtype=np.int64):
        out = np.empty((self.width, len(values)), dtype=dtype)
        out[0] = [x.head for x in values]
        out[1:] = self.tail.encode_all([x.tail for x in values], dtype)
        return out

    def decode_all(self, rows):
        return list(map(LexPair, rows[0].tolist(), self.tail.decode_all(rows[1:])))

    # The group operations are coordinatewise.
    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    negate = staticmethod(np.negative)

    def leq(self, a, b):
        ha, hb = a[0], b[0]
        return (ha < hb) | ((ha == hb) & self.tail.leq(a[1:], b[1:]))

    def _pick(self, a, b, head_op, tail_op):
        # The operand whose head comes first (head_op's pick) wins
        # outright; equal heads combine their tails.
        ha, hb = a[0], b[0]
        ta, tb = a[1:], b[1:]
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        head = head_op(ha, hb, out=out[0])
        out[1:] = np.where(ha == hb, tail_op(ta, tb), np.where(head == ha, ta, tb))
        return out

    def inf(self, a, b):
        return self._pick(a, b, np.minimum, self.tail.inf)

    def sup(self, a, b):
        return self._pick(a, b, np.maximum, self.tail.sup)


class Gamma:
    """The unit interval [0, u] of a group codec, by Mundici's direct
    formulas: x oplus y = inf(u, x + y), neg x = u - x,
    x odot y = sup(0, x + y - u), d(x, y) = sup(x - y, y - x), and the
    group's own order and lattice operations.  The zero of a group codec
    is the all-zero row."""

    def __init__(self, group, unit):
        self.g = group
        self.width = group.width
        self.zero = np.zeros(group.width, dtype=np.int64)
        self.unit = group.encode_all([unit])[:, 0]

    def encode_all(self, values, dtype=np.int64):
        return self.g.encode_all(values, dtype)

    def decode_all(self, rows):
        return self.g.decode_all(rows)

    def oplus(self, a, b):
        s = self.g.add(a, b)
        return self.g.inf(_column(self.unit, s), s)

    def neg(self, a):
        return self.g.sub(_column(self.unit, a), a)

    def odot(self, a, b):
        g = self.g
        s = g.add(a, b)
        return g.sup(_column(self.zero, s), g.sub(s, _column(self.unit, s)))

    def d(self, a, b):
        return self.g.sup(self.g.sub(a, b), self.g.sub(b, a))

    def leq(self, a, b):
        return self.g.leq(a, b)

    def inf(self, a, b):
        return self.g.inf(a, b)

    def sup(self, a, b):
        return self.g.sup(a, b)


class Chang(Gamma):
    """Chang's algebra as Sigma(Z): nc is (0, n) and 1 - nc is (1, -n)."""

    def __init__(self):
        super().__init__(Lex(Coords(1, scalar=True)), LexPair(1, 0))

    def encode_all(self, values, dtype=np.int64):
        out = np.empty((2, len(values)), dtype=dtype)
        out[0] = [0 if x.kind == "fin" else 1 for x in values]
        out[1] = [x.n if x.kind == "fin" else -x.n for x in values]
        return out

    def decode_all(self, rows):
        heads, tails = rows.tolist()
        return [ChangElem("fin", n) if h == 0 else ChangElem("cofin", -n)
                for h, n in zip(heads, tails)]


class Radical:
    """The radical monoid of a unit interval, on the interval's rows: x + y
    is x oplus y, and the order and lattice operations are the interval's."""

    def __init__(self, interval):
        self.interval = interval
        self.width = interval.width

    def encode_all(self, values, dtype=np.int64):
        return self.interval.encode_all(values, dtype)

    def decode_all(self, rows):
        return self.interval.decode_all(rows)

    def add(self, a, b):
        return self.interval.oplus(a, b)

    def leq(self, a, b):
        return self.interval.leq(a, b)

    def inf(self, a, b):
        return self.interval.inf(a, b)

    def sup(self, a, b):
        return self.interval.sup(a, b)


class Diff:
    """The Grothendieck group of a cone of a group G
    (``lgroup_core._cone``), on the codec ``group`` of G: a class [u, v]
    is the row of into(u) - into(v) in G, and every operation is G's.
    ``into`` maps a monoid element into G and ``out`` an element g >= 0
    of G back, both None where the monoid's elements are G's own."""

    def __init__(self, group, into=None, out=None):
        self.group, self.into, self.out = group, into, out
        self.width = group.width
        self.add, self.sub, self.negate = group.add, group.sub, group.negate
        self.inf, self.sup, self.leq = group.inf, group.sup, group.leq

    def rows(self, xs, dtype=np.int64):
        """The rows in G of the monoid elements ``xs``."""
        if self.into is not None:
            xs = list(map(self.into, xs))
        return self.group.encode_all(xs, dtype)

    def encode_all(self, pairs, dtype=np.int64):
        """The rows u - v of the classes [u, v].  The rows of u and v are
        subtracted in int64 when both are below ``LIMIT``, where no
        difference wraps; otherwise they are subtracted exactly, as Python
        integers (``dtype=object``), so that a difference raises
        ``OverflowError`` exactly when it has no int64."""
        us, vs = [p.u for p in pairs], [p.v for p in pairs]
        if dtype is np.int64 and pairs:
            try:
                u, v = self.rows(us), self.rows(vs)
            except OverflowError:
                pass
            else:
                if _fit_rows(u) and _fit_rows(v):
                    return self.sub(u, v)
        # Every group codec subtracts coordinatewise.
        exact = self.rows(us, object) - self.rows(vs, object)
        return np.array(exact.tolist(), dtype=dtype).reshape(self.width, -1)

    def decode_all(self, rows):
        """The canonical pairs (d+, d-) of the difference rows d, read by
        G's codec and mapped back through ``out``."""
        g, zero = self.group, np.zeros_like(rows[:, :1])
        us = g.decode_all(g.sup(rows, zero))
        vs = g.decode_all(g.sup(g.negate(rows), zero))
        if self.out is not None:
            us, vs = map(self.out, us), map(self.out, vs)
        return list(map(CanonPair, us, vs))


class Prod:
    """A finite product: each factor owns a block of rows."""

    def __init__(self, factors):
        self.factors = factors
        self.blocks = []
        start = 0
        for f in factors:
            self.blocks.append(slice(start, start + f.width))
            start += f.width
        self.width = start

    def encode_all(self, values, dtype=np.int64):
        # Per-factor lists of the components; zip gives none for no values.
        parts = list(zip(*values)) or [()] * len(self.factors)
        return np.concatenate([f.encode_all(list(p), dtype)
                               for f, p in zip(self.factors, parts)])

    def decode_all(self, rows):
        return list(zip(*(f.decode_all(rows[s])
                          for f, s in zip(self.factors, self.blocks))))

    def _each(self, name, *args):
        # Every factor's result has the operands' broadcast shape after
        # its block.
        return np.concatenate([getattr(f, name)(*(a[s] for a in args))
                               for f, s in zip(self.factors, self.blocks)])

    def oplus(self, a, b):
        return self._each("oplus", a, b)

    def neg(self, a):
        return self._each("neg", a)

    def odot(self, a, b):
        return self._each("odot", a, b)

    def d(self, a, b):
        return self._each("d", a, b)

    def inf(self, a, b):
        return self._each("inf", a, b)

    def sup(self, a, b):
        return self._each("sup", a, b)

    def leq(self, a, b):
        out = True
        for f, s in zip(self.factors, self.blocks):
            out = out & f.leq(a[s], b[s])
        return out


def _coords(rank: int) -> Optional[Coords]:
    return Coords(rank, scalar=False) if rank >= 1 else None


def _lex(model):
    tail = codec_for(model.tail)
    return None if tail is None else Lex(tail)


def groth_codec(monoid):
    """The codec of the Grothendieck group of ``monoid``: ``Diff`` over
    G's codec when the monoid is a cone of G (``_cone``), and None when
    it is not or G has no codec."""
    cone = _cone(monoid)
    group = None if cone is None else codec_for(cone[0])
    return None if group is None else Diff(group, *cone[1:])


def groth_window(monoid, bound: int) -> Optional[list]:
    """``GrothendieckGroup(monoid).enumerate(bound)`` from codes: the rows
    in G of the differences x - y of the pairs (x, y) of the monoid
    window, x-major, kept at their first appearance and decoded.  None when the monoid has no
    codec or a row reaches ``LIMIT``; the caller then walks the pairs."""
    codec = groth_codec(monoid)
    if codec is None:
        return None
    window = monoid.enumerate(bound)
    if not window:
        return []
    try:
        rows = codec.rows(window)
    except OverflowError:
        return None
    if not _fit_rows(rows):
        return None
    pairs = codec.sub(rows[:, :, None], rows[:, None, :]).reshape(codec.width, -1)
    if not _fit_rows(pairs):
        return None
    fresh = KeyIndex(codec.width).intern(pairs)[1]
    return codec.decode_all(pairs.take(fresh, axis=1))


def _gamma(model):
    group = codec_for(model.group)
    if group is None:
        return None
    try:
        codec = Gamma(group, model.unit)
    except OverflowError:
        return None
    return codec if fits(codec.unit) else None


def _chain(model):
    return Gamma(Coords(1, scalar=True), model.m) if model.m < LIMIT else None


def _radical(model):
    interval = codec_for(model.algebra)
    return Radical(interval) if isinstance(interval, Gamma) else None


def _product(model):
    # The empty product's rows would have no columns: it has no codec.
    factors = [codec_for(f) for f in model.factors]
    return None if not factors or any(f is None for f in factors) else Prod(factors)


_BUILDERS = {
    ZGroup: lambda model: Coords(1, scalar=True),
    ZnGroup: lambda model: _coords(model.rank),
    LexGroup: _lex,
    UnitalGroup: lambda model: codec_for(model.group),
    PositiveConeMonoid: lambda model: codec_for(model.group),
    GrothendieckGroup: lambda model: groth_codec(model.monoid),
    GammaAlgebra: _gamma,
    SigmaAlgebra: _gamma,
    FiniteChainAlgebra: _chain,
    ChangAlgebra: lambda model: Chang(),
    ProductAlgebra: _product,
    PointedAlgebra: lambda model: codec_for(model.algebra),
    RadicalMonoid: _radical,
}


def codec_for(model):
    """The codec of ``model``, or ``None`` when its exact type (or the
    exact type of one of its parts) has none."""
    build = _BUILDERS.get(type(model))
    return None if build is None else build(model)
