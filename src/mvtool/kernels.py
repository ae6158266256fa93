"""Exact int64 kernels for the carriers' operations.

Every carrier of the library is a set of integer coordinates: Z^n and N^n
directly, Z x_lex G as a head followed by the tail's coordinates, the
Grothendieck group of a cone as the coordinates of the difference u - v of
a class [u, v], the unit interval Gamma(G, u) as a part of G (Mundici
1986, J. Funct. Anal. 65), the chain L(m) as Gamma(Z, m), Chang's algebra
C as Sigma(Z) = Gamma(Z x_lex Z, (1, 0)) under nc -> (0, n) and
1 - nc -> (1, -n), and the radical monoid of such a unit interval as the
same rows under oplus.  A codec maps elements to such rows of integers and
back a batch at a time, ``encode_all(values)`` giving an (n, width) int64
array and ``decode_all(rows)`` the list of elements, column by column
(``Prod`` splits its tuples into per-factor lists, ``Lex`` its heads from
its tails); ``encode_all`` raises ``OverflowError`` where a coordinate
has no int64, and with ``dtype=object`` gives Python integers, which
``Diff`` subtracts exactly beyond ``LIMIT``.  It computes the carrier's operations with numpy on int64
arrays of shape (..., width), one row per element.

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
``Diff``: a class [u, v] is coded as the
row of u - v in G, its canonical pair is ((u - v)+, (u - v)-), and the
group operations are G's own kernels.  PosCone(G) is the cone of G, and
N and N^n are PosCone(Z) and PosCone(Z^n), coded by Z's and Z^n's
codecs.  So is the radical monoid of a Sigma-shaped interval (a
lexicographic Z x_lex G with unit (1, 0), as in Sigma(G), C and Pointed
over them): every radical element is (0, g) with g >= 0, and oplus is
the tails' plain sum, which never reaches the unit, so the monoid is G's
positive cone past a zero head (Di Nola & Lettieri 1994).  Delta(Sigma(G))
and Delta(C) thus compute with G's kernels, and Sigma(Delta(A)) is a unit
interval over a group codec like any other.  The radical monoid of any
other unit interval, such as L(m), has no Grothendieck codec.

``groth_window`` builds a Grothendieck window from its monoid's codes:
the canonical rows of all pairs of the monoid window in one numpy pass,
the first appearance of each in walk order, decoded once.

``unique_rows`` and ``unique_ints`` give ``np.unique``'s output for the
code rows and interned indices that the vector engine's tables, the
homomorphism checks and ``groth_window`` start from.  Their keys are
small integers: when n keys span at most max(n, ``_COUNT_SPAN``) values,
the distinct ones are counted (a presence array, its running count, and
the least position of each key), with no comparisons and no buffer
longer than that; wider spans are sorted.
"""

from __future__ import annotations

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


def _cat(*parts):
    """Concatenate column blocks, broadcasting only the leading axes."""
    lead = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    return np.concatenate([np.broadcast_to(p, lead + p.shape[-1:]) for p in parts],
                          axis=-1)


def _empty(*operands):
    """An uninitialised int64 array of the operands' broadcast shape."""
    return np.empty(np.broadcast_shapes(*(a.shape for a in operands)),
                    dtype=np.int64)


# Key spans up to this many values are counted whatever the number of
# keys.  Replaying the benchmark's recorded keys, 4096 was the fastest of
# 1024 to 16384 on wide-window and within noise of the fastest on the
# other workloads (the sweep is in CHANGES.md).
_COUNT_SPAN = 4096


def _counted(key, span: int) -> bool:
    """Whether the distinct values of the int64 array ``key``, all in
    [0, span), are found by counting: when the presence array is no longer
    than the keys, or than ``_COUNT_SPAN``."""
    return span <= max(key.size, _COUNT_SPAN)


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
    span is small (``_counted``), sorted otherwise."""
    arr = np.asarray(arr)
    if _counted(arr, end):
        vals, inverse = _count(arr.reshape(-1), end)
    else:
        # np.unique's inverse is shaped like its input from numpy 2.0 on,
        # and flat before that.
        vals, inverse = np.unique(arr, return_inverse=True)
    return vals, inverse.reshape(arr.shape)


def unique_rows(rows):
    """The ``first`` and ``inverse`` of ``np.unique(rows, axis=0)``: the
    position of each distinct row's first occurrence, and each row's
    distinct row.  Through one integer key per row when the columns'
    ranges fit a mixed-radix number below 2^62, whose order is the rows'
    order: the distinct keys are counted when their span is small
    (``_counted``), and sorted otherwise, which is still much faster than
    sorting rows.  The ranges are read one column slice at a time:
    ``min(axis=0)`` over a row-major block is an order of magnitude
    slower (about 0.8 ms against 0.07 ms on a 16 200 x 4 block)."""
    cols = [rows[:, c] for c in range(rows.shape[1])]
    lo = [int(col.min()) for col in cols]
    spans = [int(col.max()) - l + 1 for col, l in zip(cols, lo)]
    total = 1
    for s in spans:
        total *= s
    if total >= 1 << 62:
        _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
        return first, inverse.reshape(-1)
    key = np.zeros(len(rows), dtype=np.int64)
    for col, l, s in zip(cols, lo, spans):
        key = key * s + (col - l)
    if not _counted(key, total):
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return first, inverse.reshape(-1)
    vals, inverse = _count(key, total)
    # Each distinct key's first position: the least index that holds it.
    # A plain scatter would keep an arbitrary one, and groth_window orders
    # its classes by first appearance.
    first = np.full(len(vals), len(key), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(key)))
    return first, inverse


def rows_differ(a, b):
    """``(a != b).any(axis=-1)`` for rows of at least one column, one
    column at a time: a reduction over the short last axis of a broadcast
    is several times slower (on a 2-core Xeon, about 370 against 95 us on
    a (50, 324, 4) block, and 650 against 50 us for ``Coords.leq`` on
    (50, 1, 2) against (1, 324, 2) operands)."""
    out = a[..., 0] != b[..., 0]
    for c in range(1, a.shape[-1]):
        out |= a[..., c] != b[..., c]
    return out


class Coords:
    """Z^n or N^n (Z and N when ``scalar``): the pointwise operations."""

    def __init__(self, width: int, scalar: bool):
        self.width = width
        self.scalar = scalar

    def encode_all(self, values, dtype=np.int64):
        return np.array(values, dtype=dtype).reshape(-1, self.width)

    def decode_all(self, rows):
        if self.scalar:
            return rows[:, 0].tolist()
        return list(map(tuple, rows.tolist()))

    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    negate = staticmethod(np.negative)
    inf = staticmethod(np.minimum)
    sup = staticmethod(np.maximum)

    @staticmethod
    def leq(a, b):
        # Column by column, as in rows_differ.
        out = a[..., 0] <= b[..., 0]
        for c in range(1, a.shape[-1]):
            out &= a[..., c] <= b[..., c]
        return out


class Lex:
    """Z x_lex G: the head in column 0, the tail's columns after it."""

    def __init__(self, tail):
        self.tail = tail
        self.width = 1 + tail.width

    def encode_all(self, values, dtype=np.int64):
        out = np.empty((len(values), self.width), dtype=dtype)
        out[:, 0] = [x.head for x in values]
        out[:, 1:] = self.tail.encode_all([x.tail for x in values], dtype)
        return out

    def decode_all(self, rows):
        return list(map(LexPair, rows[:, 0].tolist(),
                        self.tail.decode_all(rows[:, 1:])))

    # Each operation writes the head column and the tail's columns into
    # one int64 array of the operands' broadcast shape.

    def add(self, a, b):
        out = _empty(a, b)
        np.add(a[..., :1], b[..., :1], out=out[..., :1])
        out[..., 1:] = self.tail.add(a[..., 1:], b[..., 1:])
        return out

    def negate(self, a):
        out = _empty(a)
        np.negative(a[..., :1], out=out[..., :1])
        out[..., 1:] = self.tail.negate(a[..., 1:])
        return out

    def sub(self, a, b):
        return self.add(a, self.negate(b))

    def leq(self, a, b):
        ha, hb = a[..., 0], b[..., 0]
        return (ha < hb) | ((ha == hb) & self.tail.leq(a[..., 1:], b[..., 1:]))

    def _pick(self, a, b, head_op, tail_op):
        # The operand whose head comes first (head_op's pick) wins
        # outright; equal heads combine their tails.  The masks have no
        # column axis, so the tail is chosen one column at a time.
        ha, hb = a[..., 0], b[..., 0]
        ta, tb = a[..., 1:], b[..., 1:]
        out = _empty(a, b)
        head = head_op(ha, hb, out=out[..., 0])
        tail = tail_op(ta, tb)
        tie, a_first = ha == hb, head == ha
        for c in range(self.tail.width):
            out[..., 1 + c] = np.where(tie, tail[..., c],
                                       np.where(a_first, ta[..., c], tb[..., c]))
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
        self.unit = group.encode_all([unit])[0]

    def encode_all(self, values, dtype=np.int64):
        return self.g.encode_all(values, dtype)

    def decode_all(self, rows):
        return self.g.decode_all(rows)

    def oplus(self, a, b):
        return self.g.inf(self.unit, self.g.add(a, b))

    def neg(self, a):
        return self.g.sub(self.unit, a)

    def odot(self, a, b):
        g = self.g
        return g.sup(self.zero, g.sub(g.add(a, b), self.unit))

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
        out = np.empty((len(values), 2), dtype=dtype)
        out[:, 0] = [0 if x.kind == "fin" else 1 for x in values]
        out[:, 1] = [x.n if x.kind == "fin" else -x.n for x in values]
        return out

    def decode_all(self, rows):
        return [ChangElem("fin", n) if h == 0 else ChangElem("cofin", -n)
                for h, n in rows.tolist()]


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
    """The Grothendieck group of a monoid whose rows are ``head`` zero
    columns followed by the row of an element of the cone of the group
    codec ``group``: a class [u, v] is the row of u - v past the head, and
    every operation is the group's.  ``canon`` maps the monoid rows of a
    pair (x, y) to x - y."""

    def __init__(self, monoid, group, head=0):
        self.m = monoid
        self.group = group
        self.head = head
        self.width = group.width
        self.add, self.sub, self.negate = group.add, group.sub, group.negate
        self.inf, self.sup, self.leq = group.inf, group.sup, group.leq

    def encode_all(self, pairs, dtype=np.int64):
        """The rows u - v of the classes [u, v].  The monoid rows are
        subtracted in int64 when both are below ``LIMIT``, where no
        difference wraps; otherwise they are subtracted exactly, as Python
        integers (``dtype=object``), so that a difference raises
        ``OverflowError`` exactly when it has no int64."""
        us, vs = [p.u for p in pairs], [p.v for p in pairs]
        if dtype is np.int64 and pairs:
            try:
                u, v = self.m.encode_all(us), self.m.encode_all(vs)
            except OverflowError:
                pass
            else:
                if _fit_rows(u) and _fit_rows(v):
                    return self.canon(u, v)
        # Every group codec subtracts coordinatewise.
        h = self.head
        exact = self.m.encode_all(us, object)[:, h:] - self.m.encode_all(vs, object)[:, h:]
        return np.array(exact.tolist(), dtype=dtype).reshape(-1, self.width)

    def canon(self, x, y):
        return self.group.sub(x[..., self.head:], y[..., self.head:])

    def decode_all(self, rows):
        """The canonical pairs (d+, d-) of the difference rows d, with the
        head put back and read by the monoid codec."""
        g, zero = self.group, np.zeros_like(rows[:1])
        head = np.zeros_like(rows[:, :self.head])
        us = self.m.decode_all(_cat(head, g.sup(rows, zero)))
        vs = self.m.decode_all(_cat(head, g.sup(g.negate(rows), zero)))
        return list(map(CanonPair, us, vs))


class Prod:
    """A finite product: each factor owns a block of columns."""

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
                               for f, p in zip(self.factors, parts)], axis=1)

    def decode_all(self, rows):
        return list(zip(*(f.decode_all(rows[:, s])
                          for f, s in zip(self.factors, self.blocks))))

    def _each(self, name, *args):
        return _cat(*(getattr(f, name)(*(a[..., s] for a in args))
                      for f, s in zip(self.factors, self.blocks)))

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
            out = out & f.leq(a[..., s], b[..., s])
        return out


def _coords(rank: int) -> Optional[Coords]:
    return Coords(rank, scalar=False) if rank >= 1 else None


def _lex(model):
    tail = codec_for(model.tail)
    return None if tail is None else Lex(tail)


def groth_codec(monoid):
    """The codec of the Grothendieck group of ``monoid``, or None.  A cone
    (PosCone(G), N and N^n among them) is coded by its own group codec; the radical
    monoid of a Sigma-shaped interval Z x_lex G at (1, 0) by G's codec
    past the zero head."""
    m = codec_for(monoid)
    if m is None:
        return None
    if not isinstance(m, Radical):
        return Diff(m, m)
    g = m.interval.g
    if isinstance(g, Lex) and m.interval.unit.tolist() == [1] + [0] * g.tail.width:
        return Diff(m, g.tail, head=1)
    return None


def groth_window(monoid, bound: int) -> Optional[list]:
    """``GrothendieckGroup(monoid).enumerate(bound)`` from codes: the
    canonical rows of the pairs (x, y) of the monoid window, x-major, kept
    at their first appearance and decoded.  None when the monoid has no
    codec or a row reaches ``LIMIT``; the caller then walks the pairs."""
    codec = groth_codec(monoid)
    if codec is None:
        return None
    window = monoid.enumerate(bound)
    if not window:
        return []
    try:
        rows = codec.m.encode_all(window)
    except OverflowError:
        return None
    if not _fit_rows(rows):
        return None
    pairs = codec.canon(rows[:, None], rows[None, :]).reshape(-1, codec.width)
    if not _fit_rows(pairs):
        return None
    first, _ = unique_rows(pairs)
    return codec.decode_all(pairs[np.sort(first)])


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
