"""Exact int64 kernels for the carriers' operations.

Every carrier of the library is a set of integer coordinates: Z^n and N^n
directly, Z x_lex G as a head followed by the tail's coordinates, the
Grothendieck group of a cone as the coordinates of the difference u - v of
a class [u, v], the unit interval Gamma(G, u) as a part of G (Mundici
1986, J. Funct. Anal. 65), the chain L(m) as Gamma(Z, m), Chang's algebra
C as Sigma(Z) = Gamma(Z x_lex Z, (1, 0)) under nc -> (0, n) and
1 - nc -> (1, -n), and the radical monoid of such a unit interval as the
same rows under oplus.  A codec maps elements to such rows of integers and
back, and computes the carrier's operations with numpy on int64 arrays
of shape (..., width), one row per element.

``codec_for(model)`` dispatches on the exact type of the model and its
parts; a subclass (a test double, the radical pairs of ``equivalence``)
or any other carrier gets ``None``.

Exactness.  A caller encodes only elements whose coordinates are all
below ``LIMIT`` = 2^60 in absolute value, and accepts a kernel's result
only if its coordinates are below ``LIMIT`` too.  Every group codec
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
group operations are G's own kernels.  N, N^n and PosCone(G) are cones
of Z, Z^n and G.  So is the radical monoid of a Sigma-shaped interval (a
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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lgroup_core import (
    CanonPair,
    GrothendieckGroup,
    LexGroup,
    LexPair,
    NMonoid,
    NnMonoid,
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


def unique_rows(rows, lo, hi):
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


class Coords:
    """Z^n or N^n (Z and N when ``scalar``): the pointwise operations."""

    def __init__(self, width: int, scalar: bool):
        self.width = width
        self.scalar = scalar

    def encode(self, x):
        return [x] if self.scalar else list(x)

    def decode(self, row):
        return row[0] if self.scalar else tuple(row)

    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    negate = staticmethod(np.negative)
    inf = staticmethod(np.minimum)
    sup = staticmethod(np.maximum)

    @staticmethod
    def leq(a, b):
        return (a <= b).all(axis=-1)


class Lex:
    """Z x_lex G: the head in column 0, the tail's columns after it."""

    def __init__(self, tail):
        self.tail = tail
        self.width = 1 + tail.width

    def encode(self, x):
        return [x.head] + self.tail.encode(x.tail)

    def decode(self, row):
        return LexPair(row[0], self.tail.decode(row[1:]))

    def add(self, a, b):
        return _cat(a[..., :1] + b[..., :1], self.tail.add(a[..., 1:], b[..., 1:]))

    def negate(self, a):
        return _cat(-a[..., :1], self.tail.negate(a[..., 1:]))

    def sub(self, a, b):
        return self.add(a, self.negate(b))

    def leq(self, a, b):
        ha, hb = a[..., 0], b[..., 0]
        return (ha < hb) | ((ha == hb) & self.tail.leq(a[..., 1:], b[..., 1:]))

    def _pick(self, a, b, tail_op, first):
        # The operand whose head comes first wins outright; equal heads
        # combine their tails.
        ha, hb = a[..., :1], b[..., :1]
        out = _cat(ha, tail_op(a[..., 1:], b[..., 1:]))
        out = np.where(first(ha, hb), a, out)
        return np.where(first(hb, ha), b, out)

    def inf(self, a, b):
        return self._pick(a, b, self.tail.inf, np.less)

    def sup(self, a, b):
        return self._pick(a, b, self.tail.sup, np.greater)


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
        self.unit = np.array(group.encode(unit), dtype=np.int64)

    def encode(self, x):
        return self.g.encode(x)

    def decode(self, row):
        return self.g.decode(row)

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

    def encode(self, x):
        return [0, x.n] if x.kind == "fin" else [1, -x.n]

    def decode(self, row):
        return ChangElem("fin", row[1]) if row[0] == 0 else ChangElem("cofin", -row[1])


class Radical:
    """The radical monoid of a unit interval, on the interval's rows: x + y
    is x oplus y, and the order and lattice operations are the interval's."""

    def __init__(self, interval):
        self.interval = interval
        self.width = interval.width

    def encode(self, x):
        return self.interval.encode(x)

    def decode(self, row):
        return self.interval.decode(row)

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

    def encode(self, p):
        u, v = self.m.encode(p.u), self.m.encode(p.v)
        return [a - b for a, b in zip(u[self.head:], v[self.head:])]

    def canon(self, x, y):
        return self.group.sub(x[..., self.head:], y[..., self.head:])

    def decode_rows(self, rows):
        """The canonical pairs (d+, d-) of the difference rows d, with the
        head put back and read by the monoid codec."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.width)
        g, zero = self.group, np.zeros_like(rows[:1])
        head = np.zeros_like(rows[:, :self.head])
        pos = _cat(head, g.sup(rows, zero)).tolist()
        neg = _cat(head, g.sup(g.negate(rows), zero)).tolist()
        decode = self.m.decode
        return [CanonPair(decode(u), decode(v)) for u, v in zip(pos, neg)]

    def decode(self, row):
        return self.decode_rows([row])[0]


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

    def encode(self, x):
        row = []
        for f, a in zip(self.factors, x):
            row.extend(f.encode(a))
        return row

    def decode(self, row):
        return tuple(f.decode(row[s]) for f, s in zip(self.factors, self.blocks))

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
    (N, N^n, PosCone(G)) is coded by its own group codec; the radical
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
        rows = np.array([codec.m.encode(x) for x in window], dtype=np.int64)
    except OverflowError:
        return None
    if not _fit_rows(rows):
        return None
    pairs = codec.canon(rows[:, None], rows[None, :]).reshape(-1, codec.width)
    if not _fit_rows(pairs):
        return None
    first, _ = unique_rows(pairs, pairs.min(axis=0), pairs.max(axis=0))
    return codec.decode_rows(pairs[np.sort(first)])


def _gamma(model):
    group = codec_for(model.group)
    if group is None or not fits(group.encode(model.unit)):
        return None
    return Gamma(group, model.unit)


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
    NMonoid: lambda model: Coords(1, scalar=True),
    NnMonoid: lambda model: _coords(model.rank),
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
