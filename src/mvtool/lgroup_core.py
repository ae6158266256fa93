"""Lattice-ordered abelian group and monoid carriers.

All carriers are exact: elements are arbitrary-precision integers,
integer tuples with the pointwise order, or lexicographic pairs
``LexPair(head, tail)`` realizing Z x_lex G.  The Grothendieck group of a
cancellative monoid is represented by canonical pairs (u, v) with
inf(u, v) = 0, so equality of group elements is structural.

``LexPair`` and ``CanonPair`` are named tuples, so they are built,
hashed and compared by the tuple type's own code.  Each therefore equals
the plain tuple with the same fields, and a LexPair equals the CanonPair
with the same fields: a carrier that takes plain tuples (Z^n here,
products in ``mv_core``) tests for the exact type ``tuple`` in
``validate``.

N and N^n are the positive cones of Z and Z^n: ``NMonoid()`` and
``NnMonoid(n)`` build ``PositiveConeMonoid``s that print as ``N`` and
``N^n``, and no code branches on the spelling.

The Grothendieck group's operations are defined through ``canon_pair``,
in the monoid.  Over the cone of a built-in group G they compute in G
instead, on the differences u - v, because the group of differences of
G+ is G; ``_cone`` alone decides which monoids those are, for these
operations, the box window and ``kernels``' codec.  ``canon_pair``
stays the route over every other monoid, and over a subclass anywhere
in the monoid.

Zeros are built once per carrier, and Z^n computes with ``map`` over the
``operator`` functions.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import add as _add, attrgetter, le as _le, neg as _neg, sub as _sub
from typing import Any, NamedTuple, Optional

from .errors import CarrierMismatchError, InvalidUnitError


class LexPair(NamedTuple):
    """Element of Z x_lex G: an integer head and a group-element tail.

    Order is lexicographic: (a, x) <= (b, y) iff a < b, or a = b and
    x <= y in the tail group.  As a tuple the pair also compares and
    orders like (head, tail); that order is not the carrier's ``leq``.
    """

    head: int
    tail: Any


class CanonPair(NamedTuple):
    """Canonical Grothendieck-group representative: the unique pair
    (u, v) in the class of (x, y) with inf(u, v) = 0."""

    u: Any
    v: Any


# ---------------------------------------------------------------------------
# Group carriers
# ---------------------------------------------------------------------------


class LGroup:
    """Abelian lattice-ordered group interface.

    Concrete carriers implement ``add``, ``negate``, ``leq``, ``inf``,
    ``sup``, ``zero`` and a deterministic bounded enumerator with
    ``enumerate(b)`` a subset of ``enumerate(b + 1)``.
    """

    signature = "lgroup"

    @property
    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def negate(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.negate(y))

    def leq(self, x, y) -> bool:
        raise NotImplementedError

    def inf(self, x, y):
        raise NotImplementedError

    def sup(self, x, y):
        raise NotImplementedError

    def enumerate(self, bound: int) -> list:
        raise NotImplementedError

    def window_size(self, bound: int) -> int:
        return len(self.enumerate(bound))

    def interval(self, bound: int, lo=None, hi=None) -> list:
        """The elements x of ``enumerate(bound)`` with lo <= x <= hi, in
        ``enumerate`` order; ``None`` leaves that side open.

        The order is part of the contract, because the first
        counterexample a check reports depends on it: a carrier that
        builds the interval directly must return exactly this filter's
        list.  This filter is the reference and the fallback for carriers
        without a direct version.
        """
        return [
            x for x in self.enumerate(bound)
            if (lo is None or self.leq(lo, x)) and (hi is None or self.leq(x, hi))
        ]

    def interval_size(self, bound: int, lo=None, hi=None) -> int:
        """``len(interval(bound, lo, hi))``, counted without building the
        interval where the carrier has a closed form."""
        return len(self.interval(bound, lo, hi))

    def validate(self, x) -> None:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def format_element(self, x) -> str:
        return str(x)

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


def _clipped_range(bound: int, lo, hi) -> range:
    """The integers of [-bound, bound] within [lo, hi], ascending."""
    start = -bound if lo is None else max(-bound, lo)
    stop = bound if hi is None else min(bound, hi)
    return range(start, stop + 1)


class ZGroup(LGroup):
    """The integers with the natural total order."""

    @property
    def zero(self):
        return 0

    def add(self, x, y):
        return x + y

    def negate(self, x):
        return -x

    def sub(self, x, y):
        return x - y

    def leq(self, x, y):
        return x <= y

    def inf(self, x, y):
        return min(x, y)

    def sup(self, x, y):
        return max(x, y)

    def enumerate(self, bound):
        return list(range(-bound, bound + 1))

    def window_size(self, bound):
        return 2 * bound + 1

    def interval(self, bound, lo=None, hi=None):
        return list(_clipped_range(bound, lo, hi))

    def interval_size(self, bound, lo=None, hi=None):
        return len(_clipped_range(bound, lo, hi))

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool):
            raise CarrierMismatchError(f"{x!r} is not an integer")

    def descriptor(self):
        return "Z"


class ZnGroup(LGroup):
    """Z^n with the pointwise order.  Rank 0 is the trivial group."""

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.rank = rank
        self._zero = (0,) * rank

    @property
    def zero(self):
        return self._zero

    def add(self, x, y):
        return tuple(map(_add, x, y))

    def negate(self, x):
        return tuple(map(_neg, x))

    def sub(self, x, y):
        return tuple(map(_sub, x, y))

    def leq(self, x, y):
        return all(map(_le, x, y))

    def inf(self, x, y):
        return tuple(map(min, x, y))

    def sup(self, x, y):
        return tuple(map(max, x, y))

    def enumerate(self, bound):
        rng = range(-bound, bound + 1)
        return [tuple(t) for t in itertools.product(rng, repeat=self.rank)]

    def window_size(self, bound):
        return (2 * bound + 1) ** self.rank

    def _coordinate_ranges(self, bound, lo, hi) -> list:
        return [
            _clipped_range(bound, None if lo is None else lo[i],
                           None if hi is None else hi[i])
            for i in range(self.rank)
        ]

    def interval(self, bound, lo=None, hi=None):
        # A pointwise interval is the box of per-coordinate intervals;
        # product() walks it in the same order as enumerate().
        return list(itertools.product(*self._coordinate_ranges(bound, lo, hi)))

    def interval_size(self, bound, lo=None, hi=None):
        size = 1
        for rng in self._coordinate_ranges(bound, lo, hi):
            size *= len(rng)
        return size

    def validate(self, x):
        # Exactly a tuple: a LexPair or CanonPair is a tuple too.
        if type(x) is not tuple or len(x) != self.rank:
            raise CarrierMismatchError(f"{x!r} is not a rank-{self.rank} vector")
        for a in x:
            if not isinstance(a, int) or isinstance(a, bool):
                raise CarrierMismatchError(f"{x!r} has a non-integer coordinate")

    def descriptor(self):
        return f"Z^{self.rank}"

    def format_element(self, x):
        return "(" + ",".join(str(a) for a in x) + ")"


class LexGroup(LGroup):
    """Z x_lex G for a tail group G.

    The head is always a rank-1 integer; this is the only lexicographic
    product the library needs.
    """

    def __init__(self, tail: LGroup):
        self.tail = tail
        self._zero = LexPair(0, tail.zero)

    @property
    def zero(self):
        return self._zero

    def add(self, x, y):
        return LexPair(x.head + y.head, self.tail.add(x.tail, y.tail))

    def negate(self, x):
        return LexPair(-x.head, self.tail.negate(x.tail))

    def sub(self, x, y):
        return LexPair(x.head - y.head, self.tail.sub(x.tail, y.tail))

    def leq(self, x, y):
        return x.head < y.head or (x.head == y.head and self.tail.leq(x.tail, y.tail))

    def inf(self, x, y):
        if x.head < y.head:
            return x
        if y.head < x.head:
            return y
        return LexPair(x.head, self.tail.inf(x.tail, y.tail))

    def sup(self, x, y):
        if x.head > y.head:
            return x
        if y.head > x.head:
            return y
        return LexPair(x.head, self.tail.sup(x.tail, y.tail))

    def enumerate(self, bound):
        tails = self.tail.enumerate(bound)
        return [
            LexPair(h, t)
            for h in range(-bound, bound + 1)
            for t in tails
        ]

    def window_size(self, bound):
        return (2 * bound + 1) * self.tail.window_size(bound)

    def _head_slices(self, bound, lo, hi):
        """(heads, tail lo, tail hi) blocks of the lexicographic interval
        [lo, hi], by ascending head: the head equal to lo.head bounds the
        tail below by lo.tail, the head equal to hi.head bounds it above
        by hi.tail, and every head strictly between takes every tail."""
        heads = _clipped_range(bound, None if lo is None else lo.head,
                               None if hi is None else hi.head)
        if not heads:
            return []
        first, last = heads[0], heads[-1]
        tail_lo = lo.tail if lo is not None and lo.head == first else None
        tail_hi = hi.tail if hi is not None and hi.head == last else None
        if first == last:
            return [(heads, tail_lo, tail_hi)]
        return [(range(first, first + 1), tail_lo, None),
                (range(first + 1, last), None, None),
                (range(last, last + 1), None, tail_hi)]

    def interval(self, bound, lo=None, hi=None):
        out = []
        for heads, tail_lo, tail_hi in self._head_slices(bound, lo, hi):
            if not heads:
                continue
            tails = self.tail.interval(bound, tail_lo, tail_hi)
            out.extend(LexPair(h, t) for h in heads for t in tails)
        return out

    def interval_size(self, bound, lo=None, hi=None):
        return sum(len(heads) * self.tail.interval_size(bound, tail_lo, tail_hi)
                   for heads, tail_lo, tail_hi in self._head_slices(bound, lo, hi))

    def validate(self, x):
        if not isinstance(x, LexPair):
            raise CarrierMismatchError(f"{x!r} is not a lexicographic pair")
        if not isinstance(x.head, int) or isinstance(x.head, bool):
            raise CarrierMismatchError(f"{x!r} has a non-integer head")
        self.tail.validate(x.tail)

    def descriptor(self):
        return f"Lex(Z,{self.tail.descriptor()})"

    def format_element(self, x):
        return f"({x.head},{self.tail.format_element(x.tail)})"


class UnitalGroup(LGroup):
    """A group together with a distinguished element, used as a model of
    the unital theories.  Delegates every group operation."""

    def __init__(self, group: LGroup, unit):
        group.validate(unit)
        if not group.leq(group.zero, unit):
            raise InvalidUnitError(
                f"{group.format_element(unit)} is not >= 0 in {group.descriptor()}"
            )
        self.group = group
        self.unit = unit

    @property
    def zero(self):
        return self.group.zero

    def add(self, x, y):
        return self.group.add(x, y)

    def negate(self, x):
        return self.group.negate(x)

    def sub(self, x, y):
        return self.group.sub(x, y)

    def leq(self, x, y):
        return self.group.leq(x, y)

    def inf(self, x, y):
        return self.group.inf(x, y)

    def sup(self, x, y):
        return self.group.sup(x, y)

    def enumerate(self, bound):
        return self.group.enumerate(bound)

    def window_size(self, bound):
        return self.group.window_size(bound)

    def validate(self, x):
        self.group.validate(x)

    def descriptor(self):
        return f"Unital({self.group.descriptor()},{self.group.format_element(self.unit)})"

    def format_element(self, x):
        return self.group.format_element(x)


# ---------------------------------------------------------------------------
# Positive parts
# ---------------------------------------------------------------------------


def pos_part(G: LGroup, g):
    """g+ = sup(0, g)."""
    return G.sup(G.zero, g)


def neg_part(G: LGroup, g):
    """g- = sup(0, -g)."""
    return G.sup(G.zero, G.negate(g))


def abs_val(G: LGroup, g):
    """|g| = g+ + g-."""
    return G.add(pos_part(G, g), neg_part(G, g))


# ---------------------------------------------------------------------------
# Monoid carriers
# ---------------------------------------------------------------------------


class LMonoid:
    """Cancellative subtractive lattice-ordered abelian monoid with
    bottom element.  ``subtract(x, y)`` for y <= x returns the unique z
    with y + z = x, witnessing the subtractivity axiom."""

    signature = "monoid"

    @property
    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def leq(self, x, y) -> bool:
        return self.inf(x, y) == x

    def inf(self, x, y):
        raise NotImplementedError

    def sup(self, x, y):
        raise NotImplementedError

    def subtract(self, x, y):
        raise NotImplementedError

    def enumerate(self, bound: int) -> list:
        raise NotImplementedError

    def window_size(self, bound: int) -> int:
        return len(self.enumerate(bound))

    def validate(self, x) -> None:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def format_element(self, x) -> str:
        return str(x)

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class PositiveConeMonoid(LMonoid):
    """The positive cone {g | 0 <= g} of a group, with the restricted
    operations.  Subtractivity is witnessed by subtraction in the group.

    ``spelling`` is the descriptor the cone prints, ``PosCone(<group>)``
    when None: N and N^n are the cones of Z and Z^n (``NMonoid``,
    ``NnMonoid``), and print as they are spelled."""

    def __init__(self, group: LGroup, spelling: Optional[str] = None):
        self.group = group
        self.spelling = spelling

    @property
    def zero(self):
        return self.group.zero

    def add(self, x, y):
        return self.group.add(x, y)

    def leq(self, x, y):
        return self.group.leq(x, y)

    def inf(self, x, y):
        return self.group.inf(x, y)

    def sup(self, x, y):
        return self.group.sup(x, y)

    def subtract(self, x, y):
        if not self.group.leq(y, x):
            raise CarrierMismatchError("subtraction would leave the cone")
        return self.group.sub(x, y)

    def enumerate(self, bound):
        return self.group.interval(bound, self.group.zero)

    def window_size(self, bound):
        return self.group.interval_size(bound, self.group.zero)

    def validate(self, x):
        self.group.validate(x)
        if not self.group.leq(self.group.zero, x):
            raise CarrierMismatchError(
                f"{self.group.format_element(x)} is not in the positive cone"
            )

    def descriptor(self):
        return self.spelling or f"PosCone({self.group.descriptor()})"

    def format_element(self, x):
        return self.group.format_element(x)


def positive_cone(G: LGroup) -> PositiveConeMonoid:
    """The functor sending a group to its positive cone."""
    return PositiveConeMonoid(G)


def NMonoid() -> PositiveConeMonoid:
    """The natural numbers under addition: the positive cone of Z."""
    return PositiveConeMonoid(ZGroup(), "N")


def NnMonoid(rank: int) -> PositiveConeMonoid:
    """N^n with pointwise operations: the positive cone of Z^n."""
    return PositiveConeMonoid(ZnGroup(rank), f"N^{rank}")


# ---------------------------------------------------------------------------
# Canonical pairs and the Grothendieck group
# ---------------------------------------------------------------------------


def canon_pair(M: LMonoid, x, y) -> CanonPair:
    """The canonical representative of the pair class [x, y].

    Returns (u, v) with x = inf(x, y) + u, y = inf(x, y) + v and
    inf(u, v) = 0; it lies in the class of (x, y) because cross-sums
    agree: x + v = y + u.
    """
    i = M.inf(x, y)
    return CanonPair(M.subtract(x, i), M.subtract(y, i))


def _builtin_group(G) -> bool:
    """Whether G and every group it computes through have built-in exact
    types; a Grothendieck group counts when it computes through G."""
    t = type(G)
    if t is ZGroup or t is ZnGroup:
        return True
    if t is LexGroup:
        return _builtin_group(G.tail)
    if t is UnitalGroup:
        return _builtin_group(G.group)
    return t is GrothendieckGroup and G._group is not None


def _cone(monoid):
    """(G, into, out) when ``monoid`` is the positive cone of the built-in
    group G: PosCone(G), N and N^n, or the radical monoid of a
    Sigma-shaped algebra (Sigma(G), Gamma(Z x_lex G, (1, 0)), C, Pointed
    over those), which is G+ behind a zero head (Di Nola & Lettieri 1994).
    ``into`` maps a monoid element into G and ``out`` maps an element
    g >= 0 of G back, both None where the monoid's elements are G's own.
    None for any other monoid, a subclass included.  The one cone
    decision: the route through G, the box window and
    ``kernels.groth_codec`` read it."""
    t = type(monoid)
    if t is PositiveConeMonoid:
        return (monoid.group, None, None) if _builtin_group(monoid.group) else None
    # mv_core imports this module.
    from .mv_core import (ChangAlgebra, Fin, GammaAlgebra, PointedAlgebra,
                          RadicalMonoid, SigmaAlgebra)
    if t is not RadicalMonoid:
        return None
    # The radical of a Sigma-shaped algebra: nc is n in Z, (0, g) is g in G.
    A = monoid.algebra
    while type(A) is PointedAlgebra:
        A = A.algebra
    if type(A) is ChangAlgebra:
        return ZGroup(), attrgetter("n"), Fin
    if (type(A) in (GammaAlgebra, SigmaAlgebra) and type(A.group) is LexGroup
            and A.unit == LexPair(1, A.group.tail.zero)
            and _builtin_group(A.group.tail)):
        return A.group.tail, attrgetter("tail"), partial(LexPair, 0)
    return None


def _difference_maps(G, into, out):
    """For a cone of G (``_cone``): the difference u - v in G of a class
    [u, v], and the canonical pair (d+, d-) of a difference d."""
    sub, sup, negate, zero = G.sub, G.sup, G.negate, G.zero
    if into is None:
        def diff(p):
            return sub(p.u, p.v)
    else:
        def diff(p):
            return sub(into(p.u), into(p.v))
    if type(G) is ZGroup:
        # Z is a chain: (d+, d-) is (d, 0) or (0, -d).
        lift = out or int  # int is the identity on Z's elements
        base = lift(0)

        def pair(d):
            return CanonPair(lift(d), base) if d >= 0 else CanonPair(base, lift(-d))
    elif out is None:
        def pair(d):
            return CanonPair(sup(d, zero), sup(negate(d), zero))
    else:
        def pair(d):
            return CanonPair(out(sup(d, zero)), out(sup(negate(d), zero)))
    return diff, pair


class GrothendieckGroup(LGroup):
    """Group of differences of a cancellative monoid, on canonical pairs.

    Every operation returns a canonical pair, so structural equality of
    ``CanonPair`` values is group equality.

    Over a cone G+ of a built-in group the operations compute in G: the
    group of differences of G+ is G itself (the Morita equivalence of
    l-groups and cancellative l-monoids with bottom).  A class x = [u, v]
    is its difference dx = u - v in G; for o in {+, inf, sup}, x o y is
    the pair (d+, d-) = (sup(d, 0), sup(-d, 0)) of d = dx o dy in G, and
    x <= y iff dx <= dy in G.  ``_cone`` says which monoids are cones,
    of which G.  The route is chosen once, in ``__init__``, by the exact
    type of the monoid and of every part it computes through, as
    ``kernels.codec_for`` chooses a codec; a subclass of this class keeps
    the definition below.

    The definition, and the route over every other monoid, is
    ``canon_pair``: x + y = [x.u + y.u, x.v + y.v], the lattice
    operations by the pair formulas Inf([x,y],[h,k]) = [inf(x+k, y+h),
    y+k] and its sup twin, each canonicalized; the order is the group of
    differences' own, by cross-sums: [x,y] <= [h,k] iff x + k <= h + y in
    the monoid.  It equals ``inf(p, q) == p`` on canonical pairs, the
    reference it is tested against, without building or canonicalizing
    the infimum.
    """

    def __init__(self, monoid: LMonoid):
        self.monoid = monoid
        z = monoid.zero
        self._zero = CanonPair(z, z)
        cone = _cone(monoid) if type(self) is GrothendieckGroup else None
        # G, and a class's difference in G and a difference's canonical
        # pair, on the route through G; None on canon_pair's.
        self._group = self._diff = self._pair = None
        if cone is not None:
            self._group = cone[0]
            self._diff, self._pair = _difference_maps(*cone)

    @property
    def zero(self):
        return self._zero

    def add(self, x, y):
        G = self._group
        if G is not None:
            return self._pair(G.add(self._diff(x), self._diff(y)))
        m = self.monoid
        return canon_pair(m, m.add(x.u, y.u), m.add(x.v, y.v))

    def negate(self, x):
        return CanonPair(x.v, x.u)

    def inf(self, x, y):
        G = self._group
        if G is not None:
            return self._pair(G.inf(self._diff(x), self._diff(y)))
        m = self.monoid
        return canon_pair(m, m.inf(m.add(x.u, y.v), m.add(x.v, y.u)), m.add(x.v, y.v))

    def sup(self, x, y):
        G = self._group
        if G is not None:
            return self._pair(G.sup(self._diff(x), self._diff(y)))
        m = self.monoid
        return canon_pair(m, m.sup(m.add(x.u, y.v), m.add(x.v, y.u)), m.add(x.v, y.v))

    def leq(self, x, y):
        G = self._group
        if G is not None:
            return G.leq(self._diff(x), self._diff(y))
        m = self.monoid
        return m.leq(m.add(x.u, y.v), m.add(y.u, x.v))

    def window_size(self, bound):
        return self.interval_size(bound)

    def _difference_ranges(self, bound, lo, hi):
        """The per-coordinate ranges of the differences in [lo, hi] within
        the box [-bound, bound]^n, the window's differences when G is
        exactly Z or Z^n (the cone's window is [0, bound]^n).  None on
        every other route."""
        G = self._group
        if type(G) is ZGroup:
            rank, coords = 1, lambda d: (d,)
        elif type(G) is ZnGroup:
            rank, coords = G.rank, tuple
        else:
            return None

        def diff(p):
            return [None] * rank if p is None else coords(self._diff(p))

        return [_clipped_range(bound, l, h) for l, h in zip(diff(lo), diff(hi))]

    def interval(self, bound, lo=None, hi=None):
        ranges = self._difference_ranges(bound, lo, hi)
        if ranges is None:
            return super().interval(bound, lo, hi)
        # The walk over the monoid pairs (x, y), x-major over a window in
        # the coordinates' lexicographic order, first meets the difference
        # d at (d+, d-), its canonical pair, so the differences sorted on
        # (d+, d-) are in the window's order.
        boxed = sorted(
            (tuple(max(a, 0) for a in d), tuple(max(-a, 0) for a in d), d)
            for d in itertools.product(*ranges)
        )
        if type(self._group) is ZGroup:
            return [self._pair(d) for _, _, (d,) in boxed]
        return [self._pair(d) for _, _, d in boxed]

    def interval_size(self, bound, lo=None, hi=None):
        ranges = self._difference_ranges(bound, lo, hi)
        if ranges is None:
            return super().interval_size(bound, lo, hi)
        size = 1
        for rng in ranges:
            size *= len(rng)
        return size

    def enumerate(self, bound):
        """The canonical pairs of the pairs (x, y) of the monoid window,
        in order of first appearance.  Over a cone of Z or Z^n (``_cone``)
        that list is the box of differences, which ``interval`` builds
        directly.  Over another cone with a codec it is built in one pass
        from the differences x - y of the cone's rows in G
        (``kernels.groth_window``); otherwise the pairs are walked.

        On ``Groth(PosCone(Lex(Z,Z)))`` the relative order of
        ``enumerate(b)``'s elements changes with the bound, so the first
        counterexample a check reports there can change too."""
        if self._difference_ranges(bound, None, None) is not None:
            return self.interval(bound)
        # kernels imports this module.
        from .kernels import groth_window
        out = groth_window(self.monoid, bound)
        if out is not None:
            return out
        m = self.monoid
        seen = set()
        out = []
        window = m.enumerate(bound)
        for x in window:
            for y in window:
                p = canon_pair(m, x, y)
                if p not in seen:
                    seen.add(p)
                    out.append(p)
        return out

    def validate(self, x):
        if not isinstance(x, CanonPair):
            raise CarrierMismatchError(f"{x!r} is not a canonical pair")
        self.monoid.validate(x.u)
        self.monoid.validate(x.v)
        if self.monoid.inf(x.u, x.v) != self.monoid.zero:
            raise CarrierMismatchError(f"{x!r} is not canonical: inf(u,v) != 0")

    def descriptor(self):
        return f"Groth({self.monoid.descriptor()})"

    def format_element(self, x):
        f = self.monoid.format_element
        return f"[{f(x.u)},{f(x.v)}]"


def grothendieck_group(M: LMonoid) -> GrothendieckGroup:
    """The functor sending a cancellative monoid to its group of
    differences."""
    return GrothendieckGroup(M)
