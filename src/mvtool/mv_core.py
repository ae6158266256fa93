"""Concrete MV-algebra carriers and the radical/Boolean machinery.

Carriers: Chang's algebra C on formal symbols {nc, 1-nc}, the finite
chains L(m) (with B = L(1) and the trivial algebra = L(0)), unit
intervals Gamma(G, u) of unital groups, lexicographic unit intervals
Sigma(G) = Gamma(Z x_lex G, (1, 0)), and finite products.  Everything is
exact and immutable; Chang indices are arbitrary-precision naturals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .errors import CarrierMismatchError, InvalidUnitError
from .lgroup_core import LexGroup, LexPair, LGroup, LMonoid
from .verdicts import Finite, NoneUpTo


@dataclass(frozen=True)
class ChangElem:
    """Element of Chang's algebra: Fin(n) denotes nc, CoFin(n) denotes
    1 - nc.  The two families are disjoint as denoted elements; Fin(0)
    is 0 and CoFin(0) is 1."""

    kind: Literal["fin", "cofin"]
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("Chang index must be a natural number")

    def __repr__(self):
        return f"ChangElem({self.kind!r}, {self.n})"


def Fin(n: int) -> ChangElem:
    return ChangElem("fin", n)


def CoFin(n: int) -> ChangElem:
    return ChangElem("cofin", n)


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


class MvAlgebra:
    """MV-algebra interface: a carrier with oplus, neg and 0.

    The derived operations (odot, sup, inf, the natural order, the
    distance d) are defined once here from oplus and neg.  They are the
    reference: a carrier overrides one with a direct formula only where
    a test proves the two equal on the carrier (see ``GammaAlgebra``,
    ``ChangAlgebra`` and ``ProductAlgebra``).
    """

    signature = "mv"
    carrier_kind = "abstract"

    @property
    def zero(self):
        raise NotImplementedError

    def oplus(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    @property
    def one(self):
        return self.neg(self.zero)

    def odot(self, x, y):
        return self.neg(self.oplus(self.neg(x), self.neg(y)))

    def ominus(self, x, y):
        """x - y in the truncated sense: x odot (neg y)."""
        return self.odot(x, self.neg(y))

    def sup(self, x, y):
        return self.oplus(self.odot(x, self.neg(y)), y)

    def inf(self, x, y):
        return self.odot(self.oplus(x, self.neg(y)), y)

    def leq(self, x, y) -> bool:
        return self.inf(x, y) == x

    def d(self, x, y):
        """Distance: (x ominus y) oplus (y ominus x)."""
        return self.oplus(self.ominus(x, y), self.ominus(y, x))

    def enumerate(self, bound: int) -> list:
        raise NotImplementedError

    def window_size(self, bound: int) -> int:
        return len(self.enumerate(bound))

    def carrier(self) -> Optional[list]:
        """The full carrier when finite, else None."""
        return None

    def validate(self, x) -> None:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def format_element(self, x) -> str:
        return str(x)

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class ChangAlgebra(MvAlgebra):
    """Chang's algebra C = {0, c, 2c, ..., 1-2c, 1-c, 1}.

    nc oplus mc = (n+m)c; (1-nc) oplus mc = 1-(n-m)c truncated at 1;
    coinfinite elements absorb to 1; neg swaps the families.

    C is a chain, so the natural order and the lattice operations are
    computed directly: the Fin family lies below the CoFin family, nc
    grows with n and 1-nc shrinks with n, and inf and sup are the lesser
    and the greater element.  Each equals the ``MvAlgebra`` derivation,
    which stays the reference.
    """

    carrier_kind = "chang"

    @property
    def zero(self):
        return Fin(0)

    def oplus(self, x, y):
        if x.kind == "fin" and y.kind == "fin":
            return Fin(x.n + y.n)
        if x.kind == "cofin" and y.kind == "cofin":
            return CoFin(0)
        cof, fin = (x, y) if x.kind == "cofin" else (y, x)
        return CoFin(max(0, cof.n - fin.n))

    def neg(self, x):
        return Fin(x.n) if x.kind == "cofin" else CoFin(x.n)

    def leq(self, x, y):
        if x.kind != y.kind:
            return x.kind == "fin"
        return x.n <= y.n if x.kind == "fin" else x.n >= y.n

    def inf(self, x, y):
        return x if self.leq(x, y) else y

    def sup(self, x, y):
        return y if self.leq(x, y) else x

    def enumerate(self, bound):
        return [Fin(n) for n in range(bound + 1)] + [CoFin(n) for n in range(bound + 1)]

    def window_size(self, bound):
        return 2 * (bound + 1)

    def validate(self, x):
        if not isinstance(x, ChangElem):
            raise CarrierMismatchError(f"{x!r} is not a Chang element")

    def descriptor(self):
        return "C"

    def format_element(self, x):
        if x.kind == "fin":
            return "0" if x.n == 0 else f"{x.n}c"
        return "1" if x.n == 0 else f"1-{x.n}c"


class FiniteChainAlgebra(MvAlgebra):
    """The (m+1)-element Lukasiewicz chain {0, 1/m, ..., 1}, stored as
    indices 0..m.  L(1) is the two-element Boolean algebra; L(0) is the
    trivial algebra."""

    carrier_kind = "finite_chain"

    def __init__(self, m: int):
        if m < 0:
            raise ValueError("chain parameter must be >= 0")
        self.m = m

    @property
    def zero(self):
        return 0

    def oplus(self, x, y):
        return min(self.m, x + y)

    def neg(self, x):
        return self.m - x

    def enumerate(self, bound):
        return list(range(self.m + 1))

    def window_size(self, bound):
        return self.m + 1

    def carrier(self):
        return list(range(self.m + 1))

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x <= self.m:
            raise CarrierMismatchError(f"{x!r} is not an index of L({self.m})")

    def descriptor(self):
        if self.m == 0:
            return "Trivial"
        return "B" if self.m == 1 else f"L({self.m})"

    def format_element(self, x):
        if self.m <= 1:
            return str(x)
        if x == 0:
            return "0"
        if x == self.m:
            return "1"
        return f"{x}/{self.m}"


class GammaAlgebra(MvAlgebra):
    """Unit interval [0, u] of a unital group, with the truncation
    operations x oplus y = inf(u, x + y) and neg x = u - x.

    The defining formulas are the standard truncation ones; they are
    validated by the invariant that the lexicographic instance
    Gamma(Z x_lex G, (1, 0)) reproduces the Sigma(G) carrier.

    The derived operations are computed directly in the group, by
    Mundici's Gamma functor, instead of through oplus and neg: the
    natural order and the lattice operations are the group's own
    ``leq``, ``inf`` and ``sup``; x odot y = sup(0, x + y - u);
    x ominus y = sup(0, x - y); and d(x, y) = |x - y| =
    sup(x - y, y - x).  Each equals the ``MvAlgebra`` derivation on
    [0, u], which stays the reference.

    ``enumerate(b)`` is ``group.interval(b, 0, u)``: the elements of the
    group window that lie in [0, u], in the group's ``enumerate`` order.
    """

    carrier_kind = "gamma"

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

    @property
    def one(self):
        return self.unit

    def oplus(self, x, y):
        return self.group.inf(self.unit, self.group.add(x, y))

    def neg(self, x):
        return self.group.sub(self.unit, x)

    def odot(self, x, y):
        g = self.group
        return g.sup(g.zero, g.sub(g.add(x, y), self.unit))

    def ominus(self, x, y):
        g = self.group
        return g.sup(g.zero, g.sub(x, y))

    def sup(self, x, y):
        return self.group.sup(x, y)

    def inf(self, x, y):
        return self.group.inf(x, y)

    def leq(self, x, y):
        return self.group.leq(x, y)

    def d(self, x, y):
        g = self.group
        return g.sup(g.sub(x, y), g.sub(y, x))

    def enumerate(self, bound):
        return self.group.interval(bound, self.group.zero, self.unit)

    def window_size(self, bound):
        return self.group.interval_size(bound, self.group.zero, self.unit)

    def carrier(self):
        # Finite exactly when the interval [0, u] is: pointwise carriers
        # with every coordinate bounded by u, or a lexicographic head over
        # a trivial tail.
        return _interval_carrier(self.group, self.unit)

    def validate(self, x):
        self.group.validate(x)
        g = self.group
        if not (g.leq(g.zero, x) and g.leq(x, self.unit)):
            raise CarrierMismatchError(
                f"{g.format_element(x)} is outside [0, {g.format_element(self.unit)}]"
            )

    def descriptor(self):
        return f"Gamma({self.group.descriptor()},{self.group.format_element(self.unit)})"

    def format_element(self, x):
        return self.group.format_element(x)


def _interval_carrier(group: LGroup, unit) -> Optional[list]:
    if isinstance(unit, int):
        return list(range(unit + 1))
    if isinstance(unit, tuple):
        return [tuple(t) for t in itertools.product(*(range(a + 1) for a in unit))]
    if isinstance(unit, LexPair):
        # A lexicographic interval [0, (h, t)] is infinite unless the
        # tail group is trivial.
        if group.tail.window_size(1) == 1:
            t = group.tail.zero
            return [LexPair(h, t) for h in range(unit.head + 1)]
        return None
    return None


class SigmaAlgebra(GammaAlgebra):
    """Sigma(G) = Gamma(Z x_lex G, (1, 0)): the perfect MV-algebra whose
    radical is the tagged positive cone (0, g >= 0) and whose coradical
    is (1, g <= 0).

    It inherits Gamma's direct operations over Z x_lex G: leq, inf and
    sup are lexicographic, x odot y = sup(0, x + y - (1, 0)),
    x ominus y = sup(0, x - y) and d(x, y) = sup(x - y, y - x).
    ``enumerate(b)`` walks the heads 0 and 1 of the lexicographic
    interval [(0, 0), (1, 0)]: the tails g >= 0 of ``G.enumerate(b)``
    under head 0, then the tails g <= 0 under head 1, each in
    ``G.enumerate`` order.
    """

    carrier_kind = "sigma"

    def __init__(self, group: LGroup):
        self.base_group = group
        lex = LexGroup(group)
        super().__init__(lex, LexPair(1, group.zero))

    def rad(self, g) -> LexPair:
        """The radical element (0, g); requires g >= 0."""
        x = LexPair(0, g)
        self.validate(x)
        return x

    def corad(self, g) -> LexPair:
        """The coradical element (1, g); requires g <= 0."""
        x = LexPair(1, g)
        self.validate(x)
        return x

    def tag_of(self, x) -> str:
        self.validate(x)
        return "rad" if x.head == 0 else "corad"

    def descriptor(self):
        return f"Sigma({self.base_group.descriptor()})"


class ProductAlgebra(MvAlgebra):
    """Finite direct product with componentwise operations.  Enumeration
    is the cartesian product of the factor enumerations at the same
    bound, which grows exponentially in the number of factors; a Horn
    sequent is checked one factor at a time instead (see ``checking``).
    The product of no factors is the one-element algebra on the empty
    tuple: the target of the trivial algebra's decomposition.

    The natural order and the lattice operations are the factors' own,
    componentwise; each equals the ``MvAlgebra`` derivation, which stays
    the reference."""

    carrier_kind = "product"

    def __init__(self, factors: Sequence[MvAlgebra]):
        self.factors = tuple(factors)

    @property
    def zero(self):
        return tuple(f.zero for f in self.factors)

    def oplus(self, x, y):
        return tuple(f.oplus(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def leq(self, x, y):
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def inf(self, x, y):
        return tuple(f.inf(a, b) for f, a, b in zip(self.factors, x, y))

    def sup(self, x, y):
        return tuple(f.sup(a, b) for f, a, b in zip(self.factors, x, y))

    def enumerate(self, bound):
        return [
            tuple(t)
            for t in itertools.product(*(f.enumerate(bound) for f in self.factors))
        ]

    def window_size(self, bound):
        size = 1
        for f in self.factors:
            size *= f.window_size(bound)
        return size

    def carrier(self):
        parts = [f.carrier() for f in self.factors]
        if any(p is None for p in parts):
            return None
        return [tuple(t) for t in itertools.product(*parts)]

    def validate(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise CarrierMismatchError(
                f"{x!r} does not have arity {len(self.factors)}"
            )
        for f, a in zip(self.factors, x):
            f.validate(a)

    def descriptor(self):
        return "Prod(" + ",".join(f.descriptor() for f in self.factors) + ")"

    def format_element(self, x):
        return "(" + ",".join(f.format_element(a) for f, a in zip(self.factors, x)) + ")"


class PointedAlgebra(MvAlgebra):
    """An algebra with a distinguished element, used as a model of the
    pointed theories.  Delegates every operation."""

    carrier_kind = "pointed"

    def __init__(self, algebra: MvAlgebra, point):
        algebra.validate(point)
        self.algebra = algebra
        self.unit = point

    @property
    def zero(self):
        return self.algebra.zero

    def oplus(self, x, y):
        return self.algebra.oplus(x, y)

    def neg(self, x):
        return self.algebra.neg(x)

    def odot(self, x, y):
        return self.algebra.odot(x, y)

    def ominus(self, x, y):
        return self.algebra.ominus(x, y)

    def sup(self, x, y):
        return self.algebra.sup(x, y)

    def inf(self, x, y):
        return self.algebra.inf(x, y)

    def leq(self, x, y):
        return self.algebra.leq(x, y)

    def d(self, x, y):
        return self.algebra.d(x, y)

    def enumerate(self, bound):
        return self.algebra.enumerate(bound)

    def window_size(self, bound):
        return self.algebra.window_size(bound)

    def carrier(self):
        return self.algebra.carrier()

    def validate(self, x):
        self.algebra.validate(x)

    def descriptor(self):
        return (f"Pointed({self.algebra.descriptor()},"
                f"{self.algebra.format_element(self.unit)})")

    def format_element(self, x):
        return self.algebra.format_element(x)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def derived_ops(A: MvAlgebra, x, y) -> dict:
    """Evaluate every derived operation at a pair, after validating that
    both arguments belong to the carrier."""
    A.validate(x)
    A.validate(y)
    return {
        "odot": A.odot(x, y),
        "sup": A.sup(x, y),
        "inf": A.inf(x, y),
        "leq": A.leq(x, y),
        "one": A.one,
        "d": A.d(x, y),
    }


def _repeat(op, identity, x, n: int):
    """n copies of ``x`` combined by ``op`` from ``identity``, by the binary
    method (Knuth, TAOCP vol. 2, section 4.6.3): ``x`` is doubled once per
    bit of ``n`` after the lowest and folded into the accumulator on each
    set bit, so ``op`` runs at most 2 * n.bit_length() times.  The
    accumulator is always the left operand.  ``op`` may raise to stop
    early (the vector engine's kernels do at ``kernels.LIMIT``)."""
    acc = identity
    while n:
        if n & 1:
            acc = op(acc, x)
        n >>= 1
        if n:
            x = op(x, x)
    return acc


def _repeated(A, op: str):
    """The operation that ``op`` ("nat_scalar" for n*x, "mv_power" for
    x^n) repeats on ``A``, by name, and the unit it starts from."""
    if op == "mv_power":
        return "odot", A.one
    return ("oplus" if A.signature == "mv" else "add"), A.zero


def nat_scalar(A, n: int, x):
    """nx = x oplus ... oplus x in an MV-algebra, x + ... + x in a group
    or monoid, with 0x = 0.

    Computed by ``_repeat`` in at most 2 * n.bit_length() operations.
    This is the left fold 0 + x + ... + x because oplus and + are
    associative with unit 0 (MV.1-MV.3, L.1-L.3, M.1-M.3; Cignoli,
    D'Ottaviano & Mundici 2000, ch. 1): every bracketing of n copies of
    x gives the same element.  On a carrier whose operation is not
    associative (a test double) the value is the doubling's bracketing,
    which may differ from the fold; the engines still agree, because the
    vector engine computes such a carrier's n*x with this function.
    """
    if n < 0:
        raise ValueError("scalar must be a natural number")
    name, unit = _repeated(A, "nat_scalar")
    return _repeat(getattr(A, name), unit, x, n)


def mv_power(A: MvAlgebra, x, n: int):
    """x^n = x odot ... odot x, with x^0 = 1.

    Computed by ``_repeat`` in at most 2 * n.bit_length() operations;
    this is the left fold because odot is associative with unit 1 (the
    dual of oplus), and on a non-associative test double it is the
    doubling's bracketing, as in ``nat_scalar``.
    """
    if n < 0:
        raise ValueError("exponent must be a natural number")
    name, unit = _repeated(A, "mv_power")
    return _repeat(getattr(A, name), unit, x, n)


def order_of(A: MvAlgebra, x, bound: int):
    """The least n <= bound with nx = 1, else NoneUpTo(bound)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    one = A.one
    acc = A.zero
    for n in range(1, bound + 1):
        acc = A.oplus(acc, x)
        if acc == one:
            return Finite(n)
    return NoneUpTo(bound)


def radical_membership(A: MvAlgebra, x) -> bool:
    """x <= neg x.  Characterizes the radical in any Chang-variety
    algebra."""
    return A.leq(x, A.neg(x))


def coradical_membership(A: MvAlgebra, x) -> bool:
    """neg x <= x."""
    return A.leq(A.neg(x), x)


def is_boolean(A: MvAlgebra, x) -> bool:
    """Idempotence: x oplus x = x."""
    return A.oplus(x, x) == x


def boolean_skeleton_generators(A: MvAlgebra, gens: Iterable) -> list:
    """The images (2x)^2 of the generators, which generate the Boolean
    skeleton of a finitely generated Chang-variety algebra."""
    return [mv_power(A, nat_scalar(A, 2, g), 2) for g in gens]


# ---------------------------------------------------------------------------
# The radical monoid
# ---------------------------------------------------------------------------


class RadicalMonoid(LMonoid):
    """The radical {x | x <= neg x} of a Chang-variety algebra, as a
    cancellative lattice-ordered abelian monoid under oplus.

    Subtractivity is witnessed inside the carrier: for x <= y the unique
    z with x oplus z = y is y ominus x = y odot (neg x), which carriers
    with a direct ``ominus`` (Gamma, Sigma) compute in their group.
    """

    def __init__(self, algebra: MvAlgebra):
        self.algebra = algebra

    @property
    def zero(self):
        return self.algebra.zero

    def add(self, x, y):
        return self.algebra.oplus(x, y)

    def leq(self, x, y):
        return self.algebra.leq(x, y)

    def inf(self, x, y):
        return self.algebra.inf(x, y)

    def sup(self, x, y):
        return self.algebra.sup(x, y)

    def subtract(self, x, y):
        if not self.algebra.leq(y, x):
            raise CarrierMismatchError("subtraction needs y <= x in the radical")
        return self.algebra.ominus(x, y)

    def enumerate(self, bound):
        return [
            x for x in self.algebra.enumerate(bound)
            if radical_membership(self.algebra, x)
        ]

    def validate(self, x):
        self.algebra.validate(x)
        if not radical_membership(self.algebra, x):
            raise CarrierMismatchError(
                f"{self.algebra.format_element(x)} is not a radical element"
            )

    def descriptor(self):
        return f"Rad({self.algebra.descriptor()})"

    def format_element(self, x):
        return self.algebra.format_element(x)
