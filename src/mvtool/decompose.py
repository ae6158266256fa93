"""Boolean elements and the direct-product decomposition of finitely
generated Chang-variety algebras into perfect factors.

Quotients by a Boolean element are computed structurally on product
carriers (projection onto the factors where the element vanishes) and by
explicit congruence classes on finite carriers; general principal-ideal
quotients of infinite algebras are out of scope.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence, Tuple

from .errors import DecompositionError, MvToolError
from .homomorphism import homomorphism_failures, map_once
from .mv_core import (
    FiniteChainAlgebra,
    MvAlgebra,
    ProductAlgebra,
    boolean_skeleton_generators,
    is_boolean,
)
from .registry import (
    PERFECT_AXIOMS,
    _check_axioms,
    _perfect_by_construction,
    not_perfect_message,
)
from .sequents import _Node
from .verdicts import CounterExample, Holds, Verdict


class AtomDecomposition(_Node):
    """A direct-product presentation of an algebra: pairwise disjoint
    Boolean atoms with sup 1, the perfect factors they cut out, and the
    two mutually inverse isomorphisms."""

    atoms: List
    factors: List[MvAlgebra]
    iso_forward: Callable
    iso_backward: Callable
    projections: Sequence[Callable] = ()
    embeddings: Sequence[Callable] = ()


class FiniteQuotientAlgebra(MvAlgebra):
    """Quotient of a finite carrier by the congruence of a principal
    ideal of a Boolean element: x ~ y iff d(x, y) <= a.  Elements are
    canonical class representatives (first in carrier order)."""

    carrier_kind = "finite_quotient"

    def __init__(self, base: MvAlgebra, a):
        carrier = base.carrier()
        if carrier is None:
            raise MvToolError(
                f"{base.descriptor()} has no finite carrier to quotient"
            )
        self.base = base
        self.ideal_generator = a
        rep_of = {}
        reps = []
        for x in carrier:
            if x in rep_of:
                continue
            cls = [y for y in carrier if base.leq(base.d(x, y), a)]
            for y in cls:
                rep_of[y] = x
            reps.append(x)
        self._rep_of = rep_of
        self._reps = reps

    def project(self, x):
        return self._rep_of[x]

    @property
    def zero(self):
        return self._rep_of[self.base.zero]

    def oplus(self, x, y):
        return self._rep_of[self.base.oplus(x, y)]

    def neg(self, x):
        return self._rep_of[self.base.neg(x)]

    def enumerate(self, bound):
        return list(self._reps)

    def window_size(self, bound):
        return len(self._reps)

    def carrier(self):
        return list(self._reps)

    def validate(self, x):
        if self._rep_of.get(x) != x:
            raise MvToolError(f"{x!r} is not a canonical class representative")

    def descriptor(self):
        return (f"{self.base.descriptor()}/"
                f"({self.base.format_element(self.ideal_generator)})")

    def format_element(self, x):
        return self.base.format_element(x)


def _identity(x):
    return x


def _quotient_with_map(A: MvAlgebra, a) -> Tuple[MvAlgebra, Callable, Callable]:
    """The quotient A/(a) for a Boolean ``a``, the canonical projection,
    and its right inverse, the embedding into the downset of neg a."""
    if a == A.zero:
        return A, _identity, _identity
    if a == A.one:
        return FiniteChainAlgebra(0), lambda x: 0, lambda z: A.zero
    if isinstance(A, ProductAlgebra):
        # Project onto the components the ideal does not collapse, and
        # embed with zeros in the collapsed ones.
        kept = [(i,) + _quotient_with_map(factor, comp)
                for i, (factor, comp) in enumerate(zip(A.factors, a))
                if comp != factor.one]
        zero = A.zero
        if not kept:
            return FiniteChainAlgebra(0), lambda x: 0, lambda z: zero

        def embed(values):
            out = list(zero)
            for (i, _, _, e), v in zip(kept, values):
                out[i] = e(v)
            return tuple(out)

        if len(kept) == 1:
            i, alg, proj, _ = kept[0]
            return alg, lambda x: proj(x[i]), lambda z: embed((z,))
        return (ProductAlgebra([alg for _, alg, _, _ in kept]),
                lambda x: tuple(p(x[i]) for i, _, p, _ in kept), embed)
    if A.carrier() is not None:
        q = FiniteQuotientAlgebra(A, a)
        atom = A.neg(a)
        return q, q.project, lambda r: A.inf(r, atom)
    raise MvToolError(
        f"cannot quotient {A.descriptor()}: carrier is infinite and not a product"
    )


def quotient_by_boolean(A: MvAlgebra, a) -> MvAlgebra:
    """A/(a) for a Boolean element a.  The kernel is the principal ideal
    (a) = {x | x <= a}, and A is isomorphic to A/(a) x A/(neg a)."""
    A.validate(a)
    if not is_boolean(A, a):
        raise MvToolError(
            f"{A.format_element(a)} is not Boolean in {A.descriptor()}"
        )
    return _quotient_with_map(A, a)[0]


def atoms_from_generators(A: MvAlgebra, gens) -> list:
    """The nonzero meets of the Boolean images (2x_i)^2 of the
    generators and their complements: pairwise disjoint Booleans whose
    sup is 1."""
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    bs = boolean_skeleton_generators(A, gens)
    atoms = []
    seen = set()
    for choice in itertools.product((False, True), repeat=len(bs)):
        meet = A.one
        for b, complement in zip(bs, choice):
            meet = A.inf(meet, A.neg(b) if complement else b)
        if meet == A.zero or meet in seen:
            continue
        seen.add(meet)
        atoms.append(meet)
    _assert_atom_family(A, atoms)
    return atoms


def _assert_atom_family(A: MvAlgebra, atoms) -> None:
    for x in atoms:
        if not is_boolean(A, x):
            raise DecompositionError(
                f"atom {A.format_element(x)} is not Boolean (is the carrier "
                f"in the Chang variety?)"
            )
    for i, x in enumerate(atoms):
        for y in atoms[i + 1:]:
            if A.inf(x, y) != A.zero:
                raise DecompositionError(
                    f"atoms {A.format_element(x)} and {A.format_element(y)} "
                    f"are not disjoint"
                )
    total = A.zero
    for x in atoms:
        total = A.sup(total, x)
    if total != A.one:
        raise DecompositionError("atoms do not cover 1")


def decompose_product(A: MvAlgebra, gens, bound: int = 8) -> AtomDecomposition:
    """Decompose a finitely generated Chang-variety algebra into perfect
    factors along the atoms of its Boolean skeleton.

    Factor i is A/(neg a_i); the forward isomorphism sends x to the
    tuple of its projections (equivalently the meets x inf a_i), and the
    backward map is the sup of the embedded components.  Every factor
    must pass the perfectness check at ``bound``, unless it is perfect
    by construction (``registry._perfect_by_construction``); a failure
    indicates the generators do not generate, or the algebra is outside
    the Chang variety.
    """
    atoms = atoms_from_generators(A, gens)
    factors: List[MvAlgebra] = []
    projections: List[Callable] = []
    embeddings: List[Callable] = []
    for a in atoms:
        factor, proj, embed = _quotient_with_map(A, A.neg(a))
        factors.append(factor)
        projections.append(proj)
        embeddings.append(embed)

    for i, factor in enumerate(factors):
        if _perfect_by_construction(factor):
            continue
        v = _check_axioms(factor, PERFECT_AXIOMS, bound)
        if not v.ok:
            raise DecompositionError(
                f"factor {i} = {not_perfect_message(factor, bound, v)}",
                factor_index=i,
                counterexample=v,
            )

    def forward(x):
        return tuple(p(x) for p in projections)

    def backward(components):
        acc = A.zero
        for emb, z in zip(embeddings, components):
            acc = A.sup(acc, emb(z))
        return acc

    return AtomDecomposition(atoms, factors, forward, backward,
                             projections, embeddings)


def is_perfect_element(A: MvAlgebra, a, bound: int) -> bool:
    """A Boolean a whose complement-quotient is perfect: for every
    enumerated x with x inf neg x inf a = 0, exactly one of x inf a = 0
    and a <= x holds."""
    if not is_boolean(A, a):
        return False
    zero = A.zero
    for x in A.enumerate(bound):
        if A.inf(A.inf(x, A.neg(x)), a) != zero:
            continue
        below = A.inf(x, a) == zero
        above = A.leq(a, x)
        if below == above:
            return False
    return True


def weak_subdirect_check(A: MvAlgebra, projections, bound: int) -> Verdict:
    """Joint injectivity of a family of homomorphisms on the bounded
    window."""
    _, collisions = map_once(A.enumerate(bound),
                             lambda x: tuple(p(x) for p in projections))
    if collisions:
        return CounterExample(collisions[0])
    return Holds()


# The note of product_reconstruction_check's counterexample for each kind
# of homomorphism failure.
_RECONSTRUCTION_NOTES = {
    "inverse": "round trip failed",
    "neg": "forward map does not preserve neg",
    "oplus": "forward map does not preserve oplus",
}


def product_reconstruction_check(A: MvAlgebra, d: AtomDecomposition,
                                 bound: int) -> Verdict:
    """Round trip and homomorphism property of a decomposition: atoms
    cover 1, backward(forward(b)) = b for every enumerated b, and the
    forward map into the product of the factors preserves neg and oplus.
    The counterexample is the first failure in ``homomorphism_failures``
    order: an element (round trip, then neg), then a pair."""
    total = A.zero
    for a in d.atoms:
        total = A.sup(total, a)
    if total != A.one:
        return CounterExample(total, note="sup of atoms is not 1")

    window = A.enumerate(bound)
    image = [d.iso_forward(b) for b in window]
    failures = homomorphism_failures(A, ProductAlgebra(d.factors), window, image,
                                     d.iso_forward, d.iso_backward,
                                     ("neg",), ("oplus",))
    if not failures:
        return Holds()
    kind, elements = failures[0]
    env = elements[0] if len(elements) == 1 else elements
    return CounterExample(env, note=_RECONSTRUCTION_NOTES[kind])


def pushout_pullback_check(A: MvAlgebra, a, bound: int) -> Verdict:
    """Boolean specialization of the pushout-pullback square: the map
    x -> (x mod (a), x mod (neg a)) is a bijection from the window onto
    the product of the two quotient windows."""
    A.validate(a)
    if not is_boolean(A, a):
        raise MvToolError(f"{A.format_element(a)} is not Boolean")
    q1, p1, _ = _quotient_with_map(A, a)
    q2, p2, _ = _quotient_with_map(A, A.neg(a))
    image, collisions = map_once(A.enumerate(bound), lambda x: (p1(x), p2(x)))
    if collisions:
        return CounterExample(collisions[0], note="not injective")
    seen = set(image.values())
    expected = {
        (y1, y2)
        for y1 in q1.enumerate(bound)
        for y2 in q2.enumerate(bound)
    }
    if seen != expected:
        missing = expected - seen
        extra = seen - expected
        return CounterExample(
            (sorted_repr(missing), sorted_repr(extra)),
            note="image does not match the product of the quotients",
        )
    return Holds()


def sorted_repr(values) -> list:
    return sorted(values, key=repr)
