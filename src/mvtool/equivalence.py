"""The functors between perfect MV-algebras and lattice-ordered abelian
groups, their pointed variants, and the pair representation of groups
inside perfect algebras.

Sigma sends a group G to the unit interval of Z x_lex G at (1, 0); Delta
sends a perfect algebra to the Grothendieck group of its radical.  The
natural isomorphisms phi (on groups) and beta (on algebras) witness that
the two are inverse to each other, exactly, on bounded windows.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence, Tuple

from .errors import CarrierMismatchError, NotPerfectError, PreconditionError
from .homomorphism import _CODOMAIN_KINDS, isomorphism_failures
from .lgroup_core import (
    CanonPair,
    GrothendieckGroup,
    LexPair,
    LGroup,
    LMonoid,
    canon_pair,
    grothendieck_group,
    neg_part,
    pos_part,
    positive_cone,
)
from .mv_core import (
    GammaAlgebra,
    MvAlgebra,
    RadicalMonoid,
    SigmaAlgebra,
    nat_scalar,
    radical_membership,
)
from .registry import not_perfect_message, perfectness_failure
from .verdicts import CounterExample, Holds, Verdict

SigmaElem = LexPair  # Rad(g) is (0, g) with g >= 0; Corad(g) is (1, g) with g <= 0.


# ---------------------------------------------------------------------------
# The functors
# ---------------------------------------------------------------------------


def _require_perfect(A: MvAlgebra, bound: int) -> None:
    """Raise ``NotPerfectError`` unless P.1-P.4 hold on
    ``A.enumerate(bound)``; carriers perfect by construction pass
    without the check."""
    v = perfectness_failure(A, bound)
    if v is not None:
        raise NotPerfectError(not_perfect_message(A, bound, v), counterexample=v)


def sigma(G: LGroup) -> SigmaAlgebra:
    """The perfect MV-algebra Gamma(Z x_lex G, (1, 0))."""
    return SigmaAlgebra(G)


def gamma(G: LGroup, u) -> GammaAlgebra:
    """The unit interval [0, u] with truncated addition."""
    return GammaAlgebra(G, u)


def delta(A: MvAlgebra, check_bound: int = 4) -> GrothendieckGroup:
    """The Grothendieck group of the radical monoid of a perfect algebra.

    Perfectness is verified on ``enumerate(check_bound)`` first; a
    counterexample aborts the construction.
    """
    _require_perfect(A, check_bound)
    return grothendieck_group(RadicalMonoid(A))


def phi_G(G: LGroup, g) -> CanonPair:
    """The group-side natural isomorphism G -> Delta(Sigma(G)):
    g maps to [(0, g+), (0, g+ - g)].  The image pair is canonical
    because inf(g+, g+ - g) = g+ - sup(0, g) = 0."""
    G.validate(g)
    p = pos_part(G, g)
    return CanonPair(LexPair(0, p), LexPair(0, G.sub(p, g)))


def phi_G_inverse(G: LGroup, pair: CanonPair):
    """Inverse of phi: [(0, g1), (0, g2)] maps to g1 - g2."""
    u, v = pair.u, pair.v
    if not (isinstance(u, LexPair) and isinstance(v, LexPair)
            and u.head == 0 and v.head == 0):
        raise CarrierMismatchError(f"{pair!r} is not a radical pair over Sigma")
    return G.sub(u.tail, v.tail)


def beta_A(A: MvAlgebra, x) -> SigmaElem:
    """The algebra-side natural isomorphism A -> Sigma(Delta(A)).

    Radical x maps to (0, [x, 0]); coradical x maps to (1, -[neg x, 0])
    = (1, [0, neg x]).  Elements in neither part witness that A is not
    perfect.
    """
    A.validate(x)
    nx = A.neg(x)
    if A.leq(x, nx):
        return LexPair(0, CanonPair(x, A.zero))
    if A.leq(nx, x):
        return LexPair(1, CanonPair(A.zero, nx))
    raise NotPerfectError(
        f"{A.format_element(x)} is neither radical nor coradical",
        counterexample=x,
    )


def beta_A_inverse(A: MvAlgebra, s: SigmaElem):
    """Inverse of beta: (0, [x, 0]) maps to x and (1, [0, y]) to neg y."""
    if not isinstance(s, LexPair) or not isinstance(s.tail, CanonPair):
        raise CarrierMismatchError(f"{s!r} is not an element of Sigma(Delta(A))")
    if s.head == 0 and s.tail.v == A.zero:
        return s.tail.u
    if s.head == 1 and s.tail.u == A.zero:
        return A.neg(s.tail.v)
    raise CarrierMismatchError(f"{s!r} is not in the image of beta")


class RadPairGroup(GrothendieckGroup):
    """Group structure on radical pairs (u, v) with inf(u, v) = 0: the
    Grothendieck group of the radical monoid, except for the lattice
    operations.

    These use the positive/negative-part identities
    inf(x, y)+ = inf(x+, y+), inf(x, y)- = sup(x-, y-) (and dually for
    sup), which is an independent route from the Grothendieck-group
    formulas; agreement of the two is a tested invariant.  Perfectness
    is verified on ``enumerate(4)`` first, as ``delta`` does by default.
    """

    def __init__(self, algebra: MvAlgebra):
        _require_perfect(algebra, 4)
        super().__init__(RadicalMonoid(algebra))
        self.algebra = algebra

    def inf(self, x, y):
        m = self.monoid
        return CanonPair(m.inf(x.u, y.u), m.sup(x.v, y.v))

    def sup(self, x, y):
        m = self.monoid
        return CanonPair(m.sup(x.u, y.u), m.inf(x.v, y.v))

    def descriptor(self):
        return f"RadPairs({self.algebra.descriptor()})"

    def format_element(self, x):
        f = self.algebra.format_element
        return f"[{f(x.u)},{f(x.v)}]"


def pair_group_ops(A: MvAlgebra) -> RadPairGroup:
    """The interpretation of the group theory on radical pairs of a
    perfect algebra."""
    return RadPairGroup(A)


# ---------------------------------------------------------------------------
# Pointed / unital variants
# ---------------------------------------------------------------------------


def _first_beyond_multiples(M, t, candidates, bound: int):
    """The first candidate x with no n <= cap such that x <= n*t, and
    the cap, 2 * bound + 2; ``None`` for x when every candidate has one.

    One comparison per candidate suffices because n*t grows with n: in
    an MV-algebra n*t = t oplus ... oplus t for every t, and in a group
    for t >= 0, which the callers establish first.  So some n <= cap
    works iff x <= cap*t.
    """
    cap = 2 * bound + 2
    top = nat_scalar(M, cap, t)
    for x in candidates:
        if not M.leq(x, top):
            return x, cap
    return None, cap


def strong_unit_check(G: LGroup, u, bound: int) -> Verdict:
    """Check that ``u`` behaves as a strong unit on the bounded window.

    The first axiom (u >= 0) is exact.  The archimedean-style axiom (every
    positive x lies below some nu) is an infinitary disjunction; n is
    searched up to a cap derived from the bound, and a counterexample
    carries the bounded-search caveat since a larger witness could exist
    off-window.
    """
    G.validate(u)
    z = G.zero
    if not G.leq(z, u):
        return CounterExample(u, axiom="Lu.1")
    x, cap = _first_beyond_multiples(
        G, u, (x for x in G.enumerate(bound) if G.leq(z, x)), bound)
    if x is None:
        return Holds()
    return CounterExample(
        x,
        axiom="Lu.2",
        note=f"no n <= {cap} with x <= nu; inconclusive-at-bound caveat applies",
    )


def sigma_star(G: LGroup, u, bound: int = 4) -> Tuple[SigmaAlgebra, SigmaElem]:
    """(Sigma(G), (0, u)): the pointed perfect algebra of a unital group.

    The unit axioms are verified on the bounded window first.
    """
    verdict = strong_unit_check(G, u, bound)
    if not verdict.ok:
        raise PreconditionError(
            f"{G.format_element(u)} fails the strong-unit axioms at bound {bound}",
            report=verdict,
        )
    alg = sigma(G)
    return alg, alg.rad(u)


def delta_star(A: MvAlgebra, a, bound: int = 4) -> Tuple[GrothendieckGroup, CanonPair]:
    """(Delta(A), [a, 0]): the unital group of a pointed perfect algebra.

    Requires a <= neg a, and that every radical element on the window
    lies below some na (searched up to the cap of
    ``_first_beyond_multiples``).
    """
    A.validate(a)
    if not radical_membership(A, a):
        raise PreconditionError(
            f"{A.format_element(a)} is not a radical element",
            report=CounterExample(a, axiom="Pstar.1"),
        )
    x, cap = _first_beyond_multiples(
        A, a, (x for x in A.enumerate(bound) if radical_membership(A, x)), bound)
    if x is not None:
        raise PreconditionError(
            f"{A.format_element(x)} exceeds every multiple of the point "
            f"up to {cap}",
            report=CounterExample(x, axiom="Pstar.2",
                                  note=f"search capped at n <= {cap}"),
        )
    group = delta(A, check_bound=bound)
    return group, CanonPair(a, A.zero)


# ---------------------------------------------------------------------------
# Round-trip verification
# ---------------------------------------------------------------------------


def _roundtrip_report(direction: str, src, target, forward: Callable,
                      inverse: Callable, unary_ops: Sequence[str],
                      binary_ops: Sequence[str], bound: int) -> dict:
    """Verify that ``forward`` is a bijective homomorphism from the window
    of ``src`` onto the window of ``target`` with inverse ``inverse``.

    Each operation name is a method of both carriers: a unary ``op``
    must satisfy forward(src.op(x)) = target.op(forward(x)) on the
    window, and a binary one the same on every pair.  Returns counts and
    the failures of ``homomorphism.isomorphism_failures`` (empty on
    success), each element formatted by its carrier.
    """
    window = src.enumerate(bound)
    fmt = src.format_element
    failures = []
    for kind, elements in isomorphism_failures(
            src, target, window, target.enumerate(bound), forward, inverse,
            unary_ops, binary_ops):
        f = target.format_element if kind in _CODOMAIN_KINDS else fmt
        if len(elements) == 1:
            failures.append({"kind": kind, "element": f(elements[0])})
        else:
            failures.append({"kind": kind, "elements": [f(e) for e in elements]})
    return {"direction": direction, "model": src.descriptor(), "bound": bound,
            "checked_pairs": len(window) ** 2, "failures": failures}


_GROUP_OPS = ("add", "inf", "sup")


def phi_roundtrip_report(G: LGroup, bound: int) -> dict:
    """Verify that phi_G is a bijective homomorphism of groups with
    lattice structure between the windows of G and Delta(Sigma(G)), and
    that its inverse undoes it."""
    return _roundtrip_report("group", G, delta(sigma(G)), partial(phi_G, G),
                             partial(phi_G_inverse, G), ("negate",),
                             _GROUP_OPS, bound)


def beta_roundtrip_report(A: MvAlgebra, bound: int) -> dict:
    """Verify that beta_A is a bijective MV-homomorphism between the
    windows of A and Sigma(Delta(A))."""
    return _roundtrip_report("algebra", A, sigma(delta(A)), partial(beta_A, A),
                             partial(beta_A_inverse, A), ("neg",), ("oplus",),
                             bound)


def chi_roundtrip_report(G: LGroup, bound: int) -> dict:
    """Verify chi_G: g -> [g+, g-] as an isomorphism onto the
    Grothendieck group of the positive cone."""

    def chi(g):
        return CanonPair(pos_part(G, g), neg_part(G, g))

    return _roundtrip_report("group-to-pairs", G,
                             grothendieck_group(positive_cone(G)), chi,
                             lambda p: G.sub(p.u, p.v), ("negate",),
                             _GROUP_OPS, bound)


def phi_M_roundtrip_report(M: LMonoid, bound: int) -> dict:
    """Verify phi_M: x -> [x, 0] as an isomorphism onto the positive
    cone of the Grothendieck group."""
    return _roundtrip_report("monoid-to-cone", M,
                             positive_cone(grothendieck_group(M)),
                             lambda x: CanonPair(x, M.zero), lambda p: p.u,
                             (), _GROUP_OPS, bound)


# ---------------------------------------------------------------------------
# Homomorphism mapping
# ---------------------------------------------------------------------------


def sigma_map(h: Callable) -> Callable:
    """Sigma on arrows: (a, g) maps to (a, h(g))."""

    def mapped(x: SigmaElem) -> SigmaElem:
        return LexPair(x.head, h(x.tail))

    return mapped


def delta_map(target: MvAlgebra, h: Callable) -> Callable:
    """Delta on arrows: [x, y] maps to [h(x), h(y)], re-canonicalized in
    the radical monoid of the target algebra."""
    monoid = RadicalMonoid(target)

    def mapped(p: CanonPair) -> CanonPair:
        return canon_pair(monoid, h(p.u), h(p.v))

    return mapped
