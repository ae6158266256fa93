"""Group/monoid carriers, canonical pairs, the Grothendieck group."""

import itertools
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mvtool as mv
from helpers import ConeOfZ, canon_pair_ops, grothendieck_walk
from mvtool.descriptors import parse_group_element
from mvtool.kernels import groth_window
from mvtool.lgroup_core import CanonPair, LexPair

Z = mv.ZGroup()
Z2 = mv.ZnGroup(2)
LexZZ = mv.LexGroup(mv.ZGroup())
N = mv.NMonoid()
N2 = mv.NnMonoid(2)
# The radicals of C and Sigma(Z^2): cones of Z and Z^2 behind the
# algebras' elements, whose Grothendieck groups are Delta(C) and
# Delta(Sigma(Z^2)).
RAD_C = mv.RadicalMonoid(mv.ChangAlgebra())
RAD_SZ2 = mv.RadicalMonoid(mv.parse_model("Sigma(Z^2)"))


def test_positive_parts_examples():
    assert mv.pos_part(Z, -3) == 0
    assert mv.neg_part(Z, -3) == 3
    assert mv.abs_val(Z2, (2, -5)) == (2, 5)
    assert mv.neg_part(LexZZ, LexPair(-1, 7)) == LexPair(1, -7)


def test_positive_decomposition_invariant():
    for G in (Z, Z2, LexZZ):
        for g in G.enumerate(4):
            p, n = mv.pos_part(G, g), mv.neg_part(G, g)
            assert G.sub(p, n) == g
            assert G.inf(p, n) == G.zero


def test_lex_order_cases():
    assert LexZZ.leq(LexPair(0, 5), LexPair(1, -100))
    assert not LexZZ.leq(LexPair(1, -100), LexPair(0, 5))
    assert LexZZ.leq(LexPair(2, 3), LexPair(2, 4))
    assert LexZZ.inf(LexPair(0, 2), LexPair(0, 7)) == LexPair(0, 2)
    assert LexZZ.sup(LexPair(1, -1), LexPair(0, 9)) == LexPair(1, -1)


def test_positive_cone():
    cone = mv.positive_cone(Z)
    assert cone.enumerate(3) == [0, 1, 2, 3]
    assert cone.zero == Z.zero
    cone2 = mv.positive_cone(Z2)
    assert set(cone2.enumerate(2)) == {(a, b) for a in range(3) for b in range(3)}
    with pytest.raises(mv.CarrierMismatchError):
        cone.validate(-1)


def test_canon_pair_examples():
    assert mv.canon_pair(N, 5, 3) == CanonPair(2, 0)
    assert mv.canon_pair(N2, (2, 1), (1, 4)) == CanonPair((1, 0), (0, 3))
    assert mv.canon_pair(N, 4, 4) == CanonPair(0, 0)


nat_pairs = st.tuples(st.integers(0, 10 ** 12), st.integers(0, 10 ** 12))


@given(nat_pairs, nat_pairs)
def test_canon_pair_properties(x, y):
    p = mv.canon_pair(N2, x, y)
    # canonical: inf(u, v) = 0
    assert N2.inf(p.u, p.v) == N2.zero
    # same class: x + v = y + u
    assert N2.add(x, p.v) == N2.add(y, p.u)
    # idempotent on canonical input
    assert mv.canon_pair(N2, p.u, p.v) == p


# ---------------------------------------------------------------------------
# Brute-force oracle for the group of pair classes: build the classes by
# cross-sum equality and apply the class formulas directly.
# ---------------------------------------------------------------------------


def class_of(M, pair, universe):
    x, y = pair
    return frozenset(
        (h, k) for h, k in universe if M.add(x, k) == M.add(y, h)
    )


def canonical_member(M, cls):
    reps = [p for p in cls if M.inf(*p) == M.zero]
    assert len(reps) == 1
    return reps[0]


def test_grothendieck_group_matches_class_oracle():
    M = N
    window = M.enumerate(3)
    universe = [(x, y) for x in M.enumerate(6) for y in M.enumerate(6)]
    G = mv.grothendieck_group(M)
    # addition, negation, inf, sup against the class arithmetic
    pairs = [(x, y) for x in window for y in window]
    for (x, y), (h, k) in itertools.product(pairs[:10], pairs[:10]):
        p = mv.canon_pair(M, x, y)
        q = mv.canon_pair(M, h, k)
        # sum class [x+h, y+k]
        expected = canonical_member(M, class_of(M, (x + h, y + k), universe))
        assert (G.add(p, q).u, G.add(p, q).v) == expected
        # negation class [y, x]
        expected = canonical_member(M, class_of(M, (y, x), universe))
        assert (G.negate(p).u, G.negate(p).v) == expected
        # inf class [inf(x+k, y+h), y+k]
        expected = canonical_member(
            M, class_of(M, (min(x + k, y + h), y + k), universe))
        assert (G.inf(p, q).u, G.inf(p, q).v) == expected
        expected = canonical_member(
            M, class_of(M, (max(x + k, y + h), y + k), universe))
        assert (G.sup(p, q).u, G.sup(p, q).v) == expected


def test_grothendieck_examples():
    G = mv.grothendieck_group(N)
    assert G.add(CanonPair(2, 0), CanonPair(0, 5)) == CanonPair(0, 3)
    assert G.negate(CanonPair(1, 4)) == CanonPair(4, 1)
    assert G.inf(CanonPair(1, 0), CanonPair(0, 1)) == CanonPair(0, 1)
    assert G.zero == CanonPair(0, 0)
    assert G.leq(CanonPair(0, 2), CanonPair(3, 0))


def test_grothendieck_of_n_is_z():
    G = mv.grothendieck_group(N)

    def to_int(p):
        return p.u - p.v

    window = G.enumerate(4)
    assert sorted(to_int(p) for p in window) == list(range(-4, 5))
    for p, q in itertools.product(window, repeat=2):
        assert to_int(G.add(p, q)) == to_int(p) + to_int(q)
        assert to_int(G.inf(p, q)) == min(to_int(p), to_int(q))
        assert G.leq(p, q) == (to_int(p) <= to_int(q))


def test_group_axioms_hold_in_grothendieck_groups():
    for M in (N, N2):
        G = mv.grothendieck_group(M)
        elems = G.enumerate(2)
        for x in elems:
            assert G.add(x, G.zero) == x
            assert G.add(x, G.negate(x)) == G.zero
        for x, y in itertools.product(elems, repeat=2):
            assert G.add(x, y) == G.add(y, x)
            i, s = G.inf(x, y), G.sup(x, y)
            assert G.leq(i, x) and G.leq(i, y)
            assert G.leq(x, s) and G.leq(y, s)
        for x, y, z in itertools.product(elems[:6], repeat=3):
            assert G.add(x, G.add(y, z)) == G.add(G.add(x, y), z)
            if G.leq(x, y):
                assert G.leq(G.add(z, x), G.add(z, y))


# The Grothendieck order is computed by cross-sums; the lattice route
# inf(p, q) == p of the class formulas is the reference.
GROTHENDIECK_CARRIERS = [
    mv.parse_model(d) for d in ("Groth(N)", "Groth(N^2)",
                                "Groth(PosCone(Z^2))",
                                "Groth(PosCone(Lex(Z,Z)))")
] + [mv.delta(mv.ChangAlgebra()), mv.delta(mv.sigma(Z2)),
     mv.pair_group_ops(mv.ChangAlgebra())]


@pytest.mark.parametrize("G", GROTHENDIECK_CARRIERS, ids=lambda G: G.descriptor())
@given(data=st.data())
def test_grothendieck_order_equals_the_inf_route(G, data):
    window = G.enumerate(data.draw(st.integers(1, 3), label="bound"))
    x = data.draw(st.sampled_from(window), label="x")
    y = data.draw(st.sampled_from(window), label="y")
    # Random pairs are mostly incomparable; the last two are comparable.
    for p, q in ((x, y), (x, G.sup(x, y)), (G.inf(x, y), y)):
        assert G.leq(p, q) == (mv.GrothendieckGroup.inf(G, p, q) == p)


def test_monoid_axioms():
    assert mv.check_monoid_axioms(N2, 3).ok
    assert mv.check_monoid_axioms(mv.positive_cone(LexZZ), 3).ok
    assert mv.check_monoid_axioms(mv.positive_cone(Z2), 3).ok

    class BrokenInf(ConeOfZ):
        def inf(self, x, y):
            return 0

    v = mv.check_monoid_axioms(BrokenInf(), 2)
    assert v.axiom == "M.4" and v.env == 1  # 1 <= 1 fails: inf(1, 1) = 0

    class LeftAdd(ConeOfZ):
        def add(self, x, y):
            return x

    # M.1 and M.2 hold for x + y = x; M.3 fails, with a tuple env.
    v = mv.check_monoid_axioms(LeftAdd(), 2)
    assert v.axiom == "M.3" and v.env == (0, 1)

    class FarWindow(ConeOfZ):
        def enumerate(self, bound):
            return super().enumerate(bound) + [10 * bound]

    # 0 <= 20 at bound 2, but the witness 20 is outside enumerate(4): the
    # search is capped, so the verdict cannot be a counterexample.
    v = mv.check_monoid_axioms(FarWindow(), 2)
    assert isinstance(v, mv.InconclusiveAtBound) and v.bound == 2


def test_strong_unit_examples():
    assert mv.strong_unit_check(Z, 1, 10).ok
    assert mv.strong_unit_check(LexZZ, LexPair(1, 0), 5).ok
    v = mv.strong_unit_check(Z2, (1, 0), 3)
    assert not v.ok
    assert v.env == (0, 1)
    assert "inconclusive-at-bound" in v.note
    # a negative unit fails the first axiom outright
    v = mv.strong_unit_check(Z, -1, 3)
    assert not v.ok and v.axiom == "Lu.1"


def test_strong_unit_check_reads_grothendieck_pairs():
    # Lu.2 is the registry's statement of the same axiom.
    lu2 = mv.lookup("Lu.2")
    for desc, unit in (("Groth(N)", "[1,0]"), ("Groth(N^2)", "[(1,1),(0,0)]")):
        G = mv.parse_model(desc)
        u = parse_group_element(G, unit)
        unital = mv.parse_model(f"Unital({desc},{unit})")
        for bound in (1, 3):
            assert mv.strong_unit_check(G, u, bound).ok, desc
            assert mv.check_sequent(unital, lu2, bound).ok, desc


def test_unital_group_rejects_negative_unit():
    with pytest.raises(mv.InvalidUnitError):
        mv.UnitalGroup(Z2, (1, -1))
    U = mv.UnitalGroup(LexZZ, LexPair(1, 0))
    assert U.unit == LexPair(1, 0)
    assert U.descriptor() == "Unital(Lex(Z,Z),(1,0))"


def test_window_size_matches_enumeration():
    carriers = [Z, Z2, LexZZ, N, N2, mv.positive_cone(Z2),
                mv.grothendieck_group(N), mv.ChangAlgebra(),
                mv.FiniteChainAlgebra(3), mv.sigma(Z2),
                mv.ProductAlgebra([mv.ChangAlgebra(), mv.FiniteChainAlgebra(1)]),
                mv.gamma(Z, 4), mv.gamma(Z2, (2, 1)), mv.sigma(LexZZ),
                mv.gamma(LexZZ, LexPair(2, -1)),
                mv.PointedAlgebra(mv.sigma(Z2), LexPair(0, (1, 1)))]
    for M in carriers:
        for b in (1, 3):
            assert M.window_size(b) == len(M.enumerate(b)), M.descriptor()


def test_grothendieck_window_size_is_the_box_of_differences():
    for M in (N, N2, mv.NnMonoid(3), RAD_C, RAD_SZ2):
        G = mv.grothendieck_group(M)
        for b in range(1, 5):
            assert G.window_size(b) == len(G.enumerate(b)), (M.descriptor(), b)


def test_grothendieck_intervals_are_built_without_enumerating(monkeypatch):
    G = mv.grothendieck_group(N2)

    def refuse(bound):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(G, "enumerate", refuse)
    unit = CanonPair((1, 1), (0, 0))
    assert G.interval(20, G.zero, unit) == [
        CanonPair((0, 0), (0, 0)), CanonPair((0, 1), (0, 0)),
        CanonPair((1, 0), (0, 0)), CanonPair((1, 1), (0, 0))]
    assert G.interval_size(20, G.zero, unit) == 4
    assert G.window_size(20) == 41 ** 2

    G = mv.grothendieck_group(RAD_SZ2)
    monkeypatch.setattr(G, "enumerate", refuse)
    rad = partial(LexPair, 0)
    unit = CanonPair(rad((1, 1)), rad((0, 0)))
    assert G.interval(20, G.zero, unit) == [
        CanonPair(rad(u), rad((0, 0))) for u in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert G.interval_size(20, G.zero, unit) == 4
    assert G.window_size(20) == 41 ** 2


def test_interval_equals_the_window_filter():
    # Open and closed sides, empty intervals (lo > hi), and endpoints
    # beyond the window; the order must match the window's exactly.
    def window_of(G, b):
        if not isinstance(G, mv.GrothendieckGroup):
            return G.enumerate(b)
        return grothendieck_walk(G, b)

    for M in (N, N2, mv.NnMonoid(3), RAD_C, RAD_SZ2):
        G = mv.GrothendieckGroup(M)
        for b in range(5):
            assert G.enumerate(b) == window_of(G, b), (M.descriptor(), b)

    Z3 = mv.ZnGroup(3)
    LexZZ2 = mv.LexGroup(mv.ZnGroup(2))
    endpoints = {
        Z: [-2, 0, 3],
        Z3: [(0, 0, 0), (1, -1, 2), (-2, 0, 1)],
        LexZZ2: [LexPair(0, (0, 0)), LexPair(0, (2, 1)), LexPair(1, (-1, 2)),
                 LexPair(-1, (1, 0)), LexPair(3, (-3, 3))],
        mv.GrothendieckGroup(N): [CanonPair(0, 0), CanonPair(0, 2),
                                  CanonPair(1, 0), CanonPair(4, 0)],
        mv.GrothendieckGroup(N2): [CanonPair((0, 0), (0, 0)),
                                   CanonPair((1, 0), (0, 1)),
                                   CanonPair((0, 0), (2, 1)),
                                   CanonPair((3, 2), (0, 0))],
        mv.GrothendieckGroup(RAD_C): [CanonPair(mv.Fin(0), mv.Fin(0)),
                                      CanonPair(mv.Fin(0), mv.Fin(2)),
                                      CanonPair(mv.Fin(1), mv.Fin(0)),
                                      CanonPair(mv.Fin(4), mv.Fin(0))],
        mv.GrothendieckGroup(RAD_SZ2): [
            CanonPair(LexPair(0, (0, 0)), LexPair(0, (0, 0))),
            CanonPair(LexPair(0, (1, 0)), LexPair(0, (0, 1))),
            CanonPair(LexPair(0, (0, 0)), LexPair(0, (2, 1))),
            CanonPair(LexPair(0, (3, 2)), LexPair(0, (0, 0)))],
    }
    for G, points in endpoints.items():
        for b in range(4):
            window = window_of(G, b)
            for lo in [None] + points:
                for hi in [None] + points:
                    expect = [x for x in window
                              if (lo is None or G.leq(lo, x))
                              and (hi is None or G.leq(x, hi))]
                    got = G.interval(b, lo, hi)
                    assert got == expect, (G.descriptor(), b, lo, hi)
                    assert G.interval_size(b, lo, hi) == len(expect)


def test_encoded_grothendieck_window_equals_the_walk():
    # Over a cone of Z or Z^n (lgroup_core._cone) enumerate builds the box
    # of differences, and over another cone with a codec it builds the
    # window from code rows.  Either must be the walk's list, element for
    # element and in order.  The code-row window is still live on the box
    # cones (pair_group_ops reaches it), so it is checked on every cone;
    # Z^0 has no codec, so over Rad(Sigma(Z^0)) it is None.
    box = [mv.RadicalMonoid(mv.parse_model(d))
           for d in ("C", "Pointed(C,1c)", "Sigma(Z^2)", "Sigma(Z^3)",
                     "Sigma(Z^0)", "Gamma(Lex(Z,Z),(1,0))")]
    box.append(mv.parse_model("PosCone(Z^2)"))
    code_rows = [mv.RadicalMonoid(mv.parse_model("Sigma(Lex(Z,Z))")),
                 mv.parse_model("PosCone(Lex(Z,Z))")]
    for M in box + code_rows:
        G = mv.GrothendieckGroup(M)
        on_box = M in box
        for b in range(6):
            assert (G._difference_ranges(b, None, None) is not None) == on_box
            walk = grothendieck_walk(G, b)
            rows = None if M.descriptor() == "Rad(Sigma(Z^0))" else walk
            assert groth_window(M, b) == rows, (M.descriptor(), b)
            assert G.enumerate(b) == walk, (M.descriptor(), b)
    # L(3) is a unit interval that is not Sigma-shaped: its radical monoid
    # is not a cone, and the window is walked.
    M = mv.RadicalMonoid(mv.parse_model("L(3)"))
    G = mv.GrothendieckGroup(M)
    for b in range(6):
        assert groth_window(M, b) is None
        assert G.enumerate(b) == grothendieck_walk(G, b), b


def test_grothendieck_window_falls_back_to_the_walk_at_the_limit(monkeypatch):
    big = 2 ** 60 - 1
    # Radical elements that fit, whose difference (0, 2^61 - 2) does not.
    rad = mv.RadicalMonoid(mv.parse_model("Sigma(Lex(Z,Z))"))
    rad_window = [LexPair(0, LexPair(0, 0)), LexPair(0, LexPair(1, big)),
                  LexPair(0, LexPair(1, -big))]
    # A cone element with no valid code, and one beyond int64.  (The
    # cones of Z and Z^n take the box of differences, which reads no
    # monoid window.)
    cone = mv.parse_model("PosCone(Lex(Z,Z))")
    for M, window in ((rad, rad_window),
                      (cone, [LexPair(0, 0), LexPair(big + 1, 0), LexPair(0, 1)]),
                      (cone, [LexPair(0, 0), LexPair(2 ** 63, 1)])):
        monkeypatch.setattr(M, "enumerate", lambda b, window=window: window)
        G = mv.GrothendieckGroup(M)
        assert groth_window(M, 1) is None
        assert G.enumerate(1) == grothendieck_walk(G, 1)
        assert len(G.enumerate(1)) > len(window)


def test_trivial_group_is_rank_zero():
    T = mv.ZnGroup(0)
    assert T.enumerate(5) == [()]
    assert T.zero == ()
    S = mv.sigma(T)
    assert len(S.enumerate(3)) == 2


# -- Grothendieck operations through the group of differences -----------------

_NAT = st.integers(0, 2 ** 70)
_INT = st.integers(-2 ** 70, 2 ** 70)
_LEX_CONE = st.one_of(st.builds(LexPair, st.just(0), _NAT),
                      st.builds(LexPair, st.integers(1, 2 ** 70), _INT))

# Each monoid whose Grothendieck group computes through its group, with a
# strategy for its elements.
_CONES = {
    "N": (N, _NAT),
    "N^2": (N2, st.tuples(_NAT, _NAT)),
    "PosCone(Z)": (mv.positive_cone(Z), _NAT),
    "PosCone(Z^2)": (mv.parse_model("PosCone(Z^2)"), st.tuples(_NAT, _NAT)),
    "PosCone(Lex(Z,Z))": (mv.parse_model("PosCone(Lex(Z,Z))"), _LEX_CONE),
    "PosCone(Groth(N))": (mv.parse_model("PosCone(Groth(N))"),
                          st.builds(CanonPair, _NAT, st.just(0))),
    "Rad(C)": (mv.RadicalMonoid(mv.ChangAlgebra()), st.builds(mv.Fin, _NAT)),
    "Rad(Sigma(Z^2))": (mv.RadicalMonoid(mv.parse_model("Sigma(Z^2)")),
                        st.builds(lambda a, b: LexPair(0, (a, b)), _NAT, _NAT)),
    "Rad(Sigma(Lex(Z,Z)))": (mv.RadicalMonoid(mv.parse_model("Sigma(Lex(Z,Z))")),
                             st.builds(partial(LexPair, 0), _LEX_CONE)),
    "Rad(Gamma(Lex(Z,Z),(1,0)))": (mv.RadicalMonoid(mv.parse_model("Gamma(Lex(Z,Z),(1,0))")),
                                   st.builds(partial(LexPair, 0), _NAT)),
    "Rad(Pointed(C,1c))": (mv.RadicalMonoid(mv.parse_model("Pointed(C,1c)")),
                           st.builds(mv.Fin, _NAT)),
}


@pytest.mark.parametrize("desc", list(_CONES))
@given(data=st.data())
def test_grothendieck_operations_through_the_group_equal_canon_pair(desc, data):
    M, elements = _CONES[desc]
    G = mv.GrothendieckGroup(M)
    assert G._group is not None, desc
    assert G.zero == CanonPair(M.zero, M.zero)
    # Random canonical pairs: the classes of random pairs of the monoid.
    p, q = (mv.canon_pair(M, data.draw(elements), data.draw(elements))
            for _ in range(2))
    for op, reference in canon_pair_ops(G).items():
        args = (p,) if op == "negate" else (p, q)
        assert getattr(G, op)(*args) == reference(*args), op
    assert G.sub(p, q) == G.add(p, G.negate(q))


class _WrongSupZ2(mv.ZnGroup):
    def sup(self, x, y):
        if x == (1, 0):
            return (0, 0)
        return super().sup(x, y)


def test_subclasses_keep_canon_pair():
    """A subclass anywhere in the monoid, or of GrothendieckGroup itself,
    keeps the canon_pair route: its operations are not the built-in
    carrier's, so G's need not be either."""

    class SubN(ConeOfZ):
        pass

    class SubZ(mv.ZGroup):
        pass

    class SubChang(mv.ChangAlgebra):
        pass

    class SubGroth(mv.GrothendieckGroup):
        pass

    for G in (mv.GrothendieckGroup(SubN()),
              mv.GrothendieckGroup(mv.positive_cone(SubZ())),
              mv.GrothendieckGroup(mv.positive_cone(mv.LexGroup(SubZ()))),
              mv.GrothendieckGroup(mv.positive_cone(mv.GrothendieckGroup(SubN()))),
              mv.GrothendieckGroup(mv.RadicalMonoid(SubChang())),
              mv.GrothendieckGroup(mv.RadicalMonoid(mv.sigma(SubZ()))),
              mv.GrothendieckGroup(mv.RadicalMonoid(mv.parse_model("L(3)"))),
              SubGroth(N), mv.pair_group_ops(mv.ChangAlgebra())):
        assert G._group is None, G.descriptor()
    # A cone of a Z^2 whose sup is broken: through the group, the pair
    # (d+, d-) of d = (1, 0) would read the broken sup; canon_pair's add,
    # inf and leq never call it.
    G = mv.GrothendieckGroup(mv.positive_cone(_WrongSupZ2(2)))
    window = G.enumerate(2)
    reference = canon_pair_ops(G)
    for op in ("add", "inf", "sup", "leq"):
        assert [getattr(G, op)(p, q) for p in window for q in window] == \
            [reference[op](p, q) for p in window for q in window], op
    one = CanonPair((1, 0), (0, 0))
    assert G.add(one, G.zero) == one


# -- The element records ------------------------------------------------------


def test_record_reprs():
    assert repr(LexPair(1, 2)) == "LexPair(head=1, tail=2)"
    assert repr(CanonPair(LexPair(0, (1, 0)), LexPair(0, (0, 2)))) == (
        "CanonPair(u=LexPair(head=0, tail=(1, 0)), v=LexPair(head=0, tail=(0, 2)))")
    assert repr(mv.Fin(3)) == "ChangElem('fin', 3)"
    assert repr(mv.CoFin(0)) == "ChangElem('cofin', 0)"


def test_records_of_one_kind_hash_and_compare_by_their_fields():
    for make, fields, other in ((LexPair, (1, (2, 3)), LexPair(1, (2, 4))),
                                (CanonPair, ((1, 0), (0, 3)), CanonPair((1, 0), (0, 2))),
                                (mv.ChangElem, ("fin", 2 ** 70), mv.CoFin(2 ** 70))):
        x, y = make(*fields), make(*fields)
        assert x == y and hash(x) == hash(y) and not x != y
        assert x is not y and len({x, y}) == 1
        assert x != other and len({x, other}) == 2
        assert type(x) is type(y) is make
    assert mv.Fin(2) != mv.CoFin(2)
    assert {LexPair(0, 1): "a"}[LexPair(0, 1)] == "a"


def test_vectors_are_plain_tuples():
    # A lexicographic pair of integers has two integer fields, as a rank-2
    # vector has two integer coordinates; it is still not a vector.
    with pytest.raises(mv.CarrierMismatchError):
        Z2.validate(LexPair(0, 1))
    with pytest.raises(mv.CarrierMismatchError):
        Z2.validate(CanonPair(0, 1))
    Z2.validate((0, 1))
