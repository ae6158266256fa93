"""The functors, natural isomorphisms, pair representation, pointed
variants, and the antiarchimedean checks."""

import itertools
from collections import Counter

import pytest

import mvtool as mv
from helpers import ConeOfZ, first_beyond_multiples_walk
from mvtool.descriptors import parse_group_element, parse_mv_element
from mvtool.lgroup_core import CanonPair, LexPair
from mvtool.verdicts import Finite, NoneUpTo

Z = mv.ZGroup()
Z2 = mv.ZnGroup(2)
LexZZ = mv.LexGroup(mv.ZGroup())
C = mv.ChangAlgebra()


# ---------------------------------------------------------------------------
# Independent oracle for the truncation operations: plain interval
# arithmetic over Z x_lex Z written out directly.
# ---------------------------------------------------------------------------


def lex_leq(a, b):
    return a[0] < b[0] or (a[0] == b[0] and a[1] <= b[1])


def lex_min(a, b):
    return a if lex_leq(a, b) else b


def sigma_z_oplus_oracle(x, y):
    s = (x[0] + y[0], x[1] + y[1])
    return lex_min((1, 0), s)


def sigma_z_neg_oracle(x):
    return (1 - x[0], -x[1])


def test_sigma_z_ops_match_interval_oracle():
    S = mv.sigma(Z)
    window = S.enumerate(6)
    for x in window:
        nx = S.neg(x)
        assert (nx.head, nx.tail) == sigma_z_neg_oracle((x.head, x.tail))
        for y in window:
            got = S.oplus(x, y)
            assert (got.head, got.tail) == \
                sigma_z_oplus_oracle((x.head, x.tail), (y.head, y.tail))


def test_sigma_examples():
    S = mv.sigma(Z)
    assert S.oplus(S.rad(2), S.corad(-3)) == LexPair(1, -1)
    assert S.tag_of(LexPair(1, -1)) == "corad"
    assert S.tag_of(LexPair(0, 4)) == "rad"
    # sigma of the trivial group is the two-element algebra
    S0 = mv.sigma(mv.ZnGroup(0))
    assert sorted([S0.zero, S0.one], key=repr) == \
        sorted(S0.enumerate(5), key=repr)
    # sigma(Z) is isomorphic to C via Fin/CoFin tagging
    bij = {}
    for n in range(13):
        bij[mv.Fin(n)] = S.rad(n)
        bij[mv.CoFin(n)] = S.corad(-n)
    small = [x for x in bij if x.n <= 6]
    for x, y in itertools.product(small, repeat=2):
        assert bij[C.oplus(x, y)] == S.oplus(bij[x], bij[y])
        assert bij[C.neg(x)] == S.neg(bij[x])


def test_sigma_tagging_matches_membership_predicates():
    S = mv.sigma(Z2)
    for x in S.enumerate(5):
        assert (S.tag_of(x) == "rad") == mv.radical_membership(S, x)
        assert (S.tag_of(x) == "corad") == mv.coradical_membership(S, x)


def test_sigma_is_perfect_and_in_chang_variety():
    for G in (Z, Z2, LexZZ):
        S = mv.sigma(G)
        assert mv.check_perfect(S, 5).ok
        assert mv.check_chang_variety(S, 5).ok


def test_gamma_examples():
    assert mv.gamma(Z, 1).enumerate(4) == [0, 1]
    assert mv.gamma(Z, 2).enumerate(4) == [0, 1, 2]
    with pytest.raises(mv.InvalidUnitError):
        mv.gamma(Z, -1)
    # the lexicographic unit interval is exactly the sigma carrier
    G = mv.gamma(mv.LexGroup(Z), LexPair(1, 0))
    S = mv.sigma(Z)
    for b in (2, 5):
        assert G.enumerate(b) == S.enumerate(b)
    assert mv.gamma(Z2, (1, 1)).carrier() is not None


def test_sigma_corad_orders():
    S = mv.sigma(Z2)
    for x in S.enumerate(4):
        if S.tag_of(x) == "corad":
            expect = Finite(1) if x == S.one else Finite(2)
            assert mv.order_of(S, x, 10) == expect
        elif x != S.zero:
            assert mv.order_of(S, x, 20) == NoneUpTo(20)


def test_delta_of_chang_is_z():
    D = mv.delta(C)

    def to_int(p):
        return p.u.n - p.v.n

    window = D.enumerate(5)
    assert sorted(to_int(p) for p in window) == list(range(-5, 6))
    for p, q in itertools.product(window, repeat=2):
        assert to_int(D.add(p, q)) == to_int(p) + to_int(q)
        assert to_int(D.sup(p, q)) == max(to_int(p), to_int(q))
    assert mv.delta(mv.FiniteChainAlgebra(1)).enumerate(4) == [
        CanonPair(0, 0)
    ]


def test_delta_rejects_non_perfect():
    # The message names the failing axiom and the element, formatted.
    message = "L(2) is not perfect at bound 4: P.1 fails at 1/2"
    for build in (mv.delta, mv.pair_group_ops):
        with pytest.raises(mv.NotPerfectError) as err:
            build(mv.FiniteChainAlgebra(2))
        assert str(err.value) == message
        assert err.value.counterexample.axiom == "P.1"
    with pytest.raises(mv.NotPerfectError):
        mv.delta(mv.ProductAlgebra([C, C]))


PERFECT_BY_CONSTRUCTION = ("C", "Sigma(Z)", "Sigma(Z^2)", "Sigma(Lex(Z,Z))",
                           "Sigma(Lex(Z,Z^2))")


def test_perfect_by_construction_carriers_are_perfect():
    for desc in PERFECT_BY_CONSTRUCTION:
        report = mv.check_perfect(mv.parse_model(desc), 4)
        assert report.ok and report.families_agree, desc


def test_delta_checks_perfectness_only_off_construction(monkeypatch):
    from mvtool import registry
    checked = []
    check_axioms = registry._check_axioms

    def spy(model, labels, bound):
        checked.append(model.descriptor())
        return check_axioms(model, labels, bound)

    monkeypatch.setattr(registry, "_check_axioms", spy)
    for desc in PERFECT_BY_CONSTRUCTION:
        mv.delta(mv.parse_model(desc))
        mv.pair_group_ops(mv.parse_model(desc))
    assert checked == []

    class SubSigma(mv.SigmaAlgebra):
        pass

    mv.delta(SubSigma(Z2))
    mv.delta(mv.parse_model("Sigma(Groth(N^2))"))
    with pytest.raises(mv.NotPerfectError):
        mv.delta(mv.ProductAlgebra([C, C]))
    assert checked == ["Sigma(Z^2)", "Sigma(Groth(N^2))", "Prod(C,C)"]

    class SkewChang(mv.ChangAlgebra):
        def oplus(self, x, y):
            if (x, y) == (mv.Fin(1), mv.Fin(1)):
                return mv.CoFin(0)
            return super().oplus(x, y)

    with pytest.raises(mv.NotPerfectError) as err:
        mv.delta(SkewChang())
    assert str(err.value) == "C is not perfect at bound 4: P.1 fails at 1c"


def test_phi_examples():
    assert mv.phi_G(Z, 0) == CanonPair(LexPair(0, 0), LexPair(0, 0))
    assert mv.phi_G(Z, -3) == CanonPair(LexPair(0, 0), LexPair(0, 3))
    assert mv.phi_G_inverse(
        Z, CanonPair(LexPair(0, 5), LexPair(0, 2))) == 3
    for g in Z2.enumerate(4):
        assert mv.phi_G_inverse(Z2, mv.phi_G(Z2, g)) == g


def test_phi_roundtrip_reports():
    for G in (Z, Z2, LexZZ):
        rep = mv.phi_roundtrip_report(G, 4)
        assert rep["failures"] == []
        assert rep["checked_pairs"] == len(G.enumerate(4)) ** 2


def test_beta_examples():
    assert mv.beta_A(C, mv.Fin(2)) == LexPair(0, CanonPair(mv.Fin(2), mv.Fin(0)))
    assert mv.beta_A(C, mv.CoFin(0)) == LexPair(1, CanonPair(mv.Fin(0), mv.Fin(0)))
    assert mv.beta_A(C, mv.CoFin(3)) == LexPair(1, CanonPair(mv.Fin(0), mv.Fin(3)))
    target = mv.sigma(mv.delta(C))
    assert mv.beta_A(C, mv.CoFin(0)) == target.one
    # an element incomparable with its negation witnesses non-perfectness
    with pytest.raises(mv.NotPerfectError):
        mv.beta_A(mv.ProductAlgebra([C, C]), (mv.Fin(1), mv.CoFin(1)))


def test_beta_roundtrip_reports():
    for A in (C, mv.sigma(Z2), mv.FiniteChainAlgebra(1)):
        rep = mv.beta_roundtrip_report(A, 4)
        assert rep["failures"] == []


def test_monoid_group_roundtrips():
    for G in (Z, Z2):
        assert mv.chi_roundtrip_report(G, 4)["failures"] == []
    for M in (mv.NMonoid(), mv.NnMonoid(2)):
        assert mv.phi_M_roundtrip_report(M, 4)["failures"] == []


def test_roundtrip_report_lists_failures_by_operation():
    from mvtool.equivalence import _roundtrip_report

    class BrokenInf(ConeOfZ):
        def inf(self, x, y):
            return 0

    target = mv.positive_cone(mv.grothendieck_group(mv.NMonoid()))
    rep = _roundtrip_report("monoid-to-cone", BrokenInf(), target,
                            lambda x: CanonPair(x, 0), lambda p: p.u,
                            (), ("add", "inf", "sup"), 3)
    assert rep["checked_pairs"] == 16
    # inf(x, y) = 0 is wrong exactly on the 9 pairs with x, y >= 1.
    assert [f["kind"] for f in rep["failures"]] == ["inf"] * 9
    assert rep["failures"][0]["elements"] == ["1", "1"]


_GROUP_OPS = (("negate",), ("add", "inf", "sup"))


def test_roundtrip_report_lists_a_colliding_forward_as_not_injective():
    from mvtool.equivalence import _roundtrip_report

    # Z onto the trivial group: a homomorphism that identifies everything.
    rep = _roundtrip_report("group", Z, mv.ZnGroup(0), lambda g: (),
                            lambda p: 0, *_GROUP_OPS, 1)
    assert rep["failures"] == [
        {"kind": "not-injective", "elements": ["-1", "0"]},
        {"kind": "not-injective", "elements": ["0", "1"]},
        {"kind": "inverse", "element": "-1"},
        {"kind": "inverse", "element": "1"},
    ]


def test_roundtrip_report_lists_images_outside_the_codomain_window():
    from mvtool.equivalence import _roundtrip_report

    class NarrowZ(mv.ZGroup):
        def enumerate(self, bound):
            return super().enumerate(bound - 1)

    rep = _roundtrip_report("group", Z, NarrowZ(), lambda g: g, lambda g: g,
                            *_GROUP_OPS, 2)
    assert rep["failures"] == [
        {"kind": "image-outside-window", "element": "-2"},
        {"kind": "image-outside-window", "element": "2"},
    ]


@pytest.mark.parametrize("preimage", [1, 3])
def test_roundtrip_report_lists_a_broken_inverse_as_not_surjective(preimage):
    # The inverse sends 2 to a window element (1) or to one beyond the
    # window (3); the identity maps either back onto something other
    # than 2.
    from mvtool.equivalence import _roundtrip_report

    calls = []

    def forward(g):
        calls.append(g)
        return g

    rep = _roundtrip_report("group", Z, Z, forward,
                            lambda g: preimage if g == 2 else g,
                            *_GROUP_OPS, 2)
    assert rep["failures"] == [
        {"kind": "not-surjective", "element": "2"},
        {"kind": "inverse", "element": "2"},
    ]
    # The window's images, then the preimage when it lies outside the
    # window (its image is read otherwise), then the homomorphism
    # check's sums outside the window: x + y over the window [-2, 2]
    # leaves it at -4, -3, 3 and 4, and inf and sup never do.  The two
    # checks share one memo of images, so a preimage of 3 leaves three
    # of the four sums to map.
    outside = [3] if preimage == 3 else []
    assert calls[:5 + len(outside)] == Z.enumerate(2) + outside
    assert sorted(calls[5 + len(outside):]) == \
        [s for s in [-4, -3, 3, 4] if s not in outside]


def test_pair_group_examples():
    P = mv.pair_group_ops(C)
    s = P.add(CanonPair(mv.Fin(1), mv.Fin(0)), CanonPair(mv.Fin(0), mv.Fin(2)))
    assert s == CanonPair(mv.Fin(0), mv.Fin(1))
    assert P.negate(CanonPair(mv.Fin(2), mv.Fin(0))) == \
        CanonPair(mv.Fin(0), mv.Fin(2))
    assert P.zero == CanonPair(mv.Fin(0), mv.Fin(0))
    # the defining relation of the sum: z + v + b = t + u + a
    m = P.monoid
    for p in P.enumerate(3):
        for q in P.enumerate(3):
            z, t = P.add(p, q).u, P.add(p, q).v
            assert m.add(m.add(z, p.v), q.v) == m.add(m.add(t, p.u), q.u)
            assert m.inf(z, t) == m.zero


def test_pair_group_agrees_with_delta():
    """The identity on canonical pairs is an isomorphism between the
    componentwise pair group and the Grothendieck group of the radical."""
    for A in (C, mv.sigma(Z)):
        P = mv.pair_group_ops(A)
        D = mv.delta(A)
        elems = P.enumerate(4)
        assert set(elems) == set(D.enumerate(4))
        for p, q in itertools.product(elems, repeat=2):
            assert P.add(p, q) == D.add(p, q)
            assert P.inf(p, q) == D.inf(p, q)
            assert P.sup(p, q) == D.sup(p, q)
            assert P.leq(p, q) == D.leq(p, q)
        for p in elems:
            assert P.negate(p) == D.negate(p)


def test_pair_group_on_canonical_pairs_up_to_ten():
    P = mv.pair_group_ops(C)
    D = mv.delta(C)
    pairs = [CanonPair(mv.Fin(n), mv.Fin(0)) for n in range(11)] + \
            [CanonPair(mv.Fin(0), mv.Fin(n)) for n in range(1, 11)]
    for p, q in itertools.product(pairs, repeat=2):
        assert P.add(p, q) == D.add(p, q)
        assert P.inf(p, q) == D.inf(p, q)
        assert P.sup(p, q) == D.sup(p, q)


def test_sigma_star_and_delta_star():
    S, a = mv.sigma_star(Z, 1)
    assert a == LexPair(0, 1)
    assert S.tag_of(a) == "rad"
    D, unit = mv.delta_star(C, mv.Fin(1))
    assert unit == CanonPair(mv.Fin(1), mv.Fin(0))
    # the unit really is a strong unit of delta(C) on a window
    window = D.enumerate(4)
    for p in window:
        if D.leq(D.zero, p):
            assert any(
                D.leq(p, mv.nat_scalar(D, n, unit)) for n in range(10)
            )
    # round-trip markers match
    assert mv.beta_A(C, mv.Fin(1)) == LexPair(0, CanonPair(mv.Fin(1), mv.Fin(0)))
    assert mv.phi_G(Z, 1) == CanonPair(LexPair(0, 1), LexPair(0, 0))

    S0, a0 = mv.sigma_star(mv.ZnGroup(0), ())
    assert len(S0.enumerate(2)) == 2 and a0 == S0.zero

    G = mv.parse_model("Groth(N)")
    S, a = mv.sigma_star(G, CanonPair(1, 0))
    assert a == LexPair(0, CanonPair(1, 0)) and S.tag_of(a) == "rad"


def test_delta_star_precondition_failures():
    with pytest.raises(mv.PreconditionError):
        mv.delta_star(C, mv.CoFin(1))  # not a radical element
    with pytest.raises(mv.PreconditionError):
        mv.delta_star(C, mv.Fin(0))  # zero does not generate the radical
    with pytest.raises(mv.PreconditionError):
        mv.sigma_star(Z2, (1, 0))  # not a strong unit for the pointwise order


@pytest.mark.parametrize("desc,point", [("C", "c"), ("Sigma(Z^2)", "(0,(1,1))")])
def test_sigma_star_inverts_delta_star(desc, point):
    A = mv.parse_model(desc)
    a = parse_mv_element(A, point)
    S, p = mv.sigma_star(*mv.delta_star(A, a))
    assert S.descriptor() == f"Sigma(Groth(Rad({desc})))"
    assert p == mv.beta_A(A, a)


@pytest.mark.parametrize("desc,unit", [("Z", "1"), ("Lex(Z,Z)", "(1,0)")])
def test_delta_star_inverts_sigma_star(desc, unit):
    G = mv.parse_model(desc)
    u = parse_group_element(G, unit)
    D, p = mv.delta_star(*mv.sigma_star(G, u))
    assert D.descriptor() == f"Groth(Rad(Sigma({desc})))"
    assert p == mv.phi_G(G, u)


def test_strong_unit_check_on_delta_carriers():
    # Delta-side elements are canonical pairs of algebra elements; the
    # check reads them through the carrier's own order only.
    c = CanonPair(mv.Fin(1), mv.Fin(0))
    for G in (mv.delta(C), mv.pair_group_ops(C)):
        for bound in (1, 3):
            assert mv.strong_unit_check(G, c, bound).ok, G.descriptor()
        v = mv.strong_unit_check(G, G.zero, 2)
        assert isinstance(v, mv.CounterExample)
        assert (v.env, v.axiom) == (c, "Lu.2")


UNIT_CARRIERS = ("Z", "Z^2", "Z^3", "Lex(Z,Z)", "Lex(Z,Z^2)", "Groth(N)",
                 "Groth(N^2)", "Groth(PosCone(Z^2))", "Groth(PosCone(Lex(Z,Z)))")


@pytest.mark.parametrize("desc", UNIT_CARRIERS)
def test_strong_unit_check_equals_the_capped_search_by_definition(desc):
    """Every unit u >= 0 of the bound-2 window: Lu.2 fails at the first
    positive window element below no n*u with n <= 2 * bound + 2."""
    G = mv.parse_model(desc)
    units = [u for u in G.enumerate(2) if G.leq(G.zero, u)]
    for bound in (1, 2, 3, 4):
        cap = 2 * bound + 2
        positives = [x for x in G.enumerate(bound) if G.leq(G.zero, x)]
        for u in units:
            x = first_beyond_multiples_walk(G, u, positives, cap)
            v = mv.strong_unit_check(G, u, bound)
            if x is None:
                assert isinstance(v, mv.Holds), (u, bound)
            else:
                assert isinstance(v, mv.CounterExample), (u, bound)
                assert (v.env, v.axiom) == (x, "Lu.2")
                assert v.note.startswith(f"no n <= {cap} with x <= nu;")


@pytest.mark.parametrize("desc", ("C", "Sigma(Z^2)"))
def test_delta_star_pstar2_equals_the_capped_search_by_definition(desc):
    """Every radical point of the bound-2 window: Pstar.2 fails at the
    first radical window element below no n*a with n <= 2 * bound + 2."""
    A = mv.parse_model(desc)
    points = [a for a in A.enumerate(2) if mv.radical_membership(A, a)]
    for bound in (1, 2, 3):
        cap = 2 * bound + 2
        radical = [x for x in A.enumerate(bound) if mv.radical_membership(A, x)]
        for a in points:
            x = first_beyond_multiples_walk(A, a, radical, cap)
            if x is None:
                assert mv.delta_star(A, a, bound)[1] == CanonPair(a, A.zero)
                continue
            with pytest.raises(mv.PreconditionError) as exc:
                mv.delta_star(A, a, bound)
            r = exc.value.report
            assert (r.env, r.axiom, r.note) == \
                (x, "Pstar.2", f"search capped at n <= {cap}")


def test_ant_check_examples():
    assert mv.ant_check(LexZZ, LexPair(1, 0), 6).ok
    assert mv.ant_check(Z, 1, 4).ok
    v = mv.ant_check(Z, 2, 4)
    assert not v.ok and v.env == 1
    assert mv.ant_check(Z2, (1, 1), 4).ok is False
    # The first failing axiom in label order: Ant.1 fails at (1,0), before
    # Ant.2's first failure at (0,1) is reached.
    v = mv.ant_check(Z2, (2, 1), 4)
    assert v.axiom == "Ant.1" and v.env == (1, 0)


class _RecordsAntecedent:
    """Records in ``tested`` each x whose antecedent 0 <= x is evaluated."""

    def leq(self, x, y):
        if x == self.zero:
            self.tested.add(y)
        return super().leq(x, y)


class _RecordingZn(_RecordsAntecedent, mv.ZnGroup):
    pass


class _RecordingLex(_RecordsAntecedent, mv.LexGroup):
    pass


def test_ant_check_quantifies_over_the_unit_interval_only():
    for b in range(1, 5):
        # Holds on Lex(Z,Z) at (1,0): every element of [0, (1,0)] is
        # evaluated, and no other element of the (2b+1)^2 window.
        G = _RecordingLex(Z)
        G.tested = set()
        assert mv.ant_check(G, LexPair(1, 0), b).ok
        assert G.tested == set(LexZZ.interval(b, LexPair(0, 0), LexPair(1, 0)))
        assert len(G.tested) == 2 * b + 2

        # Fails on Z^2 at (2,1), first at (1,0) by Ant.1; the check stops
        # there, having evaluated only elements of [0, (2,1)] (and the
        # unit, once, when the model checks 0 <= u).
        G = _RecordingZn(2)
        G.tested = set()
        v = mv.ant_check(G, (2, 1), b)
        assert (v.axiom, v.env) == ("Ant.1", (1, 0)), b
        assert G.tested <= set(Z2.interval(b, (0, 0), (2, 1))) | {(2, 1)}

        expected = {1: None, 2: 1, 3: 1, 4: 2 if b > 1 else None,
                    5: 2 if b > 1 else None}
        for u, env in expected.items():
            v = mv.ant_check(Z, u, b)
            if env is None:
                assert v.ok, (u, b)
            else:
                assert (v.axiom, v.env) == ("Ant.1", env), (u, b)


def test_functor_action_on_homomorphisms():
    # diagonal embedding h: Z -> Z^2 is a lattice-group homomorphism
    def h(g):
        return (g, g)

    Sh = mv.sigma_map(h)
    S, S2 = mv.sigma(Z), mv.sigma(Z2)
    for x in S.enumerate(4):
        assert S2.validate(Sh(x)) is None
        for y in S.enumerate(4):
            assert Sh(S.oplus(x, y)) == S2.oplus(Sh(x), Sh(y))
        assert Sh(S.neg(x)) == S2.neg(Sh(x))

    # MV-homomorphism C -> C doubling the index, mapped through delta
    def f(x):
        return mv.ChangElem(x.kind, 2 * x.n)

    Df = mv.delta_map(C, f)
    D = mv.delta(C)
    for p in D.enumerate(3):
        for q in D.enumerate(3):
            assert Df(D.add(p, q)) == D.add(Df(p), Df(q))


def test_roundtrip_reports_invert_each_argument_once(monkeypatch):
    # The bijection check inverts every codomain-window element and the
    # homomorphism check every image; they share one dict of inverses.
    import mvtool.equivalence as equivalence

    original = equivalence._roundtrip_report
    spied = []

    def spy(direction, src, target, forward, inverse, unary, binary, bound):
        calls = Counter()

        def counted(p):
            calls[p] += 1
            return inverse(p)

        arguments = set(target.enumerate(bound)) | {
            forward(x) for x in src.enumerate(bound)}
        spied.append((src.descriptor(), calls, arguments))
        return original(direction, src, target, forward, counted, unary,
                        binary, bound)

    monkeypatch.setattr(equivalence, "_roundtrip_report", spy)
    reports = [mv.phi_roundtrip_report(Z, 6), mv.phi_roundtrip_report(Z2, 3),
               mv.phi_roundtrip_report(LexZZ, 3), mv.beta_roundtrip_report(C, 6),
               mv.beta_roundtrip_report(mv.sigma(Z2), 3),
               mv.chi_roundtrip_report(Z2, 3),
               mv.phi_M_roundtrip_report(mv.NnMonoid(2), 4)]
    assert all(rep["failures"] == [] for rep in reports)
    assert len(spied) == len(reports)
    for descriptor, calls, arguments in spied:
        assert set(calls) == arguments, descriptor
        assert set(calls.values()) == {1}, descriptor
