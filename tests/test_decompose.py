"""Boolean quotients, atoms, and the product decomposition."""

import itertools

import pytest

import mvtool as mv
from mvtool import decompose as dec
from mvtool.descriptors import parse_mv_element

C = mv.ChangAlgebra()
B = mv.FiniteChainAlgebra(1)
CC = mv.ProductAlgebra([C, C])
CCB = mv.ProductAlgebra([C, C, B])


def test_quotient_examples():
    assert mv.quotient_by_boolean(CC, CC.zero) is CC
    assert mv.quotient_by_boolean(CC, CC.one).descriptor() == "Trivial"
    q = mv.quotient_by_boolean(CC, (mv.CoFin(0), mv.Fin(0)))
    assert q.descriptor() == "C"
    q = mv.quotient_by_boolean(CC, (mv.Fin(0), mv.CoFin(0)))
    assert q.descriptor() == "C"
    with pytest.raises(mv.MvToolError):
        mv.quotient_by_boolean(CC, (mv.Fin(1), mv.Fin(0)))  # not Boolean


def test_quotient_on_finite_carrier_by_congruence():
    # Gamma(Z^2, (1,1)) is a four-element algebra isomorphic to B x B,
    # and (1,0) is a Boolean element splitting it.
    A = mv.gamma(mv.ZnGroup(2), (1, 1))
    assert mv.is_boolean(A, (1, 0))
    q = mv.quotient_by_boolean(A, (1, 0))
    assert q.window_size(1) == 2
    assert mv.check_perfect(q, 1).ok
    # quotient map is a homomorphism
    proj = q.project
    for x, y in itertools.product(A.carrier(), repeat=2):
        assert proj(A.oplus(x, y)) == q.oplus(proj(x), proj(y))
        assert proj(A.neg(x)) == q.neg(proj(x))


def test_atoms_examples():
    atoms = dec.atoms_from_generators(CC, [(mv.Fin(1), mv.CoFin(1))])
    assert set(atoms) == {(mv.Fin(0), mv.CoFin(0)), (mv.CoFin(0), mv.Fin(0))}
    assert dec.atoms_from_generators(C, [C.zero]) == [C.one]
    assert dec.atoms_from_generators(CC, [(mv.Fin(1), mv.Fin(1))]) == [CC.one]


def test_atom_family_invariants_asserted():
    for gens in ([(mv.Fin(2), mv.CoFin(3))], [(mv.Fin(0), mv.CoFin(0)),
                                              (mv.CoFin(1), mv.Fin(1))]):
        atoms = dec.atoms_from_generators(CC, gens)
        for a in atoms:
            assert mv.is_boolean(CC, a)
        for a, b in itertools.combinations(atoms, 2):
            assert CC.inf(a, b) == CC.zero
        total = CC.zero
        for a in atoms:
            total = CC.sup(total, a)
        assert total == CC.one


def test_decompose_chang_is_single_factor():
    d = mv.decompose_product(C, [mv.Fin(1)], bound=8)
    assert d.factors == [C]
    assert d.atoms == [C.one]
    assert mv.product_reconstruction_check(C, d, 6).ok


def test_decompose_cxc():
    d = mv.decompose_product(CC, [(mv.Fin(1), mv.CoFin(1))], bound=8)
    assert len(d.factors) == 2
    for f in d.factors:
        assert mv.check_perfect(f, 8).ok
    assert mv.product_reconstruction_check(CC, d, 6).ok
    assert mv.weak_subdirect_check(CC, d.projections, 6).ok
    # forward/backward are mutually inverse on the window
    for x in CC.enumerate(5):
        assert d.iso_backward(d.iso_forward(x)) == x


def test_decompose_trivial_algebra_into_no_factors():
    T = mv.FiniteChainAlgebra(0)
    d = mv.decompose_product(T, [0], bound=3)
    assert (d.atoms, d.factors) == ([], [])
    assert d.iso_forward(0) == ()
    assert mv.product_reconstruction_check(T, d, 3).ok


def test_product_of_no_factors_is_named_again():
    E = mv.parse_model(mv.ProductAlgebra([]).descriptor())
    assert isinstance(E, mv.ProductAlgebra) and E.factors == ()
    assert E.enumerate(3) == [()] and parse_mv_element(E, "()") == ()
    nested = mv.parse_model("Prod(C,Prod())")
    assert nested.descriptor() == "Prod(C,Prod())"
    assert parse_mv_element(nested, "(1c,())") == (mv.Fin(1), ())


def test_decompose_three_factors():
    gens = [(mv.Fin(1), mv.CoFin(1), 0), (mv.Fin(1), mv.Fin(1), 1)]
    d = mv.decompose_product(CCB, gens, bound=6)
    assert len(d.factors) == 3
    assert sorted(f.descriptor() for f in d.factors) == ["B", "C", "C"]
    assert mv.product_reconstruction_check(CCB, d, 4).ok


def test_decompose_splits_a_factor_of_a_product():
    # The atoms ((1,0),0) and ((0,1),0) cut the four-element first factor
    # in two, so both quotients and embeddings recurse into it.
    A = mv.parse_model("Prod(Gamma(Z^2,(1,1)),C)")
    d = mv.decompose_product(A, [((1, 0), C.zero), ((0, 0), C.one)], bound=8)
    assert [f.descriptor() for f in d.factors] == [
        "Gamma(Z^2,(1,1))/((0,1))", "C", "Gamma(Z^2,(1,1))/((1,0))"]
    assert mv.product_reconstruction_check(A, d, 3).ok
    for x in A.enumerate(3):
        assert d.iso_backward(d.iso_forward(x)) == x


def test_decompose_failure_reports_factor():
    # L(2) is not in the Chang variety, so its single trivial atom family
    # yields a non-perfect factor.
    L2 = mv.FiniteChainAlgebra(2)
    with pytest.raises(mv.DecompositionError) as exc:
        mv.decompose_product(L2, [1], bound=3)
    assert exc.value.counterexample is not None


def test_is_perfect_element():
    assert mv.is_perfect_element(CC, (mv.CoFin(0), mv.Fin(0)), 6)
    assert mv.is_perfect_element(CC, (mv.Fin(0), mv.CoFin(0)), 6)
    assert not mv.is_perfect_element(CC, CC.zero, 6)
    assert not mv.is_perfect_element(CC, CC.one, 6)
    assert not mv.is_perfect_element(CC, (mv.Fin(1), mv.Fin(0)), 6)


def test_perfect_element_iff_complement_quotient_perfect():
    for A in (CC, CCB):
        for a in A.enumerate(4):
            if not mv.is_boolean(A, a):
                continue
            q = mv.quotient_by_boolean(A, A.neg(a))
            assert mv.is_perfect_element(A, a, 4) == mv.check_perfect(q, 4).ok


def test_weak_subdirect_negative_control():
    zero_map = lambda x: C.zero
    v = mv.weak_subdirect_check(C, [zero_map, zero_map], 4)
    assert not v.ok
    assert mv.weak_subdirect_check(C, [lambda x: x], 4).ok


def test_reconstruction_detects_corruption():
    d = mv.decompose_product(CC, [(mv.Fin(1), mv.CoFin(1))], bound=6)
    corrupted = mv.AtomDecomposition(
        atoms=d.atoms[:1], factors=d.factors[:1],
        iso_forward=lambda x: d.iso_forward(x)[:1],
        iso_backward=lambda zs: d.iso_backward(zs + (d.factors[1].zero,)),
        projections=d.projections[:1], embeddings=d.embeddings[:1])
    v = mv.product_reconstruction_check(CC, corrupted, 4)
    assert not v.ok
    assert v.note == "sup of atoms is not 1"


def test_reconstruction_maps_each_window_element_once(monkeypatch):
    from mvtool import vector

    d = mv.decompose_product(CC, [(mv.Fin(1), mv.CoFin(1))], bound=8)
    window = CC.enumerate(3)
    sums = {CC.oplus(x, y) for x in window for y in window}
    # One image per window element, and one per distinct result outside
    # the window: every complement is a window element, and of the 121
    # distinct sums the 64 window elements are oplus(x, 0), which leaves 57.
    assert {CC.neg(x) for x in window} <= set(window)
    assert (len(window), len(sums), len(sums - set(window))) == (64, 121, 57)

    class SkewChang(mv.ChangAlgebra):
        def oplus(self, x, y):
            if (x, y) == (mv.Fin(2), mv.Fin(1)):
                return mv.Fin(4)
            return super().oplus(x, y)

    # With the default blocks the 64 x 64 pairs are one block; with 100
    # pairs a block, each is one row, the sums recur from block to block,
    # and the first failure lies in row 2.
    for block in (vector._KERNEL_BLOCK, 100):
        monkeypatch.setattr(vector, "_KERNEL_BLOCK", block)
        calls = []

        def counted(x):
            calls.append(x)
            return d.iso_forward(x)

        assert mv.product_reconstruction_check(
            CC, d._replace(iso_forward=counted), 3).ok
        assert len(calls) == 64 + 57, block

        v = mv.product_reconstruction_check(
            CC, d._replace(factors=[SkewChang(), d.factors[1]]), 3)
        assert v.note == "forward map does not preserve oplus"
        assert v.env == ((mv.Fin(0), mv.Fin(2)), (mv.Fin(0), mv.Fin(1)))
        assert window.index(v.env[0]) == 2


def test_decompose_checks_perfectness_only_off_construction(monkeypatch):
    checked = []
    check_axioms = dec._check_axioms

    def spy(model, labels, bound):
        checked.append(model)
        return check_axioms(model, labels, bound)

    monkeypatch.setattr(dec, "_check_axioms", spy)
    d = mv.decompose_product(CC, [(mv.Fin(1), mv.CoFin(1))], bound=8)
    assert [f.descriptor() for f in d.factors] == ["C", "C"]
    assert checked == []

    class SkewChang(mv.ChangAlgebra):
        def oplus(self, x, y):
            if (x, y) == (mv.Fin(1), mv.Fin(1)):
                return mv.CoFin(0)
            return super().oplus(x, y)

    L2, skew = mv.FiniteChainAlgebra(2), SkewChang()
    # The C factor comes first and passes unchecked; the second factor is
    # checked and fails as before.
    for A, gens, message in (
            (mv.ProductAlgebra([C, L2]), [(mv.CoFin(0), 0)],
             "factor 1 = L(2) is not perfect at bound 8: P.1 fails at 1/2"),
            (mv.ProductAlgebra([C, skew]), [(mv.CoFin(0), mv.Fin(0))],
             "factor 1 = C is not perfect at bound 8: P.1 fails at 1c")):
        checked.clear()
        with pytest.raises(mv.DecompositionError) as err:
            mv.decompose_product(A, gens, bound=8)
        assert str(err.value) == message
        assert err.value.factor_index == 1
        assert checked == [A.factors[1]]


def test_pushout_pullback_boolean_specialization():
    for A in (CC, CCB):
        booleans = [x for x in A.enumerate(6) if mv.is_boolean(A, x)]
        assert len(booleans) == 2 ** len(A.factors)
        for a in booleans:
            assert mv.pushout_pullback_check(A, a, 6).ok


def test_factor_count_bounded_by_generators():
    for gens in ([(mv.Fin(1), mv.CoFin(1))],
                 [(mv.Fin(1), mv.Fin(2)), (mv.CoFin(2), mv.Fin(1))]):
        d = mv.decompose_product(CC, gens, bound=6)
        assert len(d.factors) <= 2 ** len(gens)
