"""Chang algebra, derived operations, radical/Boolean structure."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mvtool as mv
from helpers import README_DESCRIPTORS, doubling_steps, left_fold
from mvtool.lgroup_core import CanonPair, LexPair
from mvtool.verdicts import Finite, NoneUpTo

C = mv.ChangAlgebra()
B = mv.FiniteChainAlgebra(1)
L2 = mv.FiniteChainAlgebra(2)
CC = mv.ProductAlgebra([C, C])


# ---------------------------------------------------------------------------
# Independent oracle: the published operation table for C, transcribed
# case by case (not via max()).
# ---------------------------------------------------------------------------


def chang_oplus_oracle(x, y):
    if x.kind == "fin" and y.kind == "fin":
        return mv.Fin(x.n + y.n)
    if x.kind == "cofin" and y.kind == "cofin":
        return mv.CoFin(0)
    if x.kind == "fin":
        x, y = y, x
    n, m = x.n, y.n  # x = 1 - nc, y = mc
    if m == 0:
        return mv.CoFin(n)
    if 0 < m < n:
        return mv.CoFin(n - m)
    return mv.CoFin(0)  # 0 < n <= m, and n == 0 gives 1 absorbing


def chang_neg_oracle(x):
    return mv.CoFin(x.n) if x.kind == "fin" else mv.Fin(x.n)


def test_oplus_matches_table_oracle():
    window = C.enumerate(12)
    for x in window:
        assert C.neg(x) == chang_neg_oracle(x)
        for y in window:
            assert C.oplus(x, y) == chang_oplus_oracle(x, y)


naturals = st.integers(min_value=0, max_value=10 ** 30)


@given(naturals, naturals, naturals)
def test_chang_mv_axioms_hold_at_arbitrary_precision(a, b, c):
    xs = [mv.Fin(a), mv.CoFin(b), mv.Fin(c)]
    x, y, z = xs
    assert C.oplus(x, C.oplus(y, z)) == C.oplus(C.oplus(x, y), z)
    assert C.oplus(x, y) == C.oplus(y, x)
    assert C.oplus(x, C.zero) == x
    assert C.neg(C.neg(x)) == x
    assert C.oplus(x, C.one) == C.one
    lhs = C.oplus(C.neg(C.oplus(C.neg(x), y)), y)
    rhs = C.oplus(C.neg(C.oplus(C.neg(y), x)), x)
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=64), naturals)
def test_scalar_on_chang_is_multiplication(m, n):
    # the doubling takes about 2 log2(m) steps; the element index may be
    # arbitrarily large
    assert mv.nat_scalar(C, m, mv.Fin(n)) == mv.Fin(m * n)


README_MODELS = {d: mv.parse_model(d) for d in README_DESCRIPTORS}


@pytest.mark.parametrize("desc", README_DESCRIPTORS)
@given(data=st.data())
def test_doubling_equals_the_left_fold(desc, data):
    """n*x and x^n by doubling are the definition's n-step folds, on every
    constructor of the README carrier table."""
    A = README_MODELS[desc]
    x = data.draw(st.sampled_from(A.enumerate(3)), label="x")
    n = data.draw(st.integers(0, 70), label="n")
    plus = "oplus" if A.signature == "mv" else "add"
    assert mv.nat_scalar(A, n, x) == left_fold(A, plus, A.zero, x, n)
    if A.signature == "mv":
        assert mv.mv_power(A, x, n) == left_fold(A, "odot", A.one, x, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7, 8, 70, 2 ** 40, 99999999,
                               99999999999999999999])
def test_scalar_and_power_take_logarithmically_many_steps(n):
    calls = {"oplus": 0, "odot": 0}

    class Counted(mv.ChangAlgebra):
        # odot may be derived from oplus: each counts its own calls only.
        def oplus(self, x, y):
            calls["oplus"] += 1
            return super().oplus(x, y)

        def odot(self, x, y):
            calls["odot"] += 1
            return super().odot(x, y)

    A = Counted()
    assert mv.nat_scalar(A, n, mv.Fin(3)) == (mv.Fin(3 * n) if n else A.zero)
    assert calls == {"oplus": doubling_steps(n), "odot": 0}
    assert doubling_steps(n) <= 2 * n.bit_length()
    calls["oplus"] = 0
    assert mv.mv_power(A, mv.CoFin(2), n) == (mv.CoFin(2 * n) if n else A.one)
    assert calls["odot"] == doubling_steps(n)


def test_derived_ops_bundle_validates_carriers():
    ops = mv.derived_ops(C, mv.Fin(1), mv.Fin(3))
    assert ops["odot"] == mv.Fin(0)
    assert ops["inf"] == mv.Fin(1)
    assert ops["sup"] == mv.Fin(3)
    assert ops["leq"] is True
    assert ops["one"] == mv.CoFin(0)
    assert ops["d"] == mv.Fin(2)
    with pytest.raises(mv.CarrierMismatchError):
        mv.derived_ops(C, mv.Fin(1), 3)
    with pytest.raises(mv.CarrierMismatchError):
        mv.derived_ops(CC, (mv.Fin(0), mv.Fin(0)), mv.Fin(0))


def test_derived_ops_examples():
    assert C.odot(mv.Fin(1), mv.Fin(1)) == mv.Fin(0)
    assert C.leq(mv.Fin(3), mv.CoFin(3))
    for x in C.enumerate(5):
        assert C.inf(x, x) == x
    assert C.one == mv.CoFin(0)
    # d(c, 3c) = 2c
    assert C.d(mv.Fin(1), mv.Fin(3)) == mv.Fin(2)


def test_mv_axioms_on_every_carrier_kind():
    gamma2 = mv.gamma(mv.ZGroup(), 2)
    sigma_z2 = mv.sigma(mv.ZnGroup(2))
    for A in (C, B, L2, CC, gamma2, sigma_z2):
        elems = A.enumerate(3)
        for x in elems:
            assert A.oplus(x, A.zero) == x
            assert A.neg(A.neg(x)) == x
            assert A.oplus(x, A.one) == A.one
        for x, y in itertools.product(elems, repeat=2):
            assert A.oplus(x, y) == A.oplus(y, x)
            lhs = A.oplus(A.neg(A.oplus(A.neg(x), y)), y)
            rhs = A.oplus(A.neg(A.oplus(A.neg(y), x)), x)
            assert lhs == rhs
        for x, y, z in itertools.product(elems[:6], repeat=3):
            assert A.oplus(x, A.oplus(y, z)) == A.oplus(A.oplus(x, y), z)


def test_scalar_and_power_base_cases():
    assert mv.nat_scalar(C, 0, mv.Fin(7)) == C.zero
    assert mv.nat_scalar(C, 1, mv.Fin(7)) == mv.Fin(7)
    assert mv.mv_power(C, mv.Fin(7), 0) == C.one
    assert mv.mv_power(C, mv.CoFin(2), 2) == mv.CoFin(4)


def test_order_facts():
    for n in range(1, 11):
        assert mv.order_of(C, mv.CoFin(n), 10) == Finite(2)
        assert mv.order_of(C, mv.Fin(n), 50) == NoneUpTo(50)
    assert mv.order_of(C, C.one, 5) == Finite(1)
    assert mv.order_of(C, C.zero, 50) == NoneUpTo(50)


def test_radical_and_coradical_membership():
    for n in range(0, 20):
        assert mv.radical_membership(C, mv.Fin(n))
        assert not mv.coradical_membership(C, mv.Fin(n))
        assert mv.coradical_membership(C, mv.CoFin(n))
        assert not mv.radical_membership(C, mv.CoFin(n))
    assert mv.radical_membership(C, C.zero)
    # exactly one of the two holds on C and on sigma carriers
    sigma_z2 = mv.sigma(mv.ZnGroup(2))
    for A in (C, sigma_z2):
        for x in A.enumerate(6):
            assert mv.radical_membership(A, x) != mv.coradical_membership(A, x)


def test_boolean_skeleton_of_chang_is_bounds_only():
    booleans = [x for x in C.enumerate(20) if mv.is_boolean(C, x)]
    assert booleans == [mv.Fin(0), mv.CoFin(0)]
    assert not mv.is_boolean(C, mv.Fin(1))
    assert mv.is_boolean(CC, (mv.CoFin(0), mv.Fin(0)))


def test_boolean_skeleton_generators():
    assert mv.boolean_skeleton_generators(C, [mv.Fin(2)]) == [mv.Fin(0)]
    assert mv.boolean_skeleton_generators(C, [C.zero]) == [C.zero]
    assert mv.boolean_skeleton_generators(CC, [(mv.Fin(1), mv.CoFin(1))]) == \
        [(mv.Fin(0), mv.CoFin(0))]
    for A in (C, CC):
        for g in A.enumerate(4):
            img = mv.boolean_skeleton_generators(A, [g])[0]
            assert mv.is_boolean(A, img)


def test_chang_variety_checks():
    assert mv.check_chang_variety(C, 20).ok
    assert mv.check_chang_variety(B, 2).ok
    v = mv.check_chang_variety(L2, 3)
    assert not v.ok and v.env == 1  # the midpoint 1/2
    assert mv.check_chang_variety(CC, 6).ok


def test_perfectness_checks():
    assert mv.check_perfect(C, 20).ok
    trivial = mv.FiniteChainAlgebra(0)
    rep = mv.check_perfect(trivial, 1)
    assert not rep.ok and rep.verdict.axiom == "P.4"
    rep = mv.check_perfect(CC, 8)
    assert not rep.ok
    assert rep.verdict.axiom == "P.3"
    assert rep.verdict.env == (mv.Fin(0), mv.CoFin(0))
    assert rep.families_agree
    assert mv.check_perfect(B, 4).ok


def test_gamma_n_property_on_chang_models():
    # 2^n x = 1 implies 2x = 1, n <= 5, over every Chang-model carrier
    sigma_z2 = mv.sigma(mv.ZnGroup(2))
    for A in (C, B, CC, sigma_z2):
        window = A.enumerate(8)
        for n in range(1, 6):
            for x in window:
                if mv.nat_scalar(A, 2 ** n, x) == A.one:
                    assert mv.nat_scalar(A, 2, x) == A.one


def test_rad_ideal_closure_properties():
    sigma_z2 = mv.sigma(mv.ZnGroup(2))
    for A in (C, sigma_z2):
        rad = [x for x in A.enumerate(8) if mv.radical_membership(A, x)]
        for x, y in itertools.product(rad[:12], repeat=2):
            assert mv.radical_membership(A, A.oplus(x, y))
            assert mv.radical_membership(A, A.inf(x, y))
            assert mv.radical_membership(A, A.sup(x, y))


def test_carrier_mismatch_is_reported():
    with pytest.raises(mv.CarrierMismatchError):
        C.validate(3)
    with pytest.raises(mv.CarrierMismatchError):
        CC.validate((mv.Fin(0),))
    with pytest.raises(mv.CarrierMismatchError):
        L2.validate(5)


def test_chang_indices_stay_natural():
    for make in (lambda n: mv.ChangElem("fin", n),
                 lambda n: mv.ChangElem("cofin", n), mv.Fin, mv.CoFin):
        with pytest.raises(ValueError, match="natural number"):
            make(-1)


def test_products_take_plain_tuples_only():
    # Records with two Chang elements as fields have CC's arity; they are
    # still not elements of CC.
    a, b = mv.Fin(1), mv.CoFin(0)
    for record in (LexPair(a, b), CanonPair(a, b)):
        with pytest.raises(mv.CarrierMismatchError):
            CC.validate(record)
    CC.validate((a, b))


def test_lexicographic_intervals_are_infinite_over_an_infinite_tail():
    # [0, (1, 0)] in Z x_lex Z holds (0, g) for every g >= 0.
    assert mv.gamma(mv.LexGroup(mv.ZGroup()), LexPair(1, 0)).carrier() is None
    trivial = mv.LexGroup(mv.ZnGroup(0))
    assert mv.gamma(trivial, LexPair(2, ())).carrier() == [
        LexPair(0, ()), LexPair(1, ()), LexPair(2, ())]
    assert mv.gamma(mv.ZnGroup(2), (1, 2)).carrier() == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_enumerate_monotone_and_deterministic():
    for A in (C, CC, mv.sigma(mv.ZGroup())):
        a = A.enumerate(3)
        b = A.enumerate(4)
        assert a == A.enumerate(3)
        assert set(a) <= set(b)


def test_pointed_algebra_descriptor_and_delegation():
    P = mv.PointedAlgebra(C, mv.Fin(1))
    assert P.unit == mv.Fin(1)
    assert P.oplus(mv.Fin(1), mv.Fin(2)) == mv.Fin(3)
    assert P.descriptor() == "Pointed(C,1c)"


# ---------------------------------------------------------------------------
# Gamma/Sigma compute their derived operations and their window directly,
# and C and products their order and lattice operations; the MvAlgebra
# derivations and the group-window filter are the reference.
# ---------------------------------------------------------------------------

_Z, _Z2, _LEX_ZZ = mv.ZGroup(), mv.ZnGroup(2), mv.LexGroup(mv.ZGroup())
INTERVAL_CARRIERS = [
    mv.sigma(_Z),
    mv.sigma(_Z2),
    mv.sigma(_LEX_ZZ),
    mv.gamma(_Z, 2),
    mv.gamma(_Z2, (2, 1)),
    mv.gamma(_LEX_ZZ, LexPair(1, 0)),
    mv.gamma(_LEX_ZZ, LexPair(2, -1)),
    mv.PointedAlgebra(mv.sigma(_Z2), LexPair(0, (1, 1))),
]


LATTICE_CARRIERS = [
    C, CC, mv.ProductAlgebra([C, L2]),
    mv.ProductAlgebra([mv.ProductAlgebra([C, B]), mv.sigma(_Z2)]),
]


@pytest.mark.parametrize("A", INTERVAL_CARRIERS + LATTICE_CARRIERS,
                         ids=lambda A: A.descriptor())
@given(data=st.data())
def test_direct_operations_equal_the_derived_ones(A, data):
    window = A.enumerate(data.draw(st.integers(1, 10), label="bound"))
    x = data.draw(st.sampled_from(window), label="x")
    y = data.draw(st.sampled_from(window), label="y")
    for op in ("odot", "ominus", "inf", "sup", "leq", "d"):
        assert getattr(A, op)(x, y) == getattr(mv.MvAlgebra, op)(A, x, y), op


chang_elems = st.builds(mv.ChangElem, st.sampled_from(["fin", "cofin"]), naturals)


@given(chang_elems, chang_elems)
def test_chang_order_equals_the_derived_one_at_arbitrary_precision(x, y):
    for op in ("odot", "inf", "sup", "leq"):
        assert getattr(C, op)(x, y) == getattr(mv.MvAlgebra, op)(C, x, y), op


def test_interval_enumeration_keeps_the_window_filter_order():
    for A in INTERVAL_CARRIERS:
        inner = getattr(A, "algebra", A)
        g, u = inner.group, inner.unit
        for b in range(1, 6):
            old = [x for x in g.enumerate(b) if g.leq(g.zero, x) and g.leq(x, u)]
            assert A.enumerate(b) == old, (A.descriptor(), b)
