"""The int64 kernels of the vector engine against the carriers' own
operations, which stay the reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mvtool as mv
from mvtool.decompose import FiniteQuotientAlgebra
from mvtool.kernels import codec_for

OPS = {
    "mv": ("oplus", "neg", "odot", "inf", "sup", "leq", "d"),
    "lgroup": ("add", "negate", "inf", "sup", "leq"),
    "monoid": ("add", "inf", "sup", "leq"),
}
UNARY = ("neg", "negate")

# One carrier of every kind that has a codec, nested as the descriptors
# allow.
ENCODED = [
    "Z", "Z^3", "Lex(Z,Z)", "Lex(Z,Z^2)", "Lex(Z,Lex(Z,Z))",
    "Unital(Z,1)", "Unital(Lex(Z,Z),(1,0))", "Unital(Groth(N^2),[(1,1),(0,0)])",
    "Groth(N)", "Groth(N^2)", "Groth(PosCone(Z^2))", "Groth(PosCone(Lex(Z,Z)))",
    "Lex(Z,Groth(N))", "Groth(PosCone(Groth(N)))", "Gamma(Groth(N),[2,0])",
    "Sigma(Groth(N))",
    "N", "N^2", "PosCone(Z^2)", "PosCone(Lex(Z,Z))", "PosCone(Groth(N))",
    "C", "B", "L(3)", "Trivial", "Gamma(Z,2)", "Gamma(Z^2,(2,1))",
    "Gamma(Lex(Z,Z),(2,-1))", "Sigma(Z^2)", "Sigma(Lex(Z,Z))",
    "Prod(C,L(2))", "Prod(C,Sigma(Z),B)",
    "Pointed(C,1c)", "Pointed(Sigma(Z^2),(0,(1,1)))",
]
MODELS = {d: mv.parse_model(d) for d in ENCODED}
# The radical monoids of unit intervals, the Delta groups of Sigma-shaped
# intervals, and Sigma of those.
for _model in (mv.RadicalMonoid(mv.ChangAlgebra()),
               mv.RadicalMonoid(mv.parse_model("Sigma(Z^2)")),
               mv.delta(mv.ChangAlgebra()), mv.delta(mv.parse_model("Sigma(Z^2)")),
               mv.delta(mv.parse_model("Sigma(Lex(Z,Z))")),
               mv.delta(mv.parse_model("Pointed(C,1c)")),
               mv.sigma(mv.delta(mv.ChangAlgebra())),
               mv.sigma(mv.delta(mv.parse_model("Sigma(Z^2)")))):
    MODELS[_model.descriptor()] = _model


def _reference(model, op):
    # MvAlgebra's derivations from oplus and neg are the reference for C
    # and L(m), named here explicitly.
    if isinstance(model, (mv.ChangAlgebra, mv.FiniteChainAlgebra)) and \
            op not in ("oplus", "neg"):
        return lambda x, y: getattr(mv.MvAlgebra, op)(model, x, y)
    return getattr(model, op)


@pytest.mark.parametrize("desc", list(MODELS))
@given(data=st.data())
def test_kernels_equal_the_carrier_operations(desc, data):
    model = MODELS[desc]
    codec = codec_for(model)
    window = model.enumerate(data.draw(st.integers(1, 6), label="bound"))
    elems = st.lists(st.sampled_from(window), min_size=1, max_size=4)
    xs, ys = data.draw(elems, label="xs"), data.draw(elems, label="ys")
    for x in xs + ys:
        assert codec.decode(codec.encode(x)) == x

    def decoded(row):
        # Rows are canonical: the vector engine keys elements by row.
        value = codec.decode(row)
        assert codec.encode(value) == row, row
        return value

    # The engine's dense route: a (rows, 1) block against a (1, cols) one.
    rx = np.array([codec.encode(x) for x in xs], dtype=np.int64)[:, None]
    ry = np.array([codec.encode(y) for y in ys], dtype=np.int64)[None, :]
    for op in OPS[model.signature]:
        ref = _reference(model, op)
        if op in UNARY:
            got = getattr(codec, op)(rx[:, 0]).tolist()
            assert [decoded(r) for r in got] == [ref(x) for x in xs], op
            continue
        got = getattr(codec, op)(rx, ry).tolist()
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                value = got[i][j] if op == "leq" else decoded(got[i][j])
                assert value == ref(x, y), (op, x, y)
    if model.signature == "monoid" and not isinstance(model, mv.RadicalMonoid):
        # A cone's sub is its group's, which is the monoid's subtract
        # where that is defined, for y <= x.
        got = codec.sub(rx, ry).tolist()
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if model.leq(y, x):
                    assert decoded(got[i][j]) == model.subtract(x, y), (x, y)


def test_codecs_cover_exact_types_only():
    C = mv.ChangAlgebra()

    class BrokenInf(mv.NMonoid):
        def inf(self, x, y):
            return 0

    uncovered = [
        BrokenInf(),
        mv.GrothendieckGroup(BrokenInf()),
        mv.pair_group_ops(C),         # RadPairGroup, a GrothendieckGroup subclass
        mv.RadicalMonoid(mv.parse_model("Prod(C,C)")),  # not a unit interval
        FiniteQuotientAlgebra(mv.parse_model("Prod(B,L(2))"), (1, 0)),
        mv.parse_model("Z^0"),
        mv.parse_model("Prod(C,Gamma(Z^0,()))"),
        mv.ProductAlgebra([]),
        # The radical monoid of a unit interval that is not Sigma-shaped
        # is not a cone: its Grothendieck group has no codec.
        mv.GrothendieckGroup(mv.RadicalMonoid(mv.parse_model("L(3)"))),
        # A unit that has no valid code.
        mv.parse_model(f"Gamma(Z,{2 ** 60})"),
        mv.FiniteChainAlgebra(2 ** 61),
    ]
    for model in uncovered:
        assert codec_for(model) is None, model.descriptor()
    assert codec_for(mv.parse_model(f"Gamma(Z,{2 ** 60 - 1})")) is not None


def test_cached_window_rows_equal_the_encoded_window():
    from mvtool import checking, vector

    for desc in ENCODED:
        model = MODELS[desc]
        codec = codec_for(model)
        for bound in (1, 2, 3):
            window = checking._window(model, bound)
            rows, keys = vector._window_rows(model, window, codec)
            assert rows.tolist() == [list(codec.encode(x))
                                     for x in model.enumerate(bound)], (desc, bound)
            assert len(set(keys)) == len(keys), (desc, bound)
            # Read once: a second reading hands back the same rows.
            assert vector._window_rows(model, window, codec)[0] is rows


def test_cached_window_rows_belong_to_their_codec():
    from mvtool import checking, vector

    model = MODELS["Lex(Z,Z)"]
    codec = codec_for(model)

    class Shifted(type(codec)):
        def encode(self, x):
            return [c + 1 for c in super().encode(x)]

    shifted = Shifted(codec.tail)
    window = checking._window(model, 2)
    rows, _ = vector._window_rows(model, window, codec)
    other, _ = vector._window_rows(model, window, shifted)
    assert other.tolist() == [shifted.encode(x) for x in window]
    assert (other == rows + 1).all()
