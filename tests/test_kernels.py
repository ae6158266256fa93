"""The int64 kernels of the vector engine against the carriers' own
operations, which stay the reference."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mvtool as mv
from mvtool import kernels
from mvtool.decompose import FiniteQuotientAlgebra
from mvtool.kernels import codec_for, rows_differ, unique_ints, unique_rows

from helpers import ConeOfZ, decode_one, encode_one

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
    assert codec.decode_all(codec.encode_all(xs + ys)) == xs + ys

    def decoded(row):
        # Rows are canonical: the vector engine keys elements by row.
        [value] = codec.decode_all(np.array([row], dtype=np.int64))
        assert codec.encode_all([value]).tolist() == [row], row
        return value

    # The engine's dense route: a (rows, 1) block against a (1, cols) one.
    rx = codec.encode_all(xs)[:, None]
    ry = codec.encode_all(ys)[None, :]
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
        # The homomorphism checks' route: two equal-length lists of rows.
        k = min(len(xs), len(ys))
        got = getattr(codec, op)(rx[:k, 0], ry[0, :k]).tolist()
        for x, y, row in zip(xs, ys, got):
            assert (row if op == "leq" else decoded(row)) == ref(x, y), (op, x, y)
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

    class BrokenInf(ConeOfZ):
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
            assert rows.tolist() == [encode_one(codec, x)
                                     for x in model.enumerate(bound)], (desc, bound)
            assert len(set(keys)) == len(keys), (desc, bound)
            # Read once: a second reading hands back the same rows.
            assert vector._window_rows(model, window, codec)[0] is rows


def test_cached_window_rows_belong_to_their_codec():
    from mvtool import checking, vector

    model = MODELS["Lex(Z,Z)"]
    codec = codec_for(model)

    class Shifted(type(codec)):
        def encode_all(self, values):
            return super().encode_all(values) + 1

    shifted = Shifted(codec.tail)
    window = checking._window(model, 2)
    rows, _ = vector._window_rows(model, window, codec)
    other, _ = vector._window_rows(model, window, shifted)
    assert other.tolist() == [[c + 1 for c in encode_one(codec, x)] for x in window]
    assert (other == rows + 1).all()


# -- codecs a batch at a time ---------------------------------------------------


@pytest.mark.parametrize("desc", list(MODELS))
def test_batch_codecs_equal_the_per_element_definition(desc):
    model = MODELS[desc]
    codec = codec_for(model)
    for bound in (1, 2, 3):
        window = model.enumerate(bound)
        rows = codec.encode_all(window)
        assert rows.dtype == np.int64 and rows.shape == (len(window), codec.width)
        assert rows.tolist() == [encode_one(codec, x) for x in window], bound
        assert codec.decode_all(rows) == [decode_one(codec, r) for r in rows.tolist()] \
            == window, bound
    empty = codec.encode_all([])
    assert empty.dtype == np.int64 and empty.shape == (0, codec.width)
    assert codec.decode_all(empty) == []


_BIG = 2 ** 63


@pytest.mark.parametrize("desc, x, overflows", [
    ("Z", _BIG, True), ("Z", -_BIG - 1, True), ("Z", -_BIG, False),
    ("Z^3", (0, _BIG, 0), True),
    ("Lex(Z,Z)", mv.LexPair(_BIG, 0), True), ("Lex(Z,Z)", mv.LexPair(0, _BIG), True),
    ("N^2", (_BIG, 0), True),
    ("C", mv.Fin(_BIG), True), ("C", mv.CoFin(_BIG), False),
    ("C", mv.CoFin(_BIG + 1), True),
    ("Prod(C,L(2))", (mv.Fin(_BIG), 0), True), ("Prod(C,L(2))", (mv.Fin(0), _BIG), True),
    # A difference with no int64, one with -2^63 from a v without it, and
    # a nested one.
    ("Groth(N)", mv.CanonPair(_BIG, 0), True), ("Groth(N)", mv.CanonPair(0, _BIG), False),
    ("Groth(N)", mv.CanonPair(2 ** 62, -2 ** 62), True),
    ("Groth(N^2)", mv.CanonPair((0, _BIG), (0, 0)), True),
    ("Groth(PosCone(Groth(N)))",
     mv.CanonPair(mv.CanonPair(_BIG, 0), mv.CanonPair(0, 0)), True),
    ("Groth(Rad(C))", mv.CanonPair(mv.Fin(0), mv.Fin(_BIG)), False),
    ("Groth(Rad(C))", mv.CanonPair(mv.Fin(_BIG), mv.Fin(0)), True),
])
def test_batch_codecs_overflow_where_the_rows_do(desc, x, overflows):
    """encode_all raises OverflowError exactly where an int64 array of
    the per-element rows does."""
    model = MODELS[desc]
    codec = codec_for(model)
    values = [model.zero, x]
    try:
        expect = np.array([encode_one(codec, v) for v in values], dtype=np.int64)
    except OverflowError:
        expect = None
    assert (expect is None) == overflows
    if overflows:
        with pytest.raises(OverflowError):
            codec.encode_all(values)
    else:
        np.testing.assert_array_equal(codec.encode_all(values), expect, strict=True)


@pytest.mark.parametrize("desc, x", [
    ("Z", 2 ** 60), ("Lex(Z,Z)", mv.LexPair(0, -2 ** 60)), ("C", mv.Fin(2 ** 60)),
    ("Groth(N)", mv.CanonPair(0, 2 ** 60)),
    ("Groth(PosCone(Groth(N)))",
     mv.CanonPair(mv.CanonPair(2 ** 60, 0), mv.CanonPair(0, 0))),
])
def test_rows_at_the_limit_are_rejected_downstream(desc, x):
    """A row reaching 2^60 is encoded as it is, and every caller rejects
    it: the memoised window, the interner in code space, and a
    homomorphism check's side in code space.  The interner without a
    codec, which the check starts over on, keeps the element."""
    from mvtool import homomorphism, vector

    model = MODELS[desc]
    codec = codec_for(model)
    assert codec.encode_all([x]).tolist() == [encode_one(codec, x)]
    assert vector._encode_window([model.zero, x], codec) is None
    with pytest.raises(kernels._AtLimit):
        vector.OperationTables(model, codec).intern_all([model.zero, x])
    tables = vector.OperationTables(model)
    idx = tables.intern_all([model.zero, x])
    assert tables.elements(idx.tolist()) == [model.zero, x]
    with pytest.raises(kernels._AtLimit):
        homomorphism._Rows(codec).keys([model.zero, x])


# -- distinct values by counting ------------------------------------------------


def _counts(span: int, n: int) -> bool:
    """Whether a span of ``span`` keys over ``n`` entries is counted."""
    return span < 1 << 62 and span <= max(n, kernels._COUNT_SPAN)


def _unique_rows_route(rows):
    """``unique_rows(rows)``, and whether it counted."""
    with mock.patch.object(kernels, "_count", wraps=kernels._count) as count:
        got = unique_rows(rows)
    span = math.prod(int(c.max()) - int(c.min()) + 1 for c in rows.T)
    assert count.called == _counts(span, len(rows)), (span, len(rows))
    return got


def _assert_unique_rows(rows):
    first, inverse = _unique_rows_route(rows)
    _, ref_first, ref_inverse = np.unique(rows, axis=0, return_index=True,
                                          return_inverse=True)
    np.testing.assert_array_equal(first, ref_first, strict=True)
    np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1), strict=True)


# Coordinate magnitudes: row spans under the counting rule, on either side
# of it, far above it, and keys at or beyond 2^62, which np.unique(axis=0)
# takes.
_MAGNITUDES = [3, 8, 2_000, 2 ** 40, 2 ** 61]


@given(data=st.data())
def test_unique_rows_is_np_unique(data):
    r = data.draw(st.sampled_from(_MAGNITUDES), label="magnitude")
    rows = data.draw(arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(1, 3)),
                            elements=st.integers(-r, r)), label="rows")
    _assert_unique_rows(rows)


_RNG = np.random.default_rng(21)


@pytest.mark.parametrize("rows", [
    np.array([[-5, 7, -2**59]]),                        # one row
    np.full((9, 3), -4),                                # all rows equal
    np.array([[1], [0], [1], [0], [2], [1]]),           # least first positions
    np.array([[-3, 2], [-3, 1], [4, 2], [-3, 2]]),      # negative coordinates
    _RNG.integers(-2, 3, (50, 5)),                      # span 3125, counted
    _RNG.integers(0, 5_000, (6_000, 1)),                # span ~5000 <= n, counted
    _RNG.integers(0, 5_000, (3_000, 1)),                # span ~5000 > n, sorted
    np.array([[2**61 - 1, 0], [-2**61 + 1, 1], [2**61 - 1, 0]]),  # key >= 2^62
], ids=lambda rows: str(rows.shape))
def test_unique_rows_on_both_routes(rows):
    _assert_unique_rows(np.asarray(rows, dtype=np.int64))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_column_wise_comparisons_reduce_the_last_axis(width):
    # Every row over {-1, 0, 1} (so some pairs differ in the last column
    # only), from all the rows and from none against every row.
    rows = np.array(list(itertools.product((-1, 0, 1), repeat=width)),
                    dtype=np.int64)
    leq = kernels.Coords(width, scalar=False).leq
    for a in (rows[:, None], rows[:0, None]):
        b = rows[None, :]
        np.testing.assert_array_equal(leq(a, b), (a <= b).all(axis=-1),
                                      strict=True)
        np.testing.assert_array_equal(rows_differ(a, b), (a != b).any(axis=-1),
                                      strict=True)


def _assert_unique_ints(arr, end):
    with mock.patch.object(kernels, "_count", wraps=kernels._count) as count:
        vals, inverse = unique_ints(arr, end)
    assert count.called == _counts(end, arr.size), (end, arr.size)
    ref_vals, ref_inverse = np.unique(arr, return_inverse=True)
    np.testing.assert_array_equal(vals, ref_vals, strict=True)
    np.testing.assert_array_equal(inverse, ref_inverse.reshape(arr.shape), strict=True)


@given(data=st.data())
def test_unique_ints_is_np_unique(data):
    end = data.draw(st.sampled_from([1, 5, 4_096, 4_097, 10**6, 2**40]), label="end")
    arr = data.draw(arrays(np.int64, array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                  max_side=6),
                           elements=st.integers(0, end - 1)), label="arr")
    _assert_unique_ints(arr, end)


@pytest.mark.parametrize("arr, end", [
    (np.array(7), 8),                                   # 0-d
    (np.array(7), 2**40),
    (_RNG.integers(0, 5_000, (2_000, 3)), 5_000),       # span <= n, counted
    (_RNG.integers(0, 5_000, (1_000, 3)), 5_000),       # span > n, sorted
], ids=lambda v: str(np.shape(v)) if isinstance(v, np.ndarray) else str(v))
def test_unique_ints_on_both_routes(arr, end):
    _assert_unique_ints(np.asarray(arr, dtype=np.int64), end)


def test_unique_ints_inverse_keeps_the_shape_when_np_unique_is_flat(monkeypatch):
    """Before numpy 2.0, np.unique's inverse is flat whatever the input's
    shape; the sorted route still returns it shaped like the input."""
    real = np.unique

    def flat_unique(*args, **kwargs):
        vals, inverse = real(*args, **kwargs)
        return vals, inverse.reshape(-1)

    monkeypatch.setattr(np, "unique", flat_unique)
    arr = np.array([[10**6], [3], [10**6]], dtype=np.int64)
    vals, inverse = unique_ints(arr, 2**40)
    np.testing.assert_array_equal(vals, [3, 10**6])
    np.testing.assert_array_equal(inverse, [[1], [0], [1]], strict=True)


def test_tables_and_reconstructions_count_instead_of_sorting(monkeypatch):
    """The vector engine's tables and the homomorphism checks find distinct
    values without np.unique when the span is small; a wide span still
    sorts, with the carrier's own results."""
    from mvtool.vector import OperationTables

    sorts = []

    def spy(*args, real=np.unique, **kwargs):
        sorts.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    C = mv.ChangAlgebra()
    assert mv.check_sequent(C, mv.lookup("gamma_3"), 64, engine="vector") == mv.Holds()
    CC = mv.parse_model("Prod(C,C)")
    d = mv.decompose_product(CC, [(mv.Fin(1), mv.CoFin(1))], bound=8)
    assert mv.product_reconstruction_check(CC, d, 8).ok
    assert sorts == []

    G = MODELS["Lex(Z,Z^2)"]
    xs = [mv.LexPair(h, (a, b)) for h, a, b in
          ((0, 0, 0), (1_000, -3, 7), (-1_000, 2_000, -2_000), (5, 5, 5))]
    tables = OperationTables(G, codec_for(G))
    idx = tables.intern_all(xs)
    table = tables.binary_table("add", idx[:, None], idx[None, :])
    assert sorts
    assert [[tables.element(i) for i in row] for row in table.tolist()] == \
        [[G.add(x, y) for y in xs] for x in xs]
