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
from mvtool.kernels import codec_for, intern_rows, rows_differ, unique_ints, unique_rows

from helpers import README_DESCRIPTORS, ConeOfZ, decode_one, encode_one

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
        [value] = codec.decode_all(np.array(row, dtype=np.int64)[:, None])
        assert codec.encode_all([value])[:, 0].tolist() == row, row
        return value

    def cells(arr, op):
        # Each cell's code row, or its truth value for leq.
        return (arr if op == "leq" else np.moveaxis(arr, 0, -1)).tolist()

    # The engine's dense route: a (width, rows, 1) block against a
    # (width, 1, cols) one.
    rx = codec.encode_all(xs)[:, :, None]
    ry = codec.encode_all(ys)[:, None, :]
    for op in OPS[model.signature]:
        ref = _reference(model, op)
        if op in UNARY:
            got = cells(getattr(codec, op)(rx[:, :, 0]), op)
            assert [decoded(r) for r in got] == [ref(x) for x in xs], op
            continue
        got = cells(getattr(codec, op)(rx, ry), op)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                value = got[i][j] if op == "leq" else decoded(got[i][j])
                assert value == ref(x, y), (op, x, y)
        # The homomorphism checks' route: two equal-length lists of rows.
        k = min(len(xs), len(ys))
        got = cells(getattr(codec, op)(rx[:, :k, 0], ry[:, 0, :k]), op)
        for x, y, row in zip(xs, ys, got):
            assert (row if op == "leq" else decoded(row)) == ref(x, y), (op, x, y)
    if model.signature == "monoid" and not isinstance(model, mv.RadicalMonoid):
        # A cone's sub is its group's, which is the monoid's subtract
        # where that is defined, for y <= x.
        got = cells(codec.sub(rx, ry), "sub")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if model.leq(y, x):
                    assert decoded(got[i][j]) == model.subtract(x, y), (x, y)


def test_symmetric_kernels_give_one_row_for_both_orders():
    """Each operation of ``kernels.SYMMETRIC`` gives op(b, a) the row of
    op(a, b), on the window at bound 3 of every carrier with a codec that
    the tests build: the kernel carriers above, the README's and the
    verdict corpus's."""
    from test_verdict_corpus import verdict_sweep

    models = (list(MODELS.values()) + [mv.parse_model(d) for d in README_DESCRIPTORS]
              + verdict_sweep.carriers())
    checked = set()
    for model in models:
        codec = codec_for(model)
        if codec is None:
            continue
        rows = codec.encode_all(model.enumerate(3))
        a, b = rows[:, :, None], rows[:, None, :]
        for op in kernels.SYMMETRIC & set(dir(codec)):
            kernel = getattr(codec, op)
            np.testing.assert_array_equal(kernel(a, b), kernel(b, a), strict=True,
                                          err_msg=f"{op} on {model.descriptor()}")
            checked.add(op)
    assert checked == kernels.SYMMETRIC


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
            rows = vector._window_rows(model, window, codec)
            assert rows.T.tolist() == [encode_one(codec, x)
                                       for x in model.enumerate(bound)], (desc, bound)
            assert len(unique_rows(rows)[0]) == len(window), (desc, bound)
            # Read once: a second reading hands back the same rows.
            assert vector._window_rows(model, window, codec) is rows


def test_cached_window_rows_belong_to_their_codec():
    from mvtool import checking, vector

    model = MODELS["Lex(Z,Z)"]
    codec = codec_for(model)

    class Shifted(type(codec)):
        def encode_all(self, values):
            return super().encode_all(values) + 1

    shifted = Shifted(codec.tail)
    window = checking._window(model, 2)
    rows = vector._window_rows(model, window, codec)
    other = vector._window_rows(model, window, shifted)
    assert other.T.tolist() == [[c + 1 for c in encode_one(codec, x)] for x in window]
    assert (other == rows + 1).all()


# -- codecs a batch at a time ---------------------------------------------------


@pytest.mark.parametrize("desc", list(MODELS))
def test_batch_codecs_equal_the_per_element_definition(desc):
    model = MODELS[desc]
    codec = codec_for(model)
    for bound in (1, 2, 3):
        window = model.enumerate(bound)
        rows = codec.encode_all(window)
        assert rows.dtype == np.int64 and rows.shape == (codec.width, len(window))
        assert rows.T.tolist() == [encode_one(codec, x) for x in window], bound
        assert codec.decode_all(rows) == [decode_one(codec, r) for r in rows.T.tolist()] \
            == window, bound
    empty = codec.encode_all([])
    assert empty.dtype == np.int64 and empty.shape == (codec.width, 0)
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
        expect = np.array([encode_one(codec, v) for v in values], dtype=np.int64).T
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
    assert codec.encode_all([x]).T.tolist() == [encode_one(codec, x)]
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
    """``unique_rows`` of the (n, width) array ``rows`` given column-first,
    as (width, n), and whether it counted."""
    with mock.patch.object(kernels, "_count", wraps=kernels._count) as count:
        got = unique_rows(rows.T)
    span = math.prod(int(c.max()) - int(c.min()) + 1 for c in rows.T)
    assert count.called == _counts(span, len(rows)), (span, len(rows))
    return got


def _assert_unique_rows(rows):
    """``unique_rows`` against ``np.unique`` on the rows of the (n, width)
    array ``rows``."""
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


def _numbered_by_dict(index: dict, rows):
    """``intern_rows``' definition on tuples: ``index`` maps each known row
    to its number, and numbers each new row of the (width, n) array
    ``rows``, at its first appearance, after the rows it already holds."""
    numbers, fresh = [], []
    for j, row in enumerate(zip(*rows.tolist())):
        if row not in index:
            index[row] = len(index)
            fresh.append(j)
        numbers.append(index[row])
    return numbers, fresh


def _interned_by_dict(known, rows):
    """``_numbered_by_dict`` from the rows of the (width, k) array
    ``known``."""
    return _numbered_by_dict({row: i for i, row in enumerate(zip(*known.tolist()))},
                             rows)


def _assert_interned(known, rows):
    """``intern_rows`` against the dict of tuples; returns the route that
    ``unique_rows`` took over the known rows and the new ones."""
    known = np.asarray(known, dtype=np.int64).reshape(len(rows), -1)
    rows = np.asarray(rows, dtype=np.int64)
    with mock.patch.object(kernels, "_count", wraps=kernels._count) as count, \
            mock.patch.object(np, "unique", wraps=np.unique) as sort:
        numbers, fresh = intern_rows(known, rows)
    assert (numbers.tolist(), fresh.tolist()) == _interned_by_dict(known, rows)
    if count.called:
        return "counted"
    return "rows" if "axis" in sort.call_args.kwargs else "sorted"


_BIG_ROW = 2 ** 61 - 1


@pytest.mark.parametrize("known, rows, route", [
    pytest.param([], [[3, 1, 3, 2, 1], [0, 5, 0, 5, 5]], "counted",
                 id="no-known-rows"),
    pytest.param([[1, 2, 3], [4, 5, 6]], [[3, 1, 3, 2], [6, 4, 6, 5]], "counted",
                 id="all-known"),
    pytest.param([[1, 2], [4, 5]], [[7, 0, 9], [7, 0, 9]], "counted", id="all-new"),
    pytest.param([[0, 2, -1], [0, 0, 4]], [[2, 5, 5, -1, 2, 8], [0, 1, 1, 4, 0, 0]],
                 "counted", id="repeated"),
    # A span of about 10^6 keys over 7 rows.
    pytest.param([[0, 10 ** 6]], [[10 ** 6, 5, 0, 5, 7]], "sorted", id="sorted"),
    # Keys at or beyond 2^62: np.unique over the rows.
    pytest.param([[_BIG_ROW, 0], [0, 1]], [[-_BIG_ROW, _BIG_ROW, -_BIG_ROW], [1, 0, 1]],
                 "rows", id="beyond-2^62"),
    pytest.param([], [[-_BIG_ROW, _BIG_ROW, -_BIG_ROW], [1, 0, 1]], "rows",
                 id="beyond-2^62-no-known-rows"),
])
def test_intern_rows_numbers_new_rows_after_the_known_ones(known, rows, route):
    assert _assert_interned(known, rows) == route


@given(data=st.data())
def test_intern_rows_equals_a_dict_of_tuples(data):
    r = data.draw(st.sampled_from(_MAGNITUDES), label="magnitude")
    width = data.draw(st.integers(1, 3), label="width")
    row = st.tuples(*[st.integers(-r, r)] * width)
    known = data.draw(st.lists(row, max_size=20, unique=True), label="known")
    # The new rows are drawn from the known ones and from fresh ones.
    rows = data.draw(st.lists(st.sampled_from(known) | row if known else row,
                              min_size=1, max_size=30), label="rows")
    _assert_interned(np.array(known, dtype=np.int64).reshape(-1, width).T,
                     np.array(rows, dtype=np.int64).T)


def _assert_indexed(batches):
    """A ``KeyIndex`` fed the (width, n) arrays ``batches`` in turn, from
    none known, against one dict of tuples.  Returns, for each batch
    after the first, whether the index widened its box and whether it
    gave the batch to ``intern_rows``."""
    batches = [np.asarray(rows, dtype=np.int64) for rows in batches]
    index = {}
    routes = []
    with mock.patch.object(kernels, "intern_rows", wraps=intern_rows) as fallback, \
            mock.patch.object(kernels.KeyIndex, "_widen", autospec=True,
                              side_effect=kernels.KeyIndex._widen) as widen:
        key_index = kernels.KeyIndex(batches[0].shape[0])
        for rows in batches:
            widen.reset_mock()
            fallback.reset_mock()
            numbers, fresh = key_index.intern(rows)
            assert (numbers.tolist(), fresh.tolist()) == _numbered_by_dict(index, rows)
            routes.append((widen.called, fallback.called))
            assert key_index.rows.T.tolist() == [list(row) for row in index]
    assert key_index.k == len(index)
    return routes[1:]


@pytest.mark.parametrize("batches, routes", [
    pytest.param([[[0, 1, 2], [0, 1, 0]], [[2, 1, 0, 1], [1, 1, 0, 1]]],
                 [(False, False)], id="inside-the-box"),
    pytest.param([[[0, 1]], [[5, -3, 1, 5]], [[4, -2, 0]]],
                 [(True, False), (False, False)], id="widened"),
    pytest.param([[[3, 1, 3]], np.zeros((1, 0), dtype=np.int64), [[1, 3, 7]]],
                 [(False, False), (True, False)], id="empty-batch"),
    # A box of 5 001 slots for 11 rows goes to intern_rows; the rows then
    # known, with 700 more, make it small enough for a table again.
    pytest.param([[list(range(10))], [[5_000, 3]], [[9, 5_000]],
                  [list(range(10, 710))], [[4_999, 5_000, 0]]],
                 [(True, True), (True, True), (True, False), (False, False)],
                 id="fallback-and-back"),
    # A box of 2^62 slots or more goes to intern_rows.
    pytest.param([[[_BIG_ROW], [0]], [[-_BIG_ROW, _BIG_ROW], [1, 0]]],
                 [(True, True)], id="beyond-2^62"),
])
def test_key_index_widens_its_box_and_falls_back(batches, routes):
    assert _assert_indexed(batches) == routes


@given(data=st.data())
def test_key_index_equals_a_dict_of_tuples(data):
    r = data.draw(st.sampled_from(_MAGNITUDES), label="magnitude")
    width = data.draw(st.integers(1, 3), label="width")
    row = st.tuples(*[st.integers(-r, r)] * width)
    met = []
    batches = []
    for _ in range(data.draw(st.integers(1, 4), label="batches")):
        # Each batch draws rows met before and fresh ones.
        rows = data.draw(st.lists(st.sampled_from(met) | row if met else row,
                                  max_size=30), label="rows")
        met += rows
        batches.append(np.array(rows, dtype=np.int64).reshape(-1, width).T)
    _assert_indexed(batches)


@pytest.mark.parametrize("descriptor, bound", [
    ("Z^2", 3), ("Lex(Z,Z)", 3), ("Sigma(Z^2)", 2), ("Groth(N^2)", 2)])
def test_the_interner_numbers_rows_as_a_dict_of_tuples(descriptor, bound):
    """Through ``OperationTables``, the window and every table's result
    rows are numbered as one dict of tuples numbers them, in the order
    the kernels give them: each binary table over the window, then each
    unary table over every row interned so far."""
    from mvtool.vector import OperationTables

    model = mv.parse_model(descriptor)
    codec = codec_for(model)
    tables = OperationTables(model, codec)
    window = model.enumerate(bound)
    rows = codec.encode_all(window)
    index = {}
    idx = tables.intern_all(window)
    assert idx.tolist() == _numbered_by_dict(index, rows)[0]
    for op in OPS[model.signature]:
        if op == "leq":
            continue
        if op in UNARY:
            known = np.array(list(index), dtype=np.int64).T
            got = tables.unary_table(op, np.arange(len(index)))
            want = _numbered_by_dict(index, getattr(codec, op)(known))[0]
        else:
            got = tables.binary_table(op, idx[:, None], idx[None, :]).reshape(-1)
            results = getattr(codec, op)(rows[:, :, None], rows[:, None, :])
            want = _numbered_by_dict(index, results.reshape(len(rows), -1))[0]
        assert got.tolist() == want, op
        assert len(tables._elems) == tables._index.k == len(index), op
        assert tables._index.rows.T.tolist() == [list(row) for row in index], op


@pytest.mark.parametrize("seq", [
    mv.lookup("L.1"), mv.lookup("L.12"), mv.parse_sequent("x <= y |-[x,y] y <= x"),
], ids=["L.1", "L.12", "symmetry"])
def test_a_vector_check_on_rows_too_sparse_for_a_table(monkeypatch, seq):
    """A window whose box is far too wide for a direct-address table
    interns through ``intern_rows``, with the scalar engine's verdict and
    env."""
    Z = mv.ZGroup()
    monkeypatch.setattr(Z, "enumerate",
                        lambda b: [0, 10 ** 6, -10 ** 6, 10 ** 12, -10 ** 12])
    with mock.patch.object(kernels, "intern_rows", wraps=intern_rows) as fallback:
        vector = mv.check_sequent(Z, seq, 2, engine="vector")
    assert fallback.called
    assert vector == mv.check_sequent(Z, seq, 2, engine="scalar")


def test_the_wide_window_sigma_items_intern_through_the_table(monkeypatch):
    """The power lemmas on Sigma(Z^2) at bound 30 (1 922 elements, the
    vector engine) and rad_ideal at bound 5 intern every row through the
    key index's table, except gamma_2 to gamma_5: there the rows of n*x
    reach 30n in each tail coordinate, a box too wide for a table, so the
    n*x table and the 2*x table after it go to ``intern_rows``."""
    sigma = mv.parse_model("Sigma(Z^2)")
    calls = []
    monkeypatch.setattr(kernels, "intern_rows",
                        lambda *args: calls.append(1) or intern_rows(*args))
    items = ([(f"gamma_{n}", 30) for n in range(1, 6)]
             + [(f"chi_{n}", 30) for n in range(1, 9)]
             + [(f"rad_ideal.{r}", 5) for r in
                ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")])
    fallbacks = {}
    for label, bound in items:
        calls.clear()
        assert mv.check_sequent(sigma, mv.lookup(label), bound).ok, label
        if calls:
            fallbacks[label] = len(calls)
    assert fallbacks == {f"gamma_{n}": 2 for n in range(2, 6)}


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_column_wise_comparisons_reduce_the_last_axis(width):
    # Every row over {-1, 0, 1} (so some pairs differ in the last
    # coordinate only), from all the rows and from none against every
    # row, reduced over the coordinates: axis 0 of the column-first codes.
    rows = list(itertools.product((-1, 0, 1), repeat=width))
    codes = np.array(rows, dtype=np.int64).T
    leq = kernels.Coords(width, scalar=False).leq
    for xs in (rows, []):
        a, b = codes[:, :len(xs), None], codes[:, None, :]
        shape = (len(xs), len(rows))
        np.testing.assert_array_equal(
            leq(a, b), np.array([[all(p <= q for p, q in zip(x, y)) for y in rows]
                                 for x in xs], dtype=bool).reshape(shape),
            strict=True)
        np.testing.assert_array_equal(
            rows_differ(a, b), np.array([[x != y for y in rows] for x in xs],
                                        dtype=bool).reshape(shape),
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
