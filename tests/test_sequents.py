"""Parser, printer, evaluation, bounded checking, registry."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvtool as mv
from mvtool import registry
from mvtool import sequents as S
from mvtool.checking import check_sequent, eval_term
from mvtool.verdicts import CounterExample, Holds, InconclusiveAtBound

from helpers import (NODE_TWINS, README_DESCRIPTORS, RECORD_TWINS, ConeOfZ,
                     _raised, assert_nodes_behave_as_twins, doubling_steps,
                     record_codecs, spy_on_chunks)
from test_scalar_engine import _draw_sequent

C = mv.ChangAlgebra()
B = mv.FiniteChainAlgebra(1)
L2 = mv.FiniteChainAlgebra(2)
CC = mv.ProductAlgebra([C, C])
Z = mv.ZGroup()
N = mv.NMonoid()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_spec_examples():
    seq = mv.parse_sequent("x (+) x = x |-[x] x = 0 \\/ x = 1")
    assert seq.context == ("x",)
    assert seq == S.Sequent(
        ("x",),
        S.Eq(S.Oplus(S.Var("x"), S.Var("x")), S.Var("x")),
        S.Or(S.Eq(S.Var("x"), S.Zero()), S.Eq(S.Var("x"), S.One())),
    )
    seq = mv.parse_sequent("true |-[x] neg (neg x) = x")
    assert seq.antecedent == S.Top()
    assert seq.consequent == S.Eq(S.Neg(S.Neg(S.Var("x"))), S.Var("x"))
    seq = mv.parse_sequent("true |-[] 0 = 0")
    assert seq.context == ()
    assert check_sequent(C, seq, 1).ok


def test_parse_term_signatures():
    t = mv.parse_term("2*x^2", "mv")
    assert t == S.NatScalar(2, S.MvPower(S.Var("x"), 2))
    mv.parse_term("inf(x, y) + z", "lgroup")
    mv.parse_term("inf(x, y) + z", "monoid")
    with pytest.raises(mv.SignatureError):
        mv.parse_term("x (+) y", "lgroup")
    with pytest.raises(mv.SignatureError):
        mv.parse_term("- x", "monoid")
    with pytest.raises(mv.SignatureError):
        mv.parse_term("x (+) (y + z)", "mv")  # mixes the two sums


def test_parse_errors_carry_position():
    with pytest.raises(mv.ParseError) as exc:
        mv.parse_sequent("true |-[x] x = ")
    assert exc.value.line == 1
    with pytest.raises(mv.ParseError):
        mv.parse_sequent("true |-[x] 3 = x")  # bare numeral
    with pytest.raises(mv.SignatureError):
        mv.parse_sequent("true |-[x] x = y")  # y undeclared
    with pytest.raises(mv.ParseError):
        mv.parse_term("inf(x,)", "mv")


def test_scalar_variables_must_be_bound():
    mv.parse_sequent("true |-[x] bigvee n<=4 . x <= n*x")
    with pytest.raises(mv.SignatureError):
        S.Sequent(("x",), S.Top(),
                  S.Leq(S.Var("x"), S.NatScalar("n", S.Var("x"))))


def test_context_variables_are_distinct():
    for text in ("true |-[x,x] x <= neg x", "x = y |-[x,y,x] y = x"):
        with pytest.raises(mv.SignatureError, match="context repeats variable 'x'"):
            mv.parse_sequent(text)
    with pytest.raises(mv.SignatureError, match="context repeats variable 'y'"):
        S.Sequent(("y", "x", "y"), S.Top(), S.Top())
    # Every registry sequent still parses, so none repeats a variable.
    for label, seq in registry.named_sequents().items():
        assert len(set(seq.context)) == len(seq.context), label
        assert mv.parse_sequent(mv.print_sequent(seq)).context == seq.context


def test_registry_round_trips():
    for label, seq in registry.named_sequents().items():
        printed = mv.print_sequent(seq)
        again = mv.parse_sequent(printed)
        assert (again.context, again.antecedent, again.consequent) == \
            (seq.context, seq.antecedent, seq.consequent), label


# Random well-signed MV terms over variables x, y.


def mv_terms(depth=3):
    leaves = st.sampled_from(
        [S.Var("x"), S.Var("y"), S.Zero(), S.One()])
    if depth == 0:
        return leaves
    sub = mv_terms(depth - 1)
    return st.one_of(
        leaves,
        st.builds(S.Oplus, sub, sub),
        st.builds(S.Odot, sub, sub),
        st.builds(S.Neg, sub),
        st.builds(S.Inf, sub, sub),
        st.builds(S.Sup, sub, sub),
        st.builds(S.D, sub, sub),
        st.builds(S.NatScalar, st.integers(0, 5), sub),
        st.builds(S.MvPower, sub, st.integers(0, 3)),
    )


@given(mv_terms())
def test_printer_parser_roundtrip_on_random_terms(t):
    assert mv.parse_term(mv.print_term(t), "mv") == t


@given(mv_terms(depth=2), st.sampled_from(C.enumerate(3)),
       st.sampled_from(C.enumerate(3)))
def test_evaluation_is_compositional(t, vx, vy):
    env = {"x": vx, "y": vy}
    got = eval_term(C, t, env)
    if isinstance(t, S.Oplus):
        assert got == C.oplus(eval_term(C, t.left, env), eval_term(C, t.right, env))
    elif isinstance(t, S.Neg):
        assert got == C.neg(eval_term(C, t.arg, env))
    elif isinstance(t, S.Inf):
        assert got == C.inf(eval_term(C, t.left, env), eval_term(C, t.right, env))
    C.validate(got)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_term_examples():
    t = mv.parse_term("2*x", "mv")
    assert eval_term(C, t, {"x": mv.Fin(3)}) == mv.Fin(6)
    t = mv.parse_term("x + (- x)", "lgroup")
    assert eval_term(Z, t, {"x": 7}) == 0
    t = mv.parse_term("d(x, y)", "mv")
    assert eval_term(C, t, {"x": mv.Fin(1), "y": mv.Fin(3)}) == mv.Fin(2)


def test_eval_term_errors():
    with pytest.raises(mv.UnboundVariableError):
        eval_term(C, S.Var("zz"), {})
    with pytest.raises(mv.SignatureError):
        eval_term(Z, mv.parse_term("x (+) x", "mv"), {"x": 1})
    with pytest.raises(mv.SignatureError):
        eval_term(C, mv.parse_term("u", "mv"), {})  # C is not pointed


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def test_check_sequent_examples():
    assert check_sequent(C, registry.lookup("gamma_3"), 64).ok
    v = check_sequent(L2, registry.lookup("xi"), 3)
    assert isinstance(v, CounterExample) and v.env == {"x": 1}
    assert check_sequent(C, mv.parse_sequent("true |-[x] x = x"), 5).ok
    for bad in ({"bound": 0}, {"bound": 3, "exists_bound": 0},
                {"bound": 3, "exists_bound": -5}):
        with pytest.raises(ValueError):
            check_sequent(C, registry.lookup("MV.1"), **bad)


def test_search_window_is_built_only_for_existentials():
    class RecordingN(ConeOfZ):
        def __init__(self):
            super().__init__()
            self.bounds = []

        def enumerate(self, bound):
            self.bounds.append(bound)
            return super().enumerate(bound)

    M = RecordingN()
    assert check_sequent(M, registry.lookup("M.1"), 2, exists_bound=50).ok
    assert M.bounds == [2]
    assert check_sequent(M, registry.lookup("M.14"), 2, exists_bound=50).ok
    assert M.bounds == [2, 50]


def _record_enumerate(monkeypatch, model):
    """The bounds of every ``enumerate`` call on ``model``, in order."""
    bounds = []
    enumerate_ = model.enumerate

    def spy(bound):
        bounds.append(bound)
        return enumerate_(bound)

    monkeypatch.setattr(model, "enumerate", spy)
    return bounds


def test_a_family_reads_each_window_once(monkeypatch):
    sigma = mv.parse_model("Sigma(Z^2)")
    bounds = _record_enumerate(monkeypatch, sigma)
    labels = ["P.1", "P.2", "P.3", "P.4"]
    report = registry.check_family(sigma, labels, 3)
    assert all(report.verdicts[label].ok for label in labels)
    assert bounds == [3]
    # A later check at a new bound reads that window once, whatever its
    # engine or sequent.
    for label, bound in (("chi_2", 30), ("rad_ideal.i", 3), ("chi_2", 30)):
        assert check_sequent(sigma, registry.lookup(label), bound).ok
    assert bounds == [3, 30]


def test_the_window_memo_keeps_no_carrier_alive():
    import gc
    import weakref

    import mvtool.checking as checking
    sigma = mv.parse_model("Sigma(Z^2)")
    # The vector engine keeps code rows with the window.
    assert check_sequent(sigma, registry.lookup("chi_1"), 30).ok
    assert checking._window_codes(sigma, checking._window(sigma, 30))
    ref = weakref.ref(sigma)
    del sigma
    gc.collect()
    assert ref() is None


def test_a_bound_sweep_keeps_a_few_windows():
    import mvtool.checking as checking
    for model, text in ((mv.parse_model("Sigma(Z^2)"), "true |-[x] x^2 <= x"),
                        (mv.parse_model("Lex(Z,Z)"), "true |-[x] x + 0 = x")):
        for bound in range(1, 11):
            assert check_sequent(model, mv.parse_sequent(text), bound).ok
        assert list(checking._WINDOWS.get(model, {})) == list(
            range(11 - checking._WINDOWS_PER_CARRIER, 11))


def test_a_carrier_that_cannot_be_hashed_is_read_every_time():
    class Unhashable(ConeOfZ):
        __hash__ = None

        def __init__(self):
            super().__init__()
            self.bounds = []

        def enumerate(self, bound):
            self.bounds.append(bound)
            return super().enumerate(bound)

    M = Unhashable()
    for _ in range(2):
        assert check_sequent(M, registry.lookup("M.1"), 2).ok
    assert M.bounds == [2, 2]


def test_windows_without_cached_rows_keep_the_reference_verdict(monkeypatch):
    import mvtool.checking as checking
    import mvtool.vector as vector
    # A coordinate at the kernel limit, one beyond int64, and a repeated
    # element: the window is interned element by element.
    for extra in ([2 ** 60], [2 ** 63], [1]):
        M = mv.NMonoid()
        monkeypatch.setattr(M, "enumerate",
                            lambda b, extra=extra: list(range(b + 1)) + extra)
        window = checking._window(M, 2)
        assert vector._window_rows(M, window, vector.codec_for(M)) is None
        for label in ("M.3", "M.4", "M.11"):
            seq = registry.lookup(label)
            _assert_same_verdict(check_sequent(M, seq, 2, engine="vector"),
                                 check_sequent(M, seq, 2, engine="scalar"),
                                 (extra, label))


def test_a_warm_memo_keeps_the_codec_that_tables_get(monkeypatch):
    import mvtool.vector as vector
    sigma = mv.parse_model("Sigma(Z^2)")
    seq = registry.lookup("chi_2")
    assert check_sequent(sigma, seq, 30, engine="vector").ok
    monkeypatch.setattr(vector, "codec_for", lambda _: None)
    codecs = record_codecs(monkeypatch)
    assert check_sequent(sigma, seq, 30, engine="vector").ok
    assert codecs == [None]


def test_engine_parity_on_registry():
    _assert_engine_parity({
        "mv": [C, B, L2, CC],
        "lgroup": [Z, mv.ZnGroup(2)],
        "monoid": [N, mv.NnMonoid(2)],
    })


def test_engine_parity_on_interval_carriers():
    _assert_engine_parity({"mv": [
        mv.parse_model(d) for d in ("Sigma(Z^2)", "Gamma(Z^2,(2,1))",
                                    "Gamma(Lex(Z,Z),(2,-1))",
                                    "Pointed(Sigma(Z^2),(0,(1,1)))")
    ]})


def test_engine_parity_on_grothendieck_carriers():
    _assert_engine_parity({
        "lgroup": [mv.parse_model("Groth(N)"), mv.parse_model("Groth(N^2)"),
                   mv.delta(C)],
        "monoid": [mv.parse_model("PosCone(Z^2)"), mv.RadicalMonoid(C)],
    })
    _assert_engine_parity({"lgroup": [mv.delta(mv.parse_model("Sigma(Z^2)"))]},
                          max_bound=1)
    # Sigma(Delta(A)) and unit intervals of Groth(N): unit intervals over
    # the difference codec.
    _assert_engine_parity({"mv": [mv.sigma(mv.delta(C))] + [
        mv.parse_model(d) for d in ("Gamma(Groth(N),[2,0])", "Sigma(Groth(N))")]})
    _assert_engine_parity({"mv": [mv.sigma(mv.delta(mv.parse_model("Sigma(Z^2)")))]},
                          max_bound=2)


def test_engine_parity_on_encoded_carriers():
    _assert_engine_parity({
        "mv": [mv.parse_model(d) for d in ("Prod(C,L(2))", "L(3)")],
        "lgroup": [mv.parse_model(d) for d in
                   ("Lex(Z,Z)", "Unital(Lex(Z,Z),(1,0))", "Groth(PosCone(Z^2))")],
        "monoid": [mv.parse_model("PosCone(Lex(Z,Z))")],
    })
    _assert_engine_parity({"lgroup": [mv.parse_model("Lex(Z,Z^2)")]}, max_bound=1)


def _vector_verdicts(models, bound):
    out = {}
    for label, seq in registry.named_sequents().items():
        for model in models:
            if model.signature not in seq.signatures() or (
                    getattr(model, "unit", None) is None and _mentions_unit(seq)):
                continue
            out[label, model.descriptor()] = check_sequent(
                model, seq, bound, engine="vector", exists_bound=2 * bound)
    return out


def test_vector_engine_agrees_with_and_without_kernels(monkeypatch):
    import mvtool.vector as vector
    models = [mv.parse_model(d) for d in (
        "C", "Prod(C,L(2))", "Sigma(Z^2)", "Pointed(Sigma(Z^2),(0,(1,1)))",
        "Z^2", "Lex(Z,Z)", "Groth(N^2)", "Unital(Lex(Z,Z),(1,0))",
        "Groth(PosCone(Groth(N)))", "Unital(Groth(N^2),[(1,1),(0,0)])",
        "N^2", "PosCone(Lex(Z,Z))")]
    with_kernels = _vector_verdicts(models, 2)
    monkeypatch.setattr(vector, "codec_for", lambda model: None)
    codecs = record_codecs(monkeypatch)
    assert _vector_verdicts(models, 2) == with_kernels
    assert codecs and all(c is None for c in codecs)


def test_vector_engine_falls_back_beyond_the_kernel_limit():
    # 4u, and 3u added to a window element, pass 2^60 for u = 2^59 + 3;
    # u = 2^62 has no code at all; u = 2^40 stays within the kernels.
    sequents = [
        ("x <= y |-[x,y] x + u + u + u <= y + u + u + u", Holds, None),
        ("true |-[x] x <= 3*u", Holds, None),
        ("true |-[x,y] u + u + u + u <= x + y", CounterExample, {"x": -3, "y": -3}),
    ]
    for u in (2 ** 59 + 3, 2 ** 62, 2 ** 40):
        model = mv.UnitalGroup(Z, u)
        for text, kind, env in sequents:
            seq = mv.parse_sequent(text)
            for engine in ("scalar", "vector"):
                v = check_sequent(model, seq, 3, engine=engine)
                assert type(v) is kind, (u, text, engine)
                assert getattr(v, "env", None) == env, (u, text, engine)


def _spy_on_grid_runs(monkeypatch):
    """Record every run of a vector check: its carrier's descriptor and
    whether the run has a codec.  A check that meets the kernel limit runs
    twice, the second time with no codec."""
    import mvtool.vector as vector
    runs = []
    run = vector._check_grid

    def spy(model, codec, *rest):
        runs.append((model.descriptor(), codec is not None))
        return run(model, codec, *rest)

    monkeypatch.setattr(vector, "_check_grid", spy)
    return runs


def test_doubling_leaves_code_space_where_the_fold_did(monkeypatch):
    # u + x is below 2^60 for u = 2^59 + 3, but its double is not: the
    # first doubling step of 2*(u + x) and of 3*u crosses the limit.
    runs = _spy_on_grid_runs(monkeypatch)
    model = mv.UnitalGroup(Z, 2 ** 59 + 3)
    desc = model.descriptor()
    for text, kind, env, restarts in [
        ("true |-[x] 2*(u + x) = u + x + u + x", Holds, None, True),
        ("true |-[x] 3*u <= u + u + x", CounterExample, {"x": -3}, True),
        ("true |-[x] 1*(u + x) = u + x", Holds, None, False),
    ]:
        seq = mv.parse_sequent(text)
        expected = {"scalar": [],
                    "vector": [(desc, True)] + [(desc, False)] * restarts}
        for engine in ("scalar", "vector"):
            runs.clear()
            v = check_sequent(model, seq, 3, engine=engine)
            assert type(v) is kind, (text, engine)
            assert getattr(v, "env", None) == env, (text, engine)
            assert runs == expected[engine], (text, engine)


_SCALAR_SEQUENTS = {
    "mv": ["true |-[x] {k}*x = {m}*x", "true |-[x,y] {k}*x <= {m}*y",
           "true |-[x] x^{k} = x^{m}", "true |-[x,y] ({k}*x)^{m} <= {m}*(y^{k})"],
    "lgroup": ["true |-[x] {k}*x = {m}*x", "true |-[x,y] {k}*(x + y) = {k}*x + {m}*y",
               "true |-[x,y] {k}*x <= {m}*y"],
    "monoid": ["true |-[x] {k}*x = {m}*x", "true |-[x,y] {k}*(x + y) <= {m}*x + {m}*y"],
}
_COEFFICIENTS = [(0, 1), (3, 2), (5, 5), (2 ** 40, 2 ** 40), (2 ** 40 + 1, 2 ** 40),
                 (2 ** 40 - 1, 3 * 2 ** 39)]


@pytest.mark.parametrize("desc", README_DESCRIPTORS)
def test_engines_agree_on_large_scalars_and_powers(desc):
    model = mv.parse_model(desc)
    for text in _SCALAR_SEQUENTS[model.signature]:
        for k, m in _COEFFICIENTS:
            seq = mv.parse_sequent(text.format(k=k, m=m))
            bound = 2 if len(seq.context) == 1 else 1
            a = check_sequent(model, seq, bound, engine="scalar")
            b = check_sequent(model, seq, bound, engine="vector")
            assert type(a) is type(b), (desc, k, m, text)
            assert getattr(a, "env", None) == getattr(b, "env", None), (desc, k, m, text)


def test_huge_scalars_and_powers_finish(monkeypatch):
    runs = _spy_on_grid_runs(monkeypatch)
    vector = _spy_on_check_vector(monkeypatch)
    power = mv.parse_sequent("true |-[x] x^99999999 = x^99999999")
    assert check_sequent(C, power, 1) == Holds()
    scalar = mv.parse_sequent("true |-[x] 99999999999999999999*x = x")
    assert check_sequent(Z, scalar, 1) == CounterExample({"x": -1}, axiom=scalar.name)
    assert vector == [] and runs == []
    # 401 cells take the vector engine, whose int64 rows pass 2^60 midway:
    # the check runs again with no codec.
    assert check_sequent(Z, scalar, 200) == CounterExample({"x": -200}, axiom=scalar.name)
    assert vector == [401] and runs == [("Z", True), ("Z", False)]


@pytest.mark.parametrize("desc, op", [("C", "nat_scalar"), ("C", "mv_power"),
                                      ("Sigma(Z^2)", "mv_power"), ("Z^2", "nat_scalar"),
                                      ("Groth(N^2)", "nat_scalar"), ("N", "nat_scalar")])
def test_vector_scalars_and_powers_double(monkeypatch, desc, op):
    from mvtool.vector import OperationTables, codec_for
    calls = []
    kernel_of = OperationTables._kernel

    def counted(self, name):
        kernel = kernel_of(self, name)

        def spy(*rows):
            calls.append(name)
            return kernel(*rows)

        return spy

    monkeypatch.setattr(OperationTables, "_kernel", counted)
    model = mv.parse_model(desc)
    window = model.enumerate(2)
    reference = (lambda x: mv.mv_power(model, x, n)) if op == "mv_power" else \
        (lambda x: mv.nat_scalar(model, n, x))
    for n in (0, 1, 2, 5, 64, 99999999, 2 ** 40 + 1):
        tables = OperationTables(model, codec_for(model))
        idx = tables.intern_all(window)
        calls.clear()
        got = tables.unary_table(op, idx, n)
        assert len(calls) == doubling_steps(n) <= 2 * n.bit_length(), n
        assert tables.codec is not None, n
        assert [tables.element(int(i)) for i in got] == list(map(reference, window)), n


def test_nested_differences_leave_code_space_at_the_limit():
    from mvtool.kernels import _AtLimit
    from mvtool.vector import OperationTables, codec_for
    G = mv.parse_model("Groth(PosCone(Groth(N)))")
    # x's code is the difference of differences, 2^59 + 3; that of x + x
    # reaches 2^60.
    x = mv.CanonPair(mv.CanonPair(2 ** 59 + 3, 0), mv.CanonPair(0, 0))
    tables = OperationTables(G, codec_for(G))
    assert tables.codec.encode_all([x]).tolist() == [[2 ** 59 + 3]]
    i = tables.intern_all([x])
    with pytest.raises(_AtLimit):
        tables.binary_table("add", i, i)
    # Without a codec, as the check runs again, the carrier adds.
    tables = OperationTables(G)
    i = tables.intern_all([x])
    total = tables.binary_table("add", i, i)
    assert tables.element(int(total[0])) == G.add(x, x) == \
        mv.CanonPair(mv.CanonPair(2 ** 60 + 6, 0), mv.CanonPair(0, 0))


def test_vector_engine_keeps_subclass_operations():
    class BrokenInf(ConeOfZ):
        def inf(self, x, y):
            return 0

    for label in registry.MONOID_AXIOMS:
        seq = registry.lookup(label)
        assert check_sequent(BrokenInf(), seq, 2, engine="vector", exists_bound=4) == \
            check_sequent(BrokenInf(), seq, 2, engine="scalar", exists_bound=4), label


def _assert_engine_parity(models, max_bound=3):
    for label, seq in registry.named_sequents().items():
        sigs = seq.signatures()
        for sig in sigs:
            for model in models.get(sig, []):
                if getattr(model, "unit", None) is None and \
                        _mentions_unit(seq):
                    continue
                bound = min(max_bound, 2 if len(seq.context) >= 3 else 3)
                a = check_sequent(model, seq, bound, engine="scalar",
                                  exists_bound=2 * bound)
                b = check_sequent(model, seq, bound, engine="vector",
                                  exists_bound=2 * bound)
                assert type(a) is type(b), (label, model.descriptor())
                if isinstance(a, CounterExample):
                    assert a.env == b.env, (label, model.descriptor())


def _mentions_unit(seq):
    def term_has_unit(t):
        if isinstance(t, S.Unit):
            return True
        return any(term_has_unit(c) for c in S.term_children(t))

    def formula_has_unit(f):
        if isinstance(f, (S.Top, S.Bot)):
            return False
        if isinstance(f, (S.Eq, S.Leq)):
            return term_has_unit(f.left) or term_has_unit(f.right)
        if isinstance(f, (S.And, S.Or)):
            return formula_has_unit(f.left) or formula_has_unit(f.right)
        return formula_has_unit(f.body)

    return formula_has_unit(seq.antecedent) or formula_has_unit(seq.consequent)


def test_vector_engine_chunking_agrees(monkeypatch):
    import mvtool.vector as vector
    monkeypatch.setattr(vector, "_MAX_CELLS", 64)
    slices = {}
    for model, label in ((CC, "MV.1"), (CC, "P.3"), (CC, "beta")):
        seq = registry.lookup(label)
        with monkeypatch.context() as m:
            chunks = spy_on_chunks(m, seq)
            chunked = check_sequent(model, seq, 3, engine="vector")
        slices[label] = len(chunks)
        monkey_free = check_sequent(model, seq, 3, engine="scalar")
        assert type(chunked) is type(monkey_free)
        if isinstance(chunked, CounterExample):
            assert chunked.env == monkey_free.env
    # MV.1's 64^2 cells are sliced; P.3's 64 fit in one slice.
    assert slices["MV.1"] > 1 and slices["P.3"] == 1


def _spy_on_check_vector(monkeypatch):
    """Record the first context axis of every ``_check_vector`` call."""
    import mvtool.checking as checking
    calls = []
    original = checking._check_vector

    def spy(model, seq, ctx_enums, *rest):
        calls.append(len(ctx_enums[0]) if ctx_enums else 0)
        return original(model, seq, ctx_enums, *rest)

    monkeypatch.setattr(checking, "_check_vector", spy)
    return calls


def test_vector_chunks_count_the_search_axes(monkeypatch):
    import mvtool.vector as vector
    monkeypatch.setattr(vector, "_MAX_CELLS", 64)
    N2 = mv.NnMonoid(2)
    cases = [
        # 4^2 context cells times a 9-element search axis: 144 > 64
        (registry.lookup("M.14"), 1, 2, Holds),
        # pairs x <= y whose witness lies beyond the search window
        (registry.lookup("M.14"), 2, 1, InconclusiveAtBound),
        # one context variable: 9 cells times 9 search cells
        (mv.parse_sequent("true |-[x] exists z . x + z = x"), 2, 2, Holds),
    ]
    for seq, bound, exists_bound, kind in cases:
        with monkeypatch.context() as m:
            chunks = spy_on_chunks(m, seq)
            chunked = check_sequent(N2, seq, bound, exists_bound=exists_bound,
                                    engine="vector")
        assert len(chunks) > 1, (seq.name, bound)
        # one compile, over one domain, slices the whole first axis
        assert len({id(ev) for ev, _ in chunks}) == 1
        assert sum(n for _, n in chunks) == len(N2.enumerate(bound))
        assert type(chunked) is kind
        assert chunked == check_sequent(N2, seq, bound, exists_bound=exists_bound,
                                        engine="scalar")


def test_auto_engine_follows_the_context_grid(monkeypatch):
    calls = _spy_on_check_vector(monkeypatch)
    sigma = mv.parse_model("Sigma(Z^2)")
    assert sigma.window_size(30) == 1922
    assert check_sequent(sigma, registry.lookup("chi_1"), 30).ok
    assert calls == [1922]
    # a capped bigvee over 8 cells stays on the scalar engine
    pointed = mv.parse_model("Pointed(C,1c)")
    assert check_sequent(pointed, registry.lookup("Pstar.2"), 3).ok
    assert calls == [1922]


def test_dense_and_sparse_table_routes_equal_the_carrier():
    from mvtool.vector import OperationTables, codec_for
    cases = [(mv.ZnGroup(2), "add", False), (mv.parse_model("Groth(N^2)"), "leq", True),
             (mv.delta(C), "inf", False), (mv.pair_group_ops(C), "inf", False)]
    for model, op, out_bool in cases:
        window = model.enumerate(2)
        n = len(window)
        ev = OperationTables(model, codec_for(model))
        routes = []
        pair_values = ev._pair_values

        def spy(name, ia, *rest):
            routes.append(ia.ndim)  # 2 on the dense route, 1 on the sparse
            return pair_values(name, ia, *rest)

        ev._pair_values = spy
        idx = ev.intern_all(window)
        dense = ev.binary_table(op, idx[:, None], idx[None, :], out_bool)
        sparse = ev.binary_table(op, idx, idx[::-1], out_bool)
        assert routes == [2, 1], model.descriptor()

        def value(v):
            return bool(v) if out_bool else ev.element(v)

        fn = getattr(model, op)
        for i in range(n):
            assert value(sparse[i]) == fn(window[i], window[n - 1 - i])
            for j in range(n):
                assert value(dense[i, j]) == fn(window[i], window[j])


def _count_codec_calls(monkeypatch, model):
    """Count the elements that pass through ``encode_all`` and
    ``decode_all`` on the codec that the vector engine gets for
    ``model``."""
    import mvtool.vector as vector
    codec = vector.codec_for(model)
    counts = {"encode": 0, "decode": 0}
    for name in counts:
        def counted(batch, name=name, method=getattr(codec, name + "_all")):
            counts[name] += len(batch)
            return method(batch)

        setattr(codec, name + "_all", counted)
    monkeypatch.setattr(vector, "codec_for", lambda _: codec)
    return counts


def test_a_holding_vector_check_decodes_no_kernel_result(monkeypatch):
    sigma = mv.parse_model("Sigma(Z^2)")
    counts = _count_codec_calls(monkeypatch, sigma)
    # Each window element once, however many axes read the window, and
    # each constant once: chi_2 has 1 (x^n and "= 1" start at 1) and 0
    # (n*x starts at 0), rad_ideal.viii has 1.  Antecedent and consequent
    # share them.
    for label, bound, constants in (("chi_2", 30, 2), ("rad_ideal.viii", 5, 1)):
        counts.update(encode=0, decode=0)
        assert check_sequent(sigma, registry.lookup(label), bound,
                             engine="vector").ok
        assert counts == {"encode": sigma.window_size(bound) + constants,
                          "decode": 0}, label


def test_a_chunked_vector_check_encodes_each_element_once(monkeypatch):
    import mvtool.vector as vector
    sigma = mv.parse_model("Sigma(Z^2)")
    counts = _count_codec_calls(monkeypatch, sigma)
    # chi_2 reads 1922 cells, one per element; rad_ideal.viii reads 72^2,
    # 72 per element of its first axis.  Either way three chunks.
    for label, bound, constants, max_cells in (("chi_2", 30, 2, 700),
                                               ("rad_ideal.viii", 5, 1, 1800)):
        seq = registry.lookup(label)
        counts.update(encode=0, decode=0)
        with monkeypatch.context() as m:
            m.setattr(vector, "_MAX_CELLS", max_cells)
            chunks = spy_on_chunks(m, seq)
            assert check_sequent(sigma, seq, bound, engine="vector").ok
        assert len(chunks) >= 3, label
        assert counts == {"encode": sigma.window_size(bound) + constants,
                          "decode": 0}, label


def test_python_and_kernel_routes_intern_an_element_once():
    from mvtool.kernels import _AtLimit
    from mvtool.vector import OperationTables, codec_for
    # Interned from Python first, then reached as a kernel row.
    tables = OperationTables(Z, codec_for(Z))
    three = tables.intern(3)
    assert tables.binary_table("add", tables.intern_all([1]),
                               tables.intern_all([2])).tolist() == [three]
    # 2u = 2^60 + 6 reaches the kernel limit: the coded table raises.
    u = 2 ** 59 + 3
    model = mv.UnitalGroup(Z, u)
    tables = OperationTables(model, codec_for(model))
    x = tables.intern_all([u, -u])
    with pytest.raises(_AtLimit):
        tables.binary_table("add", x[:, None], x[None, :])
    # The check starts over without a codec, where 0 is interned once
    # whichever pair gives it.
    tables = OperationTables(model)
    zero = tables.binary_table("add", tables.intern_all([1]), tables.intern_all([-1]))
    x = tables.intern_all([u, -u])
    table = tables.binary_table("add", x[:, None], x[None, :])
    assert table[0, 1] == table[1, 0] == zero[0]
    assert [[tables.element(i) for i in row] for row in table.tolist()] == \
        [[2 * u, 0], [0, -2 * u]]


def test_leaving_code_space_keeps_the_kernel_made_indices():
    from mvtool.vector import _PENDING, OperationTables, codec_for
    tables = OperationTables(Z, codec_for(Z))
    x = tables.intern_all([1, 2])
    sums = tables.binary_table("add", x[:, None], x[None, :])
    three = int(sums[0, 1])
    assert tables._elems[three] is _PENDING  # 2, 3 and 4 are still rows
    assert tables.intern(3) == three
    assert tables.binary_table("add", x[:1], x[1:]).tolist() == [three]
    assert tables.element(three) == 3
    assert sums.tolist() == [[tables.intern(2), three], [three, tables.intern(4)]]


# ---------------------------------------------------------------------------
# The product route: Horn sequents on Prod, Z^n and N^n, factor by factor
# ---------------------------------------------------------------------------

# Horn sequents beyond the registry that fail, so that every kind of
# product below has counterexamples to order.
_FAILING_HORN = {
    "mv": ["true |-[x,y] x <= y", "x <= neg x /\\ y <= x |-[x,y] y = 0",
           "x (+) x = 1 |-[x] false"],
    "lgroup": ["x <= y |-[x,y] y <= x", "x + x = y |-[x,y] x <= 0",
               "0 <= x /\\ x <= 0 |-[x] false"],
    "monoid": ["x <= y |-[x,y] y <= x", "true |-[x,y] x + y = x",
               "x + x = y |-[x,y,z] z <= y /\\ x <= z"],
}
_PRODUCTS = {
    "mv": ["Prod(C,L(2))", "Prod(L(2),C)", "Prod(B,L(3))", "Prod(C,C)",
           "Prod(Prod(C,B),L(2))"],
    "lgroup": ["Z^2", "Z^3"],
    "monoid": ["N^2", "PosCone(Z^2)"],
}


def _is_horn(seq):
    """Context variables, no u, and no disjunction or search, read off
    the printed sequent."""
    text = S.print_sequent(seq)
    return bool(seq.context) and not _mentions_unit(seq) and not any(
        word in text for word in ("\\/", "exists", "bigvee"))


def _horn_sequents(sig):
    return ([seq for seq in registry.named_sequents().values()
             if sig in seq.signatures() and _is_horn(seq)]
            + [mv.parse_sequent(text) for text in _FAILING_HORN[sig]])


def _spy_on_engines(monkeypatch):
    """Record every full-grid walk, as (carrier, window length), and every
    product-route check, as (carrier, None)."""
    import mvtool.checking as checking
    calls = []

    def wrap(name, size):
        original = getattr(checking, name)

        def spy(model, seq, *args):
            calls.append((model.descriptor(), size(*args)))
            return original(model, seq, *args)

        monkeypatch.setattr(checking, name, spy)

    wrap("_check_scalar", lambda ctx_enum, *rest: len(ctx_enum))
    wrap("_check_vector", lambda ctx_enums, *rest: len(ctx_enums[0]) if ctx_enums else 0)
    wrap("_check_product", lambda *args: None)
    return calls


def _assert_same_verdict(a, b, what):
    assert type(a) is type(b), what
    assert getattr(a, "env", None) == getattr(b, "env", None), what


def test_product_route_equals_the_full_grid(monkeypatch):
    counterexamples = 0
    for sig, descriptors in _PRODUCTS.items():
        for d in descriptors:
            model = mv.parse_model(d)
            for seq in _horn_sequents(sig):
                bound = 1 if len(seq.context) >= 3 else 2
                with monkeypatch.context() as m:
                    calls = _spy_on_engines(m)
                    routed = check_sequent(model, seq, bound)
                # the route is taken, and every walk is over a factor that
                # is not a product
                assert calls[0] == (d, None), (d, seq)
                assert all(size is None or not name.startswith(
                    ("Prod", "Z^", "N^", "PosCone(Z^")) for name, size in calls), calls
                for engine in ("scalar", "vector"):
                    _assert_same_verdict(
                        routed, check_sequent(model, seq, bound, engine=engine),
                        (d, S.print_sequent(seq), engine))
                counterexamples += isinstance(routed, CounterExample)
    assert counterexamples >= 20


_CHAIN_FACTORS = st.sampled_from([C, B, L2, mv.FiniteChainAlgebra(3),
                                  mv.FiniteChainAlgebra(0)])
_CHAIN_PRODUCTS = st.recursive(
    _CHAIN_FACTORS,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(mv.ProductAlgebra),
    max_leaves=3,
).filter(lambda model: isinstance(model, mv.ProductAlgebra))


@given(model=_CHAIN_PRODUCTS, data=st.data())
def test_product_route_on_random_chain_products(model, data):
    seq = data.draw(st.sampled_from(_horn_sequents("mv")), label="sequent")
    k = len(seq.context)
    bound = 2 if model.window_size(2) ** k <= 2000 else 1
    routed = check_sequent(model, seq, bound)
    _assert_same_verdict(routed, check_sequent(model, seq, bound, engine="vector"),
                         "vector")
    if model.window_size(bound) ** k <= 2000:
        _assert_same_verdict(
            routed, check_sequent(model, seq, bound, engine="scalar"), "scalar")


def test_the_product_route_builds_no_product_window(monkeypatch):
    cases = [("Prod(C,C,C)", "MV.1", 7), ("Z^3", "L.12", 10),
             ("Prod(Prod(C,B),L(2))", "xi", 3),
             ("Prod(Prod(C,B),L(2))", "true |-[x,y] false", 3),
             ("Prod(C,Prod(L(2),C))", "x (+) x = 1 |-[x] false", 3),
             ("N^2", "x <= y |-[x,y] y <= x", 3),
             ("PosCone(Z^2)", "M.11", 3),
             ("PosCone(Z^2)", "x <= y |-[x,y] y <= x", 3),
             ("Z^2", "x + x = y |-[x,y] x <= 0", 3)]
    seqs = [registry.named_sequents().get(s) or mv.parse_sequent(s)
            for _, s, _ in cases]
    expected = [check_sequent(mv.parse_model(d), seq, b, engine="vector")
                if b < 7 else Holds() for (d, _, b), seq in zip(cases, seqs)]
    assert sum(isinstance(v, CounterExample) for v in expected) == 6

    def refuse(self, bound):
        raise AssertionError(f"{self.descriptor()} window built")

    # The cone of Z^n is a product; the cones of Z that are its factors
    # build their windows.
    cone_enumerate = mv.PositiveConeMonoid.enumerate

    def refuse_product_cones(self, bound):
        if type(self.group) is mv.ZnGroup:
            refuse(self, bound)
        return cone_enumerate(self, bound)

    for cls in (mv.ProductAlgebra, mv.ZnGroup):
        monkeypatch.setattr(cls, "enumerate", refuse)
    monkeypatch.setattr(mv.PositiveConeMonoid, "enumerate", refuse_product_cones)
    for (d, _, b), seq, want in zip(cases, seqs, expected):
        _assert_same_verdict(check_sequent(mv.parse_model(d), seq, b), want, d)


def test_other_sequents_and_carriers_keep_the_full_grid(monkeypatch):
    Z2 = mv.ZnGroup(2)
    cases = [
        (CC, "P.3", {}), (CC, "beta", {}),            # a disjunction
        (mv.NnMonoid(2), "M.14", {}),                 # exists
        (mv.ProductAlgebra([]), "MV.1", {}),          # no factor
        (mv.ZnGroup(0), "L.12", {}),
        (CC, "nontrivial", {}),                       # no context variable
        (CC, "MV.1", {"engine": "scalar"}),           # forced engines
        (Z2, "L.12", {"engine": "vector"}),
        (Z2, "L.12", {"engine": "scalar"}),
        # orders that are not componentwise
        (mv.parse_model("Lex(Z,Z)"), "L.12", {}),
        (mv.parse_model("PosCone(Lex(Z,Z))"), "M.11", {}),
        (mv.parse_model("PosCone(Lex(Z,Z))"), "x <= y |-[x,y] y <= x", {}),
    ]
    for model, label, kw in cases:
        seq = registry.named_sequents().get(label) or mv.parse_sequent(label)
        with monkeypatch.context() as m:
            calls = _spy_on_engines(m)
            check_sequent(model, seq, 1, **kw)
        assert calls == [(model.descriptor(), model.window_size(1))], label
    # u keeps the full grid, so the error names the carrier, not a factor
    for label in ("Ant.1", "A.1"):
        with monkeypatch.context() as m:
            calls = _spy_on_engines(m)
            with pytest.raises(mv.SignatureError) as err:
                check_sequent(Z2, registry.lookup(label), 2)
        assert str(err.value) == "Z^2 has no distinguished constant for 'u'"
        assert calls == [("Z^2", 25)]


def test_counterexamples_are_monotone_in_bound():
    failing = [(L2, "xi"), (CC, "P.3"), (CC, "beta")]
    for model, label in failing:
        seq = registry.lookup(label)
        v3 = check_sequent(model, seq, 2)
        v5 = check_sequent(model, seq, 5)
        assert isinstance(v3, CounterExample)
        assert isinstance(v5, CounterExample)


def test_existential_verdicts():
    seq = registry.lookup("M.14")
    # witnesses exist inside the doubled window
    assert check_sequent(N, seq, 3, exists_bound=6).ok
    # at the bare bound the witness for (0, 6) is 6 itself, still inside;
    # shrink the search window artificially to force inconclusive
    v = check_sequent(N, mv.parse_sequent(
        "true |-[x] exists z . x + z = 0"), 3)
    # only x = 0 has a witness; other environments can never be repaired?
    # z >= 0 and x + z = 0 forces x = 0, but the search cannot prove
    # failure, so the verdict is inconclusive rather than a counterexample
    assert isinstance(v, InconclusiveAtBound)


def test_bigvee_verdicts():
    # holds with a witness below the cap
    seq = mv.parse_sequent("true |-[x] bigvee n<=8 . x <= n*x \\/ x = 0")
    assert check_sequent(C, seq, 4).ok
    # an unwitnessed capped disjunction is inconclusive, not refuted
    seq = mv.parse_sequent("true |-[x] bigvee n<=3 . x = n*1")
    v = check_sequent(C, seq, 2)
    assert isinstance(v, InconclusiveAtBound)


def test_check_family_and_equivalent_families():
    fam = ["P.1", "P.2", "P.3", "beta"]
    rep = registry.check_family(C, fam, 16)
    assert rep.all_hold
    for model, expect in ((C, True), (B, True), (CC, False), (L2, False),
                          (mv.sigma(mv.ZnGroup(2)), True),
                          (mv.FiniteChainAlgebra(0), True)):
        rep = registry.check_family(model, fam, 4)
        assert rep.family_checks, model.descriptor()
        chk = rep.family_checks[0]
        assert chk["agree"], model.descriptor()
        assert (chk["verdict_a"] == "holds") is expect, model.descriptor()


def test_registry_lookup_and_docs():
    p1, sig = registry.lookup("P.1"), registry.lookup("sigma")
    assert (p1.context, p1.antecedent, p1.consequent) == \
        (sig.context, sig.antecedent, sig.consequent)
    seq = registry.lookup("M.13")
    assert seq.antecedent == S.Top()
    assert seq.consequent == S.Leq(S.Zero(), S.Var("x"))
    with pytest.raises(mv.UnknownLabelError):
        registry.lookup("nosuch")
    for e in registry.all_entries():
        assert e.doc and e.models


def test_registry_parses_each_entry_once():
    assert registry.lookup("MV.1") is registry.lookup("MV.1")
    assert registry.entry("xi") is registry.entry("xi")
    assert registry.lookup("xi") is registry.entry("xi").sequent


def test_all_entries_equal_an_eager_build():
    eager = []
    for label, src, theory, kind, doc, models in registry._sources():
        seq = mv.parse_sequent(src)
        eager.append(registry.RegistryEntry(
            label, S.Sequent(seq.context, seq.antecedent, seq.consequent,
                             name=label),
            theory, kind, doc, models))
    entries = registry.all_entries()
    assert [e.label for e in entries] == [e.label for e in eager]
    for got, want in zip(entries, eager):
        for field in registry.RegistryEntry.__match_args__:
            assert getattr(got, field) == getattr(want, field), \
                (got.label, field)
    assert list(registry.named_sequents().items()) == \
        [(e.label, e.sequent) for e in eager]


def test_registry_errors(monkeypatch):
    for find in (registry.lookup, registry.entry):
        with pytest.raises(mv.UnknownLabelError,
                           match="^no sequent registered under 'nosuch'$"):
            find("nosuch")
    with pytest.raises(mv.UnknownLabelError,
                       match="^no theory registered under 'nosuch'$"):
        registry.registered_models("nosuch")
    # A registry whose sources repeat a label fails on its first access.
    sources = registry._sources()
    monkeypatch.setattr(registry, "_SOURCES", None)
    monkeypatch.setattr(registry, "_PARSED", {})
    monkeypatch.setattr(registry, "_sources", lambda: sources + sources[:1])
    with pytest.raises(ValueError, match=r"^duplicate registry label MV\.1$"):
        registry.lookup("xi")


def test_registry_parses_only_what_is_asked_for(monkeypatch):
    monkeypatch.setattr(registry, "_SOURCES", None)
    monkeypatch.setattr(registry, "_PARSED", {})
    assert registry.registered_models("C") == ("C", "B", "Prod(C,C)", "Sigma(Z^2)")
    assert ("MV.1", "C") in registry.axiom_suite()
    assert registry._PARSED == {}
    registry.lookup("xi")
    assert list(registry._PARSED) == ["xi"]
    assert len(registry.all_entries()) == len(registry._PARSED)


def test_registry_nodes_behave_as_dataclasses():
    for seq in registry.named_sequents().values():
        assert_nodes_behave_as_twins(seq.antecedent)
        assert_nodes_behave_as_twins(seq.consequent)
        for tok in S._tokenize(mv.print_sequent(seq)):
            assert_nodes_behave_as_twins(tok)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_nodes_behave_as_dataclasses(data):
    M = mv.parse_model(data.draw(st.sampled_from(README_DESCRIPTORS)))
    seq = _draw_sequent(data, M, data.draw(st.integers(1, 30)))
    assert_nodes_behave_as_twins(seq.antecedent)
    assert_nodes_behave_as_twins(seq.consequent)


def test_node_construction_binds_as_dataclasses():
    for cls, twin in NODE_TWINS.items():
        names = cls.__match_args__
        values = tuple(range(len(names)))
        bound = [(values, {}), ((), dict(zip(names, values))),
                 (values[:1], dict(zip(names[1:], values[1:])))]
        for args, kwargs in bound:
            assert repr(cls(*args, **kwargs)) == repr(twin(*args, **kwargs))
        wrong = [(values + (0,), {}), (values, {"extra": 0})]
        if names:
            wrong += [(values[:-1], {}), (values, {names[0]: 0}),
                      ((), dict(zip(names[1:], values[1:])))]
        for args, kwargs in wrong:
            for make in (cls, twin):
                with pytest.raises(TypeError):
                    make(*args, **kwargs)


def test_records_behave_as_dataclasses():
    xi = registry.lookup("xi")
    made = []
    for cls, twin in RECORD_TWINS.items():
        names = cls.__match_args__
        assert names == twin.__match_args__
        required = [f.name for f in dataclasses.fields(twin)
                    if f.init and f.default is dataclasses.MISSING]
        if cls is S.Sequent:
            values = (xi.context, xi.antecedent, xi.consequent, "xi")
            others = ((*xi.context, "y"), S.Bot(), S.Top(), None)
        else:
            values, others = tuple(range(len(names))), (-1,) * len(names)
        given = dict(zip(names, values))
        # All by position; and the required arguments by position or by
        # keyword, with every choice of the others by keyword.
        calls = [(values, {})]
        for k in range(len(names) - len(required) + 1):
            for chosen in itertools.combinations(names[len(required):], k):
                kwargs = {name: given[name] for name in chosen}
                calls += [(values[:len(required)], kwargs),
                          ((), {**dict(zip(required, values)), **kwargs})]
        for args, kwargs in calls:
            x, y = cls(*args, **kwargs), twin(*args, **kwargs)
            assert (repr(x), hash(x)) == (repr(y), hash(y))
        x, y = cls(*values), twin(*values)
        made.append((x, y))
        assert (x == cls(*values), x != cls(*values)) == (True, False)
        for name, other in zip(names, others):
            a, b = x._replace(**{name: other}), dataclasses.replace(y, **{name: other})
            assert repr(a) == repr(b)
            assert (x == a, x != a) == (y == b, y != b) == (False, True)
        wrong = [(values + (0,), {}), (values, {"extra": 0})]
        wrong += [(values, {names[0]: 0})] if names else []
        wrong += [(values[:len(required) - 1], {})] if required else []
        wrong += [(values, {"kind": 0})] if "kind" not in names else []
        for args, kwargs in wrong:
            for make in (cls, twin):
                with pytest.raises(TypeError):
                    make(*args, **kwargs)
        for name in names + ("kind", "extra"):
            for action in (lambda r: setattr(r, name, 0),
                           lambda r: delattr(r, name)):
                raised = _raised(lambda: action(x))
                assert raised is not None and raised == _raised(lambda: action(y))
    for (x, y), (u, v) in itertools.product(made, repeat=2):
        assert (x == u, x != u) == (y == v, y != v)


def test_axiom_suite_covers_registered_models():
    suite = registry.axiom_suite()
    assert ("MV.1", "C") in suite
    assert ("M.14", "PosCone(Lex(Z,Z))") in suite
    assert ("Lu.2", "Unital(Z,1)") in suite


def test_unital_and_pointed_model_checks():
    U = mv.UnitalGroup(mv.LexGroup(Z), mv.LexPair(1, 0))
    assert check_sequent(U, registry.lookup("Lu.2"), 4).ok
    assert check_sequent(U, registry.lookup("Ant.1"), 4).ok
    P = mv.PointedAlgebra(C, mv.Fin(1))
    assert check_sequent(P, registry.lookup("Pstar.1"), 4).ok
    assert check_sequent(P, registry.lookup("Pstar.2"), 4).ok


def test_radical_multiples_stay_below_complement():
    # the definable-radical characterization, checked directly:
    # x <= neg x entails n*x <= neg x for n up to 10
    sigma_z2 = mv.sigma(mv.ZnGroup(2))
    for model in (C, B, CC, sigma_z2):
        for n in range(11):
            seq = mv.parse_sequent(f"x <= neg x |-[x] {n}*x <= neg x")
            assert check_sequent(model, seq, 6).ok, (model.descriptor(), n)


def test_mv_axioms_at_bound_eight_on_infinite_carriers():
    for model in (C, mv.sigma(Z)):
        for n in range(1, 7):
            assert check_sequent(model, registry.lookup(f"MV.{n}"), 8).ok


def test_phi_sup_identity_holds():
    for G in (Z, mv.ZnGroup(2)):
        assert check_sequent(G, registry.lookup("phi_sup"), 4).ok
