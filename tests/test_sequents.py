"""Parser, printer, evaluation, bounded checking, registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mvtool as mv
from mvtool import registry
from mvtool import sequents as S
from mvtool.checking import check_sequent, eval_term
from mvtool.verdicts import CounterExample, Holds, InconclusiveAtBound

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
    class RecordingN(mv.NMonoid):
        def __init__(self):
            self.bounds = []

        def enumerate(self, bound):
            self.bounds.append(bound)
            return super().enumerate(bound)

    M = RecordingN()
    assert check_sequent(M, registry.lookup("M.1"), 2, exists_bound=50).ok
    assert M.bounds == [2]
    assert check_sequent(M, registry.lookup("M.14"), 2, exists_bound=50).ok
    assert M.bounds == [2, 2, 50]


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
    import mvtool.checking as checking
    models = [mv.parse_model(d) for d in (
        "C", "Prod(C,L(2))", "Sigma(Z^2)", "Pointed(Sigma(Z^2),(0,(1,1)))",
        "Z^2", "Lex(Z,Z)", "Groth(N^2)", "Unital(Lex(Z,Z),(1,0))",
        "N^2", "PosCone(Lex(Z,Z))")]
    with_kernels = _vector_verdicts(models, 2)
    monkeypatch.setattr(checking, "codec_for", lambda model: None)
    assert _vector_verdicts(models, 2) == with_kernels


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


def test_vector_engine_keeps_subclass_operations():
    class BrokenInf(mv.NMonoid):
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
    import mvtool.checking as checking
    monkeypatch.setattr(checking, "_MAX_CELLS", 64)
    for model, label in ((CC, "MV.1"), (CC, "P.3"), (CC, "beta")):
        seq = registry.lookup(label)
        chunked = check_sequent(model, seq, 3, engine="vector")
        monkey_free = check_sequent(model, seq, 3, engine="scalar")
        assert type(chunked) is type(monkey_free)
        if isinstance(chunked, CounterExample):
            assert chunked.env == monkey_free.env


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
    import mvtool.checking as checking
    calls = _spy_on_check_vector(monkeypatch)
    monkeypatch.setattr(checking, "_MAX_CELLS", 64)
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
        calls.clear()
        chunked = check_sequent(N2, seq, bound, exists_bound=exists_bound,
                                engine="vector")
        assert len(calls) > 1, (seq.name, bound)
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
    from mvtool.checking import _VectorEval
    cases = [(mv.ZnGroup(2), "add", False), (mv.parse_model("Groth(N^2)"), "leq", True),
             (mv.delta(C), "inf", False), (mv.pair_group_ops(C), "inf", False)]
    for model, op, out_bool in cases:
        window = model.enumerate(2)
        n = len(window)
        ev = _VectorEval(model, ("x",), [window], window, S.Top())
        routes = []
        pair_values = ev._pair_values

        def spy(name, ia, *rest):
            routes.append(ia.ndim)  # 2 on the dense route, 1 on the sparse
            return pair_values(name, ia, *rest)

        ev._pair_values = spy
        idx = ev.var_idx["x"]
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


def test_a_holding_vector_check_decodes_no_kernel_result(monkeypatch):
    import mvtool.checking as checking
    sigma = mv.parse_model("Sigma(Z^2)")
    codec = checking.codec_for(sigma)
    counts = {"encode": 0, "decode": 0}
    for name in counts:
        def counted(x, name=name, method=getattr(codec, name)):
            counts[name] += 1
            return method(x)

        setattr(codec, name, counted)
    monkeypatch.setattr(checking, "codec_for", lambda model: codec)
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


def test_python_and_kernel_routes_intern_an_element_once():
    from mvtool.checking import OperationTables
    # Interned from Python first, then reached as a kernel row.
    tables = OperationTables(Z)
    three = tables.intern(3)
    assert tables.binary_table("add", tables.intern_all([1]),
                               tables.intern_all([2])).tolist() == [three]
    # Reached as a kernel row first, then as a result of the per-pair
    # fallback, which 2u = 2^60 + 6 forces on the whole table.
    u = 2 ** 59 + 3
    tables = OperationTables(mv.UnitalGroup(Z, u))
    zero = tables.binary_table("add", tables.intern_all([1]), tables.intern_all([-1]))
    x = tables.intern_all([u, -u])
    table = tables.binary_table("add", x[:, None], x[None, :])
    assert table[0, 1] == table[1, 0] == zero[0]
    assert [[tables.element(i) for i in row] for row in table.tolist()] == \
        [[2 * u, 0], [0, -2 * u]]


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
