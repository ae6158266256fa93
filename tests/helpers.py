"""Reference constructions shared by the tests."""

import dataclasses
import itertools

import mvtool as mv
from mvtool import cli, registry
from mvtool import sequents as S

# A concrete descriptor for every constructor in the README carrier table.
README_DESCRIPTORS = [
    "C", "B", "L(0)", "L(3)", "Trivial", "Gamma(Z,3)", "Gamma(Z^2,(2,1))",
    "Gamma(Lex(Z,Z),(3,-1))", "Sigma(Z^2)", "Sigma(Lex(Z,Z))", "Prod(C,B)",
    "Prod(C,L(2),Sigma(Z))", "Prod()", "Z", "Z^3", "Lex(Z,Z)", "Lex(Z,Z^2)",
    "Groth(N)", "Groth(N^2)", "Groth(PosCone(Z^2))", "N", "N^2",
    "PosCone(Z^2)", "PosCone(Lex(Z,Z))", "Unital(Z,1)",
    "Unital(Lex(Z,Z),(1,0))", "Unital(Groth(N^2),[(1,1),(0,0)])",
    "Pointed(C,1c)", "Pointed(Sigma(Z^2),(0,(1,1)))",
]


class ConeOfZ(mv.PositiveConeMonoid):
    """N, the positive cone of Z printed as ``N``, for test doubles to
    subclass: a subclass keeps the generic routes (no codec, no route
    through Z for its Grothendieck group).  Its order is read off ``inf``,
    as ``LMonoid`` defines it, so a double that breaks ``inf`` breaks the
    order with it."""

    leq = mv.LMonoid.leq

    def __init__(self):
        super().__init__(mv.ZGroup(), "N")


def left_fold(A, op, identity, x, n):
    """op(... op(op(identity, x), x) ..., x) with n copies of x: the
    definition of n*x and x^n, one operation per copy."""
    acc = identity
    for _ in range(n):
        acc = getattr(A, op)(acc, x)
    return acc


def walk_term(M, t, env, scalars):
    """The value of the term ``t`` by a walk of its tree at every call:
    the definition the scalar engine's compiled closures implement.
    ``env`` maps variables to elements, ``scalars`` bigvee variables to
    naturals."""
    if isinstance(t, S.Var):
        try:
            return env[t.name]
        except KeyError:
            raise mv.UnboundVariableError(f"variable {t.name!r} is unbound") from None
    op = S.BINARY_OPS.get(type(t))
    if op is not None:
        return getattr(M, op)(walk_term(M, t.left, env, scalars),
                              walk_term(M, t.right, env, scalars))
    op = S.UNARY_OPS.get(type(t))
    if op is not None:
        return getattr(M, op)(walk_term(M, t.arg, env, scalars))
    if isinstance(t, S.NatScalar):
        n = t.coeff if isinstance(t.coeff, int) else scalars[t.coeff]
        return mv.nat_scalar(M, n, walk_term(M, t.arg, env, scalars))
    if isinstance(t, S.MvPower):
        return mv.mv_power(M, walk_term(M, t.arg, env, scalars), t.n)
    if isinstance(t, S.Zero):
        return M.zero
    if isinstance(t, S.One):
        return M.one
    if isinstance(t, S.Unit):
        unit = getattr(M, "unit", None)
        if unit is None:
            raise mv.SignatureError(
                f"{M.descriptor()} has no distinguished constant for 'u'")
        return unit
    raise TypeError(f"not a term: {t!r}")


def walk_formula(M, f, env, scalars, search):
    """(value, definitely_false) of the formula ``f`` by a walk of its
    tree, with existential witnesses from ``search``; both sides of every
    connective are evaluated."""
    if isinstance(f, S.Top):
        return True, False
    if isinstance(f, S.Bot):
        return False, True
    if isinstance(f, S.Eq):
        v = walk_term(M, f.left, env, scalars) == walk_term(M, f.right, env, scalars)
        return v, not v
    if isinstance(f, S.Leq):
        v = M.leq(walk_term(M, f.left, env, scalars),
                  walk_term(M, f.right, env, scalars))
        return v, not v
    if isinstance(f, S.And):
        lv, ldf = walk_formula(M, f.left, env, scalars, search)
        rv, rdf = walk_formula(M, f.right, env, scalars, search)
        return lv and rv, ldf or rdf
    if isinstance(f, S.Or):
        lv, ldf = walk_formula(M, f.left, env, scalars, search)
        rv, rdf = walk_formula(M, f.right, env, scalars, search)
        return lv or rv, ldf and rdf
    if isinstance(f, S.Exists):
        if f.var in env:
            raise mv.SignatureError(f"quantifier shadows variable {f.var!r}")
        for cand in search:
            if walk_formula(M, f.body, {**env, f.var: cand}, scalars, search)[0]:
                return True, False
        return False, False
    if isinstance(f, S.BoundedOrOverN):
        for n in range(f.cap + 1):
            if walk_formula(M, f.body, env, {**scalars, f.var: n}, search)[0]:
                return True, False
        return False, False
    raise TypeError(f"not a formula: {f!r}")


def walk_check(M, seq, ctx_enum, search, bound):
    """The scalar engine's verdict by the tree walk: the first context
    environment, in grid order, that satisfies the antecedent and
    definitely fails the consequent; inconclusive if some environment
    fails it only for want of a witness."""
    inconclusive = False
    for values in itertools.product(ctx_enum, repeat=len(seq.context)):
        env = dict(zip(seq.context, values))
        if not walk_formula(M, seq.antecedent, env, {}, search)[0]:
            continue
        cv, cdf = walk_formula(M, seq.consequent, env, {}, search)
        if cv:
            continue
        if cdf:
            return mv.CounterExample(env, axiom=seq.name)
        inconclusive = True
    if inconclusive:
        return mv.InconclusiveAtBound(bound, note="unwitnessed bounded search")
    return mv.Holds()


# A frozen dataclass with the name and fields of each syntax node class
# (and of the tokenizer's token): the behaviour the node base reproduces.
# The node base's other direct subclasses are the records below.
NODE_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    for cls in S._Node.__subclasses__()
    if cls.__module__ == S.__name__ and cls is not S.Sequent
}


def _fixed(value):
    return ("kind", str, dataclasses.field(default=value, init=False))


# A frozen dataclass declared with the fields and defaults of each value
# record that derives from the node base and is not a syntax node: the
# verdicts' ``kind`` is a field no constructor takes, as ``init=False``.
RECORD_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in [
        (mv.Holds, [_fixed("holds")]),
        (mv.CounterExample, ["env", ("axiom", object, None),
                             ("note", object, None), _fixed("counterexample")]),
        (mv.InconclusiveAtBound, ["bound", ("note", object, None),
                                  _fixed("inconclusive-at-bound")]),
        (mv.Finite, ["n"]),
        (mv.NoneUpTo, ["bound"]),
        (S.Sequent, ["context", "antecedent", "consequent",
                     ("name", object, None)]),
        (registry.RegistryEntry, ["label", "sequent", "theory", "kind", "doc",
                                  "models"]),
        (registry.FamilyReport, ["model", "bound", "verdicts", "family_checks"]),
        (mv.AtomDecomposition, ["atoms", "factors", "iso_forward", "iso_backward",
                                ("projections", object, ()),
                                ("embeddings", object, ())]),
        (cli.RunConfig, ["command", *[(name, object, None) for name in
                                      ("model", "sequent")],
                         ("sequents", object, ()),
                         *[(name, object, None) for name in
                           ("group", "algebra", "gens", "unit")],
                         ("bound", object, 6), ("output", object, "text"),
                         ("seed", object, 0), ("exists_bound", object, None)]),
    ]
}


def to_twin(value):
    """``value`` with every syntax node in it replaced by its twin."""
    twin = NODE_TWINS.get(type(value))
    if twin is None:
        return value
    return twin(*[to_twin(getattr(value, name)) for name in value.__match_args__])


def _subnodes(node):
    yield node
    for name in node.__match_args__:
        child = getattr(node, name)
        if type(child) in NODE_TWINS:
            yield from _subnodes(child)


def _raised(action):
    try:
        action()
    except Exception as e:
        return type(e), str(e)
    return None


def assert_nodes_behave_as_twins(node):
    """Compare ``node`` and every node below it with its dataclass twin:
    the fields, keyword construction, ``repr``, ``hash``, ``==`` and
    ``!=`` against an equal node and against a node of each other class
    with the same fields (``Oplus(a, b)`` and ``Odot(a, b)``), and the
    errors of assigning or deleting a field or another attribute."""
    for n in _subnodes(node):
        cls, twin = type(n), to_twin(n)
        names = cls.__match_args__
        assert names == type(twin).__match_args__
        values = [getattr(n, name) for name in names]
        assert repr(n) == repr(twin)
        assert hash(n) == hash(twin)
        same = cls(**dict(zip(names, values)))
        assert (n == same, n != same) == (True, False)
        assert (twin == to_twin(same), twin != to_twin(same)) == (True, False)
        for other_cls in NODE_TWINS:
            if other_cls is not cls and other_cls.__match_args__ == names:
                other = other_cls(*values)
                assert (n == other, n != other) == (False, True), (n, other)
                assert (twin == to_twin(other), twin != to_twin(other)) == (False, True)
        for name in names + ("extra",):
            for action in (lambda x: setattr(x, name, 0),
                           lambda x: delattr(x, name)):
                raised = _raised(lambda: action(n))
                assert raised is not None and raised == _raised(lambda: action(twin))


def doubling_steps(n):
    """The operations n*x or x^n takes by doubling: one doubling per bit
    of n after the lowest, one fold per set bit."""
    return n.bit_length() - 1 + bin(n).count("1") if n else 0


def grothendieck_walk(G, bound):
    """A Grothendieck window by its definition: the canonical pairs of the
    pairs (x, y) of the monoid window, x-major, in order of first
    appearance."""
    m = G.monoid
    window = m.enumerate(bound)
    seen = set()
    out = []
    for x in window:
        for y in window:
            p = mv.canon_pair(m, x, y)
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def first_beyond_multiples_walk(M, t, candidates, cap):
    """The first candidate x with no n <= cap such that x <= n*t, by the
    definition: every multiple 0*t, 1*t, ..., cap*t is compared; None if
    every candidate lies below one of them."""
    plus = "oplus" if M.signature == "mv" else "add"
    multiples = [left_fold(M, plus, M.zero, t, n) for n in range(cap + 1)]
    for x in candidates:
        if not any(M.leq(x, m) for m in multiples):
            return x
    return None


def record_codecs(monkeypatch):
    """The codec of every ``vector.OperationTables``, and of every code-row
    side of a homomorphism check, built while ``monkeypatch`` is active,
    in order: None for a table instance without one."""
    from mvtool import homomorphism, vector

    codecs = []
    for cls in (vector.OperationTables, homomorphism._Rows):
        def spy(self, *args, init=cls.__init__):
            init(self, *args)
            codecs.append(self.codec)

        monkeypatch.setattr(cls, "__init__", spy)
    return codecs


def spy_on_chunks(monkeypatch, seq):
    """Record every evaluation of ``seq``'s compiled antecedent by the
    vector engine, one per chunk: the value domain it was compiled over
    and the length of its first context axis."""
    from mvtool import checking, vector

    chunks = []
    compile_formula = checking._compile_formula

    def spy(D, f, *rest):
        compiled = compile_formula(D, f, *rest)
        if f is not seq.antecedent or not isinstance(D, vector._IndexGrids):
            return compiled

        def antecedent(env):
            chunks.append((D, len(env[0])))
            return compiled(env)
        return antecedent

    monkeypatch.setattr(checking, "_compile_formula", spy)
    return chunks


def encode_one(codec, x) -> list:
    """The code row of the element ``x`` under ``codec``, one element at a
    time on Python integers: the definition that ``encode_all`` computes a
    batch at a time."""
    from mvtool import kernels as K

    if isinstance(codec, K.Coords):
        return [x] if codec.scalar else list(x)
    if isinstance(codec, K.Lex):
        return [x.head] + encode_one(codec.tail, x.tail)
    if isinstance(codec, K.Chang):
        return [0, x.n] if x.kind == "fin" else [1, -x.n]
    if isinstance(codec, K.Gamma):
        return encode_one(codec.g, x)
    if isinstance(codec, K.Radical):
        return encode_one(codec.interval, x)
    if isinstance(codec, K.Diff):
        into = codec.into or (lambda y: y)
        u, v = encode_one(codec.group, into(x.u)), encode_one(codec.group, into(x.v))
        return [a - b for a, b in zip(u, v)]
    if isinstance(codec, K.Prod):
        return [c for f, a in zip(codec.factors, x) for c in encode_one(f, a)]
    raise TypeError(f"not a codec: {codec!r}")


def decode_one(codec, row: list):
    """The element of the code row ``row`` (Python integers), one row at a
    time: the definition that ``decode_all`` computes a batch at a time.
    A difference row d is the class (d+, d-), with the parts taken by the
    group codec's own sup and mapped back into the monoid."""
    import numpy as np

    from mvtool import kernels as K

    if isinstance(codec, K.Coords):
        return row[0] if codec.scalar else tuple(row)
    if isinstance(codec, K.Lex):
        return mv.LexPair(row[0], decode_one(codec.tail, row[1:]))
    if isinstance(codec, K.Chang):
        return mv.Fin(row[1]) if row[0] == 0 else mv.CoFin(-row[1])
    if isinstance(codec, K.Gamma):
        return decode_one(codec.g, row)
    if isinstance(codec, K.Radical):
        return decode_one(codec.interval, row)
    if isinstance(codec, K.Diff):
        # The row as a (width, 1) array: one element, column-first.
        g, d = codec.group, np.array(row, dtype=np.int64)[:, None]
        zero, out = np.zeros_like(d), codec.out or (lambda y: y)
        return mv.CanonPair(out(decode_one(g, g.sup(d, zero)[:, 0].tolist())),
                            out(decode_one(g, g.sup(g.negate(d), zero)[:, 0].tolist())))
    if isinstance(codec, K.Prod):
        return tuple(decode_one(f, row[s]) for f, s in zip(codec.factors, codec.blocks))
    raise TypeError(f"not a codec: {codec!r}")


def canon_pair_ops(G):
    """The operations of the Grothendieck group ``G`` by their definition
    on its monoid M, through ``canon_pair``: x + y = [x.u + y.u, x.v + y.v],
    inf and sup by the pair formulas [inf(x.u + y.v, x.v + y.u), x.v + y.v]
    and its sup twin, each canonicalized; [x,y] <= [h,k] iff x + k <= h + y
    in M; and -[u, v] = [v, u]."""
    m = G.monoid

    def lattice(op):
        return lambda x, y: mv.canon_pair(
            m, getattr(m, op)(m.add(x.u, y.v), m.add(x.v, y.u)), m.add(x.v, y.v))

    return {
        "add": lambda x, y: mv.canon_pair(m, m.add(x.u, y.u), m.add(x.v, y.v)),
        "inf": lattice("inf"),
        "sup": lattice("sup"),
        "leq": lambda x, y: m.leq(m.add(x.u, y.v), m.add(y.u, x.v)),
        "negate": lambda x: mv.CanonPair(x.v, x.u),
    }
