"""Reference constructions shared by the tests."""

import itertools

import mvtool as mv
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
    in order: None for a table instance that starts without one."""
    from mvtool import homomorphism, vector

    codecs = []
    for cls in (vector.OperationTables, homomorphism._Rows):
        def spy(self, arg, init=cls.__init__):
            init(self, arg)
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
