"""Reference constructions shared by the tests."""

import mvtool as mv

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
