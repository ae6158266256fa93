"""Reference constructions shared by the tests."""

import mvtool as mv


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
    multiples = [mv.nat_scalar(M, n, t) for n in range(cap + 1)]
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
