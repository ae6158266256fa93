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
