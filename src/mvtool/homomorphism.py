"""Bounded checks of maps between carriers: injectivity, bijectivity
and the homomorphism property on a window.

``map_once`` maps every window element once and lists the collisions;
the pushout-pullback square, the weak subdirect check and
``isomorphism_failures`` all start from it.  ``isomorphism_failures``
is the one isomorphism check behind the round-trip reports: bijectivity
on windows, then ``homomorphism_failures``, with one dict of inverses
and one of images between them.

``homomorphism_failures`` checks that a map commutes with named
operations on a window, by one of two routes that give the same
failures.  The reference, ``_by_definition``, compares
forward(src.op(x, y)) with target.op(forward(x), forward(y)) pair by
pair, with the carriers' own operations.  The fast route,
``_differences``, runs when both carriers have a codec
(``kernels.codec_for``) with a kernel for every checked operation.  It
computes an operation's source and target results as int64 code rows,
column-first (width, ...) arrays as in ``kernels``, in row blocks of at
most ``kernels._KERNEL_BLOCK`` int64 coordinates a side (pairs times
code width); looks each block's source results up in one
``kernels.KeyIndex`` per check (a direct-address table of the rows met
so far, so a block costs its own size); maps those no earlier block of
any operation had into target rows (decode, forward, encode); and
compares the gathered rows with the target's results, a reduction over
the coordinate axis (``kernels.rows_differ``).  For an operation in
``kernels.SYMMETRIC`` a block's rows are computed from the diagonal on,
and the columns before it are the transpose of the rows above; a window
whose pairs fit one block computes the full square.  Row equality is
element equality below ``LIMIT``, which the kernel tests pin.  At
``LIMIT`` the fast route stops by the rule that ``kernels`` states, and
the check goes on by definition.  Both routes read a window element's
image from ``image`` and the others' from one memo per check, kept
across that restart, which gets those ``forward`` gives: so ``forward``
runs once per distinct element outside the window, over all operations.
The check imports numpy, through ``kernels``, on its first call, so this
module loads without it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple


def map_once(window, f: Callable) -> Tuple[dict, list]:
    """Map every element of ``window`` once with ``f``.

    Returns the images, as a dict in window order, and the collisions:
    for each element x whose image an earlier, different element already
    had, the pair (earlier, x), with the latest such earlier element.
    """
    image: dict = {}
    last: dict = {}
    collisions = []
    for x in window:
        v = f(x)
        image[x] = v
        if v in last and last[v] != x:
            collisions.append((last[v], x))
        last[v] = x
    return image, collisions


# The failure kinds of ``isomorphism_failures`` whose element lies in the
# codomain.
_CODOMAIN_KINDS = ("image-outside-window", "not-surjective")


def isomorphism_failures(src, target, window: list, codomain: list,
                         forward: Callable, inverse: Callable,
                         unary_ops: Sequence[str],
                         binary_ops: Sequence[str]) -> List[Tuple[str, tuple]]:
    """Where ``forward`` fails to be a bijective homomorphism from the
    window of ``src`` onto the window ``codomain`` of ``target``, with
    inverse ``inverse``, as (kind, elements).

    First the bijection failures: ("not-injective", (x, y)) for each
    ``map_once`` collision; ("image-outside-window", (v,)) for each image
    v outside ``codomain``, in ``repr`` order; and ("not-surjective",
    (p,)) for each p of ``codomain``, in order, whose preimage
    inverse(p) does not map back onto it.  Then the failures of
    ``homomorphism_failures``.

    Set equality of the two windows is deliberately not required: over a
    lexicographic carrier, canonicalizing pairs of window elements can
    produce coordinates beyond the window, so the codomain window may
    properly contain the image while the map is still a carrier-level
    bijection.  Both checks share one dict of inverses, which starts as
    the codomain's, and one dict of images, which starts as the window's,
    so ``inverse`` and ``forward`` each run once per distinct argument.
    """
    image, collisions = map_once(window, forward)
    inverses = {p: inverse(p) for p in codomain}
    failures = [("not-injective", pair) for pair in collisions]
    failures += [("image-outside-window", (v,))
                 for v in sorted(set(image.values()).difference(inverses), key=repr)]
    for p, q in inverses.items():
        if q not in image:
            image[q] = forward(q)
        if image[q] != p:
            failures.append(("not-surjective", (p,)))

    def inverse_once(p):
        try:
            return inverses[p]
        except KeyError:
            q = inverses[p] = inverse(p)
            return q

    return failures + homomorphism_failures(
        src, target, window, [image[x] for x in window], forward, inverse_once,
        unary_ops, binary_ops, image)


def homomorphism_failures(src, target, window: list, image: list,
                          forward: Callable, inverse: Callable,
                          unary_ops: Sequence[str],
                          binary_ops: Sequence[str],
                          memo: Optional[dict] = None) -> List[Tuple[str, tuple]]:
    """Where ``forward`` fails to be a homomorphism from ``src`` to
    ``target`` with inverse ``inverse`` on ``window``.

    ``image`` holds forward(x) for each x of the window, in window order.
    Each operation name is a method of both carriers, and there is at
    least one binary operation.  Returns the failures as (kind, elements):
    first, for each element x in window order, ("inverse", (x,)) when
    inverse(forward(x)) != x and then (op, (x,)) for each unary op with
    forward(src.op(x)) != target.op(forward(x)); then, for each pair
    (x, y) in window order, (op, (x, y)) for each binary op with
    forward(src.op(x, y)) != target.op(forward(x), forward(y)).
    An empty window has no failures.  ``forward`` is called once per
    distinct element outside the window, over all operations: never on a
    window element, whose image ``image`` holds.  ``memo``, when given,
    maps elements to their images under ``forward``: the check reads the
    images of the elements outside the window from it before it calls
    ``forward``, and keeps there those it computes.
    """
    if not window:
        return []
    import numpy as np

    from .kernels import _AtLimit, codec_for

    bad_inverse = np.array([inverse(y) != x for x, y in zip(window, image)],
                           dtype=bool)
    ops = (*unary_ops, *binary_ops)
    # forward's images of the elements outside the window, kept for a
    # restart.
    if memo is None:
        memo = {}
    codecs = codec_for(src), codec_for(target)
    bad = None
    if all(c is not None and all(hasattr(c, op) for op in ops) for c in codecs):
        try:
            bad = _differences(*codecs, window, image, forward, memo,
                               unary_ops, binary_ops)
        except _AtLimit:
            pass
    if bad is None:
        bad = _by_definition(src, target, window, image, forward, memo,
                             unary_ops, binary_ops)
    if not (bad_inverse.any() or any(b.any() for b in bad)):
        return []
    bad_elements = np.stack([bad_inverse] + bad[:len(unary_ops)], axis=-1)
    bad_pairs = np.stack(bad[len(unary_ops):], axis=-1)
    kinds = ("inverse",) + tuple(unary_ops)
    return ([(kinds[k], (window[i],)) for i, k in np.argwhere(bad_elements).tolist()]
            + [(binary_ops[k], (window[i], window[j]))
               for i, j, k in np.argwhere(bad_pairs).tolist()])


def _by_definition(src, target, window, image, forward, memo: dict,
                   unary_ops, binary_ops) -> list:
    """``_differences`` by the definition, on the carriers' own
    operations: for each unary op, then each binary op, where
    forward(src.op(x, ...)) != target.op(forward(x), ...), an (n,) or an
    (n, n) boolean array.  A result's image is ``image``'s for a window
    element, at its first appearance, and otherwise ``memo``'s, which
    gets forward's image of each result it lacks."""
    import numpy as np

    images = dict(zip(reversed(window), reversed(image)))

    def mapped(x):
        if x in images:
            return images[x]
        if x not in memo:
            memo[x] = forward(x)
        return memo[x]

    pairs = list(zip(window, image))
    out = []
    for op in unary_ops:
        f, g = getattr(src, op), getattr(target, op)
        out.append(np.array([mapped(f(x)) != g(fx) for x, fx in pairs], dtype=bool))
    for op in binary_ops:
        f, g = getattr(src, op), getattr(target, op)
        out.append(np.array([[mapped(f(x, y)) != g(fx, fy) for y, fy in pairs]
                             for x, fx in pairs], dtype=bool))
    return out


def _pairs(kernel, a, b):
    """``kernel`` on every pair of the rows of the (width, n) and
    (width, m) arrays ``a`` and ``b``: a (width, n, m) array whose rows
    stay below ``LIMIT``."""
    from .kernels import _fitted

    return _fitted(kernel(a[:, :, None], b[:, None, :]))


def _differences(source, dest, window, image, forward, memo: dict,
                 unary_ops, binary_ops) -> list:
    """For each unary op, then each binary op, where forward of the
    results of the codec ``source`` differs from the results of the
    codec ``dest`` over the image: an (n,) or an (n, n) boolean array.
    ``memo`` maps source elements outside the window to their images
    under forward, and gets those mapped here.  A row reaching ``LIMIT``
    raises ``kernels._AtLimit``."""
    import numpy as np

    from .kernels import _KERNEL_BLOCK, SYMMETRIC, _encoded, _fitted, rows_differ

    xs, ys = _encoded(source, window), _encoded(dest, image)
    mapped = _mapper(source, dest, forward, memo, xs, ys)
    out = [rows_differ(mapped(_fitted(getattr(source, op)(xs))),
                       _fitted(getattr(dest, op)(ys)))
           for op in unary_ops]
    n = xs.shape[1]
    # Row blocks of at most _KERNEL_BLOCK int64 coordinates a side.
    step = max(1, _KERNEL_BLOCK // (n * max(xs.shape[0], ys.shape[0])))
    for op in binary_ops:
        f, g = getattr(source, op), getattr(dest, op)
        # A symmetric kernel's blocks start at the diagonal, and their
        # columns before it are the transpose of the rows above.
        half = op in SYMMETRIC
        bad = np.empty((n, n), dtype=bool)
        for s in range(0, n, step):
            e, t = s + step, s if half else 0
            bad[s:e, t:] = rows_differ(mapped(_pairs(f, xs[:, s:e], xs[:, t:])),
                                       _pairs(g, ys[:, s:e], ys[:, t:]))
            bad[s:e, :t] = bad[:t, s:e].T
        out.append(bad)
    return out


def _mapper(source, dest, forward, memo: dict, xs, ys):
    """forward on arrays of rows of the codec ``source``, giving rows of
    the codec ``dest``, for every operation of one check: it starts from
    the window's rows ``xs``, mapped to the image's rows ``ys``; each
    block's rows are looked up in one ``kernels.KeyIndex`` of the rows
    met so far, and only the new ones are decoded, mapped (read from
    ``memo``, or forward's image, which ``memo`` gets) and encoded."""
    from .kernels import KeyIndex, _encoded, _put

    # The index numbers a window element that repeats at its first
    # appearance, so the image's rows are taken in that order.
    index = KeyIndex(xs.shape[0])
    mapped = ys.take(index.intern(xs)[1], axis=1)

    def apply(keys):
        nonlocal mapped
        flat = keys.reshape(keys.shape[0], -1)
        k = index.k
        pos, fresh = index.intern(flat)
        if len(fresh):
            elems = source.decode_all(flat.take(fresh, axis=1))
            for x in elems:
                if x not in memo:
                    memo[x] = forward(x)
            mapped = _put(mapped, k, _encoded(dest, [memo[x] for x in elems]))
        return mapped.take(pos, axis=1).reshape((-1,) + keys.shape[1:])

    return apply
