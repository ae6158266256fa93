"""Bounded checks of maps between carriers: injectivity, bijectivity
and the homomorphism property on a window.

``map_once`` maps every window element once and lists the collisions;
the pushout-pullback square, the weak subdirect check and
``isomorphism_failures`` all start from it.  ``isomorphism_failures``
is the one isomorphism check behind the round-trip reports: bijectivity
on windows, then ``homomorphism_failures``, with one dict of inverses
and one of images between them.

``homomorphism_failures`` checks that a map commutes with named
operations on a window.  Each side of the check, the source carrier over
the window and the target over its image, keys its elements in one of
two ways.  A carrier with a codec (``kernels.codec_for``) that has a
kernel for every checked operation keys an element by its int64 code
row, and an operation's results are one kernel call over the rows; any
other carrier keys it by its interned index in a ``vector``
``OperationTables``, a row of one coordinate, whose tables call the
carrier's own operations.  Keys are column-first (width, ...) arrays,
as codes are in ``kernels``.  One comparison procedure serves both: it
computes an operation's source and target results in row blocks of at
most ``vector._KERNEL_BLOCK`` int64 coordinates a side (pairs times key
width), looks each block's source results up in one ``kernels.KeyIndex``
per check (a direct-address table of the keys met so far, so a block
costs its own size), maps those no earlier block of any operation had
into target keys (decode, forward, encode), and compares the gathered
keys with the target's results, a reduction over the coordinate axis
(``kernels.rows_differ``).  When both sides key by code rows and the
operation's kernel is symmetric (``kernels.SYMMETRIC``), a block's rows
are computed from the diagonal on and the columns before it are the
transpose of the rows above; a window whose pairs fit one block, and any
interned side, computes the full square.  The keys known from the
start are the window's, mapped to the image's, and the images
``forward`` gives are kept in one memo per check.  So ``forward`` runs
once per distinct element outside the window, over all operations, the
target side is never interned in code space, and no grid is sorted
whole.  At ``LIMIT`` the check starts over by the rule that ``kernels``
states: both sides are then interned with no codec, and the memo is
kept.  Row equality is element equality below ``LIMIT``, which the
kernel tests pin, so every keying gives the same failures.  The check
imports numpy and ``vector`` on its first call, so this module loads
without them.
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

    from .kernels import _AtLimit

    bad_inverse = np.array([inverse(y) != x for x, y in zip(window, image)],
                           dtype=bool)
    ops = (*unary_ops, *binary_ops)
    # forward's images of the elements outside the window, kept for a
    # restart.
    if memo is None:
        memo = {}
    try:
        bad = _differences(_side(src, ops), _side(target, ops), window, image,
                           forward, memo, unary_ops, binary_ops)
    except _AtLimit:
        bad = _differences(_Interned(src), _Interned(target), window, image,
                           forward, memo, unary_ops, binary_ops)
    if not (bad_inverse.any() or any(b.any() for b in bad)):
        return []
    bad_elements = np.stack([bad_inverse] + bad[:len(unary_ops)], axis=-1)
    bad_pairs = np.stack(bad[len(unary_ops):], axis=-1)
    kinds = ("inverse",) + tuple(unary_ops)
    return ([(kinds[k], (window[i],)) for i, k in np.argwhere(bad_elements).tolist()]
            + [(binary_ops[k], (window[i], window[j]))
               for i, j, k in np.argwhere(bad_pairs).tolist()])


def _side(model, ops):
    """The keys of one side: code rows when ``model`` has a codec with a
    kernel for each of ``ops``, interned indices otherwise."""
    from .vector import codec_for

    codec = codec_for(model)
    if codec is not None and all(hasattr(codec, op) for op in ops):
        return _Rows(codec)
    return _Interned(model, codec)


class _Rows:
    """A side in code space: an element's key is its int64 code row, and
    an operation's results are one kernel call; a row of magnitude
    ``LIMIT`` or more raises ``kernels._AtLimit``."""

    def __init__(self, codec):
        self.codec = codec

    def keys(self, values: list):
        from .kernels import _AtLimit

        try:
            rows = self.codec.encode_all(values)
        except OverflowError:
            raise _AtLimit from None
        return self._fit(rows)

    def elements(self, keys) -> list:
        return self.codec.decode_all(keys)

    def unary(self, op, a):
        return self._fit(getattr(self.codec, op)(a))

    def binary(self, op, a, b):
        """``op`` on every pair of the rows of the (width, n) and (width, m)
        arrays ``a`` and ``b``: a (width, n, m) array."""
        return self._fit(getattr(self.codec, op)(a[:, :, None], b[:, None, :]))

    @staticmethod
    def _fit(rows):
        from .kernels import _AtLimit, _fit_rows

        if not _fit_rows(rows):
            raise _AtLimit
        return rows


class _Interned:
    """A side on interned indices: an element's key is a one-coordinate
    row holding its index in a ``vector.OperationTables`` with the codec
    ``codec``, whose tables call the carrier's kernels, or its own
    operations when ``codec`` is None."""

    def __init__(self, model, codec=None):
        from .vector import OperationTables

        self.tables = OperationTables(model, codec)

    def keys(self, values: list):
        return self.tables.intern_all(values)[None]

    def elements(self, keys) -> list:
        return self.tables.elements(keys[0].tolist())

    def unary(self, op, a):
        return self.tables.unary_table(op, a)

    def binary(self, op, a, b):
        return self.tables.binary_table(op, a.T, b)[None]


def _differences(source, dest, window, image, forward, memo: dict,
                 unary_ops, binary_ops) -> list:
    """For each unary op, then each binary op, where forward of the
    source's results differs from the target's results over the image:
    an (n,) or an (n, n) boolean array.  ``memo`` maps source elements
    outside the window to their images under forward, and gets those
    mapped here."""
    import numpy as np

    from .kernels import SYMMETRIC, rows_differ
    from .vector import _KERNEL_BLOCK

    xs, ys = source.keys(window), dest.keys(image)
    mapped = _mapper(source, dest, forward, memo, xs, ys)
    out = [rows_differ(mapped(source.unary(op, xs)), dest.unary(op, ys))
           for op in unary_ops]
    n = xs.shape[1]
    # Row blocks of at most _KERNEL_BLOCK int64 coordinates a side.
    step = max(1, _KERNEL_BLOCK // (n * max(xs.shape[0], ys.shape[0])))
    on_rows = isinstance(source, _Rows) and isinstance(dest, _Rows)
    for op in binary_ops:
        # A symmetric kernel's blocks on code rows start at the diagonal,
        # and their columns before it are the transpose of the rows above.
        half = on_rows and op in SYMMETRIC
        bad = np.empty((n, n), dtype=bool)
        for s in range(0, n, step):
            e, t = s + step, s if half else 0
            bad[s:e, t:] = rows_differ(mapped(source.binary(op, xs[:, s:e], xs[:, t:])),
                                       dest.binary(op, ys[:, s:e], ys[:, t:]))
            bad[s:e, :t] = bad[:t, s:e].T
        out.append(bad)
    return out


def _mapper(source, dest, forward, memo: dict, xs, ys):
    """forward on arrays of source keys, giving target keys, for every
    operation of one check: it starts from the window's keys ``xs``,
    mapped to the image's keys ``ys``; each block's keys are looked up
    in one ``kernels.KeyIndex`` of the keys met so far, and only the new
    ones are decoded, mapped (read from ``memo``, or forward's image,
    which ``memo`` gets) and encoded."""
    from .kernels import KeyIndex, _put

    # The index numbers a window element that repeats at its first
    # appearance, so the image's keys are taken in that order.
    index = KeyIndex(xs.shape[0])
    mapped = ys.take(index.intern(xs)[1], axis=1)

    def apply(keys):
        nonlocal mapped
        flat = keys.reshape(keys.shape[0], -1)
        k = index.k
        pos, fresh = index.intern(flat)
        if len(fresh):
            elems = source.elements(flat.take(fresh, axis=1))
            for x in elems:
                if x not in memo:
                    memo[x] = forward(x)
            mapped = _put(mapped, k, dest.keys([memo[x] for x in elems]))
        return mapped.take(pos, axis=1).reshape((-1,) + keys.shape[1:])

    return apply
