"""Bounded checks of maps between carriers: injectivity and the
homomorphism property on a window.

``map_once`` maps every window element once and lists the collisions;
the round-trip reports, the pushout-pullback square and the weak
subdirect check all start from it.

``homomorphism_failures`` checks that a map commutes with named
operations on a window.  Each side of the check, the source carrier over
the window and the target over its image, keys its elements in one of
two ways.  A carrier with a codec (``kernels.codec_for``) that has a
kernel for every checked operation keys an element by its int64 code
row, and an operation's results are one kernel call over the rows; any
other carrier keys it by its interned index in a ``vector``
``OperationTables``, one index per row, whose tables call the carrier's
own operations.  One comparison procedure serves both: it computes an
operation's source and target results in row blocks of at most
``vector._KERNEL_BLOCK`` pairs, takes the distinct source results of
each block (``kernels.unique_rows``, which counts their keys when they
span few values and sorts them otherwise), maps those no earlier block
of any operation had into target keys (decode, forward, encode), and
compares the gathered keys with the target's results column by column
(``kernels.rows_differ``).  The keys known from the start are the
window's, mapped to the image's, and the images ``forward`` gives are
kept in one memo per check.  So ``forward`` runs once per distinct
element outside the window, over all operations, the target side is
never interned in code space, and no grid is sorted whole.  At
``LIMIT`` the check starts over by the rule that ``kernels`` states:
both sides are then interned with no codec, and the memo is kept.  Row
equality is element equality below ``LIMIT``, which the kernel tests
pin, so every keying gives the same failures.  The check imports numpy
and ``vector`` on its first call, so this module loads without them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple


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
        """``op`` on every pair of the rows ``a`` and ``b``: a
        (len(a), len(b), width) array."""
        return self._fit(getattr(self.codec, op)(a[:, None], b[None, :]))

    @staticmethod
    def _fit(rows):
        from .kernels import _AtLimit, _fit_rows

        if not _fit_rows(rows):
            raise _AtLimit
        return rows


class _Interned:
    """A side on interned indices: an element's key is a row holding its
    index in a ``vector.OperationTables`` with the codec ``codec``, whose
    tables call the carrier's kernels, or its own operations when
    ``codec`` is None."""

    def __init__(self, model, codec=None):
        from .vector import OperationTables

        self.tables = OperationTables(model, codec)

    def keys(self, values: list):
        return self.tables.intern_all(values)[:, None]

    def elements(self, keys) -> list:
        return self.tables.elements(keys[:, 0].tolist())

    def unary(self, op, a):
        return self.tables.unary_table(op, a)

    def binary(self, op, a, b):
        return self.tables.binary_table(op, a, b.T)[..., None]


def _differences(source, dest, window, image, forward, memo: dict,
                 unary_ops, binary_ops) -> list:
    """For each unary op, then each binary op, where forward of the
    source's results differs from the target's results over the image:
    an (n,) or an (n, n) boolean array.  ``memo`` maps source elements
    outside the window to their images under forward, and gets those
    mapped here."""
    import numpy as np

    from .kernels import rows_differ
    from .vector import _KERNEL_BLOCK

    xs, ys = source.keys(window), dest.keys(image)
    mapped = _mapper(source, dest, forward, memo, xs, ys)
    out = [rows_differ(mapped(source.unary(op, xs)), dest.unary(op, ys))
           for op in unary_ops]
    step = max(1, _KERNEL_BLOCK // len(xs))
    for op in binary_ops:
        out.append(np.concatenate(
            [rows_differ(mapped(source.binary(op, xs[s:s + step], xs)),
                         dest.binary(op, ys[s:s + step], ys))
             for s in range(0, len(xs), step)]))
    return out


def _mapper(source, dest, forward, memo: dict, xs, ys):
    """forward on arrays of source keys, giving target keys, for every
    operation of one check: it starts from the window's keys ``xs``,
    mapped to the image's keys ``ys``; each block's distinct keys are
    found by ``unique_rows``, and only those no earlier block had are
    decoded, mapped (read from ``memo``, or forward's image, which
    ``memo`` gets) and encoded."""
    import numpy as np

    from .kernels import unique_rows
    from .vector import _row_keys

    # A source key's bytes -> its row in mapped.
    seen: Dict[bytes, int] = {name: i for i, name in enumerate(_row_keys(xs))}
    mapped = ys

    def apply(keys):
        nonlocal mapped
        flat = keys.reshape(-1, keys.shape[-1])
        first, inverse = unique_rows(flat)
        uniq = flat[first]
        names = _row_keys(uniq)
        pos = [seen.get(name) for name in names]
        new = [j for j, p in enumerate(pos) if p is None]
        if new:
            elems = source.elements(uniq[new])
            for x in elems:
                if x not in memo:
                    memo[x] = forward(x)
            rows = dest.keys([memo[x] for x in elems])
            for p, j in enumerate(new, len(mapped)):
                pos[j] = seen[names[j]] = p
            mapped = np.concatenate([mapped, rows])
        return mapped[np.array(pos)[inverse]].reshape(keys.shape[:-1] + (-1,))

    return apply
