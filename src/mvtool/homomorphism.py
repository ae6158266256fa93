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
span few values and sorts them otherwise), maps those not seen in an
earlier block through ``forward`` into target keys (decode, forward,
encode), and compares the gathered keys with the target's results.  So
``forward`` runs once per distinct source result, the target side is
never interned in code space, and no grid is sorted whole.  The first
code row of magnitude ``LIMIT`` (2^60) or more, an element that cannot
be encoded included, starts the whole check over on interned indices on
both sides, with ``forward``'s images found so far kept.  Row equality
is element equality below ``LIMIT``, which the kernel tests pin, so both
keyings give the same failures.  The check imports numpy and ``vector``
on its first call, so this module loads without them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple


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
                          binary_ops: Sequence[str]) -> List[Tuple[str, tuple]]:
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
    distinct result of each source operation.
    """
    if not window:
        return []
    import numpy as np

    bad_inverse = np.array([inverse(y) != x for x, y in zip(window, image)],
                           dtype=bool)
    ops = (*unary_ops, *binary_ops)
    # forward's images of each operation's results, in batches, kept for
    # a restart.
    made: Dict[str, list] = {op: [] for op in ops}
    try:
        bad = _differences(_side(src, ops), _side(target, ops), window, image,
                           forward, made, unary_ops, binary_ops)
    except _AtLimit:
        bad = _differences(_Interned(src), _Interned(target), window, image,
                           forward, made, unary_ops, binary_ops)
    bad_elements = np.stack([bad_inverse] + bad[:len(unary_ops)], axis=-1)
    bad_pairs = np.stack(bad[len(unary_ops):], axis=-1)
    kinds = ("inverse",) + tuple(unary_ops)
    return ([(kinds[k], (window[i],)) for i, k in np.argwhere(bad_elements).tolist()]
            + [(binary_ops[k], (window[i], window[j]))
               for i, j, k in np.argwhere(bad_pairs).tolist()])


class _AtLimit(Exception):
    """A code row reached ``LIMIT``: the check starts over on interned
    indices."""


def _side(model, ops):
    """The keys of one side: code rows when ``model`` has a codec with a
    kernel for each of ``ops``, interned indices otherwise."""
    from .vector import codec_for

    codec = codec_for(model)
    if codec is not None and all(hasattr(codec, op) for op in ops):
        return _Rows(codec)
    return _Interned(model)


class _Rows:
    """A side in code space: an element's key is its int64 code row, and
    an operation's results are one kernel call; a row of magnitude
    ``LIMIT`` or more raises ``_AtLimit``."""

    def __init__(self, codec):
        self.codec = codec

    def keys(self, values: list):
        import numpy as np

        encode = self.codec.encode
        try:
            rows = np.array([encode(v) for v in values], dtype=np.int64)
        except OverflowError:
            raise _AtLimit from None
        return self._fit(rows.reshape(-1, self.codec.width))

    def elements(self, keys) -> list:
        return list(map(self.codec.decode, keys.tolist()))

    def unary(self, op, a):
        return self._fit(getattr(self.codec, op)(a))

    def binary(self, op, a, b):
        """``op`` on every pair of the rows ``a`` and ``b``: a
        (len(a), len(b), width) array."""
        return self._fit(getattr(self.codec, op)(a[:, None], b[None, :]))

    @staticmethod
    def _fit(rows):
        from .kernels import _fit_rows

        if not _fit_rows(rows):
            raise _AtLimit
        return rows


class _Interned:
    """A side on interned indices: an element's key is a row holding its
    index in a ``vector.OperationTables``, whose tables call the carrier's
    own operations (or its kernels, while the tables stay in code space)."""

    def __init__(self, model):
        from .vector import OperationTables

        self.tables = OperationTables(model)

    def keys(self, values: list):
        return self.tables.intern_all(values)[:, None]

    def elements(self, keys) -> list:
        return list(map(self.tables.element, keys[:, 0].tolist()))

    def unary(self, op, a):
        return self.tables.unary_table(op, a)

    def binary(self, op, a, b):
        return self.tables.binary_table(op, a, b.T)[..., None]


def _differences(source, dest, window, image, forward, made,
                 unary_ops, binary_ops) -> list:
    """For each unary op, then each binary op, where forward of the
    source's results differs from the target's results over the image:
    an (n,) or an (n, n) boolean array.  ``made[op]`` holds forward's
    images of op's source results, as (elements, images) batches, and
    gets those mapped here."""
    import numpy as np

    from .vector import _KERNEL_BLOCK

    xs, ys = source.keys(window), dest.keys(image)
    out = [(_mapper(source, dest, forward, made[op])(source.unary(op, xs))
            != dest.unary(op, ys)).any(axis=-1)
           for op in unary_ops]
    step = max(1, _KERNEL_BLOCK // len(xs))
    for op in binary_ops:
        mapped = _mapper(source, dest, forward, made[op])
        out.append(np.concatenate(
            [(mapped(source.binary(op, xs[s:s + step], xs))
              != dest.binary(op, ys[s:s + step], ys)).any(axis=-1)
             for s in range(0, len(xs), step)]))
    return out


def _mapper(source, dest, forward, made: list):
    """forward on arrays of one operation's source keys, giving target
    keys: each block's distinct keys are found by ``unique_rows``, and
    only those no earlier block had are decoded, mapped (or read from
    ``made``, which gets them) and encoded."""
    import numpy as np

    from .kernels import unique_rows
    from .vector import _row_keys

    seen: Dict[bytes, int] = {}  # a source key's bytes -> its row in mapped
    mapped = None
    known = {x: y for elems, values in made for x, y in zip(elems, values)}

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
            values = ([known[x] if x in known else forward(x) for x in elems]
                      if known else list(map(forward, elems)))
            made.append((elems, values))
            rows = dest.keys(values)
            for p, j in enumerate(new, len(seen)):
                pos[j] = seen[names[j]] = p
            mapped = rows if mapped is None else np.concatenate([mapped, rows])
        return mapped[np.array(pos)[inverse]].reshape(keys.shape[:-1] + (-1,))

    return apply
