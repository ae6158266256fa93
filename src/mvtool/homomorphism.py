"""Bounded checks of maps between carriers: injectivity and the
homomorphism property on a window.

``map_once`` maps every window element once and lists the collisions;
the round-trip reports, the pushout-pullback square and the weak
subdirect check all start from it.

``homomorphism_failures`` checks that a map commutes with named
operations on a window.  It interns the window and its image with the
vector engine's ``OperationTables``, builds each source operation table
(with the int64 kernels when the carrier has a codec, else with the
carrier's own operation on each distinct operand pair), maps every
distinct source result forward once, builds the target table over the
image, and compares the two index arrays.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from .checking import OperationTables


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
    ``forward`` is called once per distinct result of each source table.
    """
    source, dest = OperationTables(src), OperationTables(target)
    xi = source.intern_all(window)
    yi = dest.intern_all(image)

    def mapped(table):
        uniq, inv = np.unique(table.reshape(-1), return_inverse=True)
        fwd = dest.intern_all([forward(source.element(i)) for i in uniq.tolist()])
        return fwd[inv.reshape(table.shape)]

    bad_elements = [np.array([inverse(y) != x for x, y in zip(window, image)],
                             dtype=bool)]
    for op in unary_ops:
        bad_elements.append(mapped(source.unary_table(op, xi))
                            != dest.unary_table(op, yi))
    bad_pairs = [mapped(source.binary_table(op, xi[:, None], xi[None, :]))
                 != dest.binary_table(op, yi[:, None], yi[None, :])
                 for op in binary_ops]
    kinds = ("inverse",) + tuple(unary_ops)
    return ([(kinds[k], (window[i],))
             for i, k in np.argwhere(np.stack(bad_elements, axis=-1)).tolist()]
            + [(binary_ops[k], (window[i], window[j]))
               for i, j, k in np.argwhere(np.stack(bad_pairs, axis=-1)).tolist()])
