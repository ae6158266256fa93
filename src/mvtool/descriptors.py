"""Model descriptor strings and per-carrier element syntax.

One parser owns the grammar used everywhere (CLI flags, registry model
families, tests):

    MV carriers:   C | B | Trivial | L(m) | Sigma(<group>)
                 | Gamma(<group>,<elem>) | Prod(<mv>,...)
    groups:        Z | Z^n | Lex(Z,<group>) | Groth(<monoid>)
    monoids:       N | N^n | PosCone(<group>)     (N, N^n: PosCone(Z), PosCone(Z^n))
    wrappers:      Unital(<group>,<elem>) | Pointed(<mv>,<elem>)

Element syntax depends on the carrier: Chang elements are ``0``, ``1``,
``Nc`` and ``1-Nc``; chain elements are indices; vectors are
``(a,b,...)``; lexicographic pairs are ``(head,<tail>)``; Grothendieck
elements are canonical pairs ``[<u>,<v>]`` of monoid elements; positive
cone elements use their group's syntax, so N's are integers and N^n's
vectors.  ``N`` and ``N^n`` parse to the cones of Z and Z^n, spelled as
written.
"""

from __future__ import annotations

from typing import List

from .errors import DescriptorError
from .lgroup_core import (
    CanonPair,
    GrothendieckGroup,
    LexGroup,
    LexPair,
    LGroup,
    LMonoid,
    NMonoid,
    NnMonoid,
    PositiveConeMonoid,
    UnitalGroup,
    ZGroup,
    ZnGroup,
    grothendieck_group,
)
from .mv_core import (
    ChangAlgebra,
    ChangElem,
    CoFin,
    Fin,
    FiniteChainAlgebra,
    GammaAlgebra,
    MvAlgebra,
    PointedAlgebra,
    ProductAlgebra,
    SigmaAlgebra,
)


def _split_args(body: str) -> List[str]:
    """Split a comma-separated argument list, respecting nesting."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p.strip() for p in parts]


def _call(text: str):
    """Split 'Head(args)' into (head, [args]); returns (text, None) for
    atoms."""
    text = text.strip()
    if "(" not in text:
        return text, None
    head, rest = text.split("(", 1)
    if not rest.endswith(")"):
        raise DescriptorError(f"unbalanced parentheses in {text!r}")
    return head.strip(), _split_args(rest[:-1])


def parse_group(text: str) -> LGroup:
    head, args = _call(text)
    if args is None:
        if head == "Z":
            return ZGroup()
        if head.startswith("Z^"):
            try:
                return ZnGroup(int(head[2:]))
            except ValueError:
                raise DescriptorError(f"bad rank in {text!r}") from None
        raise DescriptorError(f"unknown group descriptor {text!r}")
    if head == "Lex":
        if len(args) != 2 or args[0] != "Z":
            raise DescriptorError(
                f"{text!r}: lexicographic products have the form Lex(Z,<group>)"
            )
        return LexGroup(parse_group(args[1]))
    if head == "Groth":
        if len(args) != 1:
            raise DescriptorError(f"{text!r}: Groth takes one monoid")
        return grothendieck_group(parse_monoid(args[0]))
    raise DescriptorError(f"unknown group descriptor {text!r}")


def parse_monoid(text: str) -> LMonoid:
    head, args = _call(text)
    if args is None:
        if head == "N":
            return NMonoid()
        if head.startswith("N^"):
            try:
                return NnMonoid(int(head[2:]))
            except ValueError:
                raise DescriptorError(f"bad rank in {text!r}") from None
        raise DescriptorError(f"unknown monoid descriptor {text!r}")
    if head == "PosCone":
        if len(args) != 1:
            raise DescriptorError(f"{text!r}: PosCone takes one group")
        return PositiveConeMonoid(parse_group(args[0]))
    raise DescriptorError(f"unknown monoid descriptor {text!r}")


def parse_mv(text: str) -> MvAlgebra:
    head, args = _call(text)
    if args is None:
        if head == "C":
            return ChangAlgebra()
        if head == "B":
            return FiniteChainAlgebra(1)
        if head == "Trivial":
            return FiniteChainAlgebra(0)
        raise DescriptorError(f"unknown MV descriptor {text!r}")
    if head == "L":
        if len(args) != 1:
            raise DescriptorError(f"{text!r}: L takes one chain length")
        try:
            return FiniteChainAlgebra(int(args[0]))
        except ValueError:
            raise DescriptorError(f"bad chain length in {text!r}") from None
    if head == "Sigma":
        if len(args) != 1:
            raise DescriptorError(f"{text!r}: Sigma takes one group")
        return SigmaAlgebra(parse_group(args[0]))
    if head == "Gamma":
        if len(args) != 2:
            raise DescriptorError(f"{text!r}: Gamma takes a group and a unit")
        group = parse_group(args[0])
        return GammaAlgebra(group, parse_group_element(group, args[1]))
    if head == "Prod":
        # "Prod()" is the product of no factors, the one-element algebra.
        return ProductAlgebra([parse_mv(a) for a in args if args != [""]])
    raise DescriptorError(f"unknown MV descriptor {text!r}")


def parse_model(text: str):
    """Parse any model descriptor: MV carrier, group, monoid, or a
    unital/pointed wrapper."""
    head, args = _call(text)
    if head == "Unital":
        if args is None or len(args) != 2:
            raise DescriptorError(f"{text!r}: Unital takes a group and a unit")
        group = parse_group(args[0])
        return UnitalGroup(group, parse_group_element(group, args[1]))
    if head == "Pointed":
        if args is None or len(args) != 2:
            raise DescriptorError(f"{text!r}: Pointed takes an algebra and a point")
        alg = parse_mv(args[0])
        return PointedAlgebra(alg, parse_mv_element(alg, args[1]))
    for parser in (parse_mv, parse_group, parse_monoid):
        try:
            return parser(text)
        except DescriptorError:
            continue
    raise DescriptorError(f"cannot parse model descriptor {text!r}")


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DescriptorError(f"{text!r} is not an integer") from None


def _parse_vector(text: str, rank: int) -> tuple:
    if not (text.startswith("(") and text.endswith(")")):
        raise DescriptorError(f"{text!r} is not a vector")
    parts = _split_args(text[1:-1]) if text != "()" else []
    if len(parts) == 1 and parts[0] == "":
        parts = []
    if len(parts) != rank:
        raise DescriptorError(f"{text!r} does not have rank {rank}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DescriptorError(f"{text!r} has a non-integer coordinate") from None


def parse_group_element(group: LGroup, text: str):
    text = text.strip()
    if isinstance(group, ZGroup):
        return _parse_int(text)
    if isinstance(group, ZnGroup):
        return _parse_vector(text, group.rank)
    if isinstance(group, LexGroup):
        if not (text.startswith("(") and text.endswith(")")):
            raise DescriptorError(f"{text!r} is not a lexicographic pair")
        parts = _split_args(text[1:-1])
        if len(parts) < 2:
            raise DescriptorError(f"{text!r} needs a head and a tail")
        head_text, tail_text = parts[0], ",".join(parts[1:])
        try:
            head = int(head_text)
        except ValueError:
            raise DescriptorError(f"{head_text!r} is not an integer head") from None
        return LexPair(head, parse_group_element(group.tail, tail_text))
    if isinstance(group, UnitalGroup):
        return parse_group_element(group.group, text)
    if isinstance(group, GrothendieckGroup):
        bracketed = text.startswith("[") and text.endswith("]")
        parts = _split_args(text[1:-1]) if bracketed else []
        if len(parts) != 2:
            raise DescriptorError(f"{text!r} is not a pair [u,v]")
        m = group.monoid
        u, v = (parse_monoid_element(m, p) for p in parts)
        if m.inf(u, v) != m.zero:
            raise DescriptorError(
                f"{text!r} is not canonical in {group.descriptor()}: "
                f"inf(u,v) = {m.format_element(m.inf(u, v))}, not 0"
            )
        return CanonPair(u, v)
    raise DescriptorError(
        f"no element syntax for group {group.descriptor()}"
    )


def parse_monoid_element(monoid: LMonoid, text: str):
    text = text.strip()
    if not isinstance(monoid, PositiveConeMonoid):
        raise DescriptorError(f"no element syntax for monoid {monoid.descriptor()}")
    x = parse_group_element(monoid.group, text)
    monoid.validate(x)
    return x


def parse_mv_element(algebra: MvAlgebra, text: str):
    text = text.strip()
    if isinstance(algebra, ChangAlgebra):
        return _parse_chang(text)
    if isinstance(algebra, FiniteChainAlgebra):
        try:
            k = int(text)
        except ValueError:
            raise DescriptorError(f"{text!r} is not a chain index") from None
        algebra.validate(k)
        return k
    if isinstance(algebra, (GammaAlgebra,)):
        elem = parse_group_element(algebra.group, text)
        algebra.validate(elem)
        return elem
    if isinstance(algebra, ProductAlgebra):
        if not (text.startswith("(") and text.endswith(")")):
            raise DescriptorError(f"{text!r} is not a product tuple")
        parts = _split_args(text[1:-1]) if text != "()" else []
        if len(parts) != len(algebra.factors):
            raise DescriptorError(
                f"{text!r} does not have arity {len(algebra.factors)}"
            )
        return tuple(
            parse_mv_element(f, p) for f, p in zip(algebra.factors, parts)
        )
    if isinstance(algebra, PointedAlgebra):
        return parse_mv_element(algebra.algebra, text)
    raise DescriptorError(f"no element syntax for {algebra.descriptor()}")


def _parse_chang(text: str) -> ChangElem:
    if text == "0":
        return Fin(0)
    if text == "1":
        return CoFin(0)
    if text == "c":
        return Fin(1)
    if text.startswith("1-") and text.endswith("c"):
        body = text[2:-1] or "1"
        try:
            return CoFin(int(body))
        except ValueError:
            raise DescriptorError(f"{text!r} is not a Chang element") from None
    if text.endswith("c"):
        try:
            return Fin(int(text[:-1]))
        except ValueError:
            raise DescriptorError(f"{text!r} is not a Chang element") from None
    raise DescriptorError(f"{text!r} is not a Chang element")
