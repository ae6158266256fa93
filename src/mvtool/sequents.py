"""Abstract syntax, parser and printer for the sequent DSL.

The concrete syntax is plain ASCII: ``(+)`` for the MV sum, ``(.)`` for
the MV product, ``neg`` for complement, ``+``/``-`` for group terms,
``inf(s,t)``/``sup(s,t)``/``d(s,t)`` as function symbols, ``n*t`` for
iterated sum, ``t^n`` for iterated product, ``/\\`` and ``\\/`` for
conjunction and disjunction, ``exists x.`` for quantification,
``bigvee n<=N.`` for a capped infinitary disjunction, and
``phi |-[x,y] psi`` for sequents.  ``u`` is the reserved distinguished
constant (strong unit, or the marked radical element).

The term and formula nodes, ``Sequent`` and the tokenizer's tokens derive
from ``_Node``, an immutable record that behaves as a frozen dataclass
without generating code for each class.  It is the one record base of the
package: the verdicts, the registry's records, ``AtomDecomposition`` and
the CLI's ``RunConfig`` derive from it too.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Optional, Tuple, Union

from .errors import ParseError, SignatureError

ALL_SIGS = frozenset({"mv", "lgroup", "monoid"})


class _Node:
    """An immutable record whose fields are its class's annotations, in
    order, after those of the record classes it derives from.  It behaves
    as ``@dataclass(frozen=True)``: construction by position or keyword, a
    field whose class attribute holds a value takes that value as its
    default, ``==`` only between instances of one class, the hash of the
    field tuple, the dataclass ``repr``, ``FrozenInstanceError`` on
    assignment and deletion, and ``__match_args__`` (the arguments).  A
    field named in ``_fixed`` is not an argument: it keeps its class
    attribute's value and comes after the arguments, as a dataclass field
    declared with ``init=False``.  ``_replace`` is ``dataclasses.replace``.
    Unlike a dataclass it compiles no methods for each class, which is most
    of the cost of defining one."""

    __match_args__ = ()
    _fixed = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ += tuple([name for name in cls.__annotations__
                                     if name not in cls._fixed])
        cls._fields = cls.__match_args__ + cls._fixed
        cls._defaults = {name: getattr(cls, name) for name in cls.__match_args__
                         if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) < len(names):
            values = {**self._defaults, **kwargs}
            args += tuple([values.pop(name) for name in names[len(args):]
                           if name in values])
            # What is left of the keywords names no field after the
            # positional arguments.
            kwargs = values.keys() & kwargs.keys()
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the "
                            f"arguments ({', '.join(names)})")
        # As a frozen dataclass sets its fields: an instance then keeps the
        # interpreter's inline attribute values, which a write to
        # ``__dict__`` would give up, slowing every later read.
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        return type(self)(*[changes.pop(name, getattr(self, name))
                            for name in self.__match_args__], **changes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    # dataclasses is imported on the error path only, so that importing
    # the package loads neither it nor the inspect it imports.
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Var(_Node):
    name: str


class Zero(_Node):
    pass


class One(_Node):
    pass


class Unit(_Node):
    pass


class Oplus(_Node):
    left: "Term"
    right: "Term"


class Odot(_Node):
    left: "Term"
    right: "Term"


class Neg(_Node):
    arg: "Term"


class Inf(_Node):
    left: "Term"
    right: "Term"


class Sup(_Node):
    left: "Term"
    right: "Term"


class Add(_Node):
    left: "Term"
    right: "Term"


class Minus(_Node):
    arg: "Term"


class NatScalar(_Node):
    """n * t; the coefficient is a literal natural number or the name of
    an enclosing bigvee variable."""

    coeff: Union[int, str]
    arg: "Term"


class MvPower(_Node):
    arg: "Term"
    n: int


class D(_Node):
    left: "Term"
    right: "Term"


Term = Union[Var, Zero, One, Unit, Oplus, Odot, Neg, Inf, Sup, Add, Minus,
             NatScalar, MvPower, D]

_NODE_SIGS = {
    Var: ALL_SIGS,
    Zero: ALL_SIGS,
    Inf: ALL_SIGS,
    Sup: ALL_SIGS,
    NatScalar: ALL_SIGS,
    One: frozenset({"mv"}),
    Oplus: frozenset({"mv"}),
    Odot: frozenset({"mv"}),
    Neg: frozenset({"mv"}),
    MvPower: frozenset({"mv"}),
    D: frozenset({"mv"}),
    Add: frozenset({"lgroup", "monoid"}),
    Minus: frozenset({"lgroup"}),
    Unit: frozenset({"mv", "lgroup"}),
}


# ---------------------------------------------------------------------------
# Formulas and sequents
# ---------------------------------------------------------------------------


class Top(_Node):
    pass


class Bot(_Node):
    pass


class Eq(_Node):
    left: Term
    right: Term


class Leq(_Node):
    left: Term
    right: Term


class And(_Node):
    left: "Formula"
    right: "Formula"


class Or(_Node):
    left: "Formula"
    right: "Formula"


class Exists(_Node):
    var: str
    body: "Formula"


class BoundedOrOverN(_Node):
    """Disjunction over n = 0..cap of the body, which may use n as a
    scalar coefficient.  Approximates an infinitary disjunction; checks
    are incomplete for validation above the cap."""

    var: str
    cap: int
    body: "Formula"


Formula = Union[Top, Bot, Eq, Leq, And, Or, Exists, BoundedOrOverN]


class Sequent(_Node):
    context: Tuple[str, ...]
    antecedent: Formula
    consequent: Formula
    name: Optional[str] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for i, v in enumerate(self.context):
            if v in self.context[:i]:
                raise SignatureError(f"context repeats variable {v!r}")
        free =formula_free_vars(self.antecedent) | formula_free_vars(self.consequent)
        extra = free - set(self.context)
        if extra:
            raise SignatureError(
                f"free variables {sorted(extra)} not declared in context "
                f"{list(self.context)}"
            )
        _check_scalar_vars(self.antecedent, frozenset())
        _check_scalar_vars(self.consequent, frozenset())

    def signatures(self) -> FrozenSet[str]:
        sigs = formula_signatures(self.antecedent) & formula_signatures(self.consequent)
        if not sigs:
            raise SignatureError("sequent mixes symbols from disjoint signatures")
        return sigs


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


# The carrier method each operation node stands for: the one place that
# maps syntax to semantics, read by both checking engines.
BINARY_OPS = {Oplus: "oplus", Odot: "odot", Inf: "inf", Sup: "sup",
              Add: "add", D: "d"}
UNARY_OPS = {Neg: "neg", Minus: "negate"}


def term_children(t: Term):
    if type(t) in BINARY_OPS:
        return (t.left, t.right)
    if type(t) in UNARY_OPS or isinstance(t, (NatScalar, MvPower)):
        return (t.arg,)
    return ()


def term_free_vars(t: Term) -> FrozenSet[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    out: FrozenSet[str] = frozenset()
    for c in term_children(t):
        out |= term_free_vars(c)
    return out


def term_signatures(t: Term) -> FrozenSet[str]:
    sigs = _NODE_SIGS[type(t)]
    for c in term_children(t):
        sigs = sigs & term_signatures(c)
    if not sigs:
        raise SignatureError(f"term {print_term(t)!r} mixes signatures")
    return sigs


def formula_free_vars(f: Formula) -> FrozenSet[str]:
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, (Eq, Leq)):
        return term_free_vars(f.left) | term_free_vars(f.right)
    if isinstance(f, (And, Or)):
        return formula_free_vars(f.left) | formula_free_vars(f.right)
    if isinstance(f, Exists):
        return formula_free_vars(f.body) - {f.var}
    if isinstance(f, BoundedOrOverN):
        return formula_free_vars(f.body)
    raise TypeError(f"not a formula: {f!r}")


def formula_signatures(f: Formula) -> FrozenSet[str]:
    if isinstance(f, (Top, Bot)):
        return ALL_SIGS
    if isinstance(f, (Eq, Leq)):
        sigs = term_signatures(f.left) & term_signatures(f.right)
    elif isinstance(f, (And, Or)):
        sigs = formula_signatures(f.left) & formula_signatures(f.right)
    elif isinstance(f, (Exists, BoundedOrOverN)):
        sigs = formula_signatures(f.body)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if not sigs:
        raise SignatureError("formula mixes symbols from disjoint signatures")
    return sigs


def _term_scalar_vars(t: Term) -> FrozenSet[str]:
    out: FrozenSet[str] = frozenset()
    if isinstance(t, NatScalar) and isinstance(t.coeff, str):
        out |= frozenset({t.coeff})
    for c in term_children(t):
        out |= _term_scalar_vars(c)
    return out


def _check_scalar_vars(f: Formula, bound: FrozenSet[str]) -> None:
    if isinstance(f, (Top, Bot)):
        return
    if isinstance(f, (Eq, Leq)):
        loose = (_term_scalar_vars(f.left) | _term_scalar_vars(f.right)) - bound
        if loose:
            raise SignatureError(
                f"scalar variables {sorted(loose)} are not bound by a bigvee"
            )
        return
    if isinstance(f, (And, Or)):
        _check_scalar_vars(f.left, bound)
        _check_scalar_vars(f.right, bound)
        return
    if isinstance(f, Exists):
        _check_scalar_vars(f.body, bound)
        return
    if isinstance(f, BoundedOrOverN):
        _check_scalar_vars(f.body, bound | {f.var})
        return
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<oplus>\(\+\))
  | (?P<odot>\(\.\))
  | (?P<turnstile>\|-)
  | (?P<leq><=)
  | (?P<and>/\\)
  | (?P<or>\\/)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[()\[\],=+\-*^.])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"neg", "inf", "sup", "d", "exists", "bigvee", "true", "false", "u"}


class _Tok(_Node):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str):
    toks = []
    line, col = 1, 0
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            if kind == "ident" and text in _KEYWORDS:
                kind = text
            elif kind == "sym":
                kind = text
            toks.append(_Tok(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n") - 1
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking for parenthesized formulas)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- sequents ---------------------------------------------------------

    def sequent(self) -> Sequent:
        ante = self.formula()
        self.expect("turnstile")
        self.expect("[")
        ctx = []
        if self.peek().kind != "]":
            ctx.append(self.expect("ident").text)
            while self.peek().kind == ",":
                self.next()
                ctx.append(self.expect("ident").text)
        self.expect("]")
        cons = self.formula()
        self.expect("eof")
        return Sequent(tuple(ctx), ante, cons)

    # -- formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        t = self.peek()
        if t.kind == "exists":
            self.next()
            var = self.expect("ident").text
            self.expect(".")
            return Exists(var, self.formula())
        if t.kind == "bigvee":
            self.next()
            var = self.expect("ident").text
            self.expect("leq")
            cap = int(self.expect("num").text)
            self.expect(".")
            return BoundedOrOverN(var, cap, self.formula())
        return self.disjunction()

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().kind == "or":
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.atom_formula()
        while self.peek().kind == "and":
            self.next()
            left = And(left, self.atom_formula())
        return left

    def atom_formula(self) -> Formula:
        t = self.peek()
        if t.kind == "true":
            self.next()
            return Top()
        if t.kind == "false":
            self.next()
            return Bot()
        if t.kind == "(":
            mark = self.i
            try:
                return self.relational()
            except ParseError:
                self.i = mark
            self.expect("(")
            inner = self.formula()
            self.expect(")")
            return inner
        return self.relational()

    def relational(self) -> Formula:
        left = self.term()
        t = self.peek()
        if t.kind == "=":
            self.next()
            return Eq(left, self.term())
        if t.kind == "leq":
            self.next()
            return Leq(left, self.term())
        self.fail("expected '=' or '<=' after term")

    # -- terms ------------------------------------------------------------

    _BINOPS = {"oplus": Oplus, "odot": Odot, "+": Add}

    def term(self) -> Term:
        left = self.scalar_factor()
        while True:
            k = self.peek().kind
            if k in self._BINOPS:
                self.next()
                left = self._BINOPS[k](left, self.scalar_factor())
            elif k == "-" and self.peek(1).kind != "eof":
                self.next()
                left = Add(left, Minus(self.scalar_factor()))
            else:
                return left

    def scalar_factor(self) -> Term:
        t = self.peek()
        if t.kind == "num" and self.peek(1).kind == "*":
            n = int(self.next().text)
            self.next()
            return NatScalar(n, self.unary())
        if t.kind == "ident" and self.peek(1).kind == "*":
            name = self.next().text
            self.next()
            return NatScalar(name, self.unary())
        return self.unary()

    def unary(self) -> Term:
        t = self.peek()
        if t.kind == "neg":
            self.next()
            return Neg(self.unary())
        if t.kind == "-":
            self.next()
            return Minus(self.unary())
        return self.postfix()

    def postfix(self) -> Term:
        base = self.atom_term()
        if self.peek().kind == "^":
            self.next()
            n = int(self.expect("num").text)
            return MvPower(base, n)
        return base

    def atom_term(self) -> Term:
        t = self.peek()
        if t.kind == "num":
            self.next()
            if t.text == "0":
                return Zero()
            if t.text == "1":
                return One()
            raise ParseError(
                f"bare numeral {t.text} is not a constant; use n*t for scalars",
                t.line, t.col,
            )
        if t.kind == "u":
            self.next()
            return Unit()
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind in ("inf", "sup", "d"):
            ctor = {"inf": Inf, "sup": Sup, "d": D}[t.kind]
            self.next()
            self.expect("(")
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(")")
            return ctor(left, right)
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        self.fail(f"unexpected token {t.text!r} in term")


def parse_sequent(src: str) -> Sequent:
    """Parse a sequent; raises ParseError with position on bad input and
    SignatureError on undeclared variables or mixed signatures."""
    seq = _Parser(src).sequent()
    seq.signatures()
    return seq


def parse_term(src: str, signature: str) -> Term:
    """Parse a term and check it is well-signed for ``signature``."""
    p = _Parser(src)
    t = p.term()
    p.expect("eof")
    sigs = term_signatures(t)
    if signature not in sigs:
        raise SignatureError(
            f"term {src!r} is not well-signed for {signature!r} (admits {sorted(sigs)})"
        )
    return t


def parse_formula(src: str) -> Formula:
    p = _Parser(src)
    f = p.formula()
    p.expect("eof")
    formula_signatures(f)
    return f


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_BINARY = 1
_PREC_SCALAR = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


def print_term(t: Term, parent_prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Unit):
        return "u"
    if isinstance(t, (Inf, Sup, D)):
        fn = {"Inf": "inf", "Sup": "sup", "D": "d"}[type(t).__name__]
        return f"{fn}({print_term(t.left)}, {print_term(t.right)})"
    if isinstance(t, Neg):
        s = f"neg {print_term(t.arg, _PREC_UNARY)}"
        return f"({s})" if parent_prec > _PREC_UNARY else s
    if isinstance(t, Minus):
        s = f"- {print_term(t.arg, _PREC_UNARY)}"
        return f"({s})" if parent_prec > _PREC_UNARY else s
    if isinstance(t, NatScalar):
        s = f"{t.coeff}*{print_term(t.arg, _PREC_SCALAR + 1)}"
        return f"({s})" if parent_prec > _PREC_SCALAR else s
    if isinstance(t, MvPower):
        s = f"{print_term(t.arg, _PREC_ATOM + 1)}^{t.n}"
        return f"({s})" if parent_prec > _PREC_ATOM else s
    if isinstance(t, (Oplus, Odot, Add)):
        op = {"Oplus": "(+)", "Odot": "(.)", "Add": "+"}[type(t).__name__]
        if isinstance(t, Add) and isinstance(t.right, Minus):
            s = (f"{print_term(t.left, _PREC_BINARY)} - "
                 f"{print_term(t.right.arg, _PREC_BINARY + 1)}")
        else:
            s = (f"{print_term(t.left, _PREC_BINARY)} {op} "
                 f"{print_term(t.right, _PREC_BINARY + 1)}")
        return f"({s})" if parent_prec > _PREC_BINARY else s
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula, parent_prec: int = 0) -> str:
    # precedence: quantifiers 0, \/ 1, /\ 2, atoms 3
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Eq):
        return f"{print_term(f.left)} = {print_term(f.right)}"
    if isinstance(f, Leq):
        return f"{print_term(f.left)} <= {print_term(f.right)}"
    if isinstance(f, Or):
        s = f"{print_formula(f.left, 1)} \\/ {print_formula(f.right, 2)}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(f, And):
        s = f"{print_formula(f.left, 2)} /\\ {print_formula(f.right, 3)}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(f, Exists):
        s = f"exists {f.var} . {print_formula(f.body, 0)}"
        return f"({s})" if parent_prec > 0 else s
    if isinstance(f, BoundedOrOverN):
        s = f"bigvee {f.var}<={f.cap} . {print_formula(f.body, 0)}"
        return f"({s})" if parent_prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def print_sequent(s: Sequent) -> str:
    ctx = ",".join(s.context)
    return f"{print_formula(s.antecedent)} |-[{ctx}] {print_formula(s.consequent)}"
