"""In-memory spans and counters around mvtool's layers, installed from
outside the package.

Coarse public calls get a span each (name, start, end, parent, item id).
Carrier operations are far too frequent for spans, so they are counted
per carrier kind, and timed only at the outermost carrier entry: a call
made while another carrier operation or an ``enumerate`` is running is
counted but not timed, because the enclosing entry's time already holds
it.  A span's self time is its duration minus its child spans and the
outermost carrier operations made directly under it.

The layer of a carrier is the module that defines its interface:
``MvAlgebra`` subclasses belong to ``mv_core`` and ``LGroup``/``LMonoid``
subclasses to ``lgroup_core``, wherever the subclass lives (so the
radical monoid of ``equivalence`` counts under ``lgroup_core``).  The kind
of an MV carrier is its ``carrier_kind``; a group or monoid carrier's kind
is its class name.

Which end-to-end figures a change in each layer should move, and where
no move is predicted:

  mv_core.enumerate_*        wall_s, slowest_item_s on wide-window;
                             not on axiom-suite or cli-mix
  lgroup_core.enumerate_*    wall_s on axiom-suite; not on wide-window
  lgroup_core.op_*           axiom-suite and roundtrip; not cli-mix
  mv_core.op_*               roundtrip, wide-window; not axiom-suite
  checking.*                 wall_s, peak_rss_mb on axiom-suite; roundtrip
                             never enters the layer
  equivalence.*              roundtrip; not axiom-suite or wide-window
  decompose.*, cli.*         cli-mix only
  descriptors.*, registry.*  setup_s, and wall_s on cli-mix
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

OPS = ("oplus", "neg", "odot", "ominus", "sup", "inf", "leq", "d",
       "add", "negate", "sub", "subtract", "validate")

MV_KINDS = ("chang", "finite_chain", "product", "gamma", "sigma", "pointed",
            "finite_quotient")
GROUP_KINDS = ("ZGroup", "ZnGroup", "LexGroup", "UnitalGroup",
               "GrothendieckGroup", "NMonoid", "NnMonoid",
               "PositiveConeMonoid", "RadicalMonoid", "RadPairGroup")

# (module, function, span name) for every coarse call that gets a span.
SPANNED = (
    ("mvtool.cli", "run", "cli.run"),
    ("mvtool.registry", "check_family", "registry.check_family"),
    ("mvtool.registry", "lookup", "registry.lookup"),
    ("mvtool.checking", "check_sequent", "checking.check_sequent"),
    ("mvtool.descriptors", "parse_model", "descriptors.parse_model"),
    ("mvtool.equivalence", "phi_roundtrip_report", "equivalence.report"),
    ("mvtool.equivalence", "beta_roundtrip_report", "equivalence.report"),
    ("mvtool.equivalence", "chi_roundtrip_report", "equivalence.report"),
    ("mvtool.equivalence", "phi_M_roundtrip_report", "equivalence.report"),
    ("mvtool.equivalence", "sigma", "equivalence.functor"),
    ("mvtool.equivalence", "delta", "equivalence.functor"),
    ("mvtool.decompose", "decompose_product", "decompose.decompose"),
    ("mvtool.decompose", "product_reconstruction_check",
     "decompose.reconstruction"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "child_s",
                 "in_carrier", "window", "size")

    def __init__(self, name, parent, item, in_carrier):
        self.name = name
        self.parent = parent
        self.item = item
        self.in_carrier = in_carrier
        self.child_s = 0.0
        self.window = None  # size of the first enumerate made under it
        self.size = None    # elements returned, for enumerate spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "item": self.item}


class Tracer:
    """Records spans and carrier counters while installed.

    ``install()`` replaces mvtool's coarse functions at every import site
    and the operation methods of every carrier class; ``uninstall()``
    restores the originals.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.item: Optional[str] = None
        self.depth = 0
        self.op_calls: Dict[type, int] = defaultdict(int)
        self.outer_calls: Dict[type, int] = defaultdict(int)
        self.outer_s: Dict[type, float] = defaultdict(float)
        self.checking_cells = 0
        self.checked_pairs = 0
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.op_calls.clear()
        self.outer_calls.clear()
        self.outer_s.clear()
        self.checking_cells = 0
        self.checked_pairs = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.item, self.depth > 0)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        if self.stack and not span.in_carrier:
            self.spans[self.stack[-1]].child_s += span.duration

    def spanned(self, name: str, fn: Callable,
                on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def _enumerate(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def enumerate(carrier, bound):
            span = tracer.open(f"{layer}.enumerate")
            tracer.depth += 1
            try:
                result = fn(carrier, bound)
            finally:
                tracer.depth -= 1
                tracer.close(span)
            span.size = len(result)
            if span.parent is not None:
                parent = tracer.spans[span.parent]
                if parent.window is None:
                    parent.window = span.size
            return result

        return enumerate

    def _op(self, fn: Callable) -> Callable:
        tracer = self
        op_calls = self.op_calls

        @functools.wraps(fn)
        def op(carrier, *args):
            cls = carrier.__class__
            op_calls[cls] += 1
            if tracer.depth:
                return fn(carrier, *args)
            tracer.depth = 1
            start = perf_counter()
            try:
                return fn(carrier, *args)
            finally:
                elapsed = perf_counter() - start
                tracer.depth = 0
                tracer.outer_calls[cls] += 1
                tracer.outer_s[cls] += elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]].child_s += elapsed

        return op

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import mvtool.cli  # noqa: F401  (the CLI module is not imported by mvtool)
        from mvtool.lgroup_core import LGroup, LMonoid
        from mvtool.mv_core import MvAlgebra

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mvtool"
                                         or name.startswith("mvtool."))]
        hooks = {"checking.check_sequent": self._count_cells,
                 "equivalence.report": self._count_pairs}
        for module_name, attr, span_name in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.spanned(span_name, original, hooks.get(span_name))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapped)

        classes = set()
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, type) and issubclass(
                        value, (MvAlgebra, LGroup, LMonoid)):
                    classes.add(value)
        for cls in sorted(classes, key=lambda c: (c.__module__, c.__name__)):
            layer = "mv_core" if issubclass(cls, MvAlgebra) else "lgroup_core"
            for name in OPS:
                if name in vars(cls):
                    self._replace(cls, name, self._op(vars(cls)[name]))
            if "enumerate" in vars(cls):
                self._replace(cls, "enumerate",
                              self._enumerate(layer, vars(cls)["enumerate"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _count_cells(self, span: Span, args, result) -> None:
        seq = args[1]
        self.checking_cells += (span.window or 0) ** len(seq.context)

    def _count_pairs(self, span: Span, args, result) -> None:
        self.checked_pairs += result["checked_pairs"]

    # -- metrics ------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures for everything recorded since ``reset()``."""
        from mvtool.mv_core import MvAlgebra

        spans = self.spans

        def outermost(name):
            """Spans of ``name`` with no enclosing span of the same name
            and not opened inside a carrier entry."""
            out = []
            for span in spans:
                if span.name != name or span.in_carrier:
                    continue
                parent = span.parent
                while parent is not None and spans[parent].name != name:
                    parent = spans[parent].parent
                if parent is None:
                    out.append(span)
            return out

        def total(name):
            return sum(s.duration for s in outermost(name))

        def count(name):
            return sum(1 for s in spans if s.name == name)

        def self_time(*names):
            return sum(s.duration - s.child_s
                       for s in spans if s.name in names)

        m: Dict[str, float] = {}
        for layer in ("mv_core", "lgroup_core"):
            name = f"{layer}.enumerate"
            m[f"{layer}.enumerate_s"] = total(name)
            m[f"{layer}.enumerate_calls"] = count(name)
        # Gamma-style MV carriers enumerate by filtering a group window:
        # compare what they keep with the group elements they scan.
        scanned_by = defaultdict(int)
        for span in spans:
            if span.name == "lgroup_core.enumerate" and span.parent is not None \
                    and spans[span.parent].name == "mv_core.enumerate":
                scanned_by[span.parent] += span.size
        kept = sum(spans[i].size for i in scanned_by)
        scanned = sum(scanned_by.values())
        m["mv_core.enumerate_kept_ratio"] = kept / scanned if scanned else 1.0

        per_kind = {"mv_core": MV_KINDS, "lgroup_core": GROUP_KINDS}
        for layer in per_kind:
            m[f"{layer}.op_calls"] = 0
            m[f"{layer}.op_s"] = 0.0
        outer_calls = defaultdict(int)
        outer_s = defaultdict(float)
        for cls, calls in self.op_calls.items():
            is_mv = issubclass(cls, MvAlgebra)
            layer = "mv_core" if is_mv else "lgroup_core"
            kind = cls.carrier_kind if is_mv else cls.__name__
            m[f"{layer}.op_calls"] += calls
            m[f"{layer}.op_s"] += self.outer_s.get(cls, 0.0)
            outer_calls[layer, kind] += self.outer_calls.get(cls, 0)
            outer_s[layer, kind] += self.outer_s.get(cls, 0.0)
        for layer, kinds in per_kind.items():
            for kind in kinds:
                secs = outer_s[layer, kind]
                m[f"{layer}.{kind}.ops_per_s"] = (
                    outer_calls[layer, kind] / secs if secs else 0.0)

        m["checking.calls"] = count("checking.check_sequent")
        m["checking.s"] = total("checking.check_sequent")
        m["checking.self_s"] = self_time("checking.check_sequent")
        m["checking.cells"] = self.checking_cells

        m["equivalence.report_s"] = total("equivalence.report")
        m["equivalence.self_s"] = self_time("equivalence.report",
                                            "equivalence.functor")
        m["equivalence.functor_s"] = total("equivalence.functor")
        m["equivalence.checked_pairs"] = self.checked_pairs

        m["decompose.decompose_s"] = total("decompose.decompose")
        m["decompose.reconstruction_s"] = total("decompose.reconstruction")

        m["cli.run_s"] = total("cli.run")
        m["cli.self_s"] = self_time("cli.run")
        m["cli.json_s"] = total("cli.json")

        m["descriptors.parse_s"] = total("descriptors.parse_model")
        m["descriptors.parse_calls"] = count("descriptors.parse_model")
        m["registry.lookup_s"] = total("registry.lookup")
        m["registry.check_family_s"] = total("registry.check_family")
        return m


# The exact counts that must repeat from one traced batch to the next.
COUNT_METRICS = (
    "checking.calls", "checking.cells", "equivalence.checked_pairs",
    "mv_core.op_calls", "lgroup_core.op_calls",
    "mv_core.enumerate_calls", "lgroup_core.enumerate_calls",
    "descriptors.parse_calls",
)
