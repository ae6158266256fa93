"""Command-line front end.

Subcommands: check, check-family, roundtrip, decompose, ant-check,
registry-list.  Reports are deterministic given the configuration and
seed (elapsed_ms aside) and are emitted as text or versioned JSON.

Exit codes: 0 all verdicts hold, 1 counterexample, 2 inconclusive at
bound, 64 usage error (bad flags, descriptor or element parse failure,
unknown label, unreadable sequent file, empty label list, carrier cap
exceeded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from . import decompose as dec
from . import registry
from .checking import check_sequent, searches
from .descriptors import (
    _split_args,
    parse_group,
    parse_group_element,
    parse_model,
    parse_mv,
    parse_mv_element,
)
from .equivalence import beta_roundtrip_report, phi_roundtrip_report
from .errors import (
    CarrierCapExceededError,
    DecompositionError,
    MvToolError,
)
from .sequents import _Node, parse_sequent, print_sequent
from .verdicts import CounterExample, InconclusiveAtBound, Verdict

SCHEMA_VERSION = 1
DEFAULT_MAX_CARRIER = 10 ** 6

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class RunConfig(_Node):
    command: str
    model: Optional[str] = None
    sequent: Optional[str] = None
    sequents: Sequence[str] = ()
    group: Optional[str] = None
    algebra: Optional[str] = None
    gens: Optional[str] = None
    unit: Optional[str] = None
    bound: int = 6
    output: str = "text"
    seed: int = 0
    exists_bound: Optional[int] = None


def max_carrier() -> int:
    raw = os.environ.get("MVTOOL_MAX_CARRIER")
    if raw is None:
        return DEFAULT_MAX_CARRIER
    try:
        cap = int(raw)
    except ValueError:
        raise CarrierCapExceededError(
            f"MVTOOL_MAX_CARRIER={raw!r} is not an integer"
        ) from None
    if cap < 0:
        raise CarrierCapExceededError(f"MVTOOL_MAX_CARRIER={cap} must be >= 0")
    return cap


def _count(n: int) -> str:
    """``n``, or a power of ten below it when ``str`` refuses its length."""
    try:
        return str(n)
    except ValueError:  # 2^(b-1) <= n and 0.3010299 < log10(2)
        return f"more than 10^{(n.bit_length() - 1) * 3010299 // 10 ** 7}"


def _guard_size(what: str, size: int, bound: int) -> None:
    cap = max_carrier()
    if size > cap:
        raise CarrierCapExceededError(
            f"{what} {_count(size)} elements at bound {bound}, above the cap of "
            f"{cap} (override with MVTOOL_MAX_CARRIER)"
        )


def _guard_cap(model, bound: int) -> None:
    _guard_size(f"{model.descriptor()} enumerates", model.window_size(bound), bound)


def _guard_search(model, sequents, search_bound: int) -> None:
    """Apply the cap to the existential search window as well, when one
    of the sequents reads it."""
    if any(searches(seq) for seq in sequents):
        _guard_cap(model, search_bound)


def _verdict_json(v: Verdict, fmt) -> dict:
    out = {"verdict": v.kind}
    if isinstance(v, CounterExample):
        if isinstance(v.env, dict):
            out["counterexample"] = {k: fmt(val) for k, val in v.env.items()}
        else:
            out["counterexample"] = fmt(v.env)
        if v.axiom:
            out["axiom"] = v.axiom
        if v.note:
            out["note"] = v.note
    elif isinstance(v, InconclusiveAtBound):
        if v.note:
            out["note"] = v.note
    return out


def _load_sequent(spec: str):
    """A registry label, @file, or @- for stdin."""
    if not spec.startswith("@"):
        return registry.lookup(spec), spec
    source = "<stdin>" if spec == "@-" else spec[1:]
    try:
        if spec == "@-":
            # The bytes, decoded strictly: sys.stdin would let a C locale's
            # surrogateescape pass undecodable input on to the parser.
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MvToolError(f"cannot read sequent {spec}: {reason}") from None
    return parse_sequent(text), source


def run(config: RunConfig) -> tuple:
    """Execute a configuration; returns (exit_code, report dict)."""
    started = time.monotonic()
    handler = {
        "check": _run_check,
        "check-family": _run_check_family,
        "roundtrip": _run_roundtrip,
        "decompose": _run_decompose,
        "ant-check": _run_ant_check,
        "registry-list": _run_registry_list,
    }.get(config.command)
    if handler is None:
        raise MvToolError(f"unknown command {config.command!r}")
    code, report = handler(config)
    report["schema"] = SCHEMA_VERSION
    report["command"] = config.command
    report["seed"] = config.seed
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return code, report


def _exit_code_for(verdicts) -> int:
    if any(isinstance(v, CounterExample) for v in verdicts):
        return EXIT_COUNTEREXAMPLE
    if any(isinstance(v, InconclusiveAtBound) for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _run_check(config: RunConfig):
    model = parse_model(config.model)
    _guard_cap(model, config.bound)
    seq, label = _load_sequent(config.sequent)
    if config.exists_bound is not None:
        _guard_search(model, [seq], config.exists_bound)
    verdict = check_sequent(model, seq, config.bound,
                            exists_bound=config.exists_bound)
    report = {
        "model": model.descriptor(),
        "sequent": label,
        "source": print_sequent(seq),
        "bound": config.bound,
    }
    report.update(_verdict_json(verdict, model.format_element))
    return _exit_code_for([verdict]), report


def _run_check_family(config: RunConfig):
    if not config.sequents:
        raise MvToolError("--sequents names no sequent label")
    model = parse_model(config.model)
    _guard_cap(model, config.bound)
    # check_family searches existentials at twice the bound by default.
    search_bound = (2 * config.bound if config.exists_bound is None
                    else config.exists_bound)
    _guard_search(model, [registry.lookup(label) for label in config.sequents],
                  search_bound)
    fam = registry.check_family(model, config.sequents, config.bound,
                                exists_bound=config.exists_bound)
    results = {}
    for label, verdict in fam.verdicts.items():
        results[label] = _verdict_json(verdict, model.format_element)
    report = {
        "model": model.descriptor(),
        "bound": config.bound,
        "results": results,
        "family_checks": fam.family_checks,
    }
    return _exit_code_for(fam.verdicts.values()), report


def _run_roundtrip(config: RunConfig):
    if (config.group is None) == (config.algebra is None):
        raise MvToolError("roundtrip needs exactly one of --group / --algebra")
    if config.group is not None:
        G = parse_group(config.group)
        _guard_cap(G, config.bound)
        report = phi_roundtrip_report(G, config.bound)
    else:
        A = parse_mv(config.algebra)
        _guard_cap(A, config.bound)
        report = beta_roundtrip_report(A, config.bound)
    code = EXIT_OK if not report["failures"] else EXIT_COUNTEREXAMPLE
    return code, report


def _run_decompose(config: RunConfig):
    model = parse_mv(config.model)
    _guard_cap(model, config.bound)
    gens = [parse_mv_element(model, g) for g in _split_args(config.gens)]
    try:
        d = dec.decompose_product(model, gens, config.bound)
    except DecompositionError as exc:
        report = {
            "model": model.descriptor(),
            "bound": config.bound,
            "error": str(exc),
            "reconstruction_verdict": "failed",
        }
        return EXIT_COUNTEREXAMPLE, report
    recon = dec.product_reconstruction_check(model, d, config.bound)
    report = {
        "model": model.descriptor(),
        "bound": config.bound,
        "atoms": [model.format_element(a) for a in d.atoms],
        "factor_descriptors": [f.descriptor() for f in d.factors],
        "perfect_verdicts": ["holds"] * len(d.factors),
        "reconstruction_verdict": recon.kind,
    }
    return _exit_code_for([recon]), report


def _run_ant_check(config: RunConfig):
    G = parse_group(config.group)
    unit = parse_group_element(G, config.unit)
    # ant_check reads only the interval [0, u] of the window.
    _guard_size(f"the interval [0, {G.format_element(unit)}] of {G.descriptor()} has",
                G.interval_size(config.bound, G.zero, unit), config.bound)
    verdict = registry.ant_check(G, unit, config.bound)
    report = {
        "group": G.descriptor(),
        "unit": G.format_element(unit),
        "bound": config.bound,
    }
    report.update(_verdict_json(verdict, G.format_element))
    return _exit_code_for([verdict]), report


def _run_registry_list(config: RunConfig):
    entries = [
        {
            "label": e.label,
            "theory": e.theory,
            "kind": e.kind,
            "statement": print_sequent(e.sequent),
            "doc": e.doc,
            "models": list(e.models),
        }
        for e in registry.all_entries()
    ]
    return EXIT_OK, {"entries": entries}


# ---------------------------------------------------------------------------
# Argument parsing and rendering
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mvtool",
                description="Exact bounded checking for MV-algebras, "
                            "lattice-ordered groups, and the functors "
                            "between them.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, bound_default=6):
        sp.add_argument("--bound", type=int, default=bound_default)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("check", help="check one sequent against a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--sequent", required=True,
                    help="registry label, @file, or @- for stdin")
    sp.add_argument("--exists-bound", type=int, default=None)
    common(sp)

    sp = sub.add_parser("check-family", help="check a batch of registry sequents")
    sp.add_argument("--model", required=True)
    sp.add_argument("--sequents", required=True,
                    help="comma-separated registry labels")
    sp.add_argument("--exists-bound", type=int, default=None)
    common(sp)

    sp = sub.add_parser("roundtrip",
                        help="verify the group/algebra natural isomorphism")
    sp.add_argument("--group")
    sp.add_argument("--algebra")
    common(sp)

    sp = sub.add_parser("decompose",
                        help="direct-product decomposition into perfect factors")
    sp.add_argument("--model", required=True)
    sp.add_argument("--gens", required=True,
                    help="comma-separated generator elements")
    common(sp, bound_default=8)

    sp = sub.add_parser("ant-check",
                        help="antiarchimedean identities on a unit interval")
    sp.add_argument("--group", required=True)
    sp.add_argument("--unit", required=True)
    common(sp)

    sp = sub.add_parser("registry-list", help="list every named sequent")
    common(sp)

    return p


def _render_text(report: dict) -> str:
    lines = []
    command = report.get("command", "")
    if command == "registry-list":
        for e in report["entries"]:
            lines.append(f"{e['label']:16} [{e['theory']}/{e['kind']}] {e['doc']}")
            lines.append(f"{'':16} {e['statement']}")
        return "\n".join(lines)
    for key in ("model", "group", "unit", "sequent", "source", "bound"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']}")
        if "counterexample" in report:
            lines.append(f"counterexample: {report['counterexample']}")
        if "axiom" in report:
            lines.append(f"axiom: {report['axiom']}")
    if "results" in report:
        for label, res in report["results"].items():
            extra = ""
            if "counterexample" in res:
                extra = f"  counterexample: {res['counterexample']}"
            lines.append(f"{label:16} {res['verdict']}{extra}")
        for fc in report.get("family_checks", []):
            lines.append(
                f"families {'+'.join(fc['family_a'])} vs "
                f"{'+'.join(fc['family_b'])}: "
                f"{fc['verdict_a']}/{fc['verdict_b']} "
                f"({'agree' if fc['agree'] else 'DISAGREE'})"
            )
    if "failures" in report:
        lines.append(f"direction: {report['direction']}")
        lines.append(f"checked_pairs: {report['checked_pairs']}")
        lines.append(f"failures: {len(report['failures'])}")
        for f in report["failures"][:10]:
            lines.append(f"  {f}")
    if "atoms" in report:
        lines.append(f"atoms: {report['atoms']}")
        lines.append(f"factors: {report['factor_descriptors']}")
        lines.append(f"reconstruction: {report['reconstruction_verdict']}")
    if "error" in report:
        lines.append(f"error: {report['error']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        model=getattr(args, "model", None),
        sequent=getattr(args, "sequent", None),
        sequents=[s.strip() for s in getattr(args, "sequents", "").split(",")
                  if s.strip()] if getattr(args, "sequents", None) else [],
        group=getattr(args, "group", None),
        algebra=getattr(args, "algebra", None),
        gens=getattr(args, "gens", None),
        unit=getattr(args, "unit", None),
        bound=args.bound,
        output="json" if args.json else "text",
        seed=args.seed,
        exists_bound=getattr(args, "exists_bound", None),
    )
    if config.bound < 1:
        parser.error("--bound must be >= 1")
    if config.exists_bound is not None and config.exists_bound < 1:
        parser.error("--exists-bound must be >= 1")
    try:
        code, report = run(config)
    except MvToolError as exc:
        print(f"mvtool: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if config.output == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_text(report))
    except BrokenPipeError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
