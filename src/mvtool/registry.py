"""Registry of named sequents and the model families they are checked
against.

Labels follow the conventional names of the axioms: MV.1-6 for
MV-algebras, P.1-4 (with beta, sigma, tau, alpha and the P.3' variant)
for perfect algebras, xi for Chang's variety, L.1-12 and Lu.1-2 for
(unital) groups, M.1-14 plus the cancellation sequent C for the monoid
theory, gamma_n / chi_n for the power lemmas, rad_ideal.i-ix for the
radical-ideal lemma, Pstar.1-2 for pointed perfect algebras, and
Ant.1-2 / A.1-2 for the antiarchimedean and Chang-transfer sequents on
unital groups.

Infinitary disjunctions carry an explicit cap (16); their checks are
sound for witnessed truth but cannot refute, and the checker reports
inconclusive-at-bound in that case.

The first access builds the table of labels and sources and parses no
sequent: an entry's sequent is parsed the first time it is asked for and
kept, so checking one axiom parses one sequent, and ``all_entries`` and
``named_sequents`` parse the rest.

The named axiom checks at the end (``check_perfect``,
``check_chang_variety``, ``check_monoid_axioms``, ``ant_check``) are
batches of registry sequents; they restate no formula.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .checking import check_sequent
from .errors import UnknownLabelError
from .lgroup_core import LexGroup, UnitalGroup, ZGroup, ZnGroup
from .mv_core import ChangAlgebra, SigmaAlgebra
from .sequents import Sequent, _Node, parse_sequent
from .verdicts import CounterExample, Holds, Verdict

BIGVEE_CAP = 16


class RegistryEntry(_Node):
    label: str
    sequent: Sequent
    theory: str
    kind: str  # "axiom" | "provable" | "alias"
    doc: str
    models: Tuple[str, ...]  # descriptors of the registered model family


# (label, sequent source, theory, kind, doc, models) of one entry.
_Source = Tuple[str, str, str, str, str, Tuple[str, ...]]


def _sources() -> List[_Source]:
    mv_models = ("C", "B", "Prod(C,C)", "Gamma(Z,2)", "Sigma(Z^2)")
    chang_models = ("C", "B", "Prod(C,C)", "Sigma(Z^2)")
    perfect_models = ("C", "Sigma(Z^2)")
    l_models = ("Z", "Z^2", "Lex(Z,Z)", "Groth(N)", "Groth(N^2)")
    m_models = ("N", "N^2", "PosCone(Z^2)", "PosCone(Lex(Z,Z))")
    lu_models = ("Unital(Z,1)", "Unital(Lex(Z,Z),(1,0))")
    pstar_models = ("Pointed(C,1c)", "Pointed(Sigma(Z^2),(0,(1,1)))")
    ant_models = ("Unital(Lex(Z,Z),(1,0))", "Unital(Z,1)")

    out: List[_Source] = []

    def add(label, src, theory, kind, doc, models):
        out.append((label, src, theory, kind, doc, tuple(models)))

    # --- MV-algebra axioms ------------------------------------------------
    add("MV.1", "true |-[x,y,z] x (+) (y (+) z) = (x (+) y) (+) z",
        "MV", "axiom", "associativity of the MV sum", mv_models)
    add("MV.2", "true |-[x,y] x (+) y = y (+) x",
        "MV", "axiom", "commutativity of the MV sum", mv_models)
    add("MV.3", "true |-[x] x (+) 0 = x",
        "MV", "axiom", "0 is neutral", mv_models)
    add("MV.4", "true |-[x] neg (neg x) = x",
        "MV", "axiom", "complement is involutive", mv_models)
    add("MV.5", "true |-[x] x (+) neg 0 = neg 0",
        "MV", "axiom", "1 is absorbing", mv_models)
    add("MV.6", "true |-[x,y] neg (neg x (+) y) (+) y = neg (neg y (+) x) (+) x",
        "MV", "axiom", "the characteristic MV axiom (sup is symmetric)", mv_models)

    # --- Chang variety ----------------------------------------------------
    add("xi", "true |-[x] 2*x^2 = (2*x)^2",
        "C", "axiom", "defining identity of the variety generated by Chang's algebra",
        chang_models)

    # --- perfect algebras --------------------------------------------------
    add("P.1", "true |-[x] x^2 (+) x^2 = (x (+) x)^2",
        "P", "axiom", "squares distribute over doubling", perfect_models)
    add("P.2", "true |-[x] 2*(2*x)^2 = (2*x)^2",
        "P", "axiom", "(2x)^2 is idempotent; also an axiom of the Chang variety",
        chang_models)
    add("P.3", "x (+) x = x |-[x] x = 0 \\/ x = 1",
        "P", "axiom", "the only idempotents are the bounds", perfect_models)
    add("P.3'", "inf(x, neg x) = 0 |-[x] x = 0 \\/ x = 1",
        "P", "alias", "P.3 stated through the complemented-element form",
        perfect_models)
    add("P.4", "x = neg x |-[x] false",
        "P", "axiom", "no fixed point of complement (non-triviality)", perfect_models)
    add("beta", "true |-[x] x <= neg x \\/ neg x <= x",
        "P", "axiom", "every element is radical or coradical; with P.1 this "
        "family is equivalent to {P.1, P.2, P.3}", perfect_models)
    add("sigma", "true |-[x] x^2 (+) x^2 = (x (+) x)^2",
        "P", "alias", "classical name for the P.1 identity", perfect_models)
    add("tau", "x^2 = x |-[x] x = 0 \\/ x = 1",
        "P", "provable", "idempotence under the MV product forces a bound",
        perfect_models)
    add("alpha", "x = neg x |-[x] false",
        "P", "alias", "fixed-point form of non-triviality, equivalent to P.4 "
        "over the Chang variety", perfect_models)
    add("nontrivial", "0 = 1 |-[] false",
        "P", "provable", "non-triviality as a closed sequent", perfect_models)

    for n in range(1, 6):
        add(f"gamma_{n}", f"{2 ** n}*x = 1 |-[x] 2*x = 1",
            "C", "provable",
            f"order collapse: if 2^{n} x = 1 then already 2x = 1", chang_models)
    for n in range(1, 9):
        add(f"chi_{n}", f"{n}*x^2 = 1 |-[x] 2*x = 1",
            "MV", "provable",
            f"if {n} x^2 = 1 then 2x = 1 (holds in every MV-algebra)", mv_models)

    rad_ideal = [
        ("i", "x <= neg x /\\ y <= x |-[x,y] y <= neg y",
         "the radical is downward closed"),
        ("ii", "neg z <= z |-[z] neg (z^2) <= z^2",
         "squares of coradical elements are coradical"),
        ("iii", "z <= neg z |-[z] 2*z <= neg (2*z)",
         "doubles of radical elements are radical"),
        ("iv", "z^2 <= neg (z^2) |-[z] z <= neg z",
         "radical squares come from radical elements"),
        ("v", "x <= neg x /\\ y <= neg y |-[x,y] sup(x,y) <= neg sup(x,y)",
         "the radical is closed under sup"),
        ("vi", "x <= neg x /\\ y <= neg y |-[x,y] inf(x,y) <= neg inf(x,y)",
         "the radical is closed under inf"),
        ("vii", "x <= neg x /\\ y <= neg y |-[x,y] x (+) y <= neg (x (+) y)",
         "the radical is closed under the MV sum"),
        ("viii", "neg x <= x /\\ neg y <= y |-[x,y] x (+) y = 1",
         "coradical elements sum to 1"),
        ("ix", "x <= neg x /\\ neg y <= y |-[x,y] x <= y",
         "radical elements sit below coradical ones"),
    ]
    for roman, src, doc in rad_ideal:
        add(f"rad_ideal.{roman}", src, "P", "provable", doc, perfect_models)

    # --- lattice-ordered abelian groups -------------------------------------
    l_axioms = [
        ("L.1", "true |-[x,y,z] x + (y + z) = (x + y) + z", "associativity"),
        ("L.2", "true |-[x] x + 0 = x", "0 is neutral"),
        ("L.3", "true |-[x] x + (- x) = 0", "inverses"),
        ("L.4", "true |-[x,y] x + y = y + x", "commutativity"),
        ("L.5", "true |-[x] x <= x", "reflexivity"),
        ("L.6", "x <= y /\\ y <= x |-[x,y] x = y", "antisymmetry"),
        ("L.7", "x <= y /\\ y <= z |-[x,y,z] x <= z", "transitivity"),
        ("L.8", "true |-[x,y] inf(x,y) <= x /\\ inf(x,y) <= y",
         "inf is a lower bound"),
        ("L.9", "z <= x /\\ z <= y |-[x,y,z] z <= inf(x,y)",
         "inf is the greatest lower bound"),
        ("L.10", "true |-[x,y] x <= sup(x,y) /\\ y <= sup(x,y)",
         "sup is an upper bound"),
        ("L.11", "x <= z /\\ y <= z |-[x,y,z] sup(x,y) <= z",
         "sup is the least upper bound"),
        ("L.12", "x <= y |-[x,y,t] t + x <= t + y", "translation invariance"),
    ]
    for label, src, doc in l_axioms:
        add(label, src, "L", "axiom", doc, l_models)

    add("Lu.1", "true |-[] 0 <= u", "Lu", "axiom",
        "the strong unit is positive", lu_models)
    add("Lu.2", f"0 <= x |-[x] bigvee n<={BIGVEE_CAP} . x <= n*u", "Lu", "axiom",
        "every positive element lies below a multiple of the unit "
        f"(capped at n <= {BIGVEE_CAP})", lu_models)

    # --- lattice-ordered abelian monoids -------------------------------------
    m_axioms = [
        ("M.1", "true |-[x,y,z] x + (y + z) = (x + y) + z", "associativity"),
        ("M.2", "true |-[x] x + 0 = x", "0 is neutral"),
        ("M.3", "true |-[x,y] x + y = y + x", "commutativity"),
        ("M.4", "true |-[x] x <= x", "reflexivity"),
        ("M.5", "x <= y /\\ y <= x |-[x,y] x = y", "antisymmetry"),
        ("M.6", "x <= y /\\ y <= z |-[x,y,z] x <= z", "transitivity"),
        ("M.7", "true |-[x,y] inf(x,y) <= x /\\ inf(x,y) <= y",
         "inf is a lower bound"),
        ("M.8", "z <= x /\\ z <= y |-[x,y,z] z <= inf(x,y)",
         "inf is the greatest lower bound"),
        ("M.9", "true |-[x,y] x <= sup(x,y) /\\ y <= sup(x,y)",
         "sup is an upper bound"),
        ("M.10", "x <= z /\\ y <= z |-[x,y,z] sup(x,y) <= z",
         "sup is the least upper bound"),
        ("M.11", "x <= y |-[x,y,t] t + x <= t + y", "translation invariance"),
        ("M.12", "x + y = x + z |-[x,y,z] y = z", "cancellation"),
        ("M.13", "true |-[x] 0 <= x", "0 is the bottom element"),
        ("M.14", "x <= y |-[x,y] exists z . x + z = y", "subtractivity"),
    ]
    for label, src, doc in m_axioms:
        add(label, src, "M", "axiom", doc, m_models)
    add("C", "x + a = y + a |-[x,y,a] x = y", "M", "provable",
        "cancellation in the form used for radical monoids", m_models)
    add("M.cancel_le", "x + z <= y + z |-[x,y,z] x <= y", "M", "provable",
        "order cancellation", m_models)
    add("M.inf_translate", "true |-[a,b,c] inf(a,b) + c = inf(a + c, b + c)",
        "M", "provable", "inf commutes past translation", m_models)

    # --- pointed perfect algebras ---------------------------------------------
    add("Pstar.1", "true |-[] u <= neg u", "Pstar", "axiom",
        "the marked element is radical", pstar_models)
    add("Pstar.2", f"x <= neg x |-[x] bigvee n<={BIGVEE_CAP} . x <= n*u",
        "Pstar", "axiom",
        "the marked element generates the radical "
        f"(capped at n <= {BIGVEE_CAP})", pstar_models)

    # --- unital-group transfers --------------------------------------------------
    ant1 = ("0 <= x /\\ x <= u |-[x] "
            "sup(0, 2*inf(2*x, u) - u) = inf(u, 2*sup(2*x - u, 0))")
    add("Ant.1", ant1, "Ant", "axiom",
        "first antiarchimedean identity on the unit interval", ant_models)
    add("Ant.2",
        "0 <= x /\\ x <= u /\\ inf(2*x, u) = x |-[x] x = 0 \\/ x = u",
        "Ant", "axiom",
        "interval elements fixed by doubling-then-truncation are trivial",
        ant_models)
    add("A.1", ant1, "A", "axiom",
        "Chang-variety transfer, first identity (same sequent as Ant.1)",
        ant_models)
    add("A.2",
        "0 <= x /\\ x <= u |-[x] "
        "inf(u, 2*sup(0, 2*inf(2*x, u) - u)) = sup(0, 2*inf(2*x, u) - u)",
        "A", "axiom", "Chang-variety transfer, second identity", ant_models)

    # --- group-side identity used by the sup-preservation proof -----------------
    add("phi_sup",
        "true |-[g1,g2] sup(0, sup(g1, g2)) + "
        "inf((sup(0,g1) + sup(0,g2)) - g2, (sup(0,g2) + sup(0,g1)) - g1) = "
        "((sup(0,g1) + sup(0,g2)) + sup(0, sup(g1,g2))) - sup(g1,g2)",
        "L", "provable",
        "positive-part identity witnessing that the group-side isomorphism "
        "preserves sup", l_models)

    return out


_SOURCES: Optional[Dict[str, _Source]] = None
_PARSED: Dict[str, RegistryEntry] = {}


def _registry() -> Dict[str, _Source]:
    """Label-to-source table of every entry, in registry order; built on
    the first access, which parses no sequent."""
    global _SOURCES
    if _SOURCES is None:
        reg: Dict[str, _Source] = {}
        for source in _sources():
            if source[0] in reg:
                raise ValueError(f"duplicate registry label {source[0]}")
            reg[source[0]] = source
        _SOURCES = reg
    return _SOURCES


def entry(label: str) -> RegistryEntry:
    """The entry under ``label``, its sequent parsed on the first request
    and kept, so every request returns the same object."""
    try:
        return _PARSED[label]
    except KeyError:
        pass
    try:
        _, src, theory, kind, doc, models = _registry()[label]
    except KeyError:
        raise UnknownLabelError(f"no sequent registered under {label!r}") from None
    seq = parse_sequent(src)
    parsed = _PARSED[label] = RegistryEntry(
        label, Sequent(seq.context, seq.antecedent, seq.consequent, name=label),
        theory, kind, doc, models)
    return parsed


def lookup(label: str) -> Sequent:
    return entry(label).sequent


def all_entries() -> List[RegistryEntry]:
    """Every entry, in registry order; parses the sequents not yet parsed."""
    return [entry(label) for label in _registry()]


def named_sequents() -> Dict[str, Sequent]:
    """Label-to-sequent mapping for every named sequent."""
    return {e.label: e.sequent for e in all_entries()}


def registered_models(theory: str) -> Tuple[str, ...]:
    """Descriptors of the carriers registered as models of a theory."""
    for _, _, source_theory, _, _, models in _registry().values():
        if source_theory == theory:
            return models
    raise UnknownLabelError(f"no theory registered under {theory!r}")


# The two provably equivalent axiom families: their verdicts must agree
# on every MV carrier.
EQUIVALENT_FAMILIES: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = [
    (("P.1", "P.2", "P.3"), ("P.1", "beta")),
]


class FamilyReport(_Node):
    model: str
    bound: int
    verdicts: Dict[str, Verdict]
    family_checks: List[dict]

    @property
    def all_hold(self) -> bool:
        return all(v.ok for v in self.verdicts.values())


def family_search_bound(bound: int, exists_bound: Optional[int]) -> int:
    """``check_family``'s existential search bound: by default twice the
    bound, which witnesses subtractivity for every registered carrier."""
    return 2 * bound if exists_bound is None else exists_bound


def check_family(model, labels: List[str], bound: int, *,
                 exists_bound: Optional[int] = None) -> FamilyReport:
    """Check a batch of registry sequents against one model.

    Existential searches run at ``family_search_bound``.  When the batch
    contains both halves of a registered equivalent family, the report
    records whether the two family verdicts agree (they must, on genuine
    MV carriers).
    """
    exists_bound = family_search_bound(bound, exists_bound)
    verdicts: Dict[str, Verdict] = {}
    for label in labels:
        seq = lookup(label)
        verdicts[label] = check_sequent(model, seq, bound,
                                        exists_bound=exists_bound)
    family_checks = []
    label_set = set(labels)
    for fam_a, fam_b in EQUIVALENT_FAMILIES:
        if set(fam_a) <= label_set and set(fam_b) <= label_set:
            hold_a = all(verdicts[l].ok for l in fam_a)
            hold_b = all(verdicts[l].ok for l in fam_b)
            family_checks.append({
                "family_a": list(fam_a),
                "family_b": list(fam_b),
                "verdict_a": "holds" if hold_a else "fails",
                "verdict_b": "holds" if hold_b else "fails",
                "agree": hold_a == hold_b,
            })
    return FamilyReport(model.descriptor(), bound, verdicts, family_checks)


def axiom_suite() -> List[Tuple[str, str]]:
    """(label, model descriptor) pairs for every registered axiom over
    its model family."""
    out = []
    for label, _, _, kind, _, models in _registry().values():
        if kind == "axiom":
            for m in models:
                out.append((label, m))
    return out



# ---------------------------------------------------------------------------
# Named axiom checks
# ---------------------------------------------------------------------------

PERFECT_AXIOMS = ("P.1", "P.2", "P.3", "P.4")
CHANG_AXIOMS = ("xi", "P.2")
MONOID_AXIOMS = tuple(f"M.{i}" for i in range(1, 15))
ANT_AXIOMS = ("Ant.1", "Ant.2")


def _perfect_by_construction(A) -> bool:
    """Whether ``A`` is, by exact type, C or Sigma(G) of a G built from Z
    and Z^n by lexicographic products: carriers whose operations are the
    library's own, so P.1-P.4 hold on every window (Sigma(G) is perfect
    for every l-group G, and tests pin ``check_perfect`` on these).
    Callers that require a perfect carrier skip the P.1-P.4 batch on
    them."""
    if type(A) is ChangAlgebra:
        return True
    if type(A) is not SigmaAlgebra:
        return False
    G = A.base_group
    while type(G) is LexGroup:
        G = G.tail
    return type(G) in (ZGroup, ZnGroup)


def _first_failure(report: FamilyReport, labels) -> Verdict:
    """The first non-Holds verdict of ``labels``, in their order.  A
    counterexample's env is given back as a bare element for a
    one-variable sequent and as a tuple in context order otherwise."""
    for label in labels:
        v = report.verdicts[label]
        if isinstance(v, CounterExample):
            context = lookup(label).context
            values = tuple(v.env[name] for name in context)
            env = values[0] if len(values) == 1 else values
            return CounterExample(env, axiom=v.axiom, note=v.note)
        if not v.ok:
            return v
    return Holds()


def _check_axioms(model, labels, bound: int) -> Verdict:
    return _first_failure(check_family(model, list(labels), bound), labels)


class PerfectnessReport:
    """Outcome of ``check_perfect``: the P.1-P.4 verdict plus the family
    checks of the batch, which compare the provably equivalent families
    {P.1, P.2, P.3} and {P.1, beta}; they must agree on genuine
    MV-algebras."""

    def __init__(self, verdict: Verdict, family_checks: List[dict]):
        self.verdict = verdict
        self.family_checks = family_checks

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    @property
    def families_agree(self) -> bool:
        return all(fc["agree"] for fc in self.family_checks)

    def __repr__(self):
        return (
            f"PerfectnessReport({self.verdict!r}, families_agree="
            f"{self.families_agree})"
        )


def check_perfect(A, bound: int) -> PerfectnessReport:
    """Check the perfectness axioms P.1-P.4 over ``A.enumerate(bound)``,
    together with beta for the family comparison."""
    report = check_family(A, list(PERFECT_AXIOMS) + ["beta"], bound)
    return PerfectnessReport(_first_failure(report, PERFECT_AXIOMS),
                             report.family_checks)


def perfectness_failure(A, bound: int) -> Optional[Verdict]:
    """The first failing verdict of P.1-P.4 on ``A.enumerate(bound)``, or
    None when they hold there; a carrier perfect by construction
    (``_perfect_by_construction``) passes without the check.  The one
    perfectness gate of the functors and of ``decompose_product``: each
    caller raises its own error with ``not_perfect_message``."""
    if _perfect_by_construction(A):
        return None
    v = _check_axioms(A, PERFECT_AXIOMS, bound)
    return None if v.ok else v


def not_perfect_message(A, bound: int, verdict: CounterExample) -> str:
    """The text of a failed P.1-P.4 check of ``A`` at ``bound``.  P.1-P.4
    search nothing and each has one variable, so ``verdict`` is a
    counterexample at one element."""
    return (f"{A.descriptor()} is not perfect at bound {bound}: "
            f"{verdict.axiom} fails at {A.format_element(verdict.env)}")


def check_chang_variety(A, bound: int) -> Verdict:
    """Check the Chang-variety axioms xi and P.2 over
    ``A.enumerate(bound)``."""
    return _check_axioms(A, CHANG_AXIOMS, bound)


def check_monoid_axioms(M, bound: int) -> Verdict:
    """Check M.1-M.14 over ``M.enumerate(bound)``.

    The existential witness of the subtractivity axiom M.14 is searched
    within ``enumerate(2 * bound)``; a pair with no witness there is
    inconclusive at the bound, not a counterexample.
    """
    return _check_axioms(M, MONOID_AXIOMS, bound)


class _UnitInterval(UnitalGroup):
    """``UnitalGroup(G, u)`` whose window is ``G.interval(b, 0, u)``.

    Both antiarchimedean sequents have the antecedent 0 <= x <= u, so
    the window elements outside [0, u] cannot refute them; ``interval``
    keeps ``enumerate`` order, so the first counterexample is the one
    the whole window gives.
    """

    def enumerate(self, bound):
        return self.group.interval(bound, self.group.zero, self.unit)


def ant_check(G, u, bound: int) -> Verdict:
    """Check the two antiarchimedean sequents on the unit interval
    [0, u] of ``G.enumerate(bound)``, as a model ``UnitalGroup(G, u)``
    quantified over that interval only.

    Holds exactly for units realizing a lexicographic product with Z in
    front; Gamma(Z, 2) already fails at x = 1.
    """
    return _check_axioms(_UnitInterval(G, u), ANT_AXIOMS, bound)
