"""Exact computation with perfect MV-algebras, lattice-ordered abelian
groups, and the functors between them, plus a bounded sequent checker
over a small ASCII DSL.
"""

from .errors import (
    CarrierCapExceededError,
    CarrierMismatchError,
    DecompositionError,
    DescriptorError,
    InvalidUnitError,
    MvToolError,
    NotPerfectError,
    ParseError,
    PreconditionError,
    SignatureError,
    UnboundVariableError,
    UnknownLabelError,
)
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
    abs_val,
    canon_pair,
    grothendieck_group,
    neg_part,
    pos_part,
    positive_cone,
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
    RadicalMonoid,
    SigmaAlgebra,
    boolean_skeleton_generators,
    coradical_membership,
    derived_ops,
    is_boolean,
    mv_power,
    nat_scalar,
    order_of,
    radical_membership,
)
from .equivalence import (
    RadPairGroup,
    SigmaElem,
    beta_A,
    beta_A_inverse,
    beta_roundtrip_report,
    chi_roundtrip_report,
    delta,
    delta_map,
    delta_star,
    gamma,
    pair_group_ops,
    phi_G,
    phi_G_inverse,
    phi_M_roundtrip_report,
    phi_roundtrip_report,
    sigma,
    sigma_map,
    sigma_star,
    strong_unit_check,
)
from .sequents import (
    Sequent,
    parse_formula,
    parse_sequent,
    parse_term,
    print_formula,
    print_sequent,
    print_term,
)
from .checking import check_sequent, eval_term
from .registry import (
    ant_check,
    check_chang_variety,
    check_family,
    check_monoid_axioms,
    check_perfect,
    lookup,
    named_sequents,
    registered_models,
)
from .decompose import (
    AtomDecomposition,
    atoms_from_generators,
    decompose_product,
    is_perfect_element,
    product_reconstruction_check,
    pushout_pullback_check,
    quotient_by_boolean,
    weak_subdirect_check,
)
from .descriptors import parse_group, parse_model, parse_monoid, parse_mv
from .verdicts import (
    CounterExample,
    Finite,
    Holds,
    InconclusiveAtBound,
    NoneUpTo,
    Verdict,
)

__version__ = "0.1.0"
