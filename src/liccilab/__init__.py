"""Exact toolkit for monomial ideals: Betti tables via Stanley-Reisner
homology, licci classification through the Huneke-Ulrich iteration and
classical linkage certificates, path ideals of graphs and suspensions,
complementary edge ideals, Alexander duality and linkage verification.

No floating point anywhere: ranks are computed by fraction-free integer
elimination over the rationals, or modulo a prime.
"""

from .exact import FieldSpec, GF2, RATIONALS, prime_field
from .monomial import (
    IdealError,
    Monomial,
    MonomialIdeal,
    StandardForm,
    max_vars,
    minimalize,
)
from .squarefree import (
    SimplicialComplex,
    alexander_dual,
    minimal_primes,
    reduced_homology_dims,
    stanley_reisner,
)
from .betti import (
    BettiTable,
    IdealInvariants,
    betti_table,
    invariants,
    reg_artinian_socle,
    taylor_oracle,
)
from .graphs import (
    Graph,
    GraphClass,
    build,
    classify,
    complementary_edge_ideal,
    complete,
    cycle,
    edge_ideal,
    from_edges,
    path,
    star,
    suspension,
    t_path_ideal,
)
from .polarization import depolarize_suspension, polarize
from .licci import (
    LICCI,
    NOT_LICCI,
    UNKNOWN,
    LicciVerdict,
    audit_rules,
    hu_decide,
    hu_step,
    licci_bound_check,
    obstruction_not_licci,
)
from .licci import classify as classify_licci
from .linkage import (
    LinkReport,
    is_monomial_regular_sequence,
    verify_direct_link,
    verify_suspension_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "FieldSpec",
    "GF2",
    "Graph",
    "GraphClass",
    "IdealError",
    "IdealInvariants",
    "LICCI",
    "LicciVerdict",
    "LinkReport",
    "Monomial",
    "MonomialIdeal",
    "NOT_LICCI",
    "RATIONALS",
    "SimplicialComplex",
    "StandardForm",
    "UNKNOWN",
    "alexander_dual",
    "audit_rules",
    "betti_table",
    "build",
    "classify",
    "classify_licci",
    "complementary_edge_ideal",
    "complete",
    "cycle",
    "depolarize_suspension",
    "edge_ideal",
    "from_edges",
    "hu_decide",
    "hu_step",
    "invariants",
    "is_monomial_regular_sequence",
    "licci_bound_check",
    "max_vars",
    "minimal_primes",
    "minimalize",
    "obstruction_not_licci",
    "path",
    "polarize",
    "prime_field",
    "reduced_homology_dims",
    "reg_artinian_socle",
    "stanley_reisner",
    "star",
    "suspension",
    "t_path_ideal",
    "taylor_oracle",
    "verify_direct_link",
    "verify_suspension_chain",
]
