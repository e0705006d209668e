"""Exact workbench for mod-2 vector invariants of an order-two group action.

The action swaps nothing and shears everything: on each of m pairs of
variables it fixes x and sends y to y + x.  This package constructs the
invariant generators (the x's, the norms, and the transfers), the three
families of relations among them, a rewriting engine that reduces
products of transfers with a replayable log, and an oracle that
certifies the relation families degree by degree.
"""

from .poly import (
    DimensionMismatch,
    Monomial,
    Poly,
    Subset,
    ZeroPolynomialError,
    all_subsets,
    bits_to_subset,
    subset_to_bits,
)
from .invariants import (
    GeneratorSet,
    generator_set,
    norm,
    transfer,
)
from .qring import (
    QMon,
    QPoly,
    evaluate,
    formal_trace,
    make_qmon,
    summand_lead,
)
from .relations import (
    Relation,
    VacuousRelationError,
    count_relations,
    relation_basis,
    type_i_relation,
    type_ii_relation,
    type_iii_relation,
)
from .rewrite import (
    LinearCertificate,
    LinearStep,
    NotARelationError,
    NotTraceLinearError,
    ReductionStep,
    ReductionTrace,
    linear_reduce,
    normal_form,
    reduce_product,
)
from .oracle import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    invariant_dimension,
    kernel_basis,
    linear_kernel_basis,
    verify_relation_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DimensionMismatch",
    "ZeroPolynomialError",
    "Monomial",
    "Subset",
    "Poly",
    "all_subsets",
    "bits_to_subset",
    "subset_to_bits",
    "GeneratorSet",
    "generator_set",
    "norm",
    "transfer",
    "QMon",
    "QPoly",
    "evaluate",
    "formal_trace",
    "make_qmon",
    "summand_lead",
    "Relation",
    "VacuousRelationError",
    "count_relations",
    "relation_basis",
    "type_i_relation",
    "type_ii_relation",
    "type_iii_relation",
    "LinearCertificate",
    "LinearStep",
    "NotARelationError",
    "NotTraceLinearError",
    "ReductionStep",
    "ReductionTrace",
    "linear_reduce",
    "normal_form",
    "reduce_product",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "invariant_dimension",
    "kernel_basis",
    "linear_kernel_basis",
    "verify_relation_ideal",
]
