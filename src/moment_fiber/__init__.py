"""Exact decision procedures for torus moment-map null fibers, with
machine-checkable certificates, plus a Kac-diagram grading calculator.

The library takes an integer weight matrix and decides, in exact rational
arithmetic, every structural property of the zero fiber of the associated
moment map: components, irreducibility, normality, stability, visibility
and polarity, orbit-closure questions, and smooth points.  Each verdict
carries a certificate (a convex combination, a separating one-parameter
subgroup, a block relation) that verifies independently.
"""

from .errors import CapabilityError, InputError
from .exactlin import IntMatrix, RatVector, kernel_basis, rank, row_select
from .polytope import (
    HullCertificate,
    HullQuery,
    Inside,
    Outside,
    integral_subgroup,
    zero_in_hull,
    zero_in_relative_interior,
)
from .theta import (
    GradedDims,
    KacDiagram,
    RootSystem,
    VinbergClassicalInput,
    build_root_system,
    graded_dims,
    kac_order,
    levi_order_scan,
    rank1_dim_filter,
    vinberg_delta,
)
from .torus import (
    Analysis,
    Block,
    ClosedPairWitness,
    NotVisible,
    PairPoint,
    VisibleDecomposition,
    WeightMatrix,
    classify_stratum,
    is_locally_free,
    is_stable,
    modality,
    moment_eval,
    pair_closed_orbit,
    reduce_to_effective,
    smooth_witness,
    stabilizer_dim,
    stratum_orbit_dim,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Block",
    "CapabilityError",
    "ClosedPairWitness",
    "GradedDims",
    "HullCertificate",
    "HullQuery",
    "InputError",
    "Inside",
    "IntMatrix",
    "KacDiagram",
    "NotVisible",
    "Outside",
    "PairPoint",
    "RatVector",
    "RootSystem",
    "VinbergClassicalInput",
    "VisibleDecomposition",
    "WeightMatrix",
    "build_root_system",
    "classify_stratum",
    "graded_dims",
    "integral_subgroup",
    "is_locally_free",
    "is_stable",
    "kac_order",
    "kernel_basis",
    "levi_order_scan",
    "modality",
    "moment_eval",
    "pair_closed_orbit",
    "rank",
    "rank1_dim_filter",
    "reduce_to_effective",
    "row_select",
    "smooth_witness",
    "stabilizer_dim",
    "stratum_orbit_dim",
    "vinberg_delta",
    "zero_in_hull",
    "zero_in_relative_interior",
]
