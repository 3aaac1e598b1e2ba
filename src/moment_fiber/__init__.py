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
from .polytope import (
    HullCertificate,
    HullQuery,
    Inside,
    Outside,
    zero_in_relative_interior,
)
from .theta import (
    GradedDims,
    KacDiagram,
    VinbergClassicalInput,
    graded_dims,
    kac_order,
    levi_order_scan,
    vinberg_delta,
)
from .torus import (
    Analysis,
    Block,
    ClosedPairWitness,
    PairPoint,
    RatVector,
    VisibleDecomposition,
    WeightMatrix,
    is_stable,
    moment_eval,
    pair_closed_orbit,
    reduce_to_effective,
    smooth_witness,
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
    "KacDiagram",
    "Outside",
    "PairPoint",
    "RatVector",
    "VinbergClassicalInput",
    "VisibleDecomposition",
    "WeightMatrix",
    "graded_dims",
    "is_stable",
    "kac_order",
    "levi_order_scan",
    "moment_eval",
    "pair_closed_orbit",
    "reduce_to_effective",
    "smooth_witness",
    "stratum_orbit_dim",
    "vinberg_delta",
    "zero_in_relative_interior",
]
