"""Exact lattice-polygon combinatorics for genus-one Severi varieties.

Layers, bottom to top:

- ``intmat``: arbitrary-precision integer matrices, Smith normal form and
  its homogeneous variant, both with unimodular certificates.
- ``lattices``: affine sublattices of Z^2 in canonical form, spans,
  indices, rotation, intermediate-lattice enumeration.
- ``polygons``: validated convex lattice polygons, boundary points,
  interior counts by Pick's theorem, lattice width by Gauss reduction,
  interior classification; interior point scans kept as oracles.
- ``severi``: boundary profiles, component descriptors, and the component
  count with its row-walk oracle.
- ``corpus`` / ``verify`` / ``cli``: enumeration, the cross-check battery,
  and the command-line front end.
"""

from .errors import DomainError, InvariantViolation, SeveriLatticeError
from .intmat import (
    HsnfResult,
    IntMat,
    SnfResult,
    hsnf,
    hsnf_form,
    invariant_factors,
    is_hsnf,
    is_snf,
    minor_gcd,
    rank,
    snf,
)
from .lattices import (
    AffineLattice2,
    Z2,
    affine_span,
    divisors,
    intermediate_lattices,
    lattice_index,
    rotate90,
)
from .polygons import (
    COORD_BOUND,
    AffineNormalization,
    Facet,
    InteriorClassification,
    LatticePolygon,
)
from .severi import (
    BoundaryProfile,
    ComponentDescriptor,
    SeveriReport,
    analyze,
    build_profile,
    component_signature,
    count_components,
    count_components_oracle,
    diagonal_rank_matrix,
    divisor_of_monomial,
    enumerate_components,
    expected_kernel_dimension,
    severi_dimension,
    width_one_by_rank,
)
from .corpus import CorpusSpec, convex_hull, enumerate_corpus, random_polygon

__version__ = "0.1.0"

__all__ = [
    "AffineLattice2",
    "AffineNormalization",
    "BoundaryProfile",
    "COORD_BOUND",
    "ComponentDescriptor",
    "CorpusSpec",
    "DomainError",
    "Facet",
    "HsnfResult",
    "IntMat",
    "InteriorClassification",
    "InvariantViolation",
    "LatticePolygon",
    "SeveriLatticeError",
    "SeveriReport",
    "SnfResult",
    "Z2",
    "affine_span",
    "analyze",
    "build_profile",
    "component_signature",
    "convex_hull",
    "count_components",
    "count_components_oracle",
    "diagonal_rank_matrix",
    "divisor_of_monomial",
    "divisors",
    "enumerate_components",
    "enumerate_corpus",
    "expected_kernel_dimension",
    "hsnf",
    "hsnf_form",
    "intermediate_lattices",
    "invariant_factors",
    "is_hsnf",
    "is_snf",
    "lattice_index",
    "minor_gcd",
    "random_polygon",
    "rank",
    "rotate90",
    "severi_dimension",
    "snf",
    "width_one_by_rank",
]
