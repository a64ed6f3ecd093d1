"""Component counting for genus-one Severi varieties of toric surfaces.

Pipeline: from a convex lattice polygon, build the boundary profile (the
facets with their primitive inner normals and lengths), turn the boundary
lattice a quarter to get the normal lattice, and enumerate one component
descriptor per divisor d of its index.  The number of irreducible
components is the number of contributing descriptors: the intermediate
affine lattices whose interior point count is positive.

Production path (``enumerate_components``, ``count_components``, the
classification): the profile is O(facets); the lattices come from closed
forms on their canonical triangles, O(1) each; interior counts come from
Pick's theorem in each lattice, O(vertices) per lattice, and the lattice
width from Gauss reduction, so no work grows with the polygon's area or
its boundary length.  ``analyze`` builds the profile once and classifies
M0 once, counts the contributing descriptors, and checks that count against
the divisor formula and ``oracles.count_components_oracle``, which shares
no formula with this module.  The per-point normal matrix and the
certificates read from it live in ``certificates``; this module imports no
``intmat``.
"""

from __future__ import annotations

from . import oracles
from ._record import Record
from .errors import DomainError, InvariantViolation
from .lattices import (
    AffineLattice2,
    divisors,
    intermediate_lattices,
    rotate90,
)
from .polygons import Facet, InteriorClassification, LatticePolygon

__all__ = [
    "BoundaryProfile",
    "ComponentDescriptor",
    "SeveriReport",
    "build_profile",
    "enumerate_components",
    "count_components",
    "severi_dimension",
    "analyze",
]

Point = tuple[int, int]


class BoundaryProfile(Record):
    """Boundary data of a polygon: facets, normal lattice, boundary lattice.

    Held at the level of facets: ``m0`` is the affine span of the boundary
    points, ``n0`` the linear span of the primitive inner normals; the two
    are exchanged by a quarter turn, and ``idx == [Z^2 : n0]``.  The
    per-point views (``certificates.a_delta``, ``certificates.owner``) are
    built from the facets where they are read.
    """

    __slots__ = ("polygon", "facets", "m0", "n0", "idx")

    def __init__(
        self, polygon: LatticePolygon, facets: tuple[Facet, ...], m0: AffineLattice2,
        n0: AffineLattice2, idx: int,
    ) -> None:
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "idx", idx)

    @property
    def l(self) -> int:
        return sum(f.length for f in self.facets)


def build_profile(polygon: LatticePolygon) -> BoundaryProfile:
    """Assemble the boundary profile and check that the normals close up.

    O(facets), from facet data alone: ``m0`` is the first vertex plus the
    span of the primitive edge vectors (every boundary point is a vertex
    plus multiples of them, and each is a difference of two boundary
    points); the normals close up when ``sum l_j n_j == 0``; and ``n0`` is
    the quarter turn of ``m0``'s linear part, since each primitive inner
    normal is the quarter turn of its primitive edge vector.  The verify
    battery checks ``n0`` against the span of the normals, and the
    invariant factors (1, idx) of the 2 x l normal matrix.
    """
    facets = polygon.facets()
    if sum(f.length * f.normal[0] for f in facets) or sum(
        f.length * f.normal[1] for f in facets
    ):
        raise InvariantViolation("facet normals do not close up (sum l_j n_j != 0)")
    m0 = AffineLattice2.from_generators(
        polygon.vertices[0],
        [(f.vector[0] // f.length, f.vector[1] // f.length) for f in facets],
    )
    n0 = rotate90(m0.linear_part())
    return BoundaryProfile(
        polygon=polygon, facets=facets, m0=m0, n0=n0, idx=n0.index_in_z2
    )


class ComponentDescriptor(Record):
    """Label of one candidate component of the genus-one Severi variety."""

    __slots__ = (
        "N",  # intermediate linear lattice, n0 <= N <= Z^2
        "M",  # paired affine lattice (rotated linear part, m0 basepoint)
        "d",  # [N : n0]; also the torsion order of the marked divisor class
        "index_in_z2",  # [Z^2 : N] == idx / d
        "torsion_order",
        "interior_count",  # |interior(polygon) ∩ M|
        "is_empty_locus",  # excised: the kernel locus is empty
        "excluded_nonbirational",  # excised: its curves are non-birational covers
        "contributes",
    )

    def __init__(
        self, N: AffineLattice2, M: AffineLattice2, d: int, index_in_z2: int,
        torsion_order: int, interior_count: int, is_empty_locus: bool,
        excluded_nonbirational: bool, contributes: bool,
    ) -> None:
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "index_in_z2", index_in_z2)
        object.__setattr__(self, "torsion_order", torsion_order)
        object.__setattr__(self, "interior_count", interior_count)
        object.__setattr__(self, "is_empty_locus", is_empty_locus)
        object.__setattr__(self, "excluded_nonbirational", excluded_nonbirational)
        object.__setattr__(self, "contributes", contributes)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "torsion_order": self.torsion_order,
            "index_in_z2": self.index_in_z2,
            "N": self.N.to_json_dict(),
            "M": self.M.to_json_dict(),
            "interior_count": self.interior_count,
            "is_empty_locus": self.is_empty_locus,
            "excluded_nonbirational": self.excluded_nonbirational,
            "contributes": self.contributes,
        }


def enumerate_components(polygon: LatticePolygon) -> list[ComponentDescriptor]:
    """One descriptor per intermediate lattice, sorted by d ascending.

    Flags follow the two exceptional cases: the d == 1 descriptor is an
    empty locus when the boundary-lattice width is one, and is excluded as
    a non-birational cover when the polygon is twice a primitive triangle
    in the boundary lattice.  Every other descriptor contributes.
    """
    profile = build_profile(polygon)
    return _descriptors(profile, polygon.classify_interior_empty(profile.m0))


def count_components(polygon: LatticePolygon) -> int:
    """Number of irreducible components of the genus-one Severi variety.

    Divisor-count formula: the number of divisors of the normal-lattice
    index, less one when the boundary lattice sees no interior point (only
    the minimal lattice can violate the interior condition).
    """
    profile = build_profile(polygon)
    return _formula_count(profile, polygon.classify_interior_empty(profile.m0))


def _descriptors(
    profile: BoundaryProfile, classification: InteriorClassification
) -> list[ComponentDescriptor]:
    """``enumerate_components`` from a built profile and M0's classification."""
    polygon = profile.polygon
    width_one = classification is InteriorClassification.WIDTH_ONE
    twice_primitive = classification is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
    out: list[ComponentDescriptor] = []
    # intermediate_lattices is sorted by [N : n0], as divisors lists each d
    for d, n_lat in zip(divisors(profile.idx), intermediate_lattices(profile.n0)):
        m_lat = rotate90(n_lat).translate(profile.m0.basepoint)
        empty = d == 1 and width_one
        excluded = d == 1 and twice_primitive
        out.append(
            ComponentDescriptor(
                N=n_lat,
                M=m_lat,
                d=d,
                index_in_z2=profile.idx // d,
                torsion_order=d,
                interior_count=polygon.interior_count_in(m_lat),
                is_empty_locus=empty,
                excluded_nonbirational=excluded,
                contributes=not (empty or excluded),
            )
        )
    return out


def _formula_count(
    profile: BoundaryProfile, classification: InteriorClassification
) -> int:
    """``count_components`` from a built profile and M0's classification."""
    n = len(divisors(profile.idx))
    if classification is not InteriorClassification.NON_EMPTY_INTERIOR:
        n -= 1
    return n


def severi_dimension(polygon: LatticePolygon, genus: int) -> int:
    """Dimension of the genus-g Severi variety: l + g - 1, l the facet lengths' sum."""
    if genus < 0:
        raise DomainError("genus must be nonnegative")
    return sum(f.length for f in polygon.facets()) + genus - 1


class SeveriReport(Record):
    """Aggregate analysis of one polygon."""

    __slots__ = (
        "polygon", "l", "severi_dim", "facets", "idx", "divisor_list", "m0", "n0",
        "width_m0", "width_m0_direction", "classification_m0", "components",
        "component_count",
    )

    def __init__(
        self, polygon: LatticePolygon, l: int, severi_dim: int,
        facets: tuple[Facet, ...], idx: int, divisor_list: tuple[int, ...],
        m0: AffineLattice2, n0: AffineLattice2, width_m0: int,
        width_m0_direction: Point, classification_m0: InteriorClassification,
        components: tuple[ComponentDescriptor, ...], component_count: int,
    ) -> None:
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "severi_dim", severi_dim)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "divisor_list", divisor_list)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "width_m0", width_m0)
        object.__setattr__(self, "width_m0_direction", width_m0_direction)
        object.__setattr__(self, "classification_m0", classification_m0)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "component_count", component_count)

    def to_json_dict(self) -> dict:
        return {
            "polygon": {"vertices": [list(v) for v in self.polygon.vertices]},
            "l": self.l,
            "severi_dimension": self.severi_dim,
            "facets": [f.to_json_dict() for f in self.facets],
            "idx": self.idx,
            "divisors": list(self.divisor_list),
            "m0": self.m0.to_json_dict(),
            "n0": self.n0.to_json_dict(),
            "lattice_width_m0": {
                "width": self.width_m0,
                "direction": list(self.width_m0_direction),
            },
            "interior_classification_m0": self.classification_m0.value,
            "components": [c.to_json_dict() for c in self.components],
            "component_count": self.component_count,
        }


def analyze(polygon: LatticePolygon) -> SeveriReport:
    """Full report; its count is checked against the formula and the oracle.

    One pass: the boundary profile is built once and M0 classified once; the
    count is the number of contributing descriptors, and must equal the
    divisor-formula count and the brute-force oracle count.  The oracle
    builds its own boundary lattice from the points.
    """
    profile = build_profile(polygon)
    classification = polygon.classify_interior_empty(profile.m0)
    components = tuple(_descriptors(profile, classification))
    count = sum(1 for c in components if c.contributes)
    formula = _formula_count(profile, classification)
    if count != formula:
        raise InvariantViolation(
            f"contributing descriptors {count} != component count {formula}"
        )
    oracle = oracles.count_components_oracle(polygon)
    if count != oracle:
        raise InvariantViolation(
            f"component count {count} disagrees with the oracle count {oracle}"
        )
    width, direction = polygon.lattice_width(profile.m0.linear_part())
    return SeveriReport(
        polygon=polygon,
        l=profile.l,
        severi_dim=severi_dimension(polygon, 1),
        facets=profile.facets,
        idx=profile.idx,
        divisor_list=tuple(c.d for c in components),
        m0=profile.m0,
        n0=profile.n0,
        width_m0=width,
        width_m0_direction=direction,
        classification_m0=classification,
        components=components,
        component_count=count,
    )
