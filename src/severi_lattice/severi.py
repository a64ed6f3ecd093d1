"""Component counting for genus-one Severi varieties of toric surfaces.

Pipeline: from a convex lattice polygon, build the boundary profile (the
facets with their primitive inner normals and lengths, and the boundary
lattice M0 with its interior classification and width), turn M0 a quarter
to get the normal lattice, and enumerate one component descriptor per
divisor d of its index.  The number of irreducible components is the
number of contributing descriptors: the intermediate affine lattices whose
interior point count is positive.

Production path: each entry point builds one profile, O(vertices), and
reads the rest from it (M0's width, one Gauss reduction, only where it is
read: by the report, or by the classification of an empty interior); the
lattices come from closed forms on their canonical triangles, O(1) each,
built by the trusted forms of ``lattices`` from values the polygon already
checked; interior counts come from Pick's theorem, O(vertices), once per
lattice (M0's count serves its classification and the d == 1 descriptor,
whose pair is (n0, m0)), so no work grows with the polygon's area or its
boundary length.  ``analyze`` checks its count of contributing descriptors
against the divisor formula and ``oracles.count_components_oracle``, which
shares no formula with this module.  The per-point normal matrix and the
certificates read from it live in ``certificates``; no ``intmat`` here.
"""

from __future__ import annotations

from . import oracles
from ._record import Record
from .errors import InvariantViolation
from .lattices import (
    _canonical,
    _canonical_basis,
    divisors,
    intermediate_lattices,
    rotate90,
)
from .polygons import InteriorClassification, LatticePolygon

__all__ = [
    "BoundaryProfile",
    "ComponentDescriptor",
    "SeveriReport",
    "build_profile",
    "enumerate_components",
    "count_components",
    "analyze",
]


class BoundaryProfile(Record):
    """Boundary data of a polygon: facets, boundary lattice, normal lattice.

    Held at the level of facets: ``m0`` is the affine span of the boundary
    points, ``n0`` the linear span of the primitive inner normals; the two
    are exchanged by a quarter turn, and ``idx == [Z^2 : n0]``.  M0's
    interior ``classification`` rides with them; its lattice ``width``,
    with a ``direction`` in M0's basis frame that attains it, is read from
    the polygon's cached width reduction.  The per-point normal matrix
    (``certificates.a_delta``) is built where it is read.
    """

    __slots__ = ("polygon", "facets", "m0", "n0", "idx", "classification")

    @property
    def l(self) -> int:
        return sum(f.length for f in self.facets)

    @property
    def width(self) -> int:
        return self._width_pair()[0]

    @property
    def direction(self) -> tuple[int, int]:
        return self._width_pair()[1]

    def _width_pair(self) -> tuple[int, tuple[int, int]]:
        """M0's ``(width, direction)``, reduced once per polygon."""
        return self.polygon.lattice_width(self.m0.linear_part())


def build_profile(polygon: LatticePolygon) -> BoundaryProfile:
    """Assemble the boundary profile and check that the normals close up.

    O(vertices), from facet data alone: ``m0`` is the first vertex plus
    the span of the primitive edge vectors (every boundary point is a
    vertex plus multiples of them, and each is a difference of two
    boundary points); the normals close up when ``sum l_j n_j == 0``; and
    ``n0`` is the quarter turn of ``m0``'s linear part, since each
    primitive inner normal is the quarter turn of its primitive edge
    vector.  M0 is classified once; only an empty interior's
    classification reduces M0's width, which the profile's ``width`` then
    reads from the polygon's cache.  The verify battery checks ``n0``
    against the span of the normals, and the invariant factors (1, idx)
    of the 2 x l normal matrix.
    """
    facets = polygon.facets()
    if sum(f.length * f.normal[0] for f in facets) or sum(
        f.length * f.normal[1] for f in facets
    ):
        raise InvariantViolation("facet normals do not close up (sum l_j n_j != 0)")
    # the polygon's own integer pairs: no check
    gens = [(f.vector[0] // f.length, f.vector[1] // f.length) for f in facets]
    m0 = _canonical(polygon.vertices[0], *_canonical_basis(gens))
    n0 = rotate90(m0.linear_part())
    cls = polygon.classify_interior_empty(m0)
    profile = object.__new__(BoundaryProfile)  # trusted: fields computed here
    profile._fill(polygon, facets, m0, n0, n0.index_in_z2, cls)
    return profile


class ComponentDescriptor(Record):
    """Label of one candidate component of the genus-one Severi variety."""

    __slots__ = (
        "N",  # intermediate linear lattice, n0 <= N <= Z^2
        "M",  # paired affine lattice (rotated linear part, m0 basepoint)
        "d",  # [N : n0]; also the torsion order of the marked divisor class
        "interior_count",  # |interior(polygon) ∩ M|
        "is_empty_locus",  # excised: the kernel locus is empty
        "excluded_nonbirational",  # excised: its curves are non-birational covers
    )

    @property
    def contributes(self) -> bool:
        """A component of the Severi variety: neither excised case holds."""
        return not (self.is_empty_locus or self.excluded_nonbirational)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "torsion_order": self.d,
            "index_in_z2": self.N.index_in_z2,
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
    return _descriptors(build_profile(polygon))


def count_components(polygon: LatticePolygon) -> int:
    """Number of irreducible components of the genus-one Severi variety.

    Divisor-count formula: the number of divisors of the normal-lattice
    index, less one when the boundary lattice sees no interior point (only
    the minimal lattice can violate the interior condition).
    """
    return _formula_count(build_profile(polygon))


def _descriptors(profile: BoundaryProfile) -> list[ComponentDescriptor]:
    """``enumerate_components`` from a built profile; the d == 1 pair is
    (n0, m0) itself, so M0's cached count serves it."""
    polygon = profile.polygon
    m0 = profile.m0
    cls = profile.classification
    width_one = cls is InteriorClassification.WIDTH_ONE
    twice_primitive = cls is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
    out: list[ComponentDescriptor] = []
    for n_lat in intermediate_lattices(profile.n0):
        d = profile.idx // n_lat.index_in_z2
        m_lat = m0 if d == 1 else rotate90(n_lat)._through(m0.basepoint)
        c = object.__new__(ComponentDescriptor)
        c._fill(
            n_lat, m_lat, d, polygon.interior_count_in(m_lat),
            d == 1 and width_one, d == 1 and twice_primitive,
        )
        out.append(c)
    return out


def _formula_count(profile: BoundaryProfile) -> int:
    """``count_components`` from a built profile."""
    n = len(divisors(profile.idx))
    if profile.classification is not InteriorClassification.NON_EMPTY_INTERIOR:
        n -= 1
    return n


class SeveriReport(Record):
    """Aggregate analysis of one polygon: its boundary profile (the polygon,
    facets, m0, n0, idx, and M0's classification, width and width
    direction) and the descriptors."""

    __slots__ = ("profile", "components")

    @property
    def component_count(self) -> int:
        return sum(1 for c in self.components if c.contributes)

    def to_json_dict(self) -> dict:
        profile = self.profile
        width, direction = profile._width_pair()
        boundary, count, facets, components = 0, 0, [], []
        for f in profile.facets:
            boundary += f.length
            facets.append(f.to_json_dict())
        for c in self.components:
            components.append(c.to_json_dict())
            count += components[-1]["contributes"]
        return {
            "polygon": {"vertices": [list(v) for v in profile.polygon.vertices]},
            "l": boundary,
            # l + g - 1 at genus g = 1
            "severi_dimension": boundary,
            "facets": facets,
            "idx": profile.idx,
            "divisors": [c.d for c in self.components],
            "m0": profile.m0.to_json_dict(),
            "n0": profile.n0.to_json_dict(),
            "lattice_width_m0": {"width": width, "direction": list(direction)},
            "interior_classification_m0": profile.classification.value,
            "components": components,
            "component_count": count,
        }


def analyze(polygon: LatticePolygon) -> SeveriReport:
    """Full report; its count is checked against the formula and the oracle.

    One pass: the boundary profile, which holds M0's classification, is
    built once; the count is the number of contributing descriptors, and
    must equal the divisor-formula count and the brute-force oracle count.  The oracle builds its own boundary lattice
    from two boundary points per facet.
    """
    profile = build_profile(polygon)
    report = object.__new__(SeveriReport)
    report._fill(profile, tuple(_descriptors(profile)))
    count = report.component_count
    formula = _formula_count(profile)
    if count != formula:
        raise InvariantViolation(
            f"contributing descriptors {count} != component count {formula}"
        )
    oracle = oracles.count_components_oracle(polygon)
    if count != oracle:
        raise InvariantViolation(
            f"component count {count} disagrees with the oracle count {oracle}"
        )
    return report
