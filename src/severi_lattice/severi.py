"""Component counting for genus-one Severi varieties of toric surfaces.

Pipeline: from a convex lattice polygon, build the boundary profile (the
facets with their primitive inner normals and lengths), derive the normal
lattice and its index, and enumerate one component descriptor per
intermediate lattice.  The number of irreducible components equals the
number of intermediate affine lattices whose interior point count is
positive; a literal brute-force path over the lattice conditions
double-checks the divisor-count formula.

Production path (``enumerate_components``, ``count_components``, the
classification): the profile is O(facets), with the 2 x l normal matrix
built only by the certificate APIs that read it; the lattices come from
closed forms on their canonical triangles, O(1) each; interior counts come
from Pick's theorem in each lattice, O(vertices) per lattice, and the
lattice width from Gauss reduction, so no work grows with the polygon's
area or its boundary length.  ``analyze`` builds the profile once and
classifies M0 once, and derives both the descriptors and the
divisor-formula count from them.
Oracle path (``count_components_oracle``, which ``analyze`` always runs):
takes the affine span of all boundary points itself (O(l)), tests each
lattice's boundary condition in O(facets), and decides whether a lattice
meets the interior by a row walk over the rows of the lattice, O(height /
d2 * facets), sharing no formula with Pick.  The point scans
``interior_points``/``interior_points_in`` serve tests and the verify
battery only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError, InvariantViolation
from .intmat import IntMat, hsnf, invariant_factors, rank
from .lattices import (
    AffineLattice2,
    affine_span,
    divisors,
    intermediate_lattices,
    lattice_index,
    rotate90,
)
from .polygons import Facet, InteriorClassification, LatticePolygon

__all__ = [
    "BoundaryProfile",
    "ComponentDescriptor",
    "SeveriReport",
    "build_profile",
    "divisor_of_monomial",
    "component_signature",
    "diagonal_rank_matrix",
    "width_one_by_rank",
    "expected_kernel_dimension",
    "enumerate_components",
    "count_components",
    "count_components_oracle",
    "severi_dimension",
    "analyze",
]

Point = tuple[int, int]


@dataclass(frozen=True)
class BoundaryProfile:
    """Boundary data of a polygon: facets, normal lattice, boundary lattice.

    Held at the level of facets: ``m0`` is the affine span of the boundary
    points, ``n0`` the linear span of the primitive inner normals; the two
    are exchanged by a quarter turn, and ``idx == [Z^2 : n0]``.  The
    per-point views ``owner`` and ``a_delta`` are built on each read, in
    O(l); ``boundary`` is the polygon's own point list.
    """

    polygon: LatticePolygon
    facets: tuple[Facet, ...]
    m0: AffineLattice2
    n0: AffineLattice2
    idx: int

    @property
    def l(self) -> int:
        return sum(f.length for f in self.facets)

    @property
    def boundary(self) -> tuple[Point, ...]:
        """Boundary lattice points, counterclockwise from the first vertex."""
        return self.polygon.boundary_points()

    @property
    def owner(self) -> tuple[int, ...]:
        """Index of the facet owning each boundary point."""
        return tuple(f.index for f in self.facets for _ in range(f.length))

    @property
    def a_delta(self) -> IntMat:
        """The 2 x l normal matrix, built on each read.

        One column per boundary lattice point, equal to the primitive inner
        normal of the facet owning that point (points are ordered as in
        ``boundary``, grouped by facet, so the first l_1 columns are n_1,
        the next l_2 are n_2, and so on).
        """
        row_x: list[int] = []
        row_y: list[int] = []
        for f in self.facets:
            row_x += [f.normal[0]] * f.length
            row_y += [f.normal[1]] * f.length
        return IntMat.from_rows([row_x, row_y])


def build_profile(polygon: LatticePolygon) -> BoundaryProfile:
    """Assemble the boundary profile and check its structural invariants.

    O(facets), from facet data alone: ``m0`` is the first vertex plus the
    span of the primitive edge vectors (every boundary point is a vertex
    plus multiples of them, and each is a difference of two boundary
    points); the normals close up when ``sum l_j n_j == 0``; and the
    invariant factors come from the 2 x f matrix of distinct normals,
    which has those of the 2 x l ``a_delta``, since repeated columns add no
    new minors.  The 2 x l matrix is built only where it is read.
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
    n0 = AffineLattice2.linear_from_generators([f.normal for f in facets])
    if rotate90(m0.linear_part()) != n0:
        raise InvariantViolation(
            "boundary lattice and normal lattice are not rotation dual"
        )
    idx = n0.index_in_z2
    normals = IntMat.from_rows(
        [[f.normal[0] for f in facets], [f.normal[1] for f in facets]]
    )
    factors = invariant_factors(normals)
    if factors != (1, idx):
        raise InvariantViolation(
            f"normal matrix invariant factors {factors} != (1, {idx})"
        )
    return BoundaryProfile(polygon=polygon, facets=facets, m0=m0, n0=n0, idx=idx)


def divisor_of_monomial(profile: BoundaryProfile, m: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of div(x^m) on the toric boundary: (m . n_j) per facet."""
    if len(m) != 2 or type(m[0]) is not int or type(m[1]) is not int:
        raise DomainError(f"monomial exponent must be an integer pair, got {m!r}")
    return tuple(m[0] * f.normal[0] + m[1] * f.normal[1] for f in profile.facets)


def component_signature(profile: BoundaryProfile) -> tuple[int, ...]:
    """Torsion-order test vector z = R2(Q) @ A / idx from the HSNF certificate.

    The certificate row combination is exactly divisible by the index, sums
    to zero, and is constant on facet blocks; any failure is reported as an
    internal invariant violation.  The certificate (hence z's overall sign)
    is pinned by the deterministic pivot rule of the reduction engine.
    """
    a_delta = profile.a_delta
    cert = hsnf(a_delta)
    raw = a_delta.vec_mat(cert.Q.row(1))
    z: list[int] = []
    for v in raw:
        quot, rem = divmod(v, profile.idx)
        if rem:
            raise InvariantViolation(
                f"signature {raw} is not divisible by the index {profile.idx}"
            )
        z.append(quot)
    if sum(z) != 0:
        raise InvariantViolation(f"signature {z} does not sum to zero")
    owner = profile.owner
    for i in range(1, len(z)):
        if owner[i] == owner[i - 1] and z[i] != z[i - 1]:
            raise InvariantViolation(f"signature {z} is not constant on facet blocks")
    return tuple(z)


def diagonal_rank_matrix(profile: BoundaryProfile, i1: int, i2: int) -> IntMat:
    """The normal matrix with the diagonal test row e_{i1} - e_{i2} adjoined."""
    l = profile.l
    if not 0 <= i1 < i2 < l:
        raise DomainError(f"need 0 <= i1 < i2 < {l}, got ({i1}, {i2})")
    third = [0] * l
    third[i1] = 1
    third[i2] = -1
    rows = profile.a_delta.to_rows() + [third]
    return IntMat.from_rows(rows)


def width_one_by_rank(profile: BoundaryProfile) -> Optional[tuple[int, int]]:
    """First pair (i1, i2) with rank of the adjoined matrix still two, if any.

    Such a pair exists iff the polygon has width one in the boundary
    lattice.  Rank stays two exactly when e_{i1} - e_{i2} lies in the
    rational row space of the normal matrix, which is decided by solving
    against two independent columns and verifying the rest.
    """
    a_delta = profile.a_delta
    l = a_delta.cols
    cols = [(a_delta.entry(0, j), a_delta.entry(1, j)) for j in range(l)]
    p = 0
    q = next(
        j for j in range(1, l) if cols[0][0] * cols[j][1] - cols[0][1] * cols[j][0]
    )
    cp, cq = cols[p], cols[q]
    det = cp[0] * cq[1] - cp[1] * cq[0]
    for i1 in range(l):
        c1 = cols[i1]
        for i2 in range(i1 + 1, l):
            if cols[i2] == c1:
                continue  # equal columns force rank three
            tp = (1 if p == i1 else 0) - (1 if p == i2 else 0)
            tq = (1 if q == i1 else 0) - (1 if q == i2 else 0)
            mx = cq[1] * tp - cp[1] * tq
            my = cp[0] * tq - cq[0] * tp
            for i, (cx, cy) in enumerate(cols):
                ti = (1 if i == i1 else 0) - (1 if i == i2 else 0)
                if mx * cx + my * cy != det * ti:
                    break
            else:
                return (i1, i2)
    return None


def expected_kernel_dimension(a: IntMat) -> int:
    """Dimension l - r of the kernel locus attached to a zero-row-sum matrix."""
    if any(a.row_sums()):
        raise DomainError("matrix rows must sum to zero (A @ 1 == 0)")
    return a.cols - rank(a)


@dataclass(frozen=True)
class ComponentDescriptor:
    """Label of one candidate component of the genus-one Severi variety."""

    N: AffineLattice2  # intermediate linear lattice, n0 <= N <= Z^2
    M: AffineLattice2  # paired affine lattice (rotated linear part, m0 basepoint)
    d: int  # [N : n0]; also the torsion order of the marked divisor class
    index_in_z2: int  # [Z^2 : N] == idx / d
    torsion_order: int
    interior_count: int  # |interior(polygon) ∩ M|
    is_empty_locus: bool  # excised: the kernel locus is empty
    excluded_nonbirational: bool  # excised: its curves are non-birational covers
    contributes: bool

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
    for n_lat in intermediate_lattices(profile.n0):
        d = lattice_index(profile.n0, n_lat)
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
    out.sort(key=lambda c: c.d)
    return out


def _formula_count(
    profile: BoundaryProfile, classification: InteriorClassification
) -> int:
    """``count_components`` from a built profile and M0's classification."""
    n = len(divisors(profile.idx))
    if classification is not InteriorClassification.NON_EMPTY_INTERIOR:
        n -= 1
    return n


def count_components_oracle(polygon: LatticePolygon) -> int:
    """Independent count: test the two lattice conditions literally.

    Enumerates the intermediate affine lattices through the boundary
    basepoint and keeps those containing every boundary lattice point
    (``_holds_boundary``, O(facets) per lattice) and at least one interior
    point, found by ``_meets_interior``'s row walk (no Pick, no area, no
    point list).  Its boundary lattice is the literal affine span of all
    boundary points, not the production profile.
    """
    m0 = affine_span(polygon.boundary_points())
    facets = polygon.facets()
    count = 0
    for linear in intermediate_lattices(m0.linear_part()):
        m_lat = linear.translate(m0.basepoint)
        if not _holds_boundary(m_lat, facets):
            continue
        if _meets_interior(polygon, m_lat):
            count += 1
    return count


def _holds_boundary(lattice: AffineLattice2, facets: Sequence[Facet]) -> bool:
    """Whether ``lattice`` contains every boundary lattice point.

    The lattice points of a facet are start + k * u for k = 0..length, with
    u = vector // length primitive.  A coset holds them all iff it holds
    start and start + u, since their difference u then lies in its linear
    part; each facet's end is the next facet's start.  So two membership
    tests per facet decide what a test of all l boundary points decides.
    """
    for f in facets:
        (x, y), (vx, vy) = f.start, f.vector
        step = (x + vx // f.length, y + vy // f.length)
        if not (lattice._has(f.start) and lattice._has(step)):
            return False
    return True


def _meets_interior(polygon: LatticePolygon, lattice: AffineLattice2) -> bool:
    """Whether some point of ``lattice`` lies strictly inside ``polygon``.

    Walks the rows y = basepoint_y (mod d2) strictly between the lowest and
    the highest vertex.  On each row the facet half-planes n.p > n.start
    cut out an integer x-interval, and one modular step decides whether the
    row's coset x = r (mod d1) meets it.  O(height / d2 * facets) time and
    O(facets) memory; it uses neither Pick's theorem nor the area.
    """
    (d1, e), (_, d2) = lattice.basis
    bx, by = lattice.basepoint
    halfplanes = [
        (f.normal[0], f.normal[1], f.normal[0] * f.start[0] + f.normal[1] * f.start[1])
        for f in polygon.facets()
    ]
    xs = [v[0] for v in polygon.vertices]
    ys = [v[1] for v in polygon.vertices]
    xmin, xmax, ymax = min(xs), max(xs), max(ys)
    y = min(ys) + 1
    y += (by - y) % d2
    while y < ymax:
        lo, hi = xmin, xmax
        for a, b, h in halfplanes:
            c = h - b * y  # on this row the half-plane reads a * x > c
            if a > 0:
                lo = max(lo, c // a + 1)
            elif a < 0:
                hi = min(hi, -(c // -a) - 1)
            elif c >= 0:
                break
        else:
            r = (bx + (y - by) // d2 * e) % d1
            if lo + (r - lo) % d1 <= hi:
                return True
        y += d2
    return False


def severi_dimension(polygon: LatticePolygon, genus: int) -> int:
    """Dimension of the genus-g Severi variety: boundary points + g - 1."""
    if genus < 0:
        raise DomainError("genus must be nonnegative")
    return len(polygon.boundary_points()) + genus - 1


@dataclass(frozen=True)
class SeveriReport:
    """Aggregate analysis of one polygon."""

    polygon: LatticePolygon
    l: int
    severi_dim: int
    facets: tuple[Facet, ...]
    idx: int
    divisor_list: tuple[int, ...]
    m0: AffineLattice2
    n0: AffineLattice2
    width_m0: int
    width_m0_direction: Point
    classification_m0: InteriorClassification
    components: tuple[ComponentDescriptor, ...]
    component_count: int

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
    """Full report; asserts the formula count against the brute-force oracle.

    One pass: the boundary profile is built once and M0 classified once,
    and the descriptors and the divisor-formula count both derive from
    them.  The oracle builds its own boundary lattice from the points.
    """
    profile = build_profile(polygon)
    classification = polygon.classify_interior_empty(profile.m0)
    components = tuple(_descriptors(profile, classification))
    count = _formula_count(profile, classification)
    oracle = count_components_oracle(polygon)
    if count != oracle:
        raise InvariantViolation(
            f"component count {count} disagrees with the oracle count {oracle}"
        )
    contributing = sum(1 for c in components if c.contributes)
    if contributing != count:
        raise InvariantViolation(
            f"contributing descriptors {contributing} != component count {count}"
        )
    width, direction = polygon.lattice_width(profile.m0.linear_part())
    return SeveriReport(
        polygon=polygon,
        l=profile.l,
        severi_dim=severi_dimension(polygon, 1),
        facets=profile.facets,
        idx=profile.idx,
        divisor_list=tuple(divisors(profile.idx)),
        m0=profile.m0,
        n0=profile.n0,
        width_m0=width,
        width_m0_direction=direction,
        classification_m0=classification,
        components=components,
        component_count=count,
    )
