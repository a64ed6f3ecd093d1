"""Closed-form production paths against independent oracles.

- ``interior_count_in`` (Pick in M) against the point scan
  ``interior_points_in``;
- the Gauss-reduced ``_width_of_vertices`` against the square scan it
  replaced (kept here as an oracle) and against ``brute_force_width``;
- the pruned ``brute_force_width`` against the full sup-norm box scan it
  replaced (kept here as the reference);
- the oracle's row walk ``_meets_interior`` against the point scan;
- the oracle's per-facet boundary test ``_holds_boundary`` against a test
  of every boundary point;
- the facet-level boundary profile (``m0`` from the primitive edge
  vectors, invariant factors of the 2 x f normal matrix, ``a_delta`` built
  on demand) against the literal 2 x l versions over all boundary points;
- that the oracle never uses Pick or the area, and production never scans.

Inputs: every polygon of corpus max-coord 4 (3 for the profile) plus
random polygons with |coordinate| <= 60 (100 for the box scan) drawn by
hypothesis.
"""

import random
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from severi_lattice.certificates import a_delta
from severi_lattice.corpus import CorpusSpec, convex_hull, iter_corpus
from severi_lattice.intmat import IntMat, invariant_factors
from severi_lattice.lattices import AffineLattice2, Z2, affine_span
from severi_lattice.oracles import (
    _holds_boundary,
    _meets_interior,
    brute_force_width,
    count_components_oracle,
)
from severi_lattice.polygons import LatticePolygon, _width_of_vertices
from severi_lattice.severi import (
    analyze,
    build_profile,
    count_components,
    enumerate_components,
)

from helpers import image_in


def square_scan_width(verts):
    """The O(U^2) width scan used before the reduction, kept as an oracle.

    An upper bound U is taken over facet normals and coordinate axes; any
    optimal primitive direction n satisfies |n.u| <= U and |n.w| <= U for
    the two edge vectors u, w at the first vertex (the polygon contains the
    triangle they span), and n is determined by (n.u, n.w), so scanning
    that square finds the true minimum.
    """
    n = len(verts)

    def spread(direction):
        vals = [direction[0] * x + direction[1] * y for (x, y) in verts]
        return max(vals) - min(vals)

    def canon(direction):
        dx, dy = direction
        g = gcd(abs(dx), abs(dy))
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        return (dx, dy)

    best = None

    def consider(direction):
        nonlocal best
        d = canon(direction)
        w = spread(d)
        if best is None or w < best[0] or (w == best[0] and d < best[1]):
            best = (w, d)

    consider((1, 0))
    consider((0, 1))
    for i in range(n):
        vx = verts[(i + 1) % n][0] - verts[i][0]
        vy = verts[(i + 1) % n][1] - verts[i][1]
        consider((-vy, vx))
    ubound = best[0]

    u = (verts[1][0] - verts[0][0], verts[1][1] - verts[0][1])
    w = (verts[-1][0] - verts[0][0], verts[-1][1] - verts[0][1])
    det = u[0] * w[1] - u[1] * w[0]
    for s in range(-ubound, ubound + 1):
        for t in range(-ubound, ubound + 1):
            if s == 0 and t == 0:
                continue
            nx, rx = divmod(s * w[1] - t * u[1], det)
            if rx:
                continue
            ny, ry = divmod(t * u[0] - s * w[0], det)
            if ry:
                continue
            if gcd(abs(nx), abs(ny)) != 1:
                continue
            consider((nx, ny))
    return best


def full_box_width(poly, sup_norm):
    """Every primitive direction of the sup-norm box, as brute_force_width
    scanned before it skipped the directions that cannot be minimizers."""
    best = None
    for dx in range(0, sup_norm + 1):
        for dy in range(-sup_norm, sup_norm + 1):
            if dx == 0 and dy <= 0:
                continue
            if gcd(dx, abs(dy)) != 1:
                continue
            vals = [dx * x + dy * y for (x, y) in poly.vertices]
            w = max(vals) - min(vals)
            d = (dx, dy)
            if best is None or w < best[0] or (w == best[0] and d < best[1]):
                best = (w, d)
    return best


def direction_box(verts) -> int:
    """A sup-norm bound on every minimizing direction, for brute_force_width.

    A minimizer n has width at most U, the smaller axis width, so
    |n.u|, |n.w| <= U for any two vertex differences u, w; solving for n
    bounds |n|_inf by U * (|u|_inf + |w|_inf) / |det(u, w)|.
    """
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    ubound = min(max(xs) - min(xs), max(ys) - min(ys))
    x0, y0 = verts[0]
    box = None
    for i in range(1, len(verts)):
        for j in range(i + 1, len(verts)):
            u = (verts[i][0] - x0, verts[i][1] - y0)
            w = (verts[j][0] - x0, verts[j][1] - y0)
            det = abs(u[0] * w[1] - u[1] * w[0])
            if det:
                bound = ubound * (max(map(abs, u)) + max(map(abs, w))) // det
                box = bound if box is None else min(box, bound)
    return box


def lattices_in_play(poly):
    """Z^2, the boundary lattice M0 and the lattice M of every descriptor."""
    m0 = affine_span(poly.boundary_points())
    return [Z2, m0] + [c.M for c in enumerate_components(poly)]


@st.composite
def polygons(draw, bound=60):
    coord = st.integers(-bound, bound)
    points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12))
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    return LatticePolygon(hull)


@st.composite
def lattices(draw, bound=5):
    d1, d2 = draw(st.integers(1, bound)), draw(st.integers(1, bound))
    e = draw(st.integers(0, bound))
    base = draw(st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)))
    return AffineLattice2.from_generators(base, [(d1, 0), (e, d2)])


class TestInteriorCount:
    def test_examples(self, diamond1, diamond2, triangle_d3):
        m0_odd = affine_span(diamond1.boundary_points())
        assert diamond1.interior_count_in(m0_odd) == 0
        assert diamond1.interior_count_in(Z2) == 1
        m0_even = affine_span(diamond2.boundary_points())
        assert diamond2.interior_count_in(m0_even) == 1
        assert diamond2.interior_count_in(Z2) == 5
        assert triangle_d3.interior_count_in(Z2) == 1

    def test_boundary_not_all_in_lattice(self):
        # in 2Z^2 only the vertices and the edge midpoints of the boundary
        # remain, in 4Z^2 only the vertices
        poly = LatticePolygon([(0, 0), (4, 0), (0, 4)])
        for step in (1, 2, 4):
            lat = AffineLattice2.linear_from_generators([(step, 0), (0, step)])
            assert poly.interior_count_in(lat) == len(poly.interior_points_in(lat))

    def test_corpus4(self, corpus4):
        for poly in corpus4:
            for lat in lattices_in_play(poly):
                scanned = len(poly.interior_points_in(lat))
                assert poly.interior_count_in(lat) == scanned, (poly, lat)

    @settings(max_examples=60, deadline=None)
    @given(polygons())
    def test_random(self, poly):
        for lat in lattices_in_play(poly):
            assert poly.interior_count_in(lat) == len(poly.interior_points_in(lat))


class TestReducedWidth:
    def test_three_minimal_directions_on_one_edge(self):
        # the reduced basis is b1 = (1, 0), b2 = (2, 1); the width norm takes
        # its minimum 2 at b1 and at b2, b2 - b1 = (1, 1), b2 - 2*b1 = (0, 1),
        # the last three on one edge of its ball; the lexicographic
        # tie-break must reach (0, 1), which +-b1 +-b2 misses
        poly = LatticePolygon([(1, 0), (2, 0), (1, 2), (0, 2)])
        assert _width_of_vertices(poly.vertices) == (2, (0, 1))
        assert square_scan_width(poly.vertices) == (2, (0, 1))
        assert brute_force_width(poly) == (2, (0, 1))

    def test_corpus4(self, corpus4):
        for poly in corpus4:
            reduced = _width_of_vertices(poly.vertices)
            assert reduced == square_scan_width(poly.vertices), poly
            box = direction_box(poly.vertices)
            assert reduced == brute_force_width(poly, box), poly

    def test_corpus4_in_boundary_lattice(self, corpus4):
        for poly in corpus4:
            m0 = affine_span(poly.boundary_points())
            image = image_in(poly, m0)
            reduced = poly.lattice_width(m0.linear_part())
            assert reduced == square_scan_width(image.vertices), poly

    @settings(max_examples=150, deadline=None)
    @given(polygons())
    def test_random(self, poly):
        reduced = _width_of_vertices(poly.vertices)
        assert reduced == square_scan_width(poly.vertices)
        box = direction_box(poly.vertices)
        if box <= 40:
            assert reduced == brute_force_width(poly, box)

    def test_long_thin_polygons(self):
        # minimal directions far from the axes need several reduction steps
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.randint(1, 60), rng.randint(-60, 60)
            if gcd(a, b) != 1:
                continue
            k = rng.randint(1, 3)
            apex = (rng.randint(-3, 3), 1)
            poly = LatticePolygon(convex_hull([(0, 0), (a * k, b * k), apex]))
            assert _width_of_vertices(poly.vertices) == square_scan_width(poly.vertices)


class TestPrunedBoxScan:
    """brute_force_width skips directions, never a minimizer or a tie."""

    SUP_NORMS = (1, 2, 7, 25)

    def test_corpus4(self, corpus4):
        for poly in corpus4:
            for s in self.SUP_NORMS:
                assert brute_force_width(poly, s) == full_box_width(poly, s), (poly, s)

    @settings(max_examples=500, deadline=None)
    @given(polygons(bound=100))
    def test_random(self, poly):
        for s in self.SUP_NORMS:
            assert brute_force_width(poly, s) == full_box_width(poly, s)


class TestRowWalk:
    def test_corpus4(self, corpus4):
        for poly in corpus4:
            for lat in lattices_in_play(poly):
                scanned = bool(poly.interior_points_in(lat))
                assert _meets_interior(poly, lat) == scanned, (poly, lat)

    @settings(max_examples=60, deadline=None)
    @given(polygons(), st.lists(lattices(), max_size=4))
    def test_random(self, poly, extra):
        for lat in lattices_in_play(poly) + extra:
            assert _meets_interior(poly, lat) == bool(poly.interior_points_in(lat))


class TestOracleBoundaryTest:
    """Two points per facet decide what all l boundary points decide."""

    @settings(max_examples=80, deadline=None)
    @given(polygons(), st.lists(lattices(), max_size=4), lattices())
    # 2Z^2 holds every vertex of this triangle but not its edge midpoints
    @example(
        LatticePolygon([(0, 0), (2, 0), (0, 2)]),
        [AffineLattice2.from_generators((0, 0), [(2, 0), (0, 2)])],
        Z2,
    )
    def test_random(self, poly, extra, through_vertex):
        # lattices in play hold the boundary; random basepoints mostly do
        # not; lattices through a vertex hold it or fail on an edge
        shifted = through_vertex.linear_part().translate(poly.vertices[0])
        for lat in lattices_in_play(poly) + extra + [shifted]:
            expected = all(lat.contains(p) for p in poly.boundary_points())
            assert _holds_boundary(lat, poly.facets()) == expected


def literal_normal_matrix(poly):
    """The 2 x l matrix with, for each boundary point in order, the normal of
    the facet whose half-open segment [start, end) holds it."""
    cols = []
    for x, y in poly.boundary_points():
        owners = [
            f
            for f in poly.facets()
            if f.normal[0] * (x - f.start[0]) + f.normal[1] * (y - f.start[1]) == 0
            and (x, y) != f.end
        ]
        assert len(owners) == 1, (poly, (x, y))
        cols.append(owners[0].normal)
    return IntMat.from_rows([[c[0] for c in cols], [c[1] for c in cols]])


def assert_profile_matches_literal(poly):
    profile = build_profile(poly)
    literal = literal_normal_matrix(poly)
    assert profile.m0 == affine_span(poly.boundary_points())
    assert a_delta(profile) == literal
    assert profile.l == literal.cols == len(poly.boundary_points())
    assert not any(literal.row_sums())
    assert invariant_factors(literal) == (1, profile.idx)
    facet_level = IntMat.from_rows(
        [[f.normal[0] for f in poly.facets()], [f.normal[1] for f in poly.facets()]]
    )
    assert invariant_factors(facet_level) == invariant_factors(literal)


class TestFacetLevelProfile:
    """The O(facets) profile equals what the 2 x l data gives."""

    def test_corpus3(self):
        for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
            assert_profile_matches_literal(poly)

    @settings(max_examples=100, deadline=None)
    @given(polygons())
    def test_random(self, poly):
        assert_profile_matches_literal(poly)


class TestPathIndependence:
    """The oracle shares no formula with Pick; production scans no points."""

    @staticmethod
    def _forbid(monkeypatch, *names):
        def fail(*args, **kwargs):
            raise AssertionError("forbidden call")

        for name in names:
            monkeypatch.setattr(LatticePolygon, name, fail)

    def test_oracle_uses_neither_pick_nor_area(self, monkeypatch, corpus2):
        expected = [count_components(poly) for poly in corpus2]
        self._forbid(monkeypatch, "interior_count_in", "twice_area")
        fresh = [LatticePolygon(poly.vertices) for poly in corpus2]
        assert [count_components_oracle(poly) for poly in fresh] == expected

    def test_analyze_scans_no_points(self, monkeypatch, corpus2):
        self._forbid(monkeypatch, "interior_points", "interior_points_in")
        for poly in corpus2:
            analyze(LatticePolygon(poly.vertices))
