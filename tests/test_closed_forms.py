"""Closed-form production paths against independent oracles.

- ``interior_count_in`` (Pick in M) against the point scan
  ``interior_points_in``;
- the Gauss-reduced ``_width_of_vertices`` against the reduction as it
  was first written (``helpers.reference_width_of_vertices``), the square
  scan it replaced (kept here as an oracle) and ``brute_force_width``, and
  the number of width-norm evaluations it makes;
- the pruned ``brute_force_width`` against the full sup-norm box scan it
  replaced (kept here as the reference);
- the oracle's row walk ``_meets_interior`` against the point scan;
- the oracle's per-facet boundary test ``_holds_boundary`` against a test
  of every boundary point, and its boundary lattice, spanned by two points
  per facet, against the span of every boundary point;
- the facet-level boundary profile (``m0`` from the primitive edge
  vectors, invariant factors of the 2 x f normal matrix, ``a_delta`` built
  on demand) against the literal 2 x l versions over all boundary points;
- that the oracle never uses Pick or the area, and production never scans.

Inputs: every polygon of corpus max-coord 4 (3 for the profile) plus
random polygons with |coordinate| <= 60 (100 for the box scan) drawn by
hypothesis; the box scan also gets polygons that stress its second strip
(a horizontal base whose two ends are the vertices extreme in det(e, .),
so f has f_y = 0; ties on every side of the bounding box, long thin
triangles, the 504-divisor triangle), and the width reduction needles at
the coordinate bound.
"""

import builtins
import random
import sys
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from severi_lattice.certificates import a_delta
from severi_lattice.corpus import CorpusSpec, convex_hull, iter_corpus
from severi_lattice.intmat import IntMat, invariant_factors
from severi_lattice.lattices import AffineLattice2, Z2, _span, affine_span
from severi_lattice.oracles import (
    _holds_boundary,
    _meets_interior,
    brute_force_width,
    count_components_oracle,
)
import severi_lattice.oracles
import severi_lattice.polygons
from severi_lattice.polygons import LatticePolygon, _width_of_vertices
from severi_lattice.severi import (
    analyze,
    build_profile,
    count_components,
    enumerate_components,
)

from helpers import image_in, reference_width_of_vertices


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


# every primitive direction of the largest box brute_force_width is asked
# about, first coordinate positive or (0, 1), in lexicographic order, with
# its sup norm
BOX_DIRECTIONS = [
    (max(dx, abs(dy)), dx, dy)
    for dx in range(0, 26)
    for dy in range(-25, 26)
    if (dx or dy > 0) and gcd(dx, abs(dy)) == 1
]


def full_box_widths(poly, sup_norms):
    """For each sup norm, the width over every primitive direction of its
    box and the lexicographically first direction attaining it, as
    brute_force_width scanned before it skipped the directions that cannot
    be minimizers; one pass over the largest box serves every norm."""
    best = dict.fromkeys(sup_norms)
    verts = poly.vertices
    for norm, dx, dy in BOX_DIRECTIONS:
        vals = [dx * x + dy * y for (x, y) in verts]
        w = max(vals) - min(vals)
        for s in sup_norms:
            # directions come in lexicographic order: a tie keeps the first
            if norm <= s and (best[s] is None or w < best[s][0]):
                best[s] = (w, (dx, dy))
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


# needles at the coordinate bound, each under the eight symmetries of the
# square: in the first, the seed of the first step, 909, lies 91 steps from
# the minimizer 1000
NEEDLES = [
    [(0, 0), (10, 10**4), (11, 10**4), (1, 0)],
    [(0, 0), (1, 1), (9999, 10**4)],
    [(0, 0), (1, 10**4), (0, 1)],
]
SQUARE_SYMMETRIES = [
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
]


def needle_images():
    for needle in NEEDLES:
        for sym in SQUARE_SYMMETRIES:
            yield LatticePolygon([sym(x, y) for x, y in needle])


class TestReducedWidth:
    def assert_reference(self, poly):
        reduced = _width_of_vertices(poly.vertices)
        assert reduced == reference_width_of_vertices(poly.vertices), poly
        return reduced

    def test_three_minimal_directions_on_one_edge(self):
        # the reduced basis is b1 = (1, 0), b2 = (2, 1); the width norm takes
        # its minimum 2 at b1 and at b2, b2 - b1 = (1, 1), b2 - 2*b1 = (0, 1),
        # the last three on one edge of its ball; the lexicographic
        # tie-break must reach (0, 1), which +-b1 +-b2 misses: the winner is
        # the tie-break's 2*b1 - b2 candidate
        poly = LatticePolygon([(1, 0), (2, 0), (1, 2), (0, 2)])
        assert self.assert_reference(poly) == (2, (0, 1))
        assert square_scan_width(poly.vertices) == (2, (0, 1))
        assert brute_force_width(poly) == (2, (0, 1))

    def test_b1_minus_twice_b2_reaches_the_width(self):
        """b1 - 2*b2 reaches the width, and loses, as it always does.

        The reduced basis is b1 = (0, 1), b2 = (1, -1); the width norm takes
        its minimum 2 at b1, b2, b1 - b2 = (-1, 2) and b1 - 2*b2 = (-2, 3).
        The kernel's docstring proves that b1 - 2*b2 never wins, so it does
        not evaluate it: here b1 = (0, 1) wins.  The reference scans all
        twelve candidates; on corpus max-coord 4 b1 - 2*b2 reaches the width
        on 8 polygons and wins on none.
        """
        poly = LatticePolygon([(0, 0), (1, 0), (4, 2), (3, 2)])
        assert self.assert_reference(poly) == (2, (0, 1))
        assert brute_force_width(poly, 3) == (2, (0, 1))
        for direction in [(1, -1), (1, -2), (2, -3)]:
            vals = [direction[0] * x + direction[1] * y for x, y in poly.vertices]
            assert max(vals) - min(vals) == 2

    def test_corpus4(self, corpus4):
        for poly in corpus4:
            reduced = self.assert_reference(poly)
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
        reduced = self.assert_reference(poly)
        assert reduced == square_scan_width(poly.vertices)
        box = direction_box(poly.vertices)
        if box <= 40:
            assert reduced == brute_force_width(poly, box)

    def test_long_thin_polygons(self):
        # minimal directions far from the axes need several reduction steps
        for poly in long_thin_polygons():
            reduced = self.assert_reference(poly)
            assert reduced == square_scan_width(poly.vertices)

    def test_needles_at_the_bound(self):
        for poly in needle_images():
            self.assert_reference(poly)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=8),
        st.booleans(),
        st.integers(1, 3),
    )
    def test_parallelogram_balls(self, shears, swap, scale):
        # unimodular images of a parallelogram whose width-norm ball is a
        # parallelogram with b1 - 2*b2 on its boundary, the case that the
        # tie-break's proof handles
        a, b, c, d = 1, 0, 0, 1
        for on_first_row, k in shears:
            if on_first_row:
                a, b = a + k * c, b + k * d
            else:
                c, d = c + k * a, d + k * b
        if swap:
            a, b, c, d = c, d, a, b
        points = [(0, 0), (2, 1), (2, 2), (0, 1)]
        image = [(scale * (a * x + b * y), scale * (c * x + d * y)) for x, y in points]
        assume(max(abs(v) for p in image for v in p) <= 10**4)
        self.assert_reference(LatticePolygon(image))


class TestWidthEvaluations:
    """How often the reduction evaluates the width norm.

    Every evaluation takes one ``max`` of a direction's projections, so a
    ``max`` counted in the module's namespace counts evaluations.
    """

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def counting_max(*args, **kwargs):
            calls.append(None)
            return builtins.max(*args, **kwargs)

        monkeypatch.setattr(severi_lattice.polygons, "max", counting_max, raising=False)
        return calls

    def test_corpus4_mean(self, monkeypatch, corpus4):
        # 16.8 per call for the search over [-2*f2/f1 - 1, 2*f2/f1 + 1] and
        # the 12-candidate tie-break
        calls = self.counted(monkeypatch)
        for poly in corpus4:
            _width_of_vertices(poly.vertices)
        assert len(calls) / len(corpus4) <= 4.14

    def test_needles_take_logarithmically_many(self, monkeypatch):
        # 27 to 54 before the bracket; a walk from the seed takes over 90
        calls = self.counted(monkeypatch)
        for poly in needle_images():
            calls.clear()
            _width_of_vertices(poly.vertices)
            assert len(calls) <= 18, poly


def long_thin_polygons():
    """Thin triangles along a primitive direction (a, b), seeded."""
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(1, 60), rng.randint(-60, 60)
        if gcd(a, b) != 1:
            continue
        k = rng.randint(1, 3)
        apex = (rng.randint(-3, 3), 1)
        yield LatticePolygon(convex_hull([(0, 0), (a * k, b * k), apex]))


class TestPrunedBoxScan:
    """brute_force_width skips directions, never a minimizer or a tie."""

    SUP_NORMS = (1, 2, 7, 25)

    def assert_full_box(self, poly):
        want = full_box_widths(poly, self.SUP_NORMS)
        for s in self.SUP_NORMS:
            assert brute_force_width(poly, s) == want[s], (poly, s)

    def test_corpus4(self, corpus4):
        for poly in corpus4:
            self.assert_full_box(poly)

    @settings(max_examples=500, deadline=None)
    @given(polygons(bound=100))
    def test_random(self, poly):
        self.assert_full_box(poly)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 80),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 79),
        st.integers(1, 79),
    )
    def test_leftmost_and_rightmost_on_one_row(self, a, up, down, p, q):
        # e runs from an apex to the base row or across it, within [0, a],
        # so det(e, .) is extreme at the base's two ends and f = -(a, 0):
        # f_y = 0, and the f-strip bounds dx by W / a instead of bounding dy
        assume(up or down)
        points = [(0, 0), (a, 0), (min(p, a - 1), up), (min(q, a - 1), -down)]
        poly = LatticePolygon(convex_hull(points))
        assert poly.vertices[0] == (0, 0) and (a, 0) in poly.vertices
        self.assert_full_box(poly)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.lists(st.integers(0, 40), min_size=4, max_size=4),
    )
    def test_ties_on_every_side_of_the_box(self, a, b, cuts):
        # a rectangle with its corners cut has an edge on each side of its
        # bounding box unless two cuts meet: two top, two bottom, two
        # leftmost and two rightmost vertices; each rotation of the vertex
        # list starts at another vertex, so the ties break another way
        c1, c2, c3, c4 = (c % (min(a, b) // 2 + 1) for c in cuts)
        hull = convex_hull(
            [(c1, 0), (a - c2, 0), (a, c2), (a, b - c3), (a - c3, b), (c4, b),
             (0, b - c4), (0, c1)]
        )
        for k in range(len(hull)):
            self.assert_full_box(LatticePolygon(hull[k:] + hull[:k]))

    def test_long_thin_polygons(self):
        # e and f nearly parallel: the two strips cross at a narrow angle
        for poly in long_thin_polygons():
            self.assert_full_box(poly)

    def test_bound_scale_triangle(self):
        # the 504-divisor triangle at the coordinate bound
        poly = LatticePolygon([(9619, 6855), (-5695, 545), (-3738, -1400)])
        assert brute_force_width(poly, 25) == full_box_widths(poly, (25,))[25]

    def test_corpus4_evaluations(self, corpus4):
        # width evaluations are calls of the nested spread(); the two strips
        # always cross, so no polygon walks the box's columns
        per_polygon = []

        def count_spread(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "spread":
                per_polygon[-1] += 1

        for poly in corpus4:
            per_polygon.append(0)
            sys.setprofile(count_spread)
            try:
                brute_force_width(poly, 25)
            finally:
                sys.setprofile(None)
        assert len(per_polygon) == 17978
        assert sum(per_polygon) == 41409  # a mean of 2.30
        assert max(per_polygon) == 16

    def test_strips_not_box_bound_corpus3(self):
        # at corpus scale the strips end well inside the box of 25, so it
        # holds every minimizer that any larger box would find
        for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
            assert brute_force_width(poly, 10**4) == brute_force_width(poly, 25), poly


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

    @pytest.mark.parametrize(
        "vertices, meets",
        [
            ([(0, 0), (4, 0), (0, 4)], True),
            # the bottom is a vertex: lines y = -1 and y = 0 hold no point
            ([(2, 0), (4, 2), (2, 4), (0, 2)], True),
            # no interior point; the line y = -1 would pass every facet
            ([(0, 0), (2, 0), (0, 2)], False),
        ],
    )
    def test_walk_starts_on_the_first_line_inside(self, monkeypatch, vertices, meets):
        # each line walked reads the half-planes once; the first line
        # strictly above the bottom one, y = 1, decides all three in Z^2
        walked = []
        walk = severi_lattice.oracles._walk

        class Counted(list):
            def __iter__(self):
                walked.append(1)
                return super().__iter__()

        def counting(halfplanes, across, along):
            return walk(Counted(halfplanes), across, along)

        monkeypatch.setattr(severi_lattice.oracles, "_walk", counting)
        assert _meets_interior(LatticePolygon(vertices), Z2) is meets
        assert len(walked) == 1


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
        shifted = through_vertex.linear_part()._through(poly.vertices[0])
        for lat in lattices_in_play(poly) + extra + [shifted]:
            expected = all(lat.contains(p) for p in poly.boundary_points())
            assert _holds_boundary(lat, poly.facets()) == expected


class _Spanned(Exception):
    """Carries the oracle's boundary lattice out of the oracle."""


def oracle_boundary_lattice(poly, span=_span):
    """The M0 that ``count_components_oracle`` spans, caught at its one call
    of ``oracles._span``, which ``span`` stands in for; the oracle stops
    there."""

    def capture(points):
        raise _Spanned(span(points))

    with patch.object(severi_lattice.oracles, "_span", capture):
        try:
            count_components_oracle(poly)
        except _Spanned as spanned:
            return spanned.args[0]
    raise AssertionError("the oracle spans no points")


class TestOracleSpan:
    """The oracle's two points per facet span what all l boundary points span."""

    @staticmethod
    def assert_literal(poly, span=_span):
        literal = affine_span(poly.boundary_points())
        assert oracle_boundary_lattice(poly, span) == literal, poly

    def test_corpus4(self, corpus4):
        for poly in corpus4:
            self.assert_literal(poly)

    @settings(max_examples=100, deadline=None)
    @given(polygons())
    def test_random(self, poly):
        self.assert_literal(poly)

    @pytest.mark.parametrize(
        "vertices",
        [
            [(10**4, 0), (0, 10**4), (-(10**4), 0), (0, -(10**4))],
            [(0, 0), (5000, 5000), (0, 10000), (-5000, 5000)],
        ],
        ids=["diamond", "turned square"],
    )
    def test_index_two_at_the_bound(self, vertices):
        poly = LatticePolygon(vertices)
        assert build_profile(poly).idx == 2
        self.assert_literal(poly)

    def test_facet_starts_alone_fall_short(self):
        # the vertices of this triangle span 2Z^2, its boundary points Z^2;
        # the oracle passes (start, start + u) per facet, so [::2] is the starts
        triangle = LatticePolygon([(0, 0), (2, 0), (0, 2)])
        self.assert_literal(triangle)

        def starts_only(points):
            return _span(points[::2])

        with pytest.raises(AssertionError):
            self.assert_literal(triangle, starts_only)
        twice = AffineLattice2.from_generators((0, 0), [(2, 0), (0, 2)])
        assert oracle_boundary_lattice(triangle, starts_only) == twice


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
