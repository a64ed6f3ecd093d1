import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from severi_lattice.corpus import random_polygon
from severi_lattice.errors import DomainError
from severi_lattice.lattices import AffineLattice2, Z2, affine_span
from severi_lattice.oracles import brute_force_width
from severi_lattice.polygons import (
    COORD_BOUND,
    InteriorClassification,
    LatticePolygon,
)

from helpers import image_in


class TestValidate:
    def test_triangle(self, triangle_d3):
        assert triangle_d3.vertices == ((0, 0), (3, 0), (0, 3))

    def test_collinear_points_collapse(self):
        p = LatticePolygon([(0, 0), (1, 0), (2, 0), (0, 2)])
        assert p.vertices == ((0, 0), (2, 0), (0, 2))
        assert p.collapsed_points == ((1, 0),)

    def test_clockwise_input_normalized(self):
        p = LatticePolygon([(0, 0), (0, 3), (3, 0)])
        assert p.twice_area() == 9
        assert p.vertices[0] == (0, 0)
        q = LatticePolygon([(0, 0), (3, 0), (0, 3)])
        assert p == q

    def test_zero_area(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (1, 1), (2, 2)])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (1, 0)])

    def test_repeated_point(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_non_convex(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (3, 0), (1, 1), (0, 3)])

    def test_non_integer(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (1.5, 0), (0, 1)])

    def test_coordinate_bound(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (COORD_BOUND + 1, 0), (0, 1)])
        LatticePolygon([(0, 0), (COORD_BOUND, 0), (0, 1)])  # boundary value ok

    def test_backtracking_edge(self):
        with pytest.raises(DomainError):
            LatticePolygon([(0, 0), (3, 0), (1, 0), (0, 2)])

    def test_double_winding(self):
        # vertices of a convex pentagon visited in star order wind twice
        pent = [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]
        star = [pent[0], pent[2], pent[4], pent[1], pent[3]]
        with pytest.raises(DomainError):
            LatticePolygon(star)


class TestFacets:
    def test_d2(self, triangle_d2):
        fs = triangle_d2.facets()
        assert [f.length for f in fs] == [2, 2, 2]
        assert [f.normal for f in fs] == [(0, 1), (-1, -1), (1, 0)]

    def test_unit_square(self, unit_square):
        fs = unit_square.facets()
        assert [f.length for f in fs] == [1, 1, 1, 1]
        assert [f.normal for f in fs] == [(0, 1), (-1, 0), (0, -1), (1, 0)]

    def test_paper_triangle(self, paper_triangle):
        fs = paper_triangle.facets()
        assert [f.normal for f in fs] == [(0, 1), (-1, 1), (1, -2)]
        assert [f.length for f in fs] == [2, 2, 2]

    def test_closure_on_random_polygons(self):
        rng = random.Random(3)
        for _ in range(30):
            poly = random_polygon(rng, 8)
            sx = sum(f.length * f.normal[0] for f in poly.facets())
            sy = sum(f.length * f.normal[1] for f in poly.facets())
            assert (sx, sy) == (0, 0)
            for f in poly.facets():
                assert f.normal[0] * f.vector[0] + f.normal[1] * f.vector[1] == 0


class TestBoundaryAndInterior:
    def test_boundary_counts(self, triangle_d2, triangle_d3, unit_square):
        assert len(triangle_d2.boundary_points()) == 6
        assert len(triangle_d3.boundary_points()) == 9
        assert len(unit_square.boundary_points()) == 4

    def test_boundary_order(self, triangle_d2):
        assert triangle_d2.boundary_points() == (
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 1),
            (0, 2),
            (0, 1),
        )

    def test_interior_examples(self, triangle_d2, triangle_d3, diamond2):
        assert triangle_d2.interior_points() == ()
        assert triangle_d3.interior_points() == ((1, 1),)
        assert sorted(diamond2.interior_points()) == [
            (-1, 0),
            (0, -1),
            (0, 0),
            (0, 1),
            (1, 0),
        ]

    def test_interior_in_lattice(self, diamond1, diamond2, triangle_d3):
        m0_odd = affine_span(diamond1.boundary_points())
        assert diamond1.interior_points_in(m0_odd) == ()
        m0_even = affine_span(diamond2.boundary_points())
        assert diamond2.interior_points_in(m0_even) == ((0, 0),)
        assert triangle_d3.interior_points_in(Z2) == ((1, 1),)

    def test_point_partition_against_box_scan(self, corpus2):
        for poly in corpus2:
            border = set(poly.boundary_points())
            inside = set(poly.interior_points())
            assert not (border & inside)
            xs = [v[0] for v in poly.vertices]
            ys = [v[1] for v in poly.vertices]
            full = set()
            for x in range(min(xs), max(xs) + 1):
                for y in range(min(ys), max(ys) + 1):
                    hits = 0
                    for f in poly.facets():
                        s = f.normal[0] * (x - f.start[0]) + f.normal[1] * (
                            y - f.start[1]
                        )
                        if s < 0:
                            break
                        if s == 0:
                            hits += 1
                    else:
                        full.add((x, y))
            assert full == border | inside


class TestArea:
    def test_examples(self, triangle_d2, unit_square):
        assert unit_square.twice_area() == 2
        assert triangle_d2.twice_area() == 4

    @given(st.integers(1, 6))
    def test_standard_triangle(self, d):
        tri = LatticePolygon([(0, 0), (d, 0), (0, d)])
        assert tri.twice_area() == d * d


class TestPick:
    def test_examples(self, triangle_d3, unit_square, diamond1):
        assert triangle_d3.verify_pick(Z2)
        assert unit_square.verify_pick(Z2)
        m0 = affine_span(diamond1.boundary_points())
        assert diamond1.verify_pick(m0)

    def test_requires_vertices_in_lattice(self, diamond1):
        even = AffineLattice2.linear_from_generators([(1, 1), (1, -1)])
        with pytest.raises(DomainError):
            diamond1.verify_pick(even)

    def test_on_random_polygons(self):
        rng = random.Random(11)
        for _ in range(40):
            poly = random_polygon(rng, 7)
            assert poly.verify_pick(Z2)
            assert poly.verify_pick(affine_span(poly.boundary_points()))


class TestWidth:
    def test_unit_square(self, unit_square):
        assert unit_square.lattice_width(Z2) == (1, (0, 1))

    @given(st.integers(1, 6))
    def test_standard_triangle(self, d):
        tri = LatticePolygon([(0, 0), (d, 0), (0, d)])
        assert tri.lattice_width(Z2)[0] == d

    def test_diamond_in_boundary_lattice(self, diamond1):
        m0 = affine_span(diamond1.boundary_points())
        assert diamond1.lattice_width(m0.linear_part())[0] == 1

    def test_requires_linear(self, diamond1):
        m0 = affine_span(diamond1.boundary_points())
        with pytest.raises(DomainError):
            diamond1.lattice_width(m0)

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            poly = random_polygon(rng, 6)
            assert poly.lattice_width(Z2) == brute_force_width(poly)


class TestClassification:
    def test_examples(self, triangle_d2, triangle_d3, unit_square):
        assert (
            triangle_d2.classify_interior_empty(Z2)
            is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
        )
        assert (
            unit_square.classify_interior_empty(Z2)
            is InteriorClassification.WIDTH_ONE
        )
        assert (
            triangle_d3.classify_interior_empty(Z2)
            is InteriorClassification.NON_EMPTY_INTERIOR
        )

    def test_long_strip_is_width_one(self):
        strip = LatticePolygon([(0, 0), (5, 0), (5, 1), (0, 1)])
        assert strip.classify_interior_empty(Z2) is InteriorClassification.WIDTH_ONE

    def test_scaled_d2_in_doubled_lattice(self):
        # (0,0), (4,0), (0,4) seen from 2Z^2 is again twice a primitive triangle
        poly = LatticePolygon([(0, 0), (4, 0), (0, 4)])
        doubled = AffineLattice2.linear_from_generators([(2, 0), (0, 2)])
        assert poly.interior_points_in(doubled) == ()
        assert (
            poly.classify_interior_empty(doubled)
            is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
        )

    def test_twice_primitive_without_a_scan(self, monkeypatch, triangle_d2):
        # the last case reads side lengths and half sides, O(facets): no
        # boundary or interior scan and no second polygon
        m0 = affine_span(triangle_d2.boundary_points())
        triangle_d4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
        doubled = AffineLattice2.linear_from_generators([(2, 0), (0, 2)])

        def scan(*args):
            raise AssertionError("classify_interior_empty scanned or built a polygon")

        for name in ("__init__", "boundary_points", "interior_points"):
            monkeypatch.setattr(LatticePolygon, name, scan)
        cases = ((triangle_d2, Z2), (triangle_d2, m0), (triangle_d4, doubled))
        for poly, lattice in cases:
            assert (
                poly.classify_interior_empty(lattice)
                is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
            )


class TestNormalization:
    """The polygon seen in a lattice's frame, mapped by the test's own
    ``helpers.frame``, against what the library measures in that lattice."""

    def test_identity(self, triangle_d3):
        image = image_in(triangle_d3, Z2)
        assert image == triangle_d3
        assert triangle_d3.lattice_width(Z2) == image.lattice_width(Z2)

    def test_diamond_to_boundary_lattice(self, diamond1):
        m0 = affine_span(diamond1.boundary_points())
        image = image_in(diamond1, m0)
        assert image.twice_area() == 2  # a unimodular copy of the unit square
        assert len(image.boundary_points()) == 4
        assert image.lattice_width(Z2)[0] == 1
        assert diamond1.lattice_width(m0.linear_part()) == image.lattice_width(Z2)

    def test_d2_in_own_boundary_lattice(self, triangle_d2):
        m0 = affine_span(triangle_d2.boundary_points())
        image = image_in(triangle_d2, m0)
        assert image.twice_area() == 4
        assert [f.length for f in image.facets()] == [2, 2, 2]
        assert triangle_d2._lengths_in(m0) == [2, 2, 2]

    def test_requires_membership(self, diamond1):
        # the vertices leave the even lattice; a vertex difference, (-1, 1),
        # leaves 2Z^2
        even = AffineLattice2.linear_from_generators([(1, 1), (1, -1)])
        with pytest.raises(DomainError):
            diamond1.interior_count_in(even)
        doubled = AffineLattice2.linear_from_generators([(2, 0), (0, 2)])
        with pytest.raises(DomainError):
            diamond1.lattice_width(doubled)

    def test_area_and_boundary_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            poly = random_polygon(rng, 7)
            m0 = affine_span(poly.boundary_points())
            image = image_in(poly, m0)
            assert image.twice_area() * m0.index_in_z2 == poly.twice_area()
            assert len(image.boundary_points()) == len(poly.boundary_points())
            assert poly._lengths_in(m0) == [f.length for f in image.facets()]
