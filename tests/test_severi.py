import random
from collections import Counter
from math import gcd

import pytest

import severi_lattice.polygons
import severi_lattice.severi
from severi_lattice.certificates import (
    a_delta,
    component_signature,
    owner,
    width_one_by_rank,
)
from severi_lattice.corpus import CorpusSpec, iter_corpus, random_polygon
from severi_lattice.errors import DomainError, InvariantViolation
from severi_lattice.intmat import IntMat, rank
from severi_lattice.lattices import (
    Z2,
    AffineLattice2,
    affine_span,
    divisors,
    lattice_index,
)
from severi_lattice.oracles import count_components_oracle
from severi_lattice.polygons import InteriorClassification, LatticePolygon
from severi_lattice.severi import (
    analyze,
    build_profile,
    count_components,
    enumerate_components,
    severi_dimension,
)
from severi_lattice.verify import _random_image_in_bounds


class TestBuildProfile:
    def test_paper_triangle_matrix(self, paper_triangle):
        profile = build_profile(paper_triangle)
        assert a_delta(profile).to_rows() == [
            [0, 0, -1, -1, 1, 1],
            [1, 1, 1, 1, -2, -2],
        ]
        assert profile.idx == 1

    def test_d3(self, triangle_d3):
        profile = build_profile(triangle_d3)
        assert profile.l == 9
        assert profile.n0 == Z2
        assert profile.idx == 1

    def test_diamond(self, diamond1):
        profile = build_profile(diamond1)
        assert profile.l == 4
        assert profile.idx == 2
        assert profile.m0 == affine_span([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert not profile.m0.contains((0, 0))  # odd coset
        assert profile.n0.contains((1, 1)) and not profile.n0.contains((1, 0))

    def test_column_blocks_match_owners(self, diamond2):
        profile = build_profile(diamond2)
        for i in range(profile.l):
            facet = profile.facets[owner(profile)[i]]
            assert (
                a_delta(profile).entry(0, i),
                a_delta(profile).entry(1, i),
            ) == facet.normal

    def test_row_sums_vanish(self, corpus2):
        for poly in corpus2:
            assert not any(a_delta(build_profile(poly)).row_sums())

    def test_n0_is_the_span_of_the_normals(self, corpus2):
        for poly in corpus2:
            profile = build_profile(poly)
            normals = [f.normal for f in profile.facets]
            assert profile.n0 == AffineLattice2.linear_from_generators(normals)


class TestComponentSignature:
    def test_paper_family(self):
        for a, b in [(2, 1), (3, 1), (4, 3), (3, 2)]:
            if gcd(a, b) != 1 or gcd(a - 1, b) != 1:
                continue
            poly = LatticePolygon([(0, 0), (2, 0), (2 * a, 2 * b)])
            z = component_signature(build_profile(poly))
            assert z in ((0, 0, -1, -1, 1, 1), (0, 0, 1, 1, -1, -1)), (a, b, z)

    def test_index_one_sum_zero(self, triangle_d3):
        z = component_signature(build_profile(triangle_d3))
        assert sum(z) == 0

    def test_diamond_block_constant_primitive(self, diamond1):
        profile = build_profile(diamond1)
        z = component_signature(profile)
        assert sum(z) == 0
        g = 0
        for v in z:
            g = gcd(g, v)
        assert g == 1
        for i in range(1, profile.l):
            if owner(profile)[i] == owner(profile)[i - 1]:
                assert z[i] == z[i - 1]


def diagonal_rank_matrix(profile, i1, i2):
    """The normal matrix with the diagonal test row e_{i1} - e_{i2} adjoined:
    the literal matrix whose rank ``width_one_by_rank`` decides."""
    l = profile.l
    if not 0 <= i1 < i2 < l:
        raise DomainError(f"need 0 <= i1 < i2 < {l}, got ({i1}, {i2})")
    third = [0] * l
    third[i1] = 1
    third[i2] = -1
    return IntMat.from_rows(a_delta(profile).to_rows() + [third])


def expected_kernel_dimension(a):
    """Dimension l - r of the kernel locus attached to a zero-row-sum matrix."""
    if any(a.row_sums()):
        raise DomainError("matrix rows must sum to zero (A @ 1 == 0)")
    return a.cols - rank(a)


class TestRankCriterion:
    def test_diagonal_matrix_shape(self, unit_square):
        profile = build_profile(unit_square)
        m = diagonal_rank_matrix(profile, 0, 2)
        assert m.rows == 3 and m.cols == 4
        assert not any(m.row_sums())
        assert rank(m) == 2

    def test_bad_indices(self, unit_square):
        profile = build_profile(unit_square)
        with pytest.raises(DomainError):
            diagonal_rank_matrix(profile, 1, 1)
        with pytest.raises(DomainError):
            diagonal_rank_matrix(profile, 2, 1)
        with pytest.raises(DomainError):
            diagonal_rank_matrix(profile, 0, 4)

    def test_d3_all_pairs_rank_three(self, triangle_d3):
        profile = build_profile(triangle_d3)
        for i1 in range(profile.l):
            for i2 in range(i1 + 1, profile.l):
                assert rank(diagonal_rank_matrix(profile, i1, i2)) == 3
        assert width_one_by_rank(profile) is None

    def test_width_one_pairs(self, unit_square, triangle_d2, diamond1):
        psq = build_profile(unit_square)
        pair = width_one_by_rank(psq)
        assert pair == (0, 2)  # the two opposite horizontal facets
        assert rank(diagonal_rank_matrix(psq, *pair)) == 2
        assert width_one_by_rank(build_profile(triangle_d2)) is None
        assert width_one_by_rank(build_profile(diamond1)) is not None

    def test_agrees_with_rank_on_corpus(self, corpus2):
        # the fast row-space test must match literal rank computation
        for poly in corpus2:
            profile = build_profile(poly)
            first = None
            for i1 in range(profile.l):
                for i2 in range(i1 + 1, profile.l):
                    if rank(diagonal_rank_matrix(profile, i1, i2)) == 2:
                        first = (i1, i2)
                        break
                if first:
                    break
            assert width_one_by_rank(profile) == first


class TestKernelDimension:
    def test_examples(self, triangle_d2, unit_square):
        assert expected_kernel_dimension(a_delta(build_profile(triangle_d2))) == 4
        zero = IntMat.zeros(2, 5)
        assert expected_kernel_dimension(zero) == 5
        psq = build_profile(unit_square)
        assert expected_kernel_dimension(diagonal_rank_matrix(psq, 0, 2)) == 2

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(DomainError):
            expected_kernel_dimension(IntMat.identity(2))

    def test_profile_matrix_kernel_dimension(self, corpus2):
        # the normal matrix always has rank two, so the kernel locus has
        # dimension l - 2
        for poly in corpus2:
            profile = build_profile(poly)
            assert rank(a_delta(profile)) == 2
            assert expected_kernel_dimension(a_delta(profile)) == profile.l - 2


class TestComponents:
    def test_d2(self, triangle_d2):
        comps = enumerate_components(triangle_d2)
        assert len(comps) == 1
        c = comps[0]
        assert c.d == 1 and c.torsion_order == 1
        assert c.excluded_nonbirational and not c.is_empty_locus
        assert not c.contributes

    def test_diamond1(self, diamond1):
        comps = enumerate_components(diamond1)
        assert [c.d for c in comps] == [1, 2]
        assert comps[0].is_empty_locus and not comps[0].contributes
        assert comps[1].contributes
        profile = build_profile(diamond1)
        assert comps[0].M == profile.m0  # d == 1 pairs with the boundary lattice
        assert comps[0].N == profile.n0
        assert comps[1].M == Z2 and comps[1].N == Z2
        assert comps[0].index_in_z2 == 2 and comps[1].index_in_z2 == 1

    def test_diamond2(self, diamond2):
        comps = enumerate_components(diamond2)
        assert [c.d for c in comps] == [1, 2]
        assert all(c.contributes for c in comps)
        assert [c.interior_count for c in comps] == [1, 5]

    def test_torsion_order_divides_index(self, corpus2):
        for poly in corpus2:
            profile = build_profile(poly)
            for c in enumerate_components(poly):
                assert profile.idx % c.d == 0
                assert c.torsion_order == c.d
                assert c.index_in_z2 * c.d == profile.idx


class TestCounts:
    def test_named_values(self, triangle_d2, triangle_d3, unit_square, diamond1, diamond2):
        expected = [
            (triangle_d2, 0),
            (triangle_d3, 1),
            (unit_square, 0),
            (diamond1, 1),
            (diamond2, 2),
        ]
        for poly, value in expected:
            assert count_components_oracle(poly) == value
            assert count_components(poly) == value

    def test_pick_monotonicity(self, corpus2):
        for poly in corpus2:
            profile = build_profile(poly)
            base = len(poly.interior_points_in(profile.m0))
            for c in enumerate_components(poly):
                if c.d > 1:
                    assert c.interior_count > base

    def test_unimodular_invariance_sampled(self):
        rng = random.Random(17)
        for _ in range(20):
            poly = random_polygon(rng, 6)
            expected = count_components(poly)
            for _ in range(3):
                image = _random_image_in_bounds(poly, rng)
                assert count_components(image) == expected


class TestDimension:
    def test_examples(self, triangle_d3, unit_square):
        assert severi_dimension(triangle_d3, 1) == 9
        assert severi_dimension(triangle_d3, 0) == 8
        assert severi_dimension(unit_square, 1) == 4
        with pytest.raises(DomainError):
            severi_dimension(unit_square, -1)

    def test_reads_facet_lengths_not_boundary_points(self, monkeypatch):
        def no_scan(polygon):
            raise AssertionError("boundary points were listed")

        monkeypatch.setattr(LatticePolygon, "boundary_points", no_scan)
        poly = LatticePolygon([(-10**4, -10**4), (10**4, -10**4), (0, 10**4)])
        l = sum(f.length for f in poly.facets())
        assert l == 4 * 10**4
        assert severi_dimension(poly, 1) == l


class TestAnalyze:
    def test_d2_report(self, triangle_d2):
        report = analyze(triangle_d2)
        assert report.component_count == 0
        assert (
            report.classification_m0
            is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
        )
        assert report.l == 6 and report.severi_dim == 6
        assert report.divisor_list == (1,)

    def test_diamond2_report(self, diamond2):
        report = analyze(diamond2)
        assert report.idx == 2
        assert report.divisor_list == (1, 2)
        assert report.component_count == 2
        assert report.width_m0 == 2

    def test_unit_square_report(self, unit_square):
        report = analyze(unit_square)
        assert report.component_count == 0
        assert report.classification_m0 is InteriorClassification.WIDTH_ONE

    def test_json_shape(self, diamond1):
        doc = analyze(diamond1).to_json_dict()
        assert doc["component_count"] == 1
        assert doc["idx"] == 2
        assert [c["d"] for c in doc["components"]] == [1, 2]
        assert doc["lattice_width_m0"]["width"] == 1
        assert doc["severi_dimension"] == doc["l"] == 4


class TestSinglePass:
    """``analyze`` builds one profile and one classification per polygon."""

    def test_one_profile_one_classification(
        self, monkeypatch, triangle_d2, unit_square, diamond2
    ):
        calls = Counter()
        build = severi_lattice.severi.build_profile
        classify = LatticePolygon.classify_interior_empty

        def counting_build(polygon):
            calls["build_profile"] += 1
            return build(polygon)

        def counting_classify(polygon, lattice):
            calls["classify"] += 1
            return classify(polygon, lattice)

        monkeypatch.setattr(severi_lattice.severi, "build_profile", counting_build)
        monkeypatch.setattr(
            LatticePolygon, "classify_interior_empty", counting_classify
        )
        # M0 twice a primitive triangle, of width one, with interior points
        for poly in (triangle_d2, unit_square, diamond2):
            calls.clear()
            analyze(LatticePolygon(poly.vertices))
            assert calls == {"build_profile": 1, "classify": 1}

    def test_one_width_reduction(self, monkeypatch, triangle_d2, unit_square):
        # an empty M0 interior needs the width to classify and the report
        # needs it again; the reduction runs once
        calls = Counter()
        reduce = severi_lattice.polygons._width_of_vertices

        def counting_reduce(verts):
            calls["reduce"] += 1
            return reduce(verts)

        monkeypatch.setattr(
            severi_lattice.polygons, "_width_of_vertices", counting_reduce
        )
        for poly, cls in (
            (triangle_d2, InteriorClassification.TWICE_PRIMITIVE_TRIANGLE),
            (unit_square, InteriorClassification.WIDTH_ONE),
        ):
            calls.clear()
            report = analyze(LatticePolygon(poly.vertices))
            assert report.classification_m0 is cls
            assert calls == {"reduce": 1}

    def test_descriptors_follow_the_divisors(self):
        for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
            report = analyze(poly)
            assert report.divisor_list == tuple(divisors(report.idx))
            for c in report.components:
                assert c.d == lattice_index(report.n0, c.N)
                assert c.index_in_z2 == c.N.index_in_z2
            assert report.component_count == sum(
                c.contributes for c in report.components
            )

    def test_wrong_formula_count_is_caught(self, monkeypatch, diamond2):
        formula = severi_lattice.severi._formula_count
        monkeypatch.setattr(
            severi_lattice.severi, "_formula_count", lambda *a: formula(*a) + 1
        )
        with pytest.raises(InvariantViolation):
            analyze(diamond2)

    def test_public_helpers_agree_with_analyze(self):
        for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
            report = analyze(poly)
            assert enumerate_components(poly) == list(report.components)
            assert count_components(poly) == report.component_count
