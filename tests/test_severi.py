import random
from collections import Counter
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings

import severi_lattice.lattices
import severi_lattice.oracles
import severi_lattice.polygons
import severi_lattice.severi
from severi_lattice._record import Record
from severi_lattice.certificates import a_delta, component_signature, width_one_by_rank
from severi_lattice.corpus import CorpusSpec, iter_corpus, random_polygon
from severi_lattice.errors import DomainError, InvariantViolation
from severi_lattice.intmat import IntMat, invariant_factors
from severi_lattice.lattices import Z2, AffineLattice2, affine_span, divisors
from severi_lattice.oracles import count_components_oracle
from severi_lattice.polygons import Facet, InteriorClassification, LatticePolygon
from severi_lattice.severi import (
    analyze,
    build_profile,
    count_components,
    enumerate_components,
)
from severi_lattice.verify import _random_image_in_bounds

from helpers import owner, reference_signature, reference_width_one_pair
from test_closed_forms import polygons


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
        xs, ys = a_delta(profile).to_rows()
        for i in range(profile.l):
            facet = profile.facets[owner(profile)[i]]
            assert (xs[i], ys[i]) == facet.normal

    def test_row_sums_vanish(self, corpus2):
        for poly in corpus2:
            assert not any(a_delta(build_profile(poly)).row_sums())

    @pytest.mark.parametrize(
        "index, normal",
        [(1, (-2, 0)), (0, (0, 2))],  # sum l_j n_j = (-1, 0), then (0, 1)
        ids=["x-sum", "y-sum"],
    )
    def test_normals_that_do_not_close_up_are_caught(self, unit_square, index, normal):
        # a bad facet planted in the polygon's cache; each case breaks one
        # coordinate of the closure sum and leaves the other at zero
        facets = list(unit_square.facets())
        f = facets[index]
        facets[index] = Facet(f.index, f.start, f.vector, f.length, normal)
        unit_square._cache["facets"] = tuple(facets)
        with pytest.raises(InvariantViolation, match="do not close up"):
            build_profile(unit_square)

    def test_n0_is_the_span_of_the_normals(self, corpus2):
        for poly in corpus2:
            profile = build_profile(poly)
            normals = [f.normal for f in profile.facets]
            assert profile.n0 == AffineLattice2.linear_from_generators(normals)

    def test_profile_holds_m0_classification_and_width(
        self, monkeypatch, triangle_d2, unit_square, diamond2
    ):
        # M0's facts, read on a fresh equal polygon (empty caches), over the
        # corpus and at the coordinate bound; analyze reports this profile
        R = 10**4
        bound = [
            [(R, 0), (0, R), (-R, 0), (0, -R)],
            [(-R, -R), (R, -R), (-R, R)],
            [(-R, -R), (R, -R), (R, R), (-R, R)],
            [(-R, 0), (R, 0), (R, 1), (-R, 1)],
            [(0, -R), (1, -R), (1, R)],
        ]
        corpus = iter_corpus(CorpusSpec(max_coordinate=3))
        for poly in chain(corpus, map(LatticePolygon, bound)):
            profile = build_profile(poly)
            fresh = LatticePolygon(poly.vertices)
            m0 = profile.m0
            assert profile.classification is fresh.classify_interior_empty(m0)
            width = fresh.lattice_width(m0.linear_part())
            assert (profile.width, profile.direction) == width, poly
            assert analyze(poly).profile == profile
        # count_components classifies M0 once and reduces its width only
        # where the classification needs it: an empty interior
        calls = Counter()
        classify = LatticePolygon.classify_interior_empty
        reduce = severi_lattice.polygons._width_of_vertices

        def counting_classify(polygon, lattice):
            calls["classify"] += 1
            return classify(polygon, lattice)

        def counting_reduce(verts):
            calls["reduce"] += 1
            return reduce(verts)

        monkeypatch.setattr(
            LatticePolygon, "classify_interior_empty", counting_classify
        )
        monkeypatch.setattr(
            severi_lattice.polygons, "_width_of_vertices", counting_reduce
        )
        for poly, reductions in ((triangle_d2, 1), (unit_square, 1), (diamond2, 0)):
            calls.clear()
            count_components(LatticePolygon(poly.vertices))
            assert (calls["classify"], calls["reduce"]) == (1, reductions)


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


class TestCertificateRowsMatchTheirReferences:
    """The signature read from ``Q`` alone equals the one read from the full
    ``hsnf``, exact z, and the rank test over the pairs of length-one facet
    points that hold a pivot column finds the same first pair as the search
    over every pair."""

    def test_signature_on_corpus3(self):
        for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
            profile = build_profile(poly)
            assert component_signature(profile) == reference_signature(profile), poly

    def test_width_one_pair_on_corpus4(self, corpus4):
        for poly in corpus4:
            profile = build_profile(poly)
            pair = width_one_by_rank(profile)
            assert pair == reference_width_one_pair(profile), poly

    def test_width_one_pair_on_trapezoids(self):
        # (0,0),(a,0),(b,1),(c,1) and its quarter turns: width one, with
        # bottom and top edges of any length, so that pairs whose pivot
        # column repeats are skipped beside the pairs that are found
        skipped_pivot = 0
        for a in range(1, 6):
            for b in range(-5, 6):
                for c in range(-5, b + 1):
                    verts = [(0, 0), (a, 0), (b, 1), (c, 1)][: 3 if b == c else 4]
                    for _ in range(4):
                        verts = [(-y, x) for x, y in verts]
                        profile = build_profile(LatticePolygon(verts))
                        pair = width_one_by_rank(profile)
                        assert pair is not None, verts
                        assert pair == reference_width_one_pair(profile), verts
                        skipped_pivot += profile.facets[0].length > 1
        assert skipped_pivot

    @settings(max_examples=200, deadline=None)
    @given(polygons(bound=30))
    def test_random(self, poly):
        profile = build_profile(poly)
        assert component_signature(profile) == reference_signature(profile)
        assert width_one_by_rank(profile) == reference_width_one_pair(profile)


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
    return a.cols - len(invariant_factors(a))


class TestRankCriterion:
    def test_diagonal_matrix_shape(self, unit_square):
        profile = build_profile(unit_square)
        m = diagonal_rank_matrix(profile, 0, 2)
        assert m.rows == 3 and m.cols == 4
        assert not any(m.row_sums())
        assert len(invariant_factors(m)) == 2

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
                m = diagonal_rank_matrix(profile, i1, i2)
                assert len(invariant_factors(m)) == 3
        assert width_one_by_rank(profile) is None

    def test_width_one_pairs(self, unit_square, triangle_d2, diamond1):
        psq = build_profile(unit_square)
        pair = width_one_by_rank(psq)
        assert pair == (0, 2)  # the two opposite horizontal facets
        assert len(invariant_factors(diagonal_rank_matrix(psq, *pair))) == 2
        assert width_one_by_rank(build_profile(triangle_d2)) is None
        assert width_one_by_rank(build_profile(diamond1)) is not None

    def test_agrees_with_rank_on_corpus(self, corpus2):
        # the fast row-space test must match literal rank computation
        for poly in corpus2:
            profile = build_profile(poly)
            first = None
            for i1 in range(profile.l):
                for i2 in range(i1 + 1, profile.l):
                    m = diagonal_rank_matrix(profile, i1, i2)
                    if len(invariant_factors(m)) == 2:
                        first = (i1, i2)
                        break
                if first:
                    break
            assert width_one_by_rank(profile) == first


class TestKernelDimension:
    def test_examples(self, triangle_d2, unit_square):
        assert expected_kernel_dimension(a_delta(build_profile(triangle_d2))) == 4
        zero = IntMat(2, 5, (0,) * 10)
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
            assert len(invariant_factors(a_delta(profile))) == 2
            assert expected_kernel_dimension(a_delta(profile)) == profile.l - 2


class TestComponents:
    def test_d2(self, triangle_d2):
        comps = enumerate_components(triangle_d2)
        assert len(comps) == 1
        c = comps[0]
        assert c.d == 1
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
        assert comps[0].N.index_in_z2 == 2 and comps[1].N.index_in_z2 == 1

    def test_diamond2(self, diamond2):
        comps = enumerate_components(diamond2)
        assert [c.d for c in comps] == [1, 2]
        assert all(c.contributes for c in comps)
        assert [c.interior_count for c in comps] == [1, 5]

    def test_torsion_order_divides_index(self, corpus2):
        for poly in corpus2:
            profile = build_profile(poly)
            for c in enumerate_components(poly):
                # d is the torsion order, and [Z^2 : N] == idx / d
                assert profile.idx % c.d == 0
                assert c.N.index_in_z2 * c.d == profile.idx


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
    """The genus-one Severi dimension l + g - 1 is l."""

    def test_examples(self, triangle_d3, unit_square):
        assert analyze(triangle_d3).to_json_dict()["severi_dimension"] == 9
        assert analyze(unit_square).to_json_dict()["severi_dimension"] == 4

    def test_reads_facet_lengths_not_boundary_points(self, monkeypatch):
        def no_scan(polygon):
            raise AssertionError("boundary points were listed")

        monkeypatch.setattr(LatticePolygon, "boundary_points", no_scan)
        poly = LatticePolygon([(-10**4, -10**4), (10**4, -10**4), (0, 10**4)])
        l = sum(f.length for f in poly.facets())
        assert l == 4 * 10**4
        assert build_profile(poly).l == l


class TestAnalyze:
    def test_d2_report(self, triangle_d2):
        report = analyze(triangle_d2)
        assert report.component_count == 0
        assert (
            report.profile.classification
            is InteriorClassification.TWICE_PRIMITIVE_TRIANGLE
        )
        assert report.profile.l == 6
        assert [c.d for c in report.components] == [1]

    def test_diamond2_report(self, diamond2):
        report = analyze(diamond2)
        assert report.profile.idx == 2
        assert [c.d for c in report.components] == [1, 2]
        assert report.component_count == 2
        assert report.profile.width == 2

    def test_unit_square_report(self, unit_square):
        report = analyze(unit_square)
        assert report.component_count == 0
        assert report.profile.classification is InteriorClassification.WIDTH_ONE

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
            assert report.profile.classification is cls
            assert calls == {"reduce": 1}

    def test_one_pick_per_lattice(
        self, monkeypatch, triangle_d3, unit_square, diamond1, diamond2
    ):
        # M0's count serves its classification and the d == 1 descriptor;
        # Pick runs once for each of the tau(idx) lattices
        calls = Counter()
        lengths = LatticePolygon._lengths_in

        def counting_lengths(polygon, lattice):
            calls[lattice] += 1
            return lengths(polygon, lattice)

        monkeypatch.setattr(LatticePolygon, "_lengths_in", counting_lengths)
        needle = LatticePolygon([(0, 0), (10, 10**4), (11, 10**4), (1, 0)])
        for poly in (triangle_d3, unit_square, diamond1, diamond2, needle):
            calls.clear()
            report = analyze(LatticePolygon(poly.vertices))
            assert sum(calls.values()) == len(divisors(report.profile.idx))
            assert set(calls) == {c.M for c in report.components}

    def test_two_reductions_at_index_one(self, monkeypatch, triangle_d3, unit_square):
        # M0 from the edge vectors and the oracle's span of two boundary
        # points per facet; at index one M0 is Z2, its own quarter turn N0
        # and the only lattice between N0 and Z^2, so rotate90 and
        # intermediate_lattices reduce nothing
        calls = Counter()
        reduce = severi_lattice.lattices._canonical_basis

        def counting_reduce(gens):
            calls["reduce"] += 1
            return reduce(gens)

        for module in (severi_lattice.lattices, severi_lattice.severi, severi_lattice.oracles):
            if hasattr(module, "_canonical_basis"):
                monkeypatch.setattr(module, "_canonical_basis", counting_reduce)
        for poly in (triangle_d3, unit_square):
            calls.clear()
            assert analyze(LatticePolygon(poly.vertices)).profile.idx == 1
            assert calls == {"reduce": 2}

    def test_no_validating_constructor(
        self, monkeypatch, unit_square, triangle_d3, diamond2
    ):
        # facets, profile, descriptors and report are filled on object.__new__
        # instances; the library's own lattices go through _canonical
        calls = Counter()
        init = Record.__init__

        def counting_init(record, *fields, **named):
            calls[type(record).__name__] += 1
            init(record, *fields, **named)

        monkeypatch.setattr(Record, "__init__", counting_init)
        for poly in (unit_square, triangle_d3, diamond2):
            analyze(LatticePolygon(poly.vertices))
        assert calls == {}

    def test_one_hash_per_lattice_cache_read(
        self, monkeypatch, unit_square, triangle_d3, diamond2
    ):
        # each lattice-keyed cache read in polygons hashes its key once, and
        # a miss once more to store; M0's width is read (and reduced, for a
        # non-empty interior) by the report, not by analyze
        calls = Counter()
        hash_lattice = AffineLattice2.__hash__

        def counting_hash(lattice):
            calls["hash"] += 1
            return hash_lattice(lattice)

        monkeypatch.setattr(AffineLattice2, "__hash__", counting_hash)
        cases = ((unit_square, (5, 6)), (triangle_d3, (3, 5)), (diamond2, (5, 7)))
        for poly, hashes in cases:
            calls.clear()
            report = analyze(LatticePolygon(poly.vertices))
            read = calls["hash"]
            report.to_json_dict()
            assert (read, calls["hash"]) == hashes

    def test_no_change_of_basis_at_index_one(
        self, monkeypatch, unit_square, triangle_d3, diamond2
    ):
        # index one measures only in Z2, read in the identity frame; the
        # diamond's M0 has index 2 and is read in its own basis
        calls = Counter()
        in_basis = severi_lattice.polygons._in_basis

        def counting_in_basis(lattice, vector):
            calls["in_basis"] += 1
            return in_basis(lattice, vector)

        monkeypatch.setattr(severi_lattice.polygons, "_in_basis", counting_in_basis)
        for poly in (unit_square, triangle_d3):
            analyze(LatticePolygon(poly.vertices))
            assert calls["in_basis"] == 0
        assert analyze(LatticePolygon(diamond2.vertices)).profile.idx == 2
        assert calls["in_basis"] > 0

    def test_descriptors_follow_the_divisors(self):
        for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
            report = analyze(poly)
            assert [c.d for c in report.components] == divisors(report.profile.idx)
            for c in report.components:
                # d == [N : n0]
                assert all(c.N.contains(g) for g in zip(*report.profile.n0.basis))
                assert report.profile.n0.index_in_z2 == c.d * c.N.index_in_z2
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
