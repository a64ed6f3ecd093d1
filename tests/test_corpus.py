import gc
import math
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from severi_lattice.corpus import (
    CLASS_COUNTS,
    MAX_EXHAUSTIVE_COORD,
    CorpusSpec,
    _angular_directions,
    _edge_classes,
    _fitting_directions,
    convex_hull,
    enumerate_corpus,
    iter_corpus,
    random_polygon,
)
from severi_lattice.errors import DomainError
from severi_lattice.lattices import Z2
from severi_lattice.polygons import LatticePolygon

from helpers import affine_normal_form


def canonical(verts):
    minx = min(x for x, _ in verts)
    miny = min(y for _, y in verts)
    return tuple(sorted((x - minx, y - miny) for x, y in verts))


def brute_force_classes(bound):
    """Translation classes of convex polygons via raw subset enumeration."""
    grid = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    classes = set()
    for size in range(3, len(grid) + 1):
        for subset in combinations(grid, size):
            hull = convex_hull(subset)
            if len(hull) != size or set(hull) != set(subset):
                continue  # some point is not a strict hull vertex
            classes.add(canonical(hull))
    return classes


class TestSpec:
    def test_bounds(self):
        with pytest.raises(DomainError):
            CorpusSpec(max_coordinate=0)
        with pytest.raises(DomainError):
            CorpusSpec(max_coordinate=7)
        with pytest.raises(DomainError):
            CorpusSpec(max_coordinate=2, limit=-1)

    @pytest.mark.parametrize(
        "max_coordinate, limit", [(2.5, None), (True, None), (2.0, None), (2, 2.5), (2, True)]
    )
    def test_non_integer_fields_rejected(self, max_coordinate, limit):
        with pytest.raises(DomainError):
            CorpusSpec(max_coordinate=max_coordinate, limit=limit)


class TestEnumeration:
    def test_unit_box(self):
        polys = enumerate_corpus(CorpusSpec(max_coordinate=1))
        got = {canonical(p.vertices) for p in polys}
        expected = {
            canonical([(0, 0), (1, 0), (0, 1)]),
            canonical([(0, 0), (1, 0), (1, 1)]),
            canonical([(0, 0), (1, 1), (0, 1)]),
            canonical([(1, 0), (1, 1), (0, 1)]),
            canonical([(0, 0), (1, 0), (1, 1), (0, 1)]),
        }
        assert got == expected
        assert len(polys) == 5

    def test_matches_subset_brute_force(self):
        # bound 3 walks the 2^16 = 65,536 subsets of the 4 x 4 grid
        for bound in (1, 2, 3):
            polys = enumerate_corpus(CorpusSpec(max_coordinate=bound))
            got = {canonical(p.vertices) for p in polys}
            assert len(got) == len(polys)  # no duplicates
            assert got == brute_force_classes(bound)

    @pytest.mark.parametrize(
        "bound, classes", [(1, 5), (2, 119), (3, 1633), (4, 17978), (5, 177967)]
    )
    def test_class_counts(self, bound, classes):
        assert sum(1 for _ in _edge_classes(bound)) == classes

    @pytest.mark.parametrize("bound", range(1, 6))
    def test_class_count_table_is_the_corpus_length(self, bound):
        # max-coord 6 takes seconds; CI counts its 1,588,952 lines
        assert sorted(CLASS_COUNTS) == list(range(1, MAX_EXHAUSTIVE_COORD + 1))
        spec = CorpusSpec(max_coordinate=bound)
        assert spec.size == CLASS_COUNTS[bound] == sum(1 for _ in iter_corpus(spec))
        for limit in (0, 3, CLASS_COUNTS[bound], CLASS_COUNTS[bound] + 1):
            limited = CorpusSpec(max_coordinate=bound, limit=limit)
            assert limited.size == min(limit, CLASS_COUNTS[bound])

    def test_classes_in_sorted_vertex_order(self):
        # the bytes keys must sort as the vertex tuples do, a shorter
        # tuple before a longer one it is a prefix of
        for bound in (3, 4):
            classes = list(_edge_classes(bound))
            assert classes == sorted(set(classes))

    def test_limit(self):
        polys = enumerate_corpus(CorpusSpec(max_coordinate=2, limit=10))
        assert len(polys) == 10

    def test_deterministic_order(self):
        a = enumerate_corpus(CorpusSpec(max_coordinate=2))
        b = enumerate_corpus(CorpusSpec(max_coordinate=2))
        assert [p.vertices for p in a] == [p.vertices for p in b]

    def test_every_polygon_fits_box(self):
        for poly in enumerate_corpus(CorpusSpec(max_coordinate=2)):
            for x, y in poly.vertices:
                assert 0 <= x <= 2 and 0 <= y <= 2

    def test_directions_counterclockwise_from_the_x_axis(self):
        for bound in (1, 3, 6):
            dirs = _angular_directions(bound)
            angle = [math.atan2(dy, dx) % (2 * math.pi) for dx, dy in dirs]
            assert angle == sorted(set(angle)), bound

    def test_edge_classes_leave_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            assert sum(1 for _ in _edge_classes(3)) == 1633
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("bound", range(1, MAX_EXHAUSTIVE_COORD + 1))
    def test_fitting_directions_are_those_whose_unit_step_stays_in_the_box(self, bound):
        dirs = _angular_directions(bound)
        extents = range(bound + 1)
        for px in extents:
            for nx in extents:
                for py in extents:
                    for ny in extents:
                        expected = [
                            (dx, dy)
                            for dx, dy in dirs
                            if max(px + dx, nx - dx, py + dy, ny - dy) <= bound
                        ]
                        expected.sort(key=lambda d: math.atan2(d[1], d[0]) % (2 * math.pi))
                        got = _fitting_directions(dirs, bound, px, nx, py, ny)
                        assert [dirs[j] for j in got] == expected, (px, nx, py, ny)

    def test_vertex_bytes_hold_the_exhaustive_bound(self):
        # the walk holds vertex (x, y), -bound <= x <= bound, 0 <= y <=
        # bound, as the byte (x + bound + 1) * 16 + y + 1
        bound = MAX_EXHAUSTIVE_COORD
        assert (2 * bound + 1) * 16 + bound + 1 <= 255

    def test_edge_classes_memory_peak(self):
        # the keys and the direction index at max-coord 5 peak at 9.32 MiB
        # (Python 3.11); a larger key or index fails here
        tracemalloc.start()
        try:
            assert sum(1 for _ in _edge_classes(5)) == 177967
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, f"{peak / 2**20:.2f} MiB"


class TestReflexivePolygons:
    def test_one_interior_point_gives_the_sixteen_reflexive_polygons(self):
        # a lattice polygon with one interior point is, up to GL_2(Z) and
        # translation, one of the 16 reflexive polygons, and each of them
        # has a copy in the box of max-coord 4; the walk, Pick's count and
        # the normal form must all hold for the corpus to give all 16
        forms = {}
        for poly in iter_corpus(CorpusSpec(max_coordinate=4)):
            if poly.interior_count_in(Z2) == 1:
                forms[affine_normal_form(poly.vertices)] = len(poly.vertices)
        assert len(forms) == 16
        by_vertices = [sum(1 for n in forms.values() if n == k) for k in (3, 4, 5, 6)]
        assert by_vertices == [5, 7, 3, 1]


class TestTrustedPolygons:
    """Corpus polygons skip validation; validating them changes nothing."""

    @pytest.mark.parametrize(
        "spec", [CorpusSpec(max_coordinate=4)], ids=["max-coord-4"]
    )
    def test_validation_returns_them_unchanged(self, spec):
        count = 0
        for poly in iter_corpus(spec):
            assert LatticePolygon(poly.vertices) == poly
            count += 1
        assert count == 17978


class TestConvexHull:
    def test_examples(self):
        assert convex_hull([(0, 0), (2, 0), (1, 1), (0, 2), (1, 0)]) == [
            (0, 0),
            (2, 0),
            (0, 2),
        ]
        assert len(convex_hull([(0, 0), (1, 1), (2, 2)])) < 3

    def test_hull_is_convex_polygon(self):
        rng = random.Random(2)
        for _ in range(50):
            pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(12)]
            hull = convex_hull(pts)
            if len(hull) >= 3:
                poly = LatticePolygon(hull)
                assert poly.vertices == tuple(hull)


class TestRandomPolygon:
    def test_deterministic(self):
        a = random_polygon(random.Random(42), 8)
        b = random_polygon(random.Random(42), 8)
        assert a == b

    def test_coordinates_in_range(self):
        rng = random.Random(9)
        for _ in range(50):
            poly = random_polygon(rng, 8)
            for x, y in poly.vertices:
                assert -8 <= x <= 8 and -8 <= y <= 8

    @pytest.mark.parametrize("max_abs, max_points", [(0, 10), (-1, 10), (8, 2), (8, 0)])
    def test_draws_that_cannot_succeed_are_rejected(self, max_abs, max_points):
        # in a subprocess under a timeout: a draw that can never close a
        # hull of three vertices would loop forever, not fail
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = (
            "import random; from severi_lattice.corpus import random_polygon\n"
            "from severi_lattice.errors import DomainError\n"
            f"try:\n    random_polygon(random.Random(1), {max_abs}, {max_points})\n"
            "except DomainError:\n    print('DomainError')\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{probe}"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert run.stdout.strip() == "DomainError", run.stderr
