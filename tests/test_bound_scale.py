"""``analyze`` at the documented coordinate bound |c| <= 10^4.

Each polygon must finish within BUDGET_S seconds, and no work on its
path grows with the number l of boundary points: the profile is
O(facets), and the oracle spans each facet's start and the next lattice
point along it, 2 * facets points in place of all l, and lists none of
them (``test_analyze_lists_no_boundary_points``).  l is at most 8 * 10^4,
reached by the square [-R, R]^2: a facet of vector (vx, vy) holds at most
|vx| + |vy| of them, and the facets of a convex polygon sum to twice its
x- and y-extents, so l <= 2 * (x-extent + y-extent).  Interior counts
come from Pick's theorem and the width from Gauss reduction, so nothing
grows with the area (up to 4 * 10^8) either; the oracle's interior
search walks the lattice's rows or its columns, whichever are fewer.
Every polygon here but one takes at most about 0.2 ms on a quiet host.
The slowest, the 504-divisor triangle, takes about 20 ms (17-36 ms over
25 fresh processes on a 2-core x86-64 Xeon host, Python 3.11.7), nearly
all of it the oracle's interior search over its 504 lattices; the budget
leaves it room for a host about three times slower.  Validating an input
with 2 * 10^4 points on one edge is a single pass over the points, with
a budget of 0.5 s.

``snf``, ``hsnf`` and ``hsnf_left`` on the seeded 16 x 16, |entry| <= 1000
matrix at the corner of the normal-form input box each take about 0.01 s
on a quiet host; each gets a budget of 0.5 s.

The verify battery's checks on the 2 x l normal matrix ``a_delta`` run on
the 45-degree square ``(0,0),(5000,5000),(0,10000),(-5000,5000)``: l = 2 *
10^4 points on four facets of length 5000, idx 2.  ``minor_gcd(a, 2)``
(only four distinct columns), ``invariant_factors`` and
``width_one_by_rank`` (no length-one facet) each take about 0.01 s or
less on a quiet host, ``component_signature`` 0.05-0.1 s; each gets a
budget of 0.5 s.  A 2 x 2 minor scan over all point pairs took 20 s at
l = 4000, and a rank test over all pairs at a pivot point 5-8 s here.
"""

import time
from math import gcd

import pytest

import severi_lattice.lattices
import severi_lattice.oracles
from severi_lattice.certificates import a_delta, component_signature, width_one_by_rank
from severi_lattice.intmat import (
    IntMat,
    hsnf,
    hsnf_left,
    invariant_factors,
    minor_gcd,
    snf,
)
from severi_lattice.corpus import CorpusSpec, iter_corpus
from severi_lattice.oracles import count_components_oracle
from severi_lattice.polygons import COORD_BOUND, InteriorClassification, LatticePolygon
from severi_lattice.severi import analyze, build_profile

from helpers import corner_matrix_rows

BUDGET_S = 0.1
NORMAL_FORM_BUDGET_S = 0.5
NORMAL_MATRIX_BUDGET_S = 0.5
R = COORD_BOUND


# the polygons analyzed at the bound below, and the turned square
BOUND_POLYGONS = [
    [(R, 0), (0, R), (-R, 0), (0, -R)],
    [(-R, -R), (R, -R), (-R, R)],
    [(-R, -R), (R, -R), (R, R), (-R, R)],
    [(-R, 0), (R, 0), (R, 1), (-R, 1)],
    [(0, -R), (1, -R), (1, R)],
    [(0, 0), (5000, 5000), (0, 10000), (-5000, 5000)],
    [(9619, 6855), (-5695, 545), (-3738, -1400)],
]


def _timed_analyze(vertices):
    started = time.perf_counter()
    report = analyze(LatticePolygon(vertices))
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_S, f"analyze took {elapsed:.4f}s, budget {BUDGET_S}s"
    return report


def test_diamond():
    report = _timed_analyze([(R, 0), (0, R), (-R, 0), (0, -R)])
    assert report.profile.l == 4 * R
    assert report.profile.idx == 2
    # M0 is the coset x + y = R (mod 2): (R - 1)^2 interior points; Z^2
    # holds 2R^2 - 2R + 1 by Pick
    assert [(c.d, c.interior_count) for c in report.components] == [
        (1, 99_980_001),
        (2, 199_980_001),
    ]
    assert report.component_count == 2


def test_triangle():
    report = _timed_analyze([(-R, -R), (R, -R), (-R, R)])
    assert report.profile.l == 6 * R
    assert [(c.d, c.interior_count) for c in report.components] == [
        (1, 2 * R * R - 3 * R + 1)
    ]
    assert report.profile.width == 2 * R
    assert report.component_count == 1


def test_triangle_with_504_divisors():
    # four boundary points on three facets whose normals span a sublattice
    # of index 21,067,200 = 2^6 * 3^2 * 5^2 * 7 * 11 * 19: one lattice per
    # divisor, each searched for an interior point by the oracle
    report = _timed_analyze([(9619, 6855), (-5695, 545), (-3738, -1400)])
    assert (report.profile.l, report.profile.idx) == (4, 21_067_200)
    assert report.profile.classification is InteriorClassification.WIDTH_ONE
    assert len(report.components) == 504
    assert report.component_count == 503


def test_square_has_the_longest_boundary():
    report = _timed_analyze([(-R, -R), (R, -R), (R, R), (-R, R)])
    assert (report.profile.l, report.profile.idx) == (8 * R, 1)
    assert [(c.d, c.interior_count) for c in report.components] == [
        (1, (2 * R - 1) ** 2)
    ]
    assert (2 * R - 1) ** 2 == 399_960_001
    assert (report.profile.width, report.profile.direction) == (2 * R, (0, 1))
    assert report.component_count == 1


def test_oracle_span_of_the_square_stops_at_z2(monkeypatch):
    # the oracle spans each facet's start and the next point along it: from
    # (-R, -R), the first facet's step (1, 0), its end (2R, 0) and the second
    # facet's step (2R, 1) span Z^2, so 3 of the 7 differences are read
    read = []
    reduce = severi_lattice.lattices._canonical_basis

    def counting_reduce(gens):
        read.append(0)

        def counted():
            for g in gens:
                read[-1] += 1
                yield g

        return reduce(counted())

    monkeypatch.setattr(severi_lattice.lattices, "_canonical_basis", counting_reduce)
    square = LatticePolygon([(-R, -R), (R, -R), (R, R), (-R, R)])
    assert count_components_oracle(square) == 1
    assert read == [3]
    assert read[0] <= 2 * len(square.facets())


def test_interior_search_walks_the_shorter_way(monkeypatch):
    # the sliver's 19,999 rows each miss the interior; it is one column
    # wide, so the walk across x = 0..1 has no line strictly inside
    walks = []
    walk = severi_lattice.oracles._walk

    def recording(halfplanes, across, along):
        walks.append(across)
        return walk(halfplanes, across, along)

    monkeypatch.setattr(severi_lattice.oracles, "_walk", recording)
    assert count_components_oracle(LatticePolygon([(0, -R), (1, -R), (1, R)])) == 0
    assert walks == [(0, 1, 0, 1)]


def test_analyze_lists_no_boundary_points(monkeypatch):
    calls = []
    listed = LatticePolygon.boundary_points

    def counting(polygon):
        calls.append(polygon)
        return listed(polygon)

    monkeypatch.setattr(LatticePolygon, "boundary_points", counting)
    polygons = [LatticePolygon(v) for v in BOUND_POLYGONS]
    polygons += iter_corpus(CorpusSpec(max_coordinate=3))
    for poly in polygons:
        analyze(poly)
    assert calls == []


@pytest.mark.parametrize(
    "vertices",
    [
        [(-R, 0), (R, 0), (R, 1), (-R, 1)],  # width-one strip
        [(0, -R), (1, -R), (1, R)],  # sliver of height 2 * 10^4
    ],
    ids=["strip", "sliver"],
)
def test_width_one(vertices):
    report = _timed_analyze(vertices)
    assert report.profile.classification is InteriorClassification.WIDTH_ONE
    assert report.profile.width == 1
    assert [c.interior_count for c in report.components] == [0]
    assert report.component_count == 0


def test_collinear_input_collapses_in_one_pass():
    # 508 corners: the bottom corners (-R, -R) and (R, -R), and an upper
    # chain between them whose 253 rising edges are the primitive vectors
    # (a, b) with the smallest a + b, steepest first, then one horizontal
    # edge, then the rising edges mirrored; the 19,999 lattice points inside
    # the bottom edge follow the corners
    rising = sorted(
        ((a, s - a) for s in range(2, 30) for a in range(1, s) if gcd(a, s - a) == 1),
        key=lambda v: (v[0] + v[1], v[0]),
    )[:253]
    rising.sort(key=lambda v: v[0] / v[1])
    top = 2 * R - 2 * sum(a for a, _ in rising)
    edges = rising + [(top, 0)] + [(a, -b) for a, b in reversed(rising)]
    chain = [(-R, -R)]
    for dx, dy in edges:
        chain.append((chain[-1][0] + dx, chain[-1][1] + dy))
    assert chain[-1] == (R, -R) and len(chain) == 508
    corners = chain[::-1]  # counterclockwise from (R, -R)
    points = corners + [(x, -R) for x in range(-R + 1, R)]
    started = time.perf_counter()
    poly = LatticePolygon(points)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"validation took {elapsed:.2f}s, budget 0.5s"
    assert poly.vertices == tuple(corners)


@pytest.mark.parametrize("kernel", [snf, hsnf, hsnf_left], ids=lambda f: f.__name__)
def test_normal_forms_at_the_corner_of_the_box(kernel):
    x = IntMat.from_rows(corner_matrix_rows())
    started = time.perf_counter()
    kernel(x)
    elapsed = time.perf_counter() - started
    assert elapsed < NORMAL_FORM_BUDGET_S, (
        f"{kernel.__name__} took {elapsed:.3f}s, budget {NORMAL_FORM_BUDGET_S}s"
    )


@pytest.fixture(scope="module")
def turned_square():
    square = [(0, 0), (5000, 5000), (0, 10000), (-5000, 5000)]
    profile = build_profile(LatticePolygon(square))
    assert (profile.l, profile.idx) == (20_000, 2)
    return profile, a_delta(profile)


@pytest.mark.parametrize(
    "check, expected",
    [
        (lambda profile, a: minor_gcd(a, 2), 2),
        (lambda profile, a: invariant_factors(a), (1, 2)),
        # as the search over every pair at a pivot point found it
        (lambda profile, a: width_one_by_rank(profile), None),
        # constant on the facets of normals (-1,1), (-1,-1), (1,-1), (1,1)
        (
            lambda profile, a: component_signature(profile),
            (0,) * 5000 + (1,) * 5000 + (0,) * 5000 + (-1,) * 5000,
        ),
    ],
    ids=["minor_gcd", "invariant_factors", "width_one_by_rank", "component_signature"],
)
def test_normal_matrix_checks_on_the_turned_square(turned_square, check, expected):
    started = time.perf_counter()
    result = check(*turned_square)
    elapsed = time.perf_counter() - started
    assert result == expected
    assert elapsed < NORMAL_MATRIX_BUDGET_S, (
        f"took {elapsed:.3f}s, budget {NORMAL_MATRIX_BUDGET_S}s"
    )
