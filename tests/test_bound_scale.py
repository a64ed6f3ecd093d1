"""``analyze`` at the documented coordinate bound |c| <= 10^4.

Each polygon must finish within BUDGET_S seconds.  The only work left
that grows with the number l of boundary points (here up to 6 * 10^4) is
the oracle's span of all of them; the profile is O(facets), interior
counts come from Pick's theorem and the width from Gauss reduction, so
nothing grows with the area (up to 2 * 10^8).  The budget leaves room
for hosts that run two or more times slower than a quiet one, where each
polygon takes under 0.1 s.
"""

import time

import pytest

from severi_lattice.polygons import COORD_BOUND, InteriorClassification, LatticePolygon
from severi_lattice.severi import analyze

BUDGET_S = 10.0
R = COORD_BOUND


def _timed_analyze(vertices):
    started = time.perf_counter()
    report = analyze(LatticePolygon(vertices))
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_S, f"analyze took {elapsed:.1f}s, budget {BUDGET_S:.0f}s"
    return report


def test_diamond():
    report = _timed_analyze([(R, 0), (0, R), (-R, 0), (0, -R)])
    assert report.l == 4 * R
    assert report.idx == 2
    # M0 is the coset x + y = R (mod 2): (R - 1)^2 interior points; Z^2
    # holds 2R^2 - 2R + 1 by Pick
    assert [(c.d, c.interior_count) for c in report.components] == [
        (1, 99_980_001),
        (2, 199_980_001),
    ]
    assert report.component_count == 2


def test_triangle():
    report = _timed_analyze([(-R, -R), (R, -R), (-R, R)])
    assert report.l == 6 * R
    assert [(c.d, c.interior_count) for c in report.components] == [
        (1, 2 * R * R - 3 * R + 1)
    ]
    assert report.width_m0 == 2 * R
    assert report.component_count == 1


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
    assert report.classification_m0 is InteriorClassification.WIDTH_ONE
    assert report.width_m0 == 1
    assert [c.interior_count for c in report.components] == [0]
    assert report.component_count == 0
