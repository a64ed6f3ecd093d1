"""Oracles: literal recomputations that check the closed forms.

Each function here recomputes a production result by a route that shares
no formula with it: the component count tests the two lattice conditions
on every intermediate lattice, and the lattice width scans a box of
directions.  ``analyze`` runs ``count_components_oracle`` as its
cross-check; the verify battery and the tests run all of them.  Nothing
here calls Pick's theorem, the area, the Gauss reduction or the
production profile, and ``tests/test_layering.py`` checks that.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .errors import DomainError
from .lattices import AffineLattice2, _span, intermediate_lattices
from .polygons import Facet, LatticePolygon

__all__ = ["count_components_oracle", "brute_force_width"]

Point = tuple[int, int]


def count_components_oracle(polygon: LatticePolygon) -> int:
    """Independent count: test the two lattice conditions literally.

    Enumerates the intermediate affine lattices through the boundary
    basepoint and keeps those containing every boundary lattice point
    (``_holds_boundary``, O(facets) per lattice) and at least one interior
    point, found by ``_meets_interior``'s row walk (no Pick, no area, no
    point list).  Its boundary lattice is the literal affine span of all
    boundary points, not the production profile.
    """
    m0 = _span(polygon.boundary_points())  # the polygon's own points
    facets = polygon.facets()
    count = 0
    for linear in intermediate_lattices(m0.linear_part()):
        m_lat = linear._through(m0.basepoint)
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


def brute_force_width(
    polygon: LatticePolygon, sup_norm: int = 25
) -> tuple[int, Point]:
    """Width by exhaustive scan over primitive directions with sup-norm bound.

    Test oracle for the Gauss reduction behind ``LatticePolygon``'s width.
    Returns the smallest width over the primitive (dx, dy) with 0 <= dx <=
    sup_norm, |dy| <= sup_norm and the first nonzero coordinate positive,
    ties going to the lexicographically smallest direction.

    The scan skips only directions that cannot be minimizers.  With
    sup_norm >= 1 the box holds (1, 0) and (0, 1), so every minimizer n
    has w(n) <= W, the smaller of the two axis widths.  For any two
    vertices u, v, n.u and n.v are two of the values whose spread is w(n),
    so w(n) >= |n.(u - v)|; hence a minimizer lies in the strip
    |n.g| <= W for every vertex difference g.  The scan uses two of them:
    e = top vertex - bottom vertex, so e_y = w(0, 1) >= W, and the f of
    largest |det(e, f)|, the difference of the two vertices extreme in
    det(e, .), found in one pass.  det(e, f) != 0, since otherwise every
    vertex would lie on one line parallel to e and the polygon would have
    no area.  For each dx the e-strip is an interval of dy of length
    2W / e_y <= 2 (at most three integers), and only the dy of it that the
    f-strip also holds are evaluated.  The two strips also bound dx:
    n.e = a and n.f = b give dx = (a*f_y - b*e_y) / det(e, f) by Cramer's
    rule, so dx <= W * (|f_y| + e_y) / |det(e, f)|.  Every skipped
    direction is wider than W, so it neither wins nor ties; and the axis
    direction of width W lies in both strips, so the scan is never empty.
    O(vertices * evaluated directions), plus O(1) per column dx, whose
    count reaches sup_norm only when the strips reach the edge of the
    box; no Gauss reduction.  DomainError unless sup_norm >= 1, which the
    argument needs.

    On the corpus the two strips, not the default box of 25, bound the
    scan: a box of 10**4 agrees on every polygon of corpus max-coord 3
    (``tests/test_closed_forms.py``) and did at max-coord 4 and 5, so the
    verify battery's width row compares against every primitive direction.
    """
    if sup_norm < 1:
        raise DomainError(f"sup_norm must be at least 1, got {sup_norm}")
    verts = polygon.vertices

    def spread(dx: int, dy: int) -> int:
        vals = [dx * x + dy * y for (x, y) in verts]
        return max(vals) - min(vals)

    top = max(verts, key=lambda v: v[1])
    bottom = min(verts, key=lambda v: v[1])
    ex, ey = top[0] - bottom[0], top[1] - bottom[1]
    xs = [x for x, _ in verts]
    bound = min(max(xs) - min(xs), ey)
    # det(e, v) - det(e, u) = det(e, v - u): f joins the vertices extreme in it
    dets = [ex * y - ey * x for (x, y) in verts]
    hi_v = verts[dets.index(max(dets))]
    lo_v = verts[dets.index(min(dets))]
    fx, fy = hi_v[0] - lo_v[0], hi_v[1] - lo_v[1]
    if fy < 0:  # the strip |n.f| <= W is the same for -f
        fx, fy = -fx, -fy
    det = ex * fy - ey * fx
    dx_max = min(sup_norm, bound * (fy + ey) // abs(det))
    best: tuple[int, Point] | None = None
    for dx in range(0, dx_max + 1):
        # -W <= dx*ex + dy*ey <= W with ey >= 1, and the same for f if fy > 0
        lo = max(-sup_norm, -((bound + dx * ex) // ey))
        hi = min(sup_norm, (bound - dx * ex) // ey)
        if fy:
            lo = max(lo, -((bound + dx * fx) // fy))
            hi = min(hi, (bound - dx * fx) // fy)
        for dy in range(lo, hi + 1):
            if dx == 0 and dy <= 0:
                continue
            if gcd(dx, abs(dy)) != 1:
                continue
            w = spread(dx, dy)
            d = (dx, dy)
            if best is None or w < best[0] or (w == best[0] and d < best[1]):
                best = (w, d)
    return best
