"""Oracles: literal recomputations that check the closed forms.

Each function here recomputes a production result by a route that shares
no formula with it: the component count tests the two lattice conditions
on every intermediate lattice, and the lattice width scans a box of
directions.  ``analyze`` runs ``count_components_oracle`` as its
cross-check; its boundary lattice is spanned by two points per facet, so
none of its work grows with the boundary length.  The verify battery and
the tests run all of them, and verify also spans all l boundary points.
Nothing here calls Pick's theorem, the area, the Gauss reduction or the
production profile, and ``tests/test_layering.py`` checks that.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .errors import DomainError
from .lattices import Z2, AffineLattice2, _span, intermediate_lattices
from .polygons import Facet, LatticePolygon

__all__ = ["count_components_oracle", "brute_force_width"]

Point = tuple[int, int]


def count_components_oracle(polygon: LatticePolygon) -> int:
    """Independent count: test the two lattice conditions literally.

    Enumerates the intermediate affine lattices through the boundary
    basepoint and keeps those containing every boundary lattice point
    (``_holds_boundary``, O(facets) per lattice) and at least one interior
    point, found by ``_meets_interior``'s walk over rows or columns (no
    Pick, no area, no point list).  Its boundary lattice is the affine
    span of each facet's start and the next lattice point along it, not
    the production profile: every boundary point is a facet start plus a
    multiple of that step, so these 2 * facets points span what all l
    boundary points span, and no work grows with l.
    """
    facets = polygon.facets()
    witnesses = []
    for f in facets:
        (x, y), (vx, vy), k = f.start, f.vector, f.length
        witnesses += (f.start, (x + vx // k, y + vy // k))
    m0 = _span(witnesses)  # the polygon's own points
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
    tests per facet, read against the basis once, decide what a test of
    all l boundary points decides; ``Z2`` holds every integer point.
    """
    if lattice is Z2:
        return True
    (d1, e), (_, d2) = lattice.basis
    bx, by = lattice.basepoint
    for f in facets:
        (x, y), (vx, vy), k = f.start, f.vector, f.length
        for px, py in ((x, y), (x + vx // k, y + vy // k)):
            dy = py - by
            if dy % d2 or (px - bx - dy // d2 * e) % d1:
                return False
    return True


def _meets_interior(polygon: LatticePolygon, lattice: AffineLattice2) -> bool:
    """Whether some point of ``lattice`` lies strictly inside ``polygon``.

    Walks the coset's lines across the polygon the shorter way: its rows
    y = by (mod d2), on which it is x = bx + (y - by) / d2 * e (mod d1), or
    its columns x = bx (mod g) with g = gcd(d1, e), on which it is y = by +
    d2 * b (mod d2 * d1 / g) for the b with b * e = x - bx (mod d1).  On
    each line strictly between the extreme vertices the facet half-planes
    n.p > n.start cut out an integer interval, and one modular step decides
    whether the line's coset meets it.  O(min(height / d2, width / g) *
    facets) time and O(facets) memory; it uses neither Pick's theorem nor
    the area.
    """
    (d1, e), (_, d2) = lattice.basis
    bx, by = lattice.basepoint
    halfplanes = [
        (f.normal[0], f.normal[1], f.normal[0] * f.start[0] + f.normal[1] * f.start[1])
        for f in polygon.facets()
    ]
    xs = [v[0] for v in polygon.vertices]
    ys = [v[1] for v in polygon.vertices]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    g = gcd(d1, e)
    if (xmax - xmin) * d2 < (ymax - ymin) * g:
        # the next column's b is the last one's plus the inverse of e/g
        step = d2 * pow(e // g, -1, d1 // g)
        swapped = [(b, a, h) for a, b, h in halfplanes]
        return _walk(swapped, (xmin, xmax, bx, g), (ymin, ymax, by, step, d2 * d1 // g))
    return _walk(halfplanes, (ymin, ymax, by, d2), (xmin, xmax, bx, e, d1))


def _walk(halfplanes, across, along) -> bool:
    """Whether a half-plane intersection a * v + b * u > h holds a point of
    the lines u = u0 (mod du) strictly between u_lo and u_hi, the line u
    holding v = v0 + (u - u0) / du * dv (mod period), in v_lo..v_hi."""
    u_lo, u_hi, u0, du = across
    v_lo, v_hi, v0, dv, period = along
    u = u_lo + 1
    u += (u0 - u) % du
    r = v0 + (u - u0) // du * dv
    while u < u_hi:
        lo, hi = v_lo, v_hi
        for a, b, h in halfplanes:
            c = h - b * u  # on this line the half-plane reads a * v > c
            if a > 0:
                lo = max(lo, c // a + 1)
            elif a < 0:
                hi = min(hi, -(c // -a) - 1)
            elif c >= 0:
                break
        else:
            if lo + (r - lo) % period <= hi:
                return True
        u += du
        r += dv
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
