"""Validated convex lattice polygons and their lattice-point geometry.

A polygon is given by its boundary vertices in traversal order (either
orientation); validation normalizes to counterclockwise, collapses
collinear intermediate points into their edge, and rejects degenerate or
non-convex input.  All computations are exact integer arithmetic.

Interior counts (``interior_count_in``, Pick's theorem, O(vertices)) and
the lattice width (Gauss reduction, O(vertices * log width) per step) are
the production path, both read in a lattice's basis (``lattices._in_basis``).
The point scans ``interior_points`` and ``interior_points_in`` (O(area)) are
oracles for tests and the verify battery, kept as methods so their results
cache on the polygon; the width oracle ``brute_force_width`` is in ``oracles``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from math import gcd

from ._record import Record
from .errors import DomainError, InvariantViolation
from .lattices import AffineLattice2, _in_basis

__all__ = [
    "COORD_BOUND",
    "Facet",
    "InteriorClassification",
    "LatticePolygon",
]

COORD_BOUND = 10**4  # documented CLI bound on |coordinate|

Point = tuple[int, int]


class InteriorClassification(enum.Enum):
    """Shape of a polygon's set of interior lattice points (w.r.t. a lattice)."""

    NON_EMPTY_INTERIOR = "NON_EMPTY_INTERIOR"
    WIDTH_ONE = "WIDTH_ONE"
    TWICE_PRIMITIVE_TRIANGLE = "TWICE_PRIMITIVE_TRIANGLE"


class Facet(Record):
    """One side of the polygon with its integral length and inner normal."""

    # length: integral length (gcd of |vector|); normal: primitive inner normal
    __slots__ = ("index", "start", "end", "vector", "length", "normal")

    def __init__(
        self, index: int, start: Point, end: Point, vector: Point, length: int,
        normal: Point,
    ) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "normal", normal)

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "start": list(self.start),
            "end": list(self.end),
            "vector": list(self.vector),
            "length": self.length,
            "normal": list(self.normal),
        }


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _half(v: Point) -> int:
    """0 for the upper half-plane (incl. positive x-axis), 1 otherwise."""
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_less(u: Point, v: Point) -> bool:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return hu < hv
    return u[0] * v[1] - u[1] * v[0] > 0


class LatticePolygon:
    """Strictly convex lattice polygon, vertices counterclockwise."""

    __slots__ = ("_vertices", "_collapsed", "_cache")

    def __init__(self, points: Sequence[Sequence[int]]):
        verts, collapsed = _validate(points)
        self._vertices = verts
        self._collapsed = collapsed
        self._cache: dict = {}

    @classmethod
    def _trusted(cls, vertices: tuple[Point, ...]) -> "LatticePolygon":
        """A polygon whose ``vertices`` the library built itself: a tuple of
        integer pairs, counterclockwise, strictly convex and within
        ``COORD_BOUND``, which ``_validate`` would return unchanged; no check
        runs."""
        poly = object.__new__(cls)
        poly._vertices = vertices
        poly._collapsed = ()
        poly._cache = {}
        return poly

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    @property
    def collapsed_points(self) -> tuple[Point, ...]:
        """Input points that sat on the interior of an edge and were merged."""
        return self._collapsed

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticePolygon) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"LatticePolygon({list(self._vertices)!r})"

    # -- basic quantities ------------------------------------------------

    def twice_area(self) -> int:
        """Twice the Euclidean area (shoelace sum), always a positive integer."""
        if "area2" not in self._cache:
            vs = self._vertices
            n = len(vs)
            s = 0
            for i in range(n):
                x0, y0 = vs[i]
                x1, y1 = vs[(i + 1) % n]
                s += x0 * y1 - x1 * y0
            self._cache["area2"] = s
        return self._cache["area2"]

    def facets(self) -> tuple[Facet, ...]:
        """Facets in boundary order with integral lengths and inner normals."""
        if "facets" not in self._cache:
            vs = self._vertices
            n = len(vs)
            out = []
            for j in range(n):
                a, b = vs[j], vs[(j + 1) % n]
                vx, vy = b[0] - a[0], b[1] - a[1]
                length = gcd(abs(vx), abs(vy))
                # CCW orientation puts the interior to the left of each edge
                normal = (-vy // length, vx // length)
                out.append(
                    Facet(
                        index=j,
                        start=a,
                        end=b,
                        vector=(vx, vy),
                        length=length,
                        normal=normal,
                    )
                )
            self._cache["facets"] = tuple(out)
        return self._cache["facets"]

    def boundary_points(self) -> tuple[Point, ...]:
        """All lattice points on the boundary, counterclockwise from the
        first vertex, grouped by facet."""
        if "boundary" not in self._cache:
            pts: list[Point] = []
            for f in self.facets():
                sx, sy = f.start
                px, py = f.vector[0] // f.length, f.vector[1] // f.length
                for t in range(f.length):
                    pts.append((sx + t * px, sy + t * py))
            self._cache["boundary"] = tuple(pts)
        return self._cache["boundary"]

    def interior_points(self) -> tuple[Point, ...]:
        """All lattice points strictly inside, by exact bounding-box scan.

        Test and verification oracle only: it costs O(area * facets) time
        and stores every point, so no production path calls it (counts come
        from ``interior_count_in``).
        """
        if "interior" not in self._cache:
            vs = self._vertices
            xmin = min(v[0] for v in vs)
            xmax = max(v[0] for v in vs)
            ymin = min(v[1] for v in vs)
            ymax = max(v[1] for v in vs)
            facets = self.facets()
            out = []
            for y in range(ymin + 1, ymax):
                for x in range(xmin + 1, xmax):
                    for f in facets:
                        if (
                            f.normal[0] * (x - f.start[0])
                            + f.normal[1] * (y - f.start[1])
                            <= 0
                        ):
                            break
                    else:
                        out.append((x, y))
            self._cache["interior"] = tuple(out)
        return self._cache["interior"]

    def interior_points_in(self, lattice: AffineLattice2) -> tuple[Point, ...]:
        """Interior lattice points that lie in the given affine lattice.

        Test and verification oracle only, built on the ``interior_points``
        scan; ``interior_count_in`` gives the count in O(vertices).
        """
        return tuple(p for p in self.interior_points() if lattice.contains(p))

    def interior_count_in(self, lattice: AffineLattice2) -> int:
        """Number of interior points in ``lattice``, by Pick's theorem in it.

        Every vertex must lie in ``lattice``; then 2A/[Z^2:M] = 2i + b - 2
        in the frame of M, where b sums each edge's lattice length measured
        in M.  O(vertices) time, independent of the area.
        """
        self._require_vertices_in(lattice)
        border = sum(self._lengths_in(lattice))
        return (self.twice_area() // lattice.index_in_z2 - border + 2) // 2

    # -- lattice-relative operations --------------------------------------

    def _require_vertices_in(self, lattice: AffineLattice2) -> None:
        for v in self._vertices:
            if not lattice._has(v):
                raise DomainError(f"vertex {v} is not in the lattice {lattice}")

    def _lengths_in(self, lattice: AffineLattice2) -> list[int]:
        """Facet lengths in ``lattice``: gcds of their coordinates in its basis."""
        return [gcd(*_in_basis(lattice, f.vector)) for f in self.facets()]

    def verify_pick(self, lattice: AffineLattice2) -> bool:
        """Check Pick's identity in lattice-normalized coordinates.

        2*Area = 2*(interior points) + (boundary points) - 2, where area is
        measured in the volume form of ``lattice`` and points are counted in
        ``lattice``.  Holds for every valid polygon; exposed as a self-check.
        """
        self._require_vertices_in(lattice)
        idx = lattice.index_in_z2
        t2, rem = divmod(self.twice_area(), idx)
        if rem:
            return False
        inside = len(self.interior_points_in(lattice))
        border = sum(1 for p in self.boundary_points() if lattice.contains(p))
        return t2 == 2 * inside + border - 2

    def lattice_width(self, lattice: AffineLattice2) -> tuple[int, Point]:
        """Lattice width w.r.t. a linear lattice, with a minimizing direction.

        Returns ``(width, direction)``; the direction is a primitive dual
        vector in the basis frame of ``lattice``, sign-normalized to
        have its first nonzero coordinate positive, ties broken by picking
        the lexicographically smallest minimizer; DomainError unless
        ``lattice`` holds the vertex differences.  Cached per lattice, so
        ``analyze`` reduces M0's width once.
        """
        if not lattice.is_linear:
            raise DomainError("lattice_width expects a linear lattice")
        key = ("width", lattice)
        if key not in self._cache:
            x0, y0 = self._vertices[0]
            self._cache[key] = _width_of_vertices(
                [_in_basis(lattice, (x - x0, y - y0)) for x, y in self._vertices]
            )
        return self._cache[key]

    def classify_interior_empty(
        self, lattice: AffineLattice2
    ) -> InteriorClassification:
        """Classify the interior w.r.t. ``lattice``.

        NON_EMPTY_INTERIOR when an interior lattice point exists; otherwise
        WIDTH_ONE or TWICE_PRIMITIVE_TRIANGLE.  In the last case the
        defining criterion (triangle, all sides of lattice length two,
        boundary points affinely generating the lattice) is asserted and an
        InvariantViolation is raised if it fails, since an empty interior
        admits no third possibility.

        Production path, O(facets) besides the width reduction: emptiness
        comes from ``interior_count_in`` (Pick), and the last case compares
        the side lengths in ``lattice`` and the span of the half sides, which
        the boundary points in ``lattice`` (vertices and midpoints) generate.
        """
        if self.interior_count_in(lattice):
            return InteriorClassification.NON_EMPTY_INTERIOR
        if self.lattice_width(lattice.linear_part())[0] == 1:
            return InteriorClassification.WIDTH_ONE
        # [2, 2, 2] holds only for a triangle with sides of length two in lattice
        halves = [(f.vector[0] // 2, f.vector[1] // 2) for f in self.facets()]
        if self._lengths_in(lattice) != [2, 2, 2] or (
            AffineLattice2.from_generators(self._vertices[0], halves) != lattice
        ):
            raise InvariantViolation(
                "empty interior but neither width one nor twice a primitive "
                f"triangle: vertices {self._vertices}"
            )
        return InteriorClassification.TWICE_PRIMITIVE_TRIANGLE


def _validate(points: Sequence[Sequence[int]]) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    if len(points) < 3:
        raise DomainError("a polygon needs at least 3 points")
    pts: list[Point] = []
    for p in points:
        if len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            raise DomainError(f"vertex {p!r} is not an integer pair")
        if abs(p[0]) > COORD_BOUND or abs(p[1]) > COORD_BOUND:
            raise DomainError(f"coordinate bound |c| <= {COORD_BOUND} exceeded at {p!r}")
        pts.append((p[0], p[1]))
    if len(set(pts)) != len(pts):
        raise DomainError("repeated boundary point")

    n = len(pts)
    area2 = sum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
        for i in range(n)
    )
    if area2 == 0:
        raise DomainError("zero area (points are collinear or traversal cancels)")
    if area2 < 0:
        # normalize to counterclockwise, keeping the first point first
        pts = [pts[0]] + pts[:0:-1]

    # collapse points lying on the straight continuation of their edge
    collapsed: list[Point] = []
    changed = True
    while changed:
        changed = False
        m = len(pts)
        if m < 3:
            raise DomainError("fewer than 3 effective vertices after collapse")
        for i in range(m):
            prev, cur, nxt = pts[i - 1], pts[i], pts[(i + 1) % m]
            if _cross(prev, cur, nxt) == 0:
                ax, ay = cur[0] - prev[0], cur[1] - prev[1]
                bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
                if ax * bx + ay * by <= 0:
                    raise DomainError("self-intersecting traversal (edge backtracks)")
                collapsed.append(cur)
                del pts[i]
                changed = True
                break
    if len(pts) < 3:
        raise DomainError("fewer than 3 effective vertices after collapse")

    m = len(pts)
    for i in range(m):
        if _cross(pts[i - 1], pts[i], pts[(i + 1) % m]) < 0:
            raise DomainError("polygon is not convex")
    # a convex traversal winds exactly once: edge directions, sorted by
    # angle, must wrap past the reference ray a single time
    edges = [
        (pts[(i + 1) % m][0] - pts[i][0], pts[(i + 1) % m][1] - pts[i][1])
        for i in range(m)
    ]
    descents = sum(1 for i in range(m) if not _angle_less(edges[i], edges[(i + 1) % m]))
    if descents != 1:
        raise DomainError("self-intersecting traversal (winds more than once)")
    return tuple(pts), tuple(collapsed)


def _width_of_vertices(verts: Sequence[Point]) -> tuple[int, Point]:
    """Exact lattice width of a CCW convex vertex list over Z^2.

    Production path: generalized Gauss reduction (Kaib & Schnorr, J.
    Algorithms 1996) of the width norm f(n) = max n.v - min n.v on the dual
    lattice.  Each step replaces b2 by b2 - mu*b1, with the integer mu that
    minimizes the convex function mu -> f(b2 - mu*b1) found by binary search
    on its slope, and swaps the two when b2 became the shorter.  On exit
    f(b1) and f(b2) are the successive minima.  If f(b1) < f(b2), only +-b1
    attain the width.  Otherwise every minimizer is x*b1 + y*b2 with
    |x|, |y| <= 2: a longer one would span, with +-b1 or +-b2, a
    parallelogram of area above 4 inside the ball of radius f(b1), against
    Minkowski's theorem.  The lexicographic tie-break therefore runs over
    those coefficients (when three minimal directions lie on one edge of
    the ball, b2 + 2*b1 or b2 - 2*b1 can be one of them).  Each evaluation
    of f costs O(vertices); a step makes O(log width) of them, and the
    number of steps is logarithmic in the starting lengths.
    """

    def spread(direction: Point) -> int:
        vals = [direction[0] * x + direction[1] * y for (x, y) in verts]
        return max(vals) - min(vals)

    def canon(direction: Point) -> Point:
        dx, dy = direction
        g = gcd(abs(dx), abs(dy))
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        return (dx, dy)

    def combine(x: int, y: int) -> Point:
        return (x * b1[0] + y * b2[0], x * b1[1] + y * b2[1])

    b1, b2 = (1, 0), (0, 1)
    f1, f2 = spread(b1), spread(b2)
    if f2 < f1:
        b1, b2, f1, f2 = b2, b1, f2, f1
    while True:
        # the minimizer mu satisfies |mu| * f1 - f2 <= f(b2 - mu*b1) <= f2;
        # take the smallest mu from which the function stops decreasing
        lo = -(2 * f2 // f1) - 1
        hi = -lo
        while lo < hi:
            mid = (lo + hi) // 2
            if spread(combine(-mid - 1, 1)) >= spread(combine(-mid, 1)):
                hi = mid
            else:
                lo = mid + 1
        b2 = combine(-lo, 1)
        f2 = spread(b2)
        if f2 >= f1:
            break
        b1, b2, f1, f2 = b2, b1, f2, f1
    if f1 < f2:
        return (f1, canon(b1))  # +-b1 are the only minimizers

    best: tuple[int, Point] | None = None
    for x in range(0, 3):
        for y in range(-2, 3):
            if x == 0 and y <= 0:
                continue
            d = canon(combine(x, y))
            w = spread(d)
            if best is None or w < best[0] or (w == best[0] and d < best[1]):
                best = (w, d)
    assert best is not None
    return best
