"""Validated convex lattice polygons and their lattice-point geometry.

A polygon is given by its boundary vertices in traversal order (either
orientation); validation, one pass over the neighbour triples,
normalizes to counterclockwise, collapses collinear intermediate points
into their edge, rejects degenerate or non-convex input, and keeps its
shoelace sum as the area.  All computations are exact integer arithmetic.

Interior counts (``interior_count_in``, Pick's theorem, O(vertices) once
per lattice) and the lattice width (Gauss reduction with seeded,
bracketed steps, a few width-norm evaluations of O(vertices) each on
small polygons and O(log width) per step at the coordinate bound) are
the production path, both read in a lattice's basis
(``lattices._in_basis``) and cached on the polygon.  The ``Z2`` object,
which every index-one lattice of the library is, is read in the identity
frame: no membership test, the facets' own lengths in Pick's boundary
term and the raw vertex differences in the width reduction.
The point scans ``interior_points`` and ``interior_points_in`` (O(area)) are
oracles for tests and the verify battery, kept as methods so their results
cache on the polygon; in ``Z2``, ``interior_points_in`` and ``verify_pick``
read the scans with no membership test.  The width oracle
``brute_force_width`` is in ``oracles``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from math import gcd

from ._record import Record
from .errors import DomainError, InvariantViolation
from .lattices import Z2, AffineLattice2, _in_basis

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
    __slots__ = ("index", "start", "vector", "length", "normal")

    @property
    def end(self) -> Point:
        return (self.start[0] + self.vector[0], self.start[1] + self.vector[1])

    def to_json_dict(self) -> dict:
        (x, y), (vx, vy), (nx, ny) = self.start, self.vector, self.normal
        return {
            "index": self.index, "start": [x, y], "end": [x + vx, y + vy],
            "vector": [vx, vy], "length": self.length, "normal": [nx, ny],
        }


class LatticePolygon:
    """Strictly convex lattice polygon, vertices counterclockwise."""

    __slots__ = ("_vertices", "_cache")

    def __init__(self, points: Sequence[Sequence[int]]):
        self._vertices, area2 = _validate(points)
        self._cache: dict = {"area2": area2}

    @classmethod
    def _trusted(cls, vertices: tuple[Point, ...]) -> "LatticePolygon":
        """A polygon whose ``vertices`` the library built itself: a tuple of
        integer pairs, counterclockwise, strictly convex and within
        ``COORD_BOUND``, which ``_validate`` would return unchanged; no check
        runs."""
        poly = object.__new__(cls)
        poly._vertices = vertices
        poly._cache = {}
        return poly

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

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
        facets = self._cache.get("facets")
        if facets is None:
            vs = self._vertices
            n = len(vs)
            out = []
            for j in range(n):
                a, b = vs[j], vs[(j + 1) % n]
                vx, vy = b[0] - a[0], b[1] - a[1]
                length = gcd(vx, vy)
                facet = object.__new__(Facet)  # trusted: the polygon's own pairs
                # CCW orientation puts the interior to the left of each edge
                facet._fill(j, a, (vx, vy), length, (-vy // length, vx // length))
                out.append(facet)
            facets = self._cache["facets"] = tuple(out)
        return facets

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

        Test and verification oracle only, a filter of the cached
        ``interior_points`` scan; ``interior_count_in`` gives the count in
        O(vertices).  ``Z2`` holds every integer point, so for it the cached
        scan itself is returned, with no membership test.
        """
        if lattice is Z2:
            return self.interior_points()
        has = lattice._has  # the scan's points are integer pairs
        return tuple(p for p in self.interior_points() if has(p))

    def interior_count_in(self, lattice: AffineLattice2) -> int:
        """Number of interior points in ``lattice``, by Pick's theorem in it.

        Every vertex must lie in ``lattice``; then 2A/[Z^2:M] = 2i + b - 2
        in the frame of M, where b sums each edge's lattice length measured
        in M.  O(vertices) time, independent of the area, once per lattice:
        the count is cached, so ``analyze`` counts M0 once.
        """
        key = ("count", lattice)
        count = self._cache.get(key)
        if count is None:
            self._require_vertices_in(lattice)
            border = sum(self._lengths_in(lattice))
            t2 = self.twice_area() // lattice.index_in_z2
            count = self._cache[key] = (t2 - border + 2) // 2
        return count

    # -- lattice-relative operations --------------------------------------

    def _require_vertices_in(self, lattice: AffineLattice2) -> None:
        if lattice is Z2:
            return
        for v in self._vertices:
            if not lattice._has(v):
                raise DomainError(f"vertex {v} is not in the lattice {lattice}")

    def _lengths_in(self, lattice: AffineLattice2) -> list[int]:
        """Facet lengths in ``lattice``: gcds of their coordinates in its basis,
        which for ``Z2`` is the identity frame."""
        if lattice is Z2:
            return [f.length for f in self.facets()]
        return [gcd(*_in_basis(lattice, f.vector)) for f in self.facets()]

    def verify_pick(self, lattice: AffineLattice2) -> bool:
        """Check Pick's identity in lattice-normalized coordinates.

        2*Area = 2*(interior points) + (boundary points) - 2, where area is
        measured in the volume form of ``lattice`` and points are counted in
        ``lattice``.  Holds for every valid polygon; exposed as a self-check.
        The points are counted from the scans, ``interior_points_in`` and
        ``boundary_points``; ``Z2`` holds all of them, so for it both lists
        are counted directly, with no membership test.
        """
        self._require_vertices_in(lattice)
        idx = lattice.index_in_z2
        t2, rem = divmod(self.twice_area(), idx)
        if rem:
            return False
        inside = len(self.interior_points_in(lattice))
        if lattice is Z2:
            border = len(self.boundary_points())
        else:
            has = lattice._has
            border = sum(1 for p in self.boundary_points() if has(p))
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
        width = self._cache.get(key)
        if width is None:
            x0, y0 = self._vertices[0]
            diffs = [(x - x0, y - y0) for x, y in self._vertices]
            width = self._cache[key] = _width_of_vertices(
                diffs if lattice is Z2 else [_in_basis(lattice, d) for d in diffs]
            )
        return width

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


def _validate(points: Sequence[Sequence[int]]) -> tuple[tuple[Point, ...], int]:
    """Checked counterclockwise corners of ``points``, and twice their area.

    The shoelace sum accumulates as the points are checked.  One pass over
    the neighbour triples then drops each point on the straight
    continuation of its edge (the closed path, its nonzero area and so
    three corners stay) and reads at each corner its turn and whether the
    edge directions wrap past the reference ray; a corner's neighbours in
    the input lie on its edges, so they give the signs its neighbouring
    corners would.  A backtrack is reported first, then a reflex corner,
    then a convex traversal whose directions wrap more than once.
    """
    if len(points) < 3:
        raise DomainError("a polygon needs at least 3 points")
    pts: list[Point] = []
    area2 = 0
    for p in points:
        if len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            raise DomainError(f"vertex {p!r} is not an integer pair")
        x, y = p
        if abs(x) > COORD_BOUND or abs(y) > COORD_BOUND:
            raise DomainError(f"coordinate bound |c| <= {COORD_BOUND} exceeded at {p!r}")
        if pts:
            area2 += pts[-1][0] * y - x * pts[-1][1]
        pts.append((x, y))
    if len(set(pts)) != len(pts):
        raise DomainError("repeated boundary point")
    area2 += pts[-1][0] * pts[0][1] - pts[0][0] * pts[-1][1]
    if area2 == 0:
        raise DomainError("zero area (points are collinear or traversal cancels)")
    if area2 < 0:
        # normalize to counterclockwise, keeping the first point first
        pts = [pts[0]] + pts[:0:-1]
        area2 = -area2

    corners: list[Point] = []
    reflex, wraps = False, 0
    px, py = pts[-1]
    x, y = pts[0]
    ax, ay = x - px, y - py
    for nx, ny in pts[1:] + pts[:1]:
        bx, by = nx - x, ny - y
        turn = ax * by - ay * bx
        if turn:
            corners.append((x, y))
            if turn < 0:
                reflex = True
            # the directions wrap iff they pass from the lower half-plane to
            # the upper one (the positive x-axis is upper); at a left turn
            # that is ay < 0 <= by: a left turn from the negative x-axis
            # ends below it, and one onto it starts above it
            elif ay < 0 <= by:
                wraps += 1
        elif ax * bx + ay * by <= 0:
            raise DomainError("self-intersecting traversal (edge backtracks)")
        x, y, ax, ay = nx, ny, bx, by
    if reflex:
        raise DomainError("polygon is not convex")
    if wraps != 1:
        raise DomainError("self-intersecting traversal (winds more than once)")
    return tuple(corners), area2


def _width_of_vertices(verts: Sequence[Point]) -> tuple[int, Point]:
    """Exact lattice width of a CCW convex vertex list over Z^2.

    Production path: generalized Gauss reduction (Kaib & Schnorr, J.
    Algorithms 1996) of the width norm f(n) = max n.v - min n.v on the dual
    lattice.  The vertices' projections on b1 and b2 are carried from step
    to step, so g(mu) = f(b2 - mu*b1) is one pass over them, memoized
    within the step (g(0) = f(b2) is known).  Each step replaces b2 by
    b2 - mu*b1, with mu the leftmost integer minimizer of the convex g, and
    swaps the two when b2 became the shorter.  On exit f(b1) and f(b2) are
    the successive minima.

    Seed and bracket.  Let vertices v_i, v_j attain f1 = f(b1) = b1.(v_i -
    v_j) and let t = b2.(v_i - v_j).  As n.v_i and n.v_j are two of the
    values whose spread is f(n), g(mu) >= |t - mu*f1|.  With the seed mu0 =
    floor(t/f1) and r = g(mu0), every mu with g(mu) <= r, so every
    minimizer, lies in [ceil((t - r)/f1), floor((t + r)/f1)], where a
    binary search on the slope, g(mu + 1) >= g(mu), finds the leftmost.
    On the needle (0,0), (10,10^4), (11,10^4), (1,0) the seed 909 lies 91
    steps from the minimizer 1000 in a bracket of 331.

    Tie-break.  If f1 < f2, only +-b1 attain the width.  Otherwise every
    minimizer is x*b1 + y*b2 with |x|, |y| <= 2: a longer one would span,
    with +-b1 or +-b2, a parallelogram of area above 4 inside the ball of
    radius f1, against Minkowski's theorem.  Up to sign that leaves b1, b2,
    b1 +- b2, 2*b1 +- b2 and b1 +- 2*b2.
    - b1 + b2 = b2 - (mu - 1)*b1 lies left of the leftmost minimizer mu on
      the last step's line, so f(b1 + b2) > f(b2) = f1.
    - A candidate with a coefficient 2 is the far end of a segment from
      +-b2 or b1 through its midpoint b1 + b2 or b1 - b2; by convexity it
      reaches f1 only if that midpoint does.  That leaves b1 - b2, 2*b1 -
      b2 and b1 - 2*b2, the first two on the last step's line: f(b1 - b2) =
      g(mu + 1) and f(2*b1 - b2) = g(mu + 2), mostly memoized already.
    - b1 - 2*b2 never wins, so it is not evaluated.  If it reaches f1, the
      points b1, b1 - b2, b1 - 2*b2 and b1, b2, 2*b2 - b1 put two edges on
      the boundary of the ball, which is then the parallelogram
      f(x*b1 + y*b2) = f1 * max(|x|, |x + y|).  Let a and s be the first
      coordinates of b1 and b2; (a, s) is primitive.  The successive b1
      are x_0 (an axis), x_1, ..., x_m = b1, with x_-1 the other axis and
      x_(k+1) = x_(k-1) - mu_k*x_k.  For k >= 1, x_k minimizes f on
      x_(k-2) + Z*x_(k-1), so x_(k-1) and x_(k-1) -+ x_k are no shorter
      than x_k and a swap needs |mu_k| >= 2; as the first coordinates of
      x_0, x_1 are 1, -mu_0 != 0 or 0, 1, their absolute values never
      decrease.  If m = 0, a is 0 or 1.  If m >= 1, c = x_(m-1) = b2 +
      mu*b1 has f(c) > f1 and f(c + b1) > f1 (b1 is a leftmost minimizer),
      so mu >= 1 or mu <= -3, and a*s > 0 with |a| > |s| would make c's
      first coordinate s + mu*a larger than a in absolute value.  Either
      way a*s <= 0 or |a| <= |s|, so |a - 2*s| > |a|, unless a = 0 (then
      b1 is (0, 1)), s = 0 (then b2 is) or a = s = +-1 (then b1 - b2 is).
    Over corpus max-coord 4 a call evaluates f 4.1 times on average (16.8
    for a search over [-2*f2/f1 - 1, 2*f2/f1 + 1] and a scan of all twelve
    candidates), each O(vertices); a step makes O(log width) of them, 18
    at most on the needles at the coordinate bound, and the number of steps
    is logarithmic in the starting lengths.
    """
    b1, b2 = (1, 0), (0, 1)
    e1 = _extent([x for x, _ in verts])
    e2 = _extent([y for _, y in verts])
    if e2[0] < e1[0]:
        b1, b2, e1, e2 = b2, b1, e2, e1

    def g(mu: int) -> int:
        # f(b2 - mu*b1) from this step's projections p1, p2, memoized in line
        if mu not in line:
            line[mu] = _extent([q - mu * p for p, q in zip(p1, p2)])
        return line[mu][0]

    while True:
        f1, top, bottom, p1 = e1
        p2 = e2[3]
        t = p2[p1.index(top)] - p2[p1.index(bottom)]  # b2.(v_i - v_j)
        line = {0: e2}
        r = g(t // f1)
        lo, hi = -((r - t) // f1), (t + r) // f1
        while lo < hi:
            mid = (lo + hi) // 2
            if g(mid + 1) >= g(mid):
                hi = mid
            else:
                lo = mid + 1
        mu = lo
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if line[mu][0] >= f1:
            break
        b1, b2, e1, e2 = b2, b1, line[mu], e1
    if line[mu][0] > f1:
        return (f1, _canon(b1))  # +-b1 are the only minimizers

    # b1 - b2 and 2*b1 - b2 lie on the last step's line at mu + 1, mu + 2
    best = min(_canon(b1), _canon(b2))
    if g(mu + 1) == f1:
        best = min(best, _canon((b1[0] - b2[0], b1[1] - b2[1])))
        if g(mu + 2) == f1:
            best = min(best, _canon((2 * b1[0] - b2[0], 2 * b1[1] - b2[1])))
    return (f1, best)


def _extent(vals: list[int]) -> tuple[int, int, int, list[int]]:
    """The width norm on one direction from its projections: (spread, top,
    bottom, projections)."""
    top, bottom = max(vals), min(vals)
    return (top - bottom, top, bottom, vals)


def _canon(direction: Point) -> Point:
    """A primitive direction with its first nonzero coordinate positive."""
    dx, dy = direction
    return direction if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)
