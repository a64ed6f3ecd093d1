"""Polygon corpora: exhaustive box enumeration and seeded random sampling.

The exhaustive enumerator walks convex polygons as closed edge paths: a
convex lattice polygon is, up to translation, exactly a choice of pairwise
non-parallel edge vectors summing to zero, each a positive multiple of a
primitive direction, traversed in angular order.  A depth-first walk picks
each next edge directly (a later direction, then its multiple) and is cut
where it cannot close inside the box.  A step of the walk examines only
the directions whose unit step keeps its extents inside the box, from an
index of them kept per extent state.  Every translation class inside the
box is produced exactly once, held as one ``bytes`` key (one byte per
vertex, so bytes order is vertex order), and the keys are sorted once and
decoded one polygon at a time, each by one table lookup per byte, as the
corpus is streamed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from functools import cmp_to_key
from itertools import islice
from math import gcd

from ._record import Record
from .errors import DomainError
from .polygons import LatticePolygon

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    import random

__all__ = [
    "CLASS_COUNTS",
    "CorpusSpec",
    "MAX_EXHAUSTIVE_COORD",
    "convex_hull",
    "enumerate_corpus",
    "iter_corpus",
    "random_polygon",
]

Point = tuple[int, int]

# desk-scale bound for exhaustive enumeration; the walk holds a vertex (x, y),
# -bound <= x <= bound, as the byte (x + bound + 1) * 16 + y + 1, so it must
# stay <= 7
MAX_EXHAUSTIVE_COORD = 6
# translation classes in the box, by max_coordinate: the whole corpus's length
CLASS_COUNTS = {1: 5, 2: 119, 3: 1_633, 4: 17_978, 5: 177_967, 6: 1_588_952}


class CorpusSpec(Record):
    """Parameters of an exhaustive corpus run: one polygon per translation
    class in the box, at most ``limit`` of them."""

    __slots__ = ("max_coordinate", "limit")

    def __init__(self, max_coordinate: int, limit: int | None = None) -> None:
        if type(max_coordinate) is not int or type(limit) not in (int, type(None)):
            raise DomainError(
                f"max_coordinate and limit must be integers: {max_coordinate!r}, {limit!r}"
            )
        if max_coordinate < 1:
            raise DomainError("max_coordinate must be positive")
        if max_coordinate > MAX_EXHAUSTIVE_COORD:
            raise DomainError(
                f"exhaustive enumeration is bounded at max_coordinate <= "
                f"{MAX_EXHAUSTIVE_COORD}"
            )
        if limit is not None and limit < 0:
            raise DomainError("limit must be nonnegative")
        super().__init__(max_coordinate, limit)

    @property
    def size(self) -> int:  # the number of polygons iter_corpus(self) yields
        count = CLASS_COUNTS[self.max_coordinate]
        return count if self.limit is None else min(count, self.limit)


def _half(v: Point) -> int:
    """0 for the upper half-plane (incl. positive x-axis), 1 otherwise."""
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_less(u: Point, v: Point) -> bool:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return hu < hv
    return u[0] * v[1] - u[1] * v[0] > 0


def _angular_directions(bound: int) -> list[Point]:
    """Primitive vectors in the box, sorted counterclockwise from (1, 0)."""
    dirs = [
        (dx, dy)
        for dx in range(-bound, bound + 1)
        for dy in range(-bound, bound + 1)
        if (dx or dy) and gcd(abs(dx), abs(dy)) == 1
    ]
    return sorted(
        dirs, key=cmp_to_key(lambda u, v: _angle_less(v, u) - _angle_less(u, v))
    )


def _fitting_directions(
    dirs: Sequence[Point], bound: int, px: int, nx: int, py: int, ny: int
) -> list[int]:
    """Indices, in angular order, of the directions whose unit step keeps a
    walk with x/y extents ``px, nx, py, ny`` inside the box."""
    return [
        j
        for j, (dx, dy) in enumerate(dirs)
        if (px + dx if dx > 0 else nx - dx) <= bound
        and (py + dy if dy > 0 else ny - dy) <= bound
    ]


def _edge_classes(bound: int) -> Iterator[tuple[Point, ...]]:
    """All convex polygons in the box, as vertex tuples with the minimum
    corner at the origin, one per translation class, in sorted order.

    A depth-first walk from the origin picks each next edge directly: a
    direction after the previous edge's in angular order, then a positive
    multiple of it that keeps the walk's x and y extents inside the box.
    The walk closes, and is recorded, when its next edge runs straight back
    to the origin after at least two edges.  The first edge has the
    smallest angle from (1, 0), so each class is walked exactly once, from
    its lowest vertex.  A direction is skipped when the origin lies to its
    right (no convex polygon has such an edge), and once the directions
    left span less than a half-turn, a branch is cut when the way back
    leaves the cone they span.

    A node examines only the directions whose unit step keeps its extents
    inside the box.  No multiple of any other direction fits, and none can
    be the closing edge: a closed walk gains as much x (and y) as it loses,
    so the closing edge takes an extent at most to the opposite one.  The
    directions that fit are indexed by the extent state ``(px, nx, py,
    ny)``, each state's list built the first time the walk reaches it, and
    a node starts in its list at its first allowed direction, by bisection.
    The walk records the same keys as one that examines every direction.

    Each class is held as one ``bytes`` key, one byte per vertex: the walk
    holds vertex (x, y), x >= -bound, as the byte (x + bound + 1) * 16 +
    y + 1, and a closed walk's key is moved, by its least byte's x, onto
    the box, where (x, y) is the byte (x + 1) * 16 + y + 1.  Bytes compare
    as the vertex tuples do, a shorter tuple first where it is a prefix, so
    the keys are sorted once and each is decoded as it is yielded, by
    mapping its bytes through a table.
    """
    dirs = _angular_directions(bound)
    n = len(dirs)
    lx, ly = dirs[-1]
    # from direction ``narrow`` on, the directions left span under a half-turn
    narrow = next(j for j, (dx, dy) in enumerate(dirs) if dx * ly - dy * lx > 0)
    fitting: dict[tuple[int, int, int, int], list[int]] = {}
    # table[s] moves every vertex of a key s steps down in x; a walk's least
    # x is that of its least byte, so its key moves onto the box by
    # table[(min(key) >> 4) - 1]
    table = [bytes(16 * s) + bytes(range(256 - 16 * s)) for s in range(bound + 1)]
    byte = [bytes((b,)) for b in range(256)]  # made once; a step appends one
    keys: list[bytes] = []

    def walk(i, key, sx, sy, px, nx, py, ny):
        # the walk is at (sx, sy), the last vertex of ``key``, with x/y
        # extents px, nx, py, ny; its next edge has direction i or later
        key += byte[(sx + bound + 1) * 16 + sy + 1]
        fit = fitting.get((px, nx, py, ny))
        if fit is None:
            fit = fitting[px, nx, py, ny] = _fitting_directions(dirs, bound, px, nx, py, ny)
        for j in fit[bisect_left(fit, i) :]:
            dx, dy = dirs[j]
            turn = dy * sx - dx * sy  # > 0: the origin is left of this edge
            if turn < 0:
                if j >= narrow:
                    return
                continue
            if turn == 0 and (sx or sy):
                # the only edge along this line that can follow is the
                # closing one, if the line points back to the origin
                if len(key) >= 3 and (dx * sx < 0 or dy * sy < 0):
                    keys.append(key.translate(table[(min(key) >> 4) - 1]))
                continue
            ex, ey = dx, dy
            while True:
                npx = px + ex if ex > 0 else px
                nnx = nx - ex if ex < 0 else nx
                npy = py + ey if ey > 0 else py
                nny = ny - ey if ey < 0 else ny
                if npx > bound or nnx > bound or npy > bound or nny > bound:
                    break
                tx, ty = sx + ex, sy + ey
                # under a half-turn left, the way back must lie in its cone
                if j + 1 < narrow or (
                    j + 1 < n
                    and dirs[j + 1][1] * tx - dirs[j + 1][0] * ty >= 0
                    and lx * ty - ly * tx >= 0
                ):
                    walk(j + 1, key, tx, ty, npx, nnx, npy, nny)
                ex += dx
                ey += dy

    walk(0, b"", 0, 0, 0, 0, 0, 0)
    # walk refers to itself through its closure cell; clearing the cell
    # breaks that cycle, so its frames are freed by reference counting
    del walk
    keys.sort()

    vertex = [None] * 256
    for x in range(bound + 1):
        for y in range(bound + 1):
            vertex[(x + 1) * 16 + y + 1] = (x, y)
    decode = vertex.__getitem__
    for key in keys:
        yield tuple(map(decode, key))


def iter_corpus(spec: CorpusSpec) -> Iterator[LatticePolygon]:
    """Deterministic stream of corpus polygons (sorted vertex tuples).

    The enumerator's vertex tuples are counterclockwise, strictly convex
    and inside the box already, so they skip validation."""
    for verts in islice(_edge_classes(spec.max_coordinate), spec.limit):
        yield LatticePolygon._trusted(verts)


def enumerate_corpus(spec: CorpusSpec) -> list[LatticePolygon]:
    """The polygons of ``iter_corpus(spec)`` as a list, in the same order."""
    return list(iter_corpus(spec))


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Counterclockwise convex hull (strict vertices only), monotone chain."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq: list[Point]) -> list[Point]:
        out: list[Point] = []
        for p in seq:
            while (
                len(out) >= 2
                and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
                <= 0
            ):
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    return lower[:-1] + upper[:-1]


def random_polygon(rng: random.Random, max_abs: int, max_points: int = 10) -> LatticePolygon:
    """Random convex lattice polygon with coordinates in [-max_abs, max_abs].

    DomainError unless ``max_abs >= 1`` and ``max_points >= 3``: with fewer
    points or a one-point box no draw has a hull of three vertices."""
    if max_abs < 1 or max_points < 3:
        raise DomainError(f"need max_abs >= 1, max_points >= 3: {max_abs}, {max_points}")
    while True:
        count = rng.randint(3, max_points)
        pts = [
            (rng.randint(-max_abs, max_abs), rng.randint(-max_abs, max_abs))
            for _ in range(count)
        ]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            return LatticePolygon(hull)
