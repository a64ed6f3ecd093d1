"""Polygon corpora: exhaustive box enumeration and seeded random sampling.

The exhaustive enumerator walks convex polygons as closed edge paths: a
convex lattice polygon is, up to translation, exactly a choice of pairwise
non-parallel edge vectors summing to zero, each a positive multiple of a
primitive direction, traversed in angular order.  Every translation class
inside the box is produced exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import DomainError
from .polygons import LatticePolygon, _angle_less

__all__ = [
    "CorpusSpec",
    "MAX_EXHAUSTIVE_COORD",
    "convex_hull",
    "enumerate_corpus",
    "iter_corpus",
    "random_polygon",
]

Point = tuple[int, int]

MAX_EXHAUSTIVE_COORD = 6  # desk-scale bound for exhaustive enumeration


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of an exhaustive corpus run."""

    max_coordinate: int
    dedup: str = "translation"  # or "none": every placement inside the box
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_coordinate < 1:
            raise DomainError("max_coordinate must be positive")
        if self.max_coordinate > MAX_EXHAUSTIVE_COORD:
            raise DomainError(
                f"exhaustive enumeration is bounded at max_coordinate <= "
                f"{MAX_EXHAUSTIVE_COORD}"
            )
        if self.dedup not in ("translation", "none"):
            raise DomainError(f"unknown dedup mode {self.dedup!r}")
        if self.limit is not None and self.limit < 0:
            raise DomainError("limit must be nonnegative")


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


def _edge_classes(bound: int) -> list[tuple[Point, ...]]:
    """All convex polygons (as vertex tuples, min corner at the origin)."""
    dirs = _angular_directions(bound)
    n = len(dirs)
    w = h = bound
    # per-suffix reachable x/y displacement ranges, for pruning
    sufpx = [0] * (n + 1)
    sufnx = [0] * (n + 1)
    sufpy = [0] * (n + 1)
    sufny = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        dx, dy = dirs[i]
        m = min(
            w // abs(dx) if dx else w,
            h // abs(dy) if dy else h,
        )
        sufpx[i] = sufpx[i + 1] + (dx * m if dx > 0 else 0)
        sufnx[i] = sufnx[i + 1] + (-dx * m if dx < 0 else 0)
        sufpy[i] = sufpy[i + 1] + (dy * m if dy > 0 else 0)
        sufny[i] = sufny[i + 1] + (-dy * m if dy < 0 else 0)

    polygons: list[tuple[Point, ...]] = []
    edges: list[Point] = []

    def emit() -> None:
        x = y = 0
        pts = []
        for ex, ey in edges:
            pts.append((x, y))
            x += ex
            y += ey
        minx = min(px for px, _ in pts)
        miny = min(py for _, py in pts)
        polygons.append(tuple((px - minx, py - miny) for px, py in pts))

    def dfs(i: int, sx: int, sy: int, px: int, nx: int, py: int, ny: int) -> None:
        if sx > sufnx[i] or -sx > sufpx[i] or sy > sufny[i] or -sy > sufpy[i]:
            return
        if i == n:
            if len(edges) >= 3 and sx == 0 and sy == 0:
                emit()
            return
        dfs(i + 1, sx, sy, px, nx, py, ny)
        dx, dy = dirs[i]
        mult = 1
        while True:
            ex, ey = dx * mult, dy * mult
            npx = px + ex if ex > 0 else px
            nnx = nx - ex if ex < 0 else nx
            npy = py + ey if ey > 0 else py
            nny = ny - ey if ey < 0 else ny
            if npx > w or nnx > w or npy > h or nny > h:
                return
            edges.append((ex, ey))
            dfs(i + 1, sx + ex, sy + ey, npx, nnx, npy, nny)
            edges.pop()
            mult += 1

    dfs(0, 0, 0, 0, 0, 0, 0)
    # dfs refers to itself through its closure cell; clearing the cell breaks
    # that cycle, so the tuple list is freed by reference counting
    del dfs
    polygons.sort()
    return polygons


def iter_corpus(spec: CorpusSpec) -> Iterator[LatticePolygon]:
    """Deterministic stream of corpus polygons (sorted vertex tuples)."""
    produced = 0
    bound = spec.max_coordinate
    for verts in _edge_classes(bound):
        placements: list[tuple[Point, ...]]
        if spec.dedup == "translation":
            placements = [verts]
        else:
            bw = max(x for x, _ in verts)
            bh = max(y for _, y in verts)
            placements = [
                tuple((x + ox, y + oy) for x, y in verts)
                for ox in range(bound - bw + 1)
                for oy in range(bound - bh + 1)
            ]
        for placed in placements:
            if spec.limit is not None and produced >= spec.limit:
                return
            produced += 1
            yield LatticePolygon(placed)


def enumerate_corpus(spec: CorpusSpec) -> list[LatticePolygon]:
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
    """Random convex lattice polygon with coordinates in [-max_abs, max_abs]."""
    while True:
        count = rng.randint(3, max_points)
        pts = [
            (rng.randint(-max_abs, max_abs), rng.randint(-max_abs, max_abs))
            for _ in range(count)
        ]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            return LatticePolygon(hull)
