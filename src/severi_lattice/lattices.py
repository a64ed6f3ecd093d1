"""Affine sublattices of Z^2: spans, membership, indices, and enumeration.

An affine lattice is a coset ``basepoint + L`` of a full-rank linear
sublattice ``L`` of Z^2.  Every lattice is stored in a single canonical
form, so two equal lattices always have identical representations and can
be used as dict keys or compared with ``==`` directly.

Canonical form: the linear part is the column span of the upper-triangular
basis matrix ``[[d1, e], [0, d2]]`` with ``d1 > 0``, ``d2 > 0`` and
``0 <= e < d1`` (generators are the columns ``(d1, 0)`` and ``(e, d2)``);
the basepoint is the unique coset representative with ``0 <= y < d2`` and
``0 <= x < d1`` after subtracting the ``y`` reduction step.

Every operation works in closed form on the canonical triangle
``(d1, e, d2)``, O(1) per lattice: a translation reduces the new
basepoint, a quarter turn and each lattice between ``l0`` and Z^2
(``l0 + (idx/d) Z^2``) are one ``_canonical_basis`` reduction of a few
generators, an index is a quotient of determinants, and ``Z^2 / l0`` is
cyclic iff ``gcd(d1, e, d2) == 1``.  Input is validated where it enters
(``from_generators``, ``from_json_dict``, ``contains``, ``translate``,
``affine_span``); values this module computes are canonical by
construction and skip both that check and the constructor's.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd

from ._record import Record
from .errors import DomainError

__all__ = [
    "AffineLattice2",
    "Z2",
    "affine_span",
    "lattice_index",
    "rotate90",
    "intermediate_lattices",
    "divisors",
]

Point = tuple[int, int]


def _check_point(p: Sequence[int]) -> Point:
    if len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
        raise DomainError(f"expected an integer pair, got {p!r}")
    return (p[0], p[1])


def _canonical_basis(gens: Iterable[Point]) -> tuple[int, int, int]:
    """Reduce a generator list to the canonical triangle ``(d1, e, d2)``.

    Raises DomainError unless the generators span rank two.
    """
    xs: list[int] = []
    w: Point | None = None
    for g in gens:
        gx, gy = g
        while gy:
            if w is None:
                w = (gx, gy)
                break
            wx, wy = w
            q = wy // gy
            wx, wy = wx - q * gx, wy - q * gy
            w = (gx, gy)
            gx, gy = wx, wy
        else:
            if gx:
                xs.append(gx)
    if w is None:
        raise DomainError("generators span rank < 2 (no independent directions)")
    wx, wy = w
    if wy < 0:
        wx, wy = -wx, -wy
    d1 = 0
    for x in xs:
        d1 = gcd(d1, x)
    if d1 == 0:
        raise DomainError("generators span rank < 2 (no independent directions)")
    return (d1, wx % d1, wy)


def _canonical(point: Point, d1: int, e: int, d2: int) -> "AffineLattice2":
    """Trusted constructor for values this module computed itself.

    ``(d1, e, d2)`` must already be a canonical triangle and ``point`` an
    integer pair; neither is checked.  The basepoint is ``point`` reduced
    modulo the basis.
    """
    x, y = point
    k = y // d2
    lat = object.__new__(AffineLattice2)
    object.__setattr__(lat, "basepoint", ((x - k * e) % d1, y - k * d2))
    object.__setattr__(lat, "basis", ((d1, e), (0, d2)))
    return lat


class AffineLattice2(Record):
    """Affine sublattice of Z^2 in canonical triangular form."""

    __slots__ = ("basepoint", "basis")  # basis: rows of [[d1, e], [0, d2]]

    def __init__(
        self, basepoint: Point, basis: tuple[tuple[int, int], tuple[int, int]]
    ) -> None:
        (d1, e), (z, d2) = basis
        if z != 0 or d1 <= 0 or d2 <= 0 or not 0 <= e < d1:
            raise DomainError(f"basis {basis} is not in canonical form")
        bx, by = basepoint
        if not (0 <= by < d2 and 0 <= bx < d1):
            raise DomainError(f"basepoint {basepoint} is not reduced")
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def standard(cls) -> "AffineLattice2":
        return cls((0, 0), ((1, 0), (0, 1)))

    @classmethod
    def from_generators(
        cls, basepoint: Sequence[int], gens: Iterable[Sequence[int]]
    ) -> "AffineLattice2":
        """Lattice ``basepoint + span(gens)``, canonicalized."""
        d1, e, d2 = _canonical_basis(_check_point(g) for g in gens)
        return _canonical(_check_point(basepoint), d1, e, d2)

    @classmethod
    def linear_from_generators(cls, gens: Iterable[Sequence[int]]) -> "AffineLattice2":
        return cls.from_generators((0, 0), gens)

    @property
    def d1(self) -> int:
        return self.basis[0][0]

    @property
    def e(self) -> int:
        return self.basis[0][1]

    @property
    def d2(self) -> int:
        return self.basis[1][1]

    @property
    def is_linear(self) -> bool:
        return self.basepoint == (0, 0)

    @property
    def index_in_z2(self) -> int:
        """Index of the linear part in Z^2 (determinant of the basis)."""
        return self.d1 * self.d2

    def generators(self) -> tuple[Point, Point]:
        return ((self.d1, 0), (self.e, self.d2))

    def linear_part(self) -> "AffineLattice2":
        (d1, e), (_, d2) = self.basis
        return _canonical((0, 0), d1, e, d2)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test by solving the triangular system over Z."""
        return self._has(_check_point(point))

    def _has(self, point: Point) -> bool:
        """``contains`` for an integer pair the library made itself
        (a vertex, a facet start, a generator): no type check."""
        (d1, e), (_, d2) = self.basis
        dy = point[1] - self.basepoint[1]
        if dy % d2:
            return False
        return (point[0] - self.basepoint[0] - dy // d2 * e) % d1 == 0

    def translate(self, basepoint: Sequence[int]) -> "AffineLattice2":
        """Same linear part, coset through ``basepoint``."""
        (d1, e), (_, d2) = self.basis
        return _canonical(_check_point(basepoint), d1, e, d2)

    def to_json_dict(self) -> dict:
        return {
            "basepoint": list(self.basepoint),
            "basis": [list(self.basis[0]), list(self.basis[1])],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AffineLattice2":
        try:
            bp = data["basepoint"]
            basis = data["basis"]
        except (TypeError, KeyError) as exc:
            raise DomainError(f"lattice JSON needs basepoint/basis: {exc}") from exc
        if not (
            isinstance(bp, (list, tuple))
            and isinstance(basis, (list, tuple))
            and len(basis) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in basis)
        ):
            raise DomainError(
                "lattice JSON needs basepoint [x, y] and basis [[d1, e], [0, d2]]"
            )
        (d1, e), (z, d2) = basis
        if z != 0:
            raise DomainError("lattice basis must be upper triangular")
        return cls.from_generators(bp, [(d1, 0), (e, d2)])

    def __str__(self) -> str:
        return f"{self.basepoint} + <({self.d1},0), ({self.e},{self.d2})>"


Z2 = AffineLattice2.standard()


def affine_span(points: Sequence[Sequence[int]]) -> AffineLattice2:
    """Smallest affine lattice containing all the given points.

    The basepoint is the first point; the linear part is the integer span
    of the differences.  Raises DomainError when the differences do not
    span rank two.
    """
    if not points:
        raise DomainError("affine span of an empty point set")
    pts = [_check_point(p) for p in points]
    x0, y0 = pts[0]
    d1, e, d2 = _canonical_basis((x - x0, y - y0) for x, y in pts[1:])
    return _canonical(pts[0], d1, e, d2)


def _in_basis(lat: AffineLattice2, vector: Point) -> Point:
    """``(a, b)`` with ``vector == a * (d1, 0) + b * (e, d2)``: the frame in
    which ``polygons`` measures in ``lat``.  DomainError off the linear part."""
    (d1, e), (_, d2) = lat.basis
    b, ry = divmod(vector[1], d2)
    a, rx = divmod(vector[0] - b * e, d1)
    if rx or ry:
        raise DomainError(f"vector {vector} is not in the linear part of {lat}")
    return (a, b)


def _require_linear(lat: AffineLattice2, what: str) -> None:
    if not lat.is_linear:
        raise DomainError(f"{what} expects a linear lattice (basepoint 0)")


def lattice_index(sub: AffineLattice2, sup: AffineLattice2) -> int:
    """Index ``[sup : sub]`` of one linear lattice inside another."""
    _require_linear(sub, "lattice_index")
    _require_linear(sup, "lattice_index")
    for g in sub.generators():
        if not sup._has(g):
            raise DomainError(f"{sub} is not contained in {sup}")
    quot, rem = divmod(sub.index_in_z2, sup.index_in_z2)
    if rem:
        raise DomainError("containment violated (non-integral index)")
    return quot


def rotate90(lat: AffineLattice2) -> AffineLattice2:
    """Image of a linear lattice under the quarter turn (x, y) -> (-y, x)."""
    _require_linear(lat, "rotate90")
    (d1, e), (_, d2) = lat.basis
    return _canonical((0, 0), *_canonical_basis([(0, d1), (-d2, e)]))


def divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in ascending order."""
    if n < 1:
        raise DomainError("divisors of a non-positive integer")
    out = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            powers = []
            while n % p == 0:  # divide out each prime factor as it is found
                n //= p
                powers.append(p * (powers[-1] if powers else 1))
            out += [d * q for q in powers for d in out]
        p += 1 if p == 2 else 2
    if n > 1:
        out += [d * n for d in out]
    out.sort()
    return out


def intermediate_lattices(l0: AffineLattice2) -> list[AffineLattice2]:
    """All linear lattices N with ``l0 <= N <= Z^2``, sorted by ``[N : l0]``.

    Requires ``Z^2 / l0`` to be cyclic; its invariant factors are
    ``gcd(d1, e, d2)`` and ``idx`` over that, so the test is that the gcd
    is 1.  A cyclic group of order ``idx`` has one subgroup of each order
    ``d | idx``, namely ``(idx/d)`` times the group, so the lattice of
    index ``d`` over ``l0`` is ``N_d = l0 + (idx/d) Z^2``.
    """
    _require_linear(l0, "intermediate_lattices")
    (d1, e), (_, d2) = l0.basis
    a1 = gcd(gcd(d1, e), d2)
    idx = d1 * d2
    if a1 != 1:
        raise DomainError(
            f"Z^2 quotient is not cyclic (invariant factors {a1}, {idx // a1})"
        )
    out = []
    for d in divisors(idx):
        m = idx // d
        out.append(
            _canonical((0, 0), *_canonical_basis([(d1, 0), (e, d2), (m, 0), (0, m)]))
        )
    return out
