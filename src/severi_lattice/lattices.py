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
basepoint, a quarter turn and each lattice strictly between ``l0`` and
Z^2 (``l0 + (idx/d) Z^2``) are one ``_canonical_basis`` reduction of a
few generators (none for Z^2, its own quarter turn and only superlattice),
the two ends are ``l0`` and Z^2 themselves, the index in Z^2 is ``d1 *
d2``, and ``Z^2 / l0`` is cyclic iff ``gcd(d1, e, d2) == 1``.  A
reduction stops once the generators read span Z^2, which has no proper
superlattice (the oracle's span of the square at the coordinate bound,
over each facet's start and the next point along it, reads 3 of its 7
differences), so ``from_generators`` checks every generator before it
reduces.  Input is validated where it enters (the constructor,
``from_generators``, ``contains``, ``affine_span``); values
the package computes are canonical by construction and go through the
trusted forms (``_canonical``, ``_through``, ``_has``, ``_span``), which
skip both checks.
At index one ``_canonical`` returns the ``Z2`` object itself, so the
lattices the library computes for the common case (``[Z^2 : N0] = 1`` for
96.4 % of a seeded sample of corpus max-coord 4) cost no allocation, and
``polygons`` reads them in the identity frame; the validating constructor
still builds an equal lattice of its own.
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

    ``d1`` is the running gcd of the x-residues and ``w`` the generator of
    the y-gcd.  Z^2 has no proper superlattice, so once the generators read
    so far span it (``d1 == 1`` and ``|w_y| == 1``) the rest are not read:
    a caller passing outside input validates all of it first.  Raises
    DomainError unless the generators span rank two.
    """
    d1 = 0
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
            d1 = gcd(d1, gx)
        if d1 == 1 and w is not None and w[1] in (1, -1):
            return (1, 0, 1)
    if w is None or d1 == 0:
        raise DomainError("generators span rank < 2 (no independent directions)")
    wx, wy = w
    if wy < 0:
        wx, wy = -wx, -wy
    return (d1, wx % d1, wy)


def _canonical(point: Point, d1: int, e: int, d2: int) -> "AffineLattice2":
    """Trusted constructor for values this module computed itself.

    ``(d1, e, d2)`` must already be a canonical triangle and ``point`` an
    integer pair; neither is checked.  The basepoint is ``point`` reduced
    modulo the basis.  At index one (``d1 == d2 == 1``, so ``e == 0`` and
    every basepoint reduces to the origin) the result is the ``Z2`` object.
    """
    if d1 == d2 == 1:
        return Z2
    x, y = point
    k = y // d2
    lat = object.__new__(AffineLattice2)
    lat._fill(((x - k * e) % d1, y - k * d2), ((d1, e), (0, d2)))
    return lat


class AffineLattice2(Record):
    """Affine sublattice of Z^2 in canonical triangular form."""

    __slots__ = ("basepoint", "basis")  # basis: rows of [[d1, e], [0, d2]]

    def __init__(
        self, basepoint: Point, basis: tuple[tuple[int, int], tuple[int, int]]
    ) -> None:
        if len(basis) != 2:
            raise DomainError(f"basis {basis} is not in canonical form")
        basis = (_check_point(basis[0]), _check_point(basis[1]))
        (d1, e), (z, d2) = basis
        if z != 0 or d1 <= 0 or d2 <= 0 or not 0 <= e < d1:
            raise DomainError(f"basis {basis} is not in canonical form")
        basepoint = _check_point(basepoint)
        bx, by = basepoint
        if not (0 <= by < d2 and 0 <= bx < d1):
            raise DomainError(f"basepoint {basepoint} is not reduced")
        super().__init__(basepoint, basis)

    @classmethod
    def from_generators(
        cls, basepoint: Sequence[int], gens: Iterable[Sequence[int]]
    ) -> "AffineLattice2":
        """Lattice ``basepoint + span(gens)``, canonicalized.  Every generator
        is checked before the reduction, which stops once they span Z^2."""
        d1, e, d2 = _canonical_basis([_check_point(g) for g in gens])
        return _canonical(_check_point(basepoint), d1, e, d2)

    @classmethod
    def linear_from_generators(cls, gens: Iterable[Sequence[int]]) -> "AffineLattice2":
        return cls.from_generators((0, 0), gens)

    @property
    def is_linear(self) -> bool:
        return self.basepoint == (0, 0)

    @property
    def index_in_z2(self) -> int:
        """Index of the linear part in Z^2 (determinant of the basis)."""
        return self.basis[0][0] * self.basis[1][1]

    def linear_part(self) -> "AffineLattice2":
        return self if self.is_linear else self._through((0, 0))

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

    def _through(self, point: Point) -> "AffineLattice2":
        """Same linear part, coset through ``point``, an integer pair the
        library made itself: no type check."""
        (d1, e), (_, d2) = self.basis
        return _canonical(point, d1, e, d2)

    def to_json_dict(self) -> dict:
        (x, y), ((d1, e), (z, d2)) = self.basepoint, self.basis
        return {"basepoint": [x, y], "basis": [[d1, e], [z, d2]]}

    def __str__(self) -> str:
        (d1, e), (_, d2) = self.basis
        return f"{self.basepoint} + <({d1},0), ({e},{d2})>"


Z2 = AffineLattice2((0, 0), ((1, 0), (0, 1)))


def affine_span(points: Sequence[Sequence[int]]) -> AffineLattice2:
    """Smallest affine lattice containing all the given points.

    The basepoint is the first point; the linear part is the integer span
    of the differences.  Raises DomainError when the differences do not
    span rank two.
    """
    if not points:
        raise DomainError("affine span of an empty point set")
    return _span([_check_point(p) for p in points])


def _span(points: Sequence[Point]) -> AffineLattice2:
    """``affine_span`` of a nonempty sequence of integer pairs the library
    made itself (a polygon's boundary points): no type check."""
    x0, y0 = points[0]
    d1, e, d2 = _canonical_basis((x - x0, y - y0) for x, y in points[1:])
    return _canonical(points[0], d1, e, d2)


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


def rotate90(lat: AffineLattice2) -> AffineLattice2:
    """Image of a linear lattice under the quarter turn (x, y) -> (-y, x)."""
    if lat is Z2:  # its own quarter turn
        return Z2
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
    if l0 is Z2:  # no proper superlattice
        return [Z2]
    _require_linear(l0, "intermediate_lattices")
    (d1, e), (_, d2) = l0.basis
    a1 = gcd(gcd(d1, e), d2)
    idx = d1 * d2
    if a1 != 1:
        raise DomainError(
            f"Z^2 quotient is not cyclic (invariant factors {a1}, {idx // a1})"
        )
    out = [l0]
    for d in divisors(idx)[1:-1]:
        m = idx // d
        out.append(
            _canonical((0, 0), *_canonical_basis([(d1, 0), (e, d2), (m, 0), (0, m)]))
        )
    if idx > 1:
        out.append(Z2)
    return out
