"""Certificates read from the 2 x l normal matrix of a boundary profile.

The production pipeline in ``severi`` works at the level of facets.  The
per-point normal matrix ``a_delta`` and the certificate APIs built on it
are used by the verify battery and the tests only; this is the one
polygon-side module that imports ``intmat``.
"""

from __future__ import annotations

from itertools import chain

from .errors import InvariantViolation
from .intmat import IntMat, hsnf_left
from .severi import BoundaryProfile

__all__ = [
    "a_delta",
    "component_signature",
    "width_one_by_rank",
]


def a_delta(profile: BoundaryProfile) -> IntMat:
    """The 2 x l normal matrix, O(l).

    One column per boundary lattice point, equal to the primitive inner
    normal of the facet owning that point (points are ordered as in
    ``boundary_points``, grouped by facet, so the first l_1 columns are n_1,
    the next l_2 are n_2, and so on).
    """
    row_x: list[int] = []
    row_y: list[int] = []
    for f in profile.facets:
        row_x += [f.normal[0]] * f.length
        row_y += [f.normal[1]] * f.length
    return IntMat._trusted(2, len(row_x), tuple(chain(row_x, row_y)))


def component_signature(profile: BoundaryProfile) -> tuple[int, ...]:
    """Torsion-order test vector z = R2(Q) @ A / idx from the HSNF certificate.

    The certificate row combination is exactly divisible by the index, sums
    to zero, and is constant on facet blocks; any failure is reported as an
    internal invariant violation.  The certificate (hence z's overall sign)
    is pinned by the deterministic pivot rule of the reduction engine; only
    ``Q`` is read, so only ``Q`` is built (``intmat.hsnf_left``).  The two
    rows of ``a_delta`` are read from its entries, and each entry of z is
    divided out of its raw value in the same pass.
    """
    matrix = a_delta(profile)
    q0, q1 = hsnf_left(matrix).row(1)
    e, l = matrix.entries, matrix.cols
    idx = profile.idx
    z = []
    for x, y in zip(e[:l], e[l:]):
        v, rem = divmod(q0 * x + q1 * y, idx)
        if rem:
            raw = tuple(q0 * x + q1 * y for x, y in zip(e[:l], e[l:]))
            raise InvariantViolation(
                f"signature {raw} is not divisible by the index {idx}"
            )
        z.append(v)
    if sum(z) != 0:
        raise InvariantViolation(f"signature {z} does not sum to zero")
    start = 0
    for f in profile.facets:
        end = start + f.length
        if z[start:end].count(z[start]) != f.length:
            raise InvariantViolation(f"signature {z} is not constant on facet blocks")
        start = end
    return tuple(z)


def width_one_by_rank(profile: BoundaryProfile) -> tuple[int, int] | None:
    """First pair (i1, i2) such that the normal matrix with the test row
    e_{i1} - e_{i2} adjoined still has rank two, if any.

    Such a pair exists iff the polygon has width one in the boundary
    lattice.  Rank stays two exactly when e_{i1} - e_{i2} lies in the
    rational row space of the normal matrix, which is decided by solving
    against two independent columns p = 0 and q and verifying the rest.

    Only pairs that hold p or q are tried, in the order of the full search
    over i1 < i2, so the first pair found is the same.  A pair holding
    neither has tp = tq = 0, hence m = (0, 0), and the check at column i1
    asks 0 == det * 1, which fails as det != 0.  Of these, only pairs whose
    two columns each occur once are checked; facet normals are distinct,
    so these are exactly the points of length-one facets.  Any other pair
    fails at the repeated column's copy: m.c there is the value it has at
    the pair's own point, +-det != 0 if that point passed, while the test
    row asks for 0 there, or for the opposite sign when the copy is the
    pair's other point.  That leaves at most three pairs per length-one
    facet, each checked in O(l): O(facets * l) in all.
    """
    cols = [f.normal for f in profile.facets for _ in range(f.length)]
    l = len(cols)
    p = 0
    q = next(
        j for j in range(1, l) if cols[0][0] * cols[j][1] - cols[0][1] * cols[j][0]
    )
    cp, cq = cols[p], cols[q]
    det = cp[0] * cq[1] - cp[1] * cq[0]
    ones = []  # the points of length-one facets, ascending
    start = 0
    for f in profile.facets:
        if f.length == 1:
            ones.append(start)
        start += f.length
    single = set(ones)
    for i1, i2 in chain(
        ((p, i2) for i2 in ones if i2 > p),
        ((i1, q) for i1 in ones if p < i1 < q),
        ((q, i2) for i2 in ones if i2 > q),
    ):
        if i1 not in single or i2 not in single:
            continue  # the pivot's column repeats
        tp = (1 if p == i1 else 0) - (1 if p == i2 else 0)
        tq = (1 if q == i1 else 0) - (1 if q == i2 else 0)
        mx = cq[1] * tp - cp[1] * tq
        my = cp[0] * tq - cq[0] * tp
        for i, (cx, cy) in enumerate(cols):
            ti = (1 if i == i1 else 0) - (1 if i == i2 else 0)
            if mx * cx + my * cy != det * ti:
                break
        else:
            return (i1, i2)
    return None
