"""Certificates read from the 2 x l normal matrix of a boundary profile.

The production pipeline in ``severi`` works at the level of facets.  The
per-point views below (``a_delta``, ``owner``) and the certificate APIs
built on them are used by the verify battery and the tests only; this is
the one polygon-side module that imports ``intmat``.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .intmat import IntMat, hsnf
from .severi import BoundaryProfile

__all__ = [
    "a_delta",
    "owner",
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
    return IntMat.from_rows([row_x, row_y])


def owner(profile: BoundaryProfile) -> tuple[int, ...]:
    """Index of the facet owning each boundary point, O(l)."""
    return tuple(f.index for f in profile.facets for _ in range(f.length))


def component_signature(profile: BoundaryProfile) -> tuple[int, ...]:
    """Torsion-order test vector z = R2(Q) @ A / idx from the HSNF certificate.

    The certificate row combination is exactly divisible by the index, sums
    to zero, and is constant on facet blocks; any failure is reported as an
    internal invariant violation.  The certificate (hence z's overall sign)
    is pinned by the deterministic pivot rule of the reduction engine.
    """
    matrix = a_delta(profile)
    cert = hsnf(matrix)
    raw = matrix.vec_mat(cert.Q.row(1))
    z: list[int] = []
    for v in raw:
        quot, rem = divmod(v, profile.idx)
        if rem:
            raise InvariantViolation(
                f"signature {raw} is not divisible by the index {profile.idx}"
            )
        z.append(quot)
    if sum(z) != 0:
        raise InvariantViolation(f"signature {z} does not sum to zero")
    owners = owner(profile)
    for i in range(1, len(z)):
        if owners[i] == owners[i - 1] and z[i] != z[i - 1]:
            raise InvariantViolation(f"signature {z} is not constant on facet blocks")
    return tuple(z)


def width_one_by_rank(profile: BoundaryProfile) -> tuple[int, int] | None:
    """First pair (i1, i2) such that the normal matrix with the test row
    e_{i1} - e_{i2} adjoined still has rank two, if any.

    Such a pair exists iff the polygon has width one in the boundary
    lattice.  Rank stays two exactly when e_{i1} - e_{i2} lies in the
    rational row space of the normal matrix, which is decided by solving
    against two independent columns and verifying the rest.
    """
    cols = [f.normal for f in profile.facets for _ in range(f.length)]
    l = len(cols)
    p = 0
    q = next(
        j for j in range(1, l) if cols[0][0] * cols[j][1] - cols[0][1] * cols[j][0]
    )
    cp, cq = cols[p], cols[q]
    det = cp[0] * cq[1] - cp[1] * cq[0]
    for i1 in range(l):
        c1 = cols[i1]
        for i2 in range(i1 + 1, l):
            if cols[i2] == c1:
                continue  # equal columns force rank three
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
