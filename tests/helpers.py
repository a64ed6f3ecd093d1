"""Reference code that only the tests use: random matrices of the GL^h
machinery and a lattice frame map written apart from the library's."""

import random

from severi_lattice.errors import DomainError
from severi_lattice.intmat import IntMat
from severi_lattice.polygons import LatticePolygon


def random_gl_h(n: int, rng: random.Random, max_ops: int = 20) -> IntMat:
    """Random element of GL_n^h(Z) (unimodular, fixing the all-ones vector).

    Generators: permutations and paired transvections that add c times one
    coordinate to a second while subtracting it from a third, which keeps
    every row sum equal to one.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return IntMat.from_rows(rows)
    for _ in range(rng.randint(1, max_ops)):
        if n >= 3 and rng.randrange(2):
            i, j, k = rng.sample(range(n), 3)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            # right-multiplication matrix I + c*e_i (e_j - e_k)^T acts on rows
            rows[i] = [
                x + c * (y - z) for x, y, z in zip(rows[i], rows[j], rows[k])
            ]
        else:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
    return IntMat.from_rows(rows)


def random_homogeneous_matrix(
    rng: random.Random, max_rows: int = 6, max_cols: int = 8, bound: int = 9
) -> IntMat:
    """Random zero-row-sum matrix: random entries plus a balancing column."""
    s = rng.randint(1, max_rows)
    c = rng.randint(1, max_cols)
    rows = []
    for _ in range(s):
        r = [rng.randint(-bound, bound) for _ in range(c)]
        r.append(-sum(r))
        rows.append(r)
    return IntMat.from_rows(rows)


def frame(lattice, point):
    """Coordinates of ``point - basepoint`` in the basis (d1, 0), (e, d2) of
    ``lattice``, by Cramer's rule with the adjugate ((d2, -e), (0, d1)) over
    the determinant d1 * d2; DomainError unless they are integers."""
    (d1, e), (_, d2) = lattice.basis
    x = point[0] - lattice.basepoint[0]
    y = point[1] - lattice.basepoint[1]
    a, ra = divmod(d2 * x - e * y, d1 * d2)
    b, rb = divmod(d1 * y, d1 * d2)
    if ra or rb:
        raise DomainError(f"{point} is not in {lattice}")
    return (a, b)


def image_in(polygon, lattice):
    """The polygon in the frame of ``lattice``, which it sees as Z^2."""
    return LatticePolygon([frame(lattice, v) for v in polygon.vertices])
