"""Reference code that only the tests use: random matrices of the GL^h
machinery, the Smith form built from the invariant factors, a lattice
frame map written apart from the library's, the certificate rows as
they were first written (the signature from the full ``hsnf``, the rank
test over every pair), the minor gcd over every row and column
selection, the width reduction as it was first written
(a search over the whole interval each step, a scan of twelve candidates
in the tie-break), the intermediate lattices with both ends reduced,
polygon validation in three passes, and the affine normal form of a
polygon."""

import random
from collections.abc import Sequence
from itertools import combinations
from math import gcd

from severi_lattice.certificates import a_delta
from severi_lattice.corpus import _angle_less
from severi_lattice.errors import DomainError, InvariantViolation
from severi_lattice.intmat import IntMat, _det_rows, hsnf, invariant_factors
from severi_lattice.lattices import _canonical, _canonical_basis, divisors
from severi_lattice.polygons import COORD_BOUND, LatticePolygon

Point = tuple[int, int]


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


def smith_form(x: IntMat) -> IntMat:
    """The Smith normal form of ``x``: its invariant factors, from the
    certificate-free kernel, down the diagonal of a zero matrix of its shape."""
    flat = [0] * (x.rows * x.cols)
    for i, v in enumerate(invariant_factors(x)):
        flat[i * x.cols + i] = v
    return IntMat(x.rows, x.cols, tuple(flat))


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


def corner_matrix_rows() -> list[list[int]]:
    """The seeded 16 x 16 matrix at the corner of the snf/hsnf input box, as
    ``test_cli``'s corner test builds it: entries of either sign up to 1000,
    paired so that every row sums to zero."""
    rng = random.Random(0)
    out = []
    for _ in range(16):
        half = [rng.randint(-1000, 1000) for _ in range(8)]
        row = half + [-v for v in half]
        rng.shuffle(row)
        out.append(row)
    return out


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


def owner(profile):
    """Index of the facet owning each boundary point, O(l)."""
    return tuple(f.index for f in profile.facets for _ in range(f.length))


def reference_signature(profile):
    """``component_signature`` read from the full certified ``hsnf``: row 1
    of its ``Q`` against the normal matrix, divided by the index, checked
    against the facet owner of each column."""
    matrix = a_delta(profile)
    q0, q1 = hsnf(matrix).Q.row(1)
    xs, ys = matrix.to_rows()
    raw = tuple(q0 * x + q1 * y for x, y in zip(xs, ys))
    idx = profile.idx
    if any(v % idx for v in raw):
        raise InvariantViolation(f"signature {raw} is not divisible by the index {idx}")
    z = [v // idx for v in raw]
    if sum(z) != 0:
        raise InvariantViolation(f"signature {z} does not sum to zero")
    owners = owner(profile)
    for i in range(1, len(z)):
        if owners[i] == owners[i - 1] and z[i] != z[i - 1]:
            raise InvariantViolation(f"signature {z} is not constant on facet blocks")
    return tuple(z)


def reference_width_one_pair(profile):
    """``width_one_by_rank`` over every pair i1 < i2: solve the test row
    e_{i1} - e_{i2} against columns 0 and q, then check every column."""
    cols = [f.normal for f in profile.facets for _ in range(f.length)]
    l = len(cols)
    p = 0
    q = next(
        j for j in range(1, l) if cols[0][0] * cols[j][1] - cols[0][1] * cols[j][0]
    )
    cp, cq = cols[p], cols[q]
    det = cp[0] * cq[1] - cp[1] * cq[0]
    for i1 in range(l):
        for i2 in range(i1 + 1, l):
            if cols[i2] == cols[i1]:
                continue
            tp = (1 if p == i1 else 0) - (1 if p == i2 else 0)
            tq = (1 if q == i1 else 0) - (1 if q == i2 else 0)
            mx = cq[1] * tp - cp[1] * tq
            my = cp[0] * tq - cq[0] * tp
            if all(
                mx * cx + my * cy == det * ((i == i1) - (i == i2))
                for i, (cx, cy) in enumerate(cols)
            ):
                return (i1, i2)
    return None


def reference_minor_gcd(x: IntMat, k: int) -> int:
    """``intmat.minor_gcd`` as it scanned before it skipped repeated rows and
    columns: a Bareiss determinant for every k-subset of row indices against
    every k-subset of column indices."""
    if not 1 <= k <= min(x.rows, x.cols):
        raise DomainError(f"minor size {k} out of range for {x.rows}x{x.cols}")
    if k == 1:  # the 1 x 1 minors are the entries
        return gcd(*x.entries)
    rows = x.to_rows()
    g = 0
    for rsel in combinations(range(x.rows), k):
        picked = [rows[i] for i in rsel]
        for csel in combinations(range(x.cols), k):
            sub = [[r[c] for c in csel] for r in picked]
            g = gcd(g, _det_rows(sub, k))
            if g == 1:
                return 1
    return g


def reference_width_of_vertices(verts: Sequence[Point]) -> tuple[int, Point]:
    """Exact lattice width of a CCW convex vertex list over Z^2, as
    ``polygons._width_of_vertices`` first computed it.

    Generalized Gauss reduction (Kaib & Schnorr, J.
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


def reference_intermediate_lattices(l0):
    """``lattices.intermediate_lattices`` as first written: every
    ``N_d = l0 + (idx/d) Z^2`` reduced from its generators, ends included."""
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


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_validate(points):
    """``polygons._validate`` as first written, in three passes (collapse,
    convexity, winding), with the area recomputed from the vertices it
    returns, as ``LatticePolygon.twice_area`` first did."""
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
        pts = [pts[0]] + pts[:0:-1]

    corners: list[Point] = []
    for i, cur in enumerate(pts):
        prev, nxt = pts[i - 1], pts[(i + 1) % n]
        if _cross(prev, cur, nxt):
            corners.append(cur)
            continue
        ax, ay = cur[0] - prev[0], cur[1] - prev[1]
        bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
        if ax * bx + ay * by <= 0:
            raise DomainError("self-intersecting traversal (edge backtracks)")
    pts = corners

    m = len(pts)
    for i in range(m):
        if _cross(pts[i - 1], pts[i], pts[(i + 1) % m]) < 0:
            raise DomainError("polygon is not convex")
    edges = [
        (pts[(i + 1) % m][0] - pts[i][0], pts[(i + 1) % m][1] - pts[i][1])
        for i in range(m)
    ]
    descents = sum(1 for i in range(m) if not _angle_less(edges[i], edges[(i + 1) % m]))
    if descents != 1:
        raise DomainError("self-intersecting traversal (winds more than once)")
    twice_area = sum(
        pts[i][0] * pts[(i + 1) % m][1] - pts[(i + 1) % m][0] * pts[i][1]
        for i in range(m)
    )
    return tuple(pts), twice_area


def _row_hermite(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Row Hermite form of a 2 x m integer matrix of rank 2 under GL_2(Z)
    on the left: each row's first nonzero entry is positive, the second
    row's lies right of the first's, and the entry above it is reduced
    modulo it."""
    a, b = rows
    c = next(j for j in range(len(a)) if a[j] or b[j])
    while b[c]:  # Euclid on column c, by row operations
        q = a[c] // b[c]
        a, b = b, [s - q * t for s, t in zip(a, b)]
    if a[c] < 0:
        a = [-s for s in a]
    c = next(j for j in range(c + 1, len(b)) if b[j])
    if b[c] < 0:
        b = [-t for t in b]
    q = a[c] // b[c]
    return tuple(s - q * t for s, t in zip(a, b)), tuple(b)


def affine_normal_form(verts: Sequence[Point]) -> tuple:
    """Affine normal form of a lattice polygon (Grinis and Kasprzyk, 2013):
    two polygons are equal up to GL_2(Z) and translation exactly when their
    forms are.  For each start vertex and orientation, the 2 x (n - 1)
    matrix of the differences from the start to the other vertices, in
    cyclic order, is put in row Hermite form; the form is the least."""
    n = len(verts)
    forms = []
    for order in (list(verts), list(verts)[::-1]):
        for s in range(n):
            x0, y0 = order[s]
            others = [order[(s + k) % n] for k in range(1, n)]
            forms.append(_row_hermite([[x - x0 for x, _ in others], [y - y0 for _, y in others]]))
    return min(forms)
