"""Exact integer matrices and Smith-type normal forms.

All arithmetic uses Python's arbitrary-precision integers, so every result
is exact; the overflow failure mode of fixed-width implementations cannot
occur here.  Values are immutable after construction and all operations are
pure functions, safe for unsynchronized concurrent use.

Two kernels, sharing no code:

- certified (``snf``, ``hsnf``, ``hsnf_left``): division rounds that pivot
  on a nonzero entry of minimal absolute value, first occurrence in
  column-major order, with every operation mirrored on the unimodular
  certificates (``hsnf_left`` builds the left one alone, and mirrors no
  column operation); the pivot rule keeps intermediate entries small and
  makes every certificate deterministic.
- certificate-free (``invariant_factors``, ``hsnf_form``): extended-gcd
  (Bezout) 2 x 2 unimodular steps that diagonalize the matrix, then
  pairwise ``(gcd, lcm)`` steps that turn the diagonal into a divisor chain.
  Only the invariant factors come out, so no pivot order needs fixing.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, combinations
from math import gcd

from ._record import Record
from .errors import DomainError

__all__ = [
    "IntMat",
    "SnfResult",
    "HsnfResult",
    "snf",
    "hsnf",
    "hsnf_left",
    "hsnf_form",
    "invariant_factors",
    "minor_gcd",
]


class IntMat(Record):
    """Dense integer matrix; entries stored row-major as a flat tuple."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 1 or cols < 1:
            raise DomainError("matrix needs at least one row and one column")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DomainError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if type(e) is not int:
                raise DomainError(f"matrix entries must be plain ints, got {e!r}")
        super().__init__(rows, cols, entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMat":
        """A matrix the library built itself: ``entries`` is already a tuple
        of ``rows * cols`` plain ints, so no check runs."""
        m = object.__new__(cls)
        m._fill(rows, cols, entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMat":
        if not rows:
            raise DomainError("matrix needs at least one row")
        ncols = len(rows[0]) if isinstance(rows[0], (list, tuple)) else -1
        flat: list[int] = []
        for r in rows:
            if not isinstance(r, (list, tuple)) or len(r) != ncols:
                raise DomainError("matrix rows must be lists of equal length")
            flat.extend(r)
        return cls(len(rows), ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise DomainError(f"row {i} out of range")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def to_cols(self) -> list[list[int]]:
        return [list(self.entries[j :: self.cols]) for j in range(self.cols)]

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DomainError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self.to_rows(), other.to_cols()
        flat: list[int] = []
        for ra in a:
            for cb in b:
                flat.append(sum(x * y for x, y in zip(ra, cb)))
        return IntMat._trusted(self.rows, other.cols, tuple(flat))

    def row_sums(self) -> tuple[int, ...]:
        c = self.cols
        e = self.entries
        return tuple([sum(e[i : i + c]) for i in range(0, len(e), c)])

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self.to_rows()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntMat":
        try:
            rows, cols, entries = data["rows"], data["cols"], data["entries"]
        except (TypeError, KeyError) as exc:
            raise DomainError(f"matrix JSON needs rows/cols/entries: {exc}") from exc
        if type(rows) is not int or type(cols) is not int:
            raise DomainError("matrix JSON rows/cols must be integers")
        if not isinstance(entries, list) or len(entries) != rows:
            raise DomainError("matrix JSON entries must be a list of rows")
        m = cls.from_rows(entries)
        if m.cols != cols:
            raise DomainError("matrix JSON cols field disagrees with entries")
        return m


class SnfResult(Record):
    """Certified Smith normal form: Q @ X == D @ P with Q, P unimodular."""

    __slots__ = ("Q", "D", "P")


class HsnfResult(Record):
    """Certified homogeneous Smith normal form: Q @ X == A @ P, P @ 1 == 1."""

    __slots__ = ("Q", "A", "P")


def _det_rows(m: list[list[int]], n: int) -> int:
    """Bareiss determinant of an n x n list-of-rows matrix (mutates m)."""
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = -1
        for i in range(k, n):
            if m[i][k]:
                pivot_row = i
                break
        if pivot_row < 0:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pk = m[k]
        pivot = pk[k]
        for i in range(k + 1, n):
            ri = m[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - rik * pk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _unit_rows(n: int) -> list[list[int]]:
    """The n x n identity as fresh rows, for a certificate to start from."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith_reduce(
    cols: list[list[int]],
    s: int,
    l: int,
    q: list[list[int]],
    p: list[list[int]] | None = None,
) -> list[int]:
    """In-place certified Smith reduction of a column-major matrix; returns
    the diagonal.

    The invariant ``q0 @ X == D @ p0`` is maintained throughout: row
    operations on the working matrix are mirrored on ``q`` and column
    operations are undone on ``p`` (a column op D -> D*F updates
    p -> F^-1*p, so q@X == D@p stays exact, with both certificates
    unimodular by construction).  No decision of the reduction reads
    ``p``, so a caller that needs only ``q`` passes none and the column
    operations are not mirrored at all.
    """
    t = 0
    bound = s if s < l else l
    diag: list[int] = []
    while t < bound:
        # pivot: smallest |entry| in the trailing submatrix, column-major.
        bi = bj = -1
        best = 0
        for j in range(t, l):
            colj = cols[j]
            for i in range(t, s):
                v = colj[i]
                if v:
                    if v < 0:
                        v = -v
                    if best == 0 or v < best:
                        best = v
                        bi = i
                        bj = j
                        if v == 1:
                            break
            if best == 1:
                break
        if best == 0:
            break
        if bj != t:
            cols[bj], cols[t] = cols[t], cols[bj]
            if p is not None:
                p[bj], p[t] = p[t], p[bj]
        if bi != t:
            for col in cols:
                col[bi], col[t] = col[t], col[bi]
            q[bi], q[t] = q[t], q[bi]
        while True:
            ct = cols[t]
            piv = ct[t]
            dirty = False
            # clear the pivot row with column operations
            for j in range(t + 1, l):
                cj = cols[j]
                v = cj[t]
                if v:
                    qq = v // piv
                    if qq:
                        cols[j] = cj = [x - qq * y for x, y in zip(cj, ct)]
                        if p is not None:
                            p[t] = [x + qq * y for x, y in zip(p[t], p[j])]
                    if cj[t]:
                        dirty = True
            # clear the pivot column with row operations
            piv = ct[t]
            for i in range(t + 1, s):
                v = ct[i]
                if v:
                    qq = v // piv
                    if qq:
                        for col in cols:
                            col[i] -= qq * col[t]
                        q[i] = [x - qq * y for x, y in zip(q[i], q[t])]
                    if ct[i]:
                        dirty = True
            if not dirty:
                break
            # remainders are smaller than the pivot; reselect from row/col t
            best = ct[t]
            if best < 0:
                best = -best
            bi = bj = t
            for i in range(t + 1, s):
                v = ct[i]
                if v:
                    if v < 0:
                        v = -v
                    if v < best:
                        best = v
                        bi, bj = i, t
            for j in range(t + 1, l):
                v = cols[j][t]
                if v:
                    if v < 0:
                        v = -v
                    if v < best:
                        best = v
                        bi, bj = t, j
            if bj != t:
                cols[bj], cols[t] = cols[t], cols[bj]
                if p is not None:
                    p[bj], p[t] = p[t], p[bj]
            elif bi != t:
                for col in cols:
                    col[bi], col[t] = col[t], col[bi]
                q[bi], q[t] = q[t], q[bi]
        # the pivot must divide the trailing submatrix, else fold a row in
        piv = cols[t][t]
        retry = False
        if piv != 1 and piv != -1:
            for j in range(t + 1, l):
                cj = cols[j]
                for i in range(t + 1, s):
                    if cj[i] % piv:
                        for col in cols:
                            col[t] += col[i]
                        q[t] = [x + y for x, y in zip(q[t], q[i])]
                        retry = True
                        break
                if retry:
                    break
        if not retry:
            diag.append(piv)
            t += 1
    # sign normalization: make diagonal entries positive by row negation
    for i, v in enumerate(diag):
        if v < 0:
            diag[i] = -v
            for col in cols:
                col[i] = -col[i]
            q[i] = [-x for x in q[i]]
    return diag


def snf(x: IntMat) -> SnfResult:
    """Smith normal form of ``x`` with unimodular certificates.

    Returns ``SnfResult(Q, D, P)`` where ``Q @ x == D @ P`` exactly, ``D``
    is diagonal with positive invariant factors ``a_1 | a_2 | ...`` followed
    by zeros, and ``|det Q| == |det P| == 1``.
    """
    s, l = x.rows, x.cols
    cols = x.to_cols()
    q = _unit_rows(s)
    p = _unit_rows(l)
    _smith_reduce(cols, s, l, q, p)
    return SnfResult(
        IntMat._trusted(s, s, tuple(chain.from_iterable(q))),
        IntMat._trusted(s, l, tuple(chain.from_iterable(zip(*cols)))),
        IntMat._trusted(l, l, tuple(chain.from_iterable(p))),
    )


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g == gcd(a, b) > 0`` and ``x*a + y*b == g``; b != 0."""
    g = gcd(a, b)
    x = pow(a // g, -1, abs(b // g))
    return g, x, (g - x * a) // b


def _invariant_chain(rows: list[list[int]]) -> list[int]:
    """Invariant factors of the matrix with these rows; consumes ``rows``.

    A tall matrix is transposed first.  Each round pivots on an entry of
    smallest absolute value, clears the rest of its column and then its
    row, and drops both.  An entry ``v`` the pivot ``p`` does not divide
    meets it in one Bezout step: with
    ``g = x*p + y*v``, the pivot's row (or column) ``u`` and the other one
    ``w`` go to ``x*u + y*w`` and ``(p/g)*w - (v/g)*u``, a 2 x 2 unimodular
    map that leaves ``g`` at the pivot and 0 beside it.  A column step
    refills the pivot column, which is then cleared again; ``|p|`` drops
    at every Bezout step, so this ends.  A last row's factor is the gcd of
    its entries.  The diagonal left over is made positive and turned into
    a divisor chain by pairwise ``(gcd, lcm)`` steps, which keep each
    prime's exponents and sort them along the chain.
    """
    if len(rows) > len(rows[0]):
        # X and its transpose share their invariant factors; rows cost a
        # list operation each, columns only a ``del`` per row
        rows = [list(c) for c in zip(*rows)]
    diag: list[int] = []
    while rows:
        if len(rows) == 1:
            g = gcd(*rows[0])
            if g:
                diag.append(g)
            break
        best = bi = bj = 0
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                if v:
                    if v < 0:
                        v = -v
                    if best == 0 or v < best:
                        best, bi, bj = v, i, j
                        if v == 1:
                            break
            if best == 1:
                break
        if best == 0:
            break
        prow = rows.pop(bi)
        p = prow[bj]
        while True:
            # clear the pivot column with row steps
            for k, r in enumerate(rows):
                v = r[bj]
                if v:
                    if v % p:
                        g, x, y = _bezout(p, v)
                        a, b = p // g, v // g
                        prow, rows[k] = (
                            [x * c + y * d for c, d in zip(prow, r)],
                            [a * d - b * c for c, d in zip(prow, r)],
                        )
                        p = g
                    else:
                        v //= p
                        rows[k] = [d - v * c for c, d in zip(prow, r)]
            # the pivot row: entries p divides are cleared by column steps
            # that change nothing else, as the pivot column is clear
            if p == 1 or p == -1:
                break
            j = next((j for j, v in enumerate(prow) if v % p), -1)
            if j < 0:
                break
            v = prow[j]
            g, x, y = _bezout(p, v)
            a, b = p // g, v // g
            for r in chain(rows, (prow,)):
                c, d = r[bj], r[j]
                r[bj], r[j] = x * c + y * d, a * d - b * c
            p = g
        diag.append(p)
        for r in rows:
            del r[bj]
    # sign normalization, then the divisor chain
    diag = [-v if v < 0 else v for v in diag]
    n = len(diag)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = diag[i], diag[j]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[j] = g, a // g * b
    return diag


def invariant_factors(x: IntMat) -> tuple[int, ...]:
    """The invariant factors (a_1, ..., a_r) of ``x``; r is its rank.

    Certificate-free: Bezout elimination and a divisor chain, sharing no
    code with the certified ``snf``.
    """
    return tuple(_invariant_chain(x.to_rows()))


def minor_gcd(x: IntMat, k: int) -> int:
    """Greatest common divisor of all k-by-k minors of ``x`` (0 if all vanish).

    Independent oracle for the invariant factors: for k <= rank,
    ``a_1 * ... * a_k == minor_gcd(x, k)``.

    Each set of k distinct rows meets each set of k distinct columns once,
    so the cost is binomial in the numbers of distinct rows and columns,
    not in the shape; 0 when k exceeds either number.  This is exact: a
    minor with a repeated row or column is 0, and minors on the same
    distinct rows and columns differ by a permutation of rows and columns,
    so they agree up to sign.  A 2 x 2 minor is read as ad - bc, as the
    1 x 1 minors are read as the entries; larger ones by Bareiss.
    """
    if not 1 <= k <= min(x.rows, x.cols):
        raise DomainError(f"minor size {k} out of range for {x.rows}x{x.cols}")
    if k == 1:  # the 1 x 1 minors are the entries
        return gcd(*x.entries)
    rows = dict.fromkeys(map(tuple, x.to_rows()))
    g = 0
    for rsel in combinations(rows, k):
        # the distinct columns of these rows, each a k-tuple
        for csel in combinations(dict.fromkeys(zip(*rsel)), k):
            if k == 2:
                (a, c), (b, d) = csel
                g = gcd(g, a * d - b * c)
            else:
                g = gcd(g, _det_rows([list(col) for col in csel], k))
            if g == 1:
                return 1
    return g


_NOT_HOMOGENEOUS = "matrix rows must sum to zero (X @ 1 == 0)"


def _require_homogeneous(x: IntMat) -> None:
    if any(x.row_sums()):
        raise DomainError(_NOT_HOMOGENEOUS)


def hsnf(x: IntMat) -> HsnfResult:
    """Homogeneous Smith normal form of ``x`` with certificates.

    Requires zero row sums.  Runs the certified reduction of ``snf``
    directly on the columns of the first-column erasure ``X'``, giving
    ``Q @ X' == D @ P'`` with the same certificates ``snf(X')`` has, then
    assembles the block certificate

        P = [[1, 0], [u, P']],   u = (I - P') @ 1,

    which satisfies ``P @ 1 == 1`` and keeps ``{0} x Z^(l-1)`` invariant.
    The normal form is ``A = [-D @ 1 | D]``, the unique HSNF in the orbit of
    ``x``; ``Q @ x == A @ P`` exactly.
    """
    _require_homogeneous(x)
    s, l = x.rows, x.cols
    if l == 1:
        # zero row sums force x == 0; it is its own (trivial) normal form
        return HsnfResult(IntMat.identity(s), x, IntMat.identity(1))
    m = l - 1
    cols = x.to_cols()[1:]
    q = _unit_rows(s)
    p = _unit_rows(m)
    _smith_reduce(cols, s, m, q, p)
    # each row of P' and D, led by the entry that makes its row sum 1 or 0
    p_flat = [1] + [0] * m
    for r in p:
        p_flat += [1 - sum(r), *r]
    a_flat = [v for r in zip(*cols) for v in (-sum(r), *r)]
    return HsnfResult(
        IntMat._trusted(s, s, tuple(chain.from_iterable(q))),
        IntMat._trusted(s, l, tuple(a_flat)),
        IntMat._trusted(l, l, tuple(p_flat)),
    )


def hsnf_left(x: IntMat) -> IntMat:
    """The left certificate ``Q`` of ``hsnf(x)`` alone.

    Requires zero row sums.  Runs the same certified reduction on the same
    first-column erasure with no ``P`` to mirror the column operations on:
    no decision of the reduction reads ``P``, so the pivots, the row
    operations and hence ``Q`` are exactly those of ``hsnf(x)``, without
    building ``P`` or ``A``.
    """
    _require_homogeneous(x)
    s, l = x.rows, x.cols
    q = _unit_rows(s)
    _smith_reduce(x.to_cols()[1:], s, l - 1, q)
    return IntMat._trusted(s, s, tuple(chain.from_iterable(q)))


def hsnf_form(x: IntMat) -> IntMat:
    """The homogeneous Smith normal form of ``x`` alone (no certificates).

    Requires zero row sums.  Certificate-free: the invariant factors of the
    first-column erasure come from the Bezout kernel of
    ``invariant_factors``, which shares no code with ``hsnf``; the result
    agrees with ``hsnf(x).A``.
    """
    s, l = x.rows, x.cols
    e = x.entries
    # the zero row sums are checked in the pass that slices the erasure
    erased = []
    for i in range(0, s * l, l):
        if sum(e[i : i + l]):
            raise DomainError(_NOT_HOMOGENEOUS)
        erased.append(list(e[i + 1 : i + l]))
    diag = _invariant_chain(erased)
    flat = [0] * (s * l)
    for i, v in enumerate(diag):
        flat[i * l] = -v
        flat[i * l + i + 1] = v
    return IntMat._trusted(s, l, tuple(flat))
