"""Exact integer matrices and Smith-type normal forms with certificates.

All arithmetic uses Python's arbitrary-precision integers, so every result
is exact; the overflow failure mode of fixed-width implementations cannot
occur here.  Values are immutable after construction and all operations are
pure functions, safe for unsynchronized concurrent use.

The reduction engine picks as pivot a nonzero entry of minimal absolute
value, first occurrence in column-major order, which keeps intermediate
entries small and makes every certificate deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .errors import DomainError

__all__ = [
    "IntMat",
    "SnfResult",
    "HsnfResult",
    "snf",
    "hsnf",
    "hsnf_form",
    "is_snf",
    "is_hsnf",
    "invariant_factors",
    "minor_gcd",
    "rank",
]


@dataclass(frozen=True)
class IntMat:
    """Dense integer matrix; entries stored row-major as a flat tuple."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DomainError("matrix needs at least one row and one column")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise DomainError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        for e in entries:
            if type(e) is not int:
                raise DomainError(f"matrix entries must be plain ints, got {e!r}")
        object.__setattr__(self, "entries", entries)

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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMat":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DomainError(f"index ({i}, {j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise DomainError(f"row {i} out of range")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise DomainError(f"column {j} out of range")
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def to_cols(self) -> list[list[int]]:
        return [list(self.entries[j :: self.cols]) for j in range(self.cols)]

    def transpose(self) -> "IntMat":
        return IntMat(
            self.cols,
            self.rows,
            tuple(
                self.entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

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
        return IntMat(self.rows, other.cols, tuple(flat))

    def mat_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DomainError("vector length must match column count")
        return tuple(sum(x * y for x, y in zip(self.row(i), v)) for i in range(self.rows))

    def vec_mat(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.rows:
            raise DomainError("vector length must match row count")
        return tuple(sum(x * y for x, y in zip(self.col(j), v)) for j in range(self.cols))

    def row_sums(self) -> tuple[int, ...]:
        c = self.cols
        return tuple(sum(self.entries[i * c : (i + 1) * c]) for i in range(self.rows))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DomainError("determinant of a non-square matrix")
        return _det_rows(self.to_rows(), self.rows)

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

    def __str__(self) -> str:
        rows = self.to_rows()
        return "[" + "; ".join(" ".join(str(v) for v in r) for r in rows) + "]"


@dataclass(frozen=True)
class SnfResult:
    """Certified Smith normal form: Q @ X == D @ P with Q, P unimodular."""

    Q: IntMat
    D: IntMat
    P: IntMat

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.D.entry(i, i) for i in range(min(self.D.rows, self.D.cols))
        )


@dataclass(frozen=True)
class HsnfResult:
    """Certified homogeneous Smith normal form: Q @ X == A @ P, P @ 1 == 1."""

    Q: IntMat
    A: IntMat
    P: IntMat

    def superdiagonal(self) -> tuple[int, ...]:
        return tuple(
            self.A.entry(i, i + 1) for i in range(min(self.A.rows, self.A.cols - 1))
        )


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


def _smith_reduce(
    cols: list[list[int]],
    s: int,
    l: int,
    q: Optional[list[list[int]]] = None,
    p: Optional[list[list[int]]] = None,
) -> list[int]:
    """In-place Smith reduction of a column-major matrix; returns the diagonal.

    When certificate accumulators are supplied, the invariant
    ``q0 @ X == D @ p0`` is maintained throughout: row operations on the
    working matrix are mirrored on ``q`` and column operations are undone on
    ``p`` (a column op D -> D*F updates p -> F^-1*p, so q@X == D@p stays
    exact, with both certificates unimodular by construction).
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
            if q is not None:
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
                        if q is not None:
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
                if q is not None:
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
                        if q is not None:
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
            if q is not None:
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
    q = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    p = [[1 if i == j else 0 for j in range(l)] for i in range(l)]
    _smith_reduce(cols, s, l, q, p)
    d = IntMat(s, l, tuple(cols[j][i] for i in range(s) for j in range(l)))
    return SnfResult(Q=IntMat.from_rows(q), D=d, P=IntMat.from_rows(p))


def invariant_factors(x: IntMat) -> tuple[int, ...]:
    """The invariant factors (a_1, ..., a_r) of ``x``; r == rank(x)."""
    return tuple(_smith_reduce(x.to_cols(), x.rows, x.cols))


def rank(x: IntMat) -> int:
    """Rank over the rationals (equals the number of invariant factors)."""
    return len(invariant_factors(x))


def minor_gcd(x: IntMat, k: int) -> int:
    """Greatest common divisor of all k-by-k minors of ``x`` (0 if all vanish).

    Independent oracle for the invariant factors: for k <= rank,
    ``a_1 * ... * a_k == minor_gcd(x, k)``.
    """
    if not 1 <= k <= min(x.rows, x.cols):
        raise DomainError(f"minor size {k} out of range for {x.rows}x{x.cols}")
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


def is_snf(d: IntMat) -> bool:
    """True iff ``d`` is diagonal with positive divisor-chain entries first."""
    diag: list[int] = []
    for i in range(d.rows):
        for j in range(d.cols):
            v = d.entry(i, j)
            if i != j:
                if v:
                    return False
            else:
                diag.append(v)
    seen_zero = False
    prev = None
    for v in diag:
        if v == 0:
            seen_zero = True
        else:
            if seen_zero or v < 0:
                return False
            if prev is not None and v % prev:
                return False
            prev = v
    return True


def _erase_first_col(x: IntMat) -> IntMat:
    return IntMat(
        x.rows,
        x.cols - 1,
        tuple(v for i in range(x.rows) for v in x.row(i)[1:]),
    )


def is_hsnf(a: IntMat) -> bool:
    """True iff ``a`` has zero row sums and its first-column erasure is in SNF."""
    if any(a.row_sums()):
        return False
    if a.cols == 1:
        return True  # zero rows sums force the zero column, erasure is empty
    return is_snf(_erase_first_col(a))


def _require_homogeneous(x: IntMat) -> None:
    if any(x.row_sums()):
        raise DomainError("matrix rows must sum to zero (X @ 1 == 0)")


def hsnf(x: IntMat) -> HsnfResult:
    """Homogeneous Smith normal form of ``x`` with certificates.

    Requires zero row sums.  Computes the SNF ``Q @ X' == D @ P'`` of the
    first-column erasure ``X'``, then assembles the block certificate

        P = [[1, 0], [u, P']],   u = (I - P') @ 1,

    which satisfies ``P @ 1 == 1`` and keeps ``{0} x Z^(l-1)`` invariant.
    The normal form is ``A = [-D @ 1 | D]``, the unique HSNF in the orbit of
    ``x``; ``Q @ x == A @ P`` exactly.
    """
    _require_homogeneous(x)
    s, l = x.rows, x.cols
    if l == 1:
        # zero row sums force x == 0; it is its own (trivial) normal form
        return HsnfResult(Q=IntMat.identity(s), A=x, P=IntMat.identity(1))
    inner = snf(_erase_first_col(x))
    dp = inner.P.to_rows()
    u = [1 - sum(r) for r in dp]
    p_rows = [[1] + [0] * (l - 1)]
    for i in range(l - 1):
        p_rows.append([u[i]] + dp[i])
    a_rows = []
    for i in range(s):
        drow = inner.D.row(i)
        a_rows.append([-sum(drow)] + list(drow))
    return HsnfResult(Q=inner.Q, A=IntMat.from_rows(a_rows), P=IntMat.from_rows(p_rows))


def hsnf_form(x: IntMat) -> IntMat:
    """The homogeneous Smith normal form of ``x`` alone (no certificates).

    Fast path for bulk verification; agrees with ``hsnf(x).A``.
    """
    _require_homogeneous(x)
    s, l = x.rows, x.cols
    if l == 1:
        return x
    cols = [list(x.col(j)) for j in range(1, l)]
    diag = _smith_reduce(cols, s, l - 1)
    flat = [0] * (s * l)
    for i, v in enumerate(diag):
        flat[i * l] = -v
        flat[i * l + i + 1] = v
    return IntMat(s, l, tuple(flat))
