import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi_lattice.errors import DomainError
from severi_lattice.intmat import (
    IntMat,
    hsnf,
    hsnf_form,
    hsnf_left,
    invariant_factors,
    minor_gcd,
    snf,
)
from severi_lattice.verify import perturb_homogeneous, random_unimodular

from helpers import (
    corner_matrix_rows,
    random_gl_h,
    random_homogeneous_matrix,
    reference_minor_gcd,
    smith_form,
)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=6, bound=9):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(st.integers(-bound, bound), min_size=r * c, max_size=r * c)
    )
    return IntMat(r, c, tuple(entries))


@st.composite
def kernel_rows(draw, max_rows=7, max_cols=9, bound=10**6):
    """Rows of a matrix with small or large entries, some rows and columns
    zeroed, and sometimes one row a signed sum of two others (rank
    deficient; its entries may reach twice the bound)."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    entry = st.one_of(st.integers(-9, 9), st.integers(-bound, bound))
    rows = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        rows[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if r >= 3 and draw(st.booleans()):
        i, a, b = draw(st.permutations(range(r)))[:3]
        ka, kb = draw(st.sampled_from((-1, 1))), draw(st.sampled_from((-1, 0, 1)))
        rows[i] = [ka * x + kb * y for x, y in zip(rows[a], rows[b])]
    return rows


@st.composite
def planted_rows(draw, max_base=3, max_copies=2, bound=9):
    """Rows of a matrix grown from a few base rows and columns by planted
    exact copies of columns and of rows and a planted zero column and zero
    row, each in a shuffled position, all scaled by 1, 2 or 6 (so the gcd
    often stays above one and no scan stops early).  The distinct rows or
    columns are often fewer than min(rows, cols)."""
    r0 = draw(st.integers(1, max_base))
    c0 = draw(st.integers(1, max_base + 1))
    scale = draw(st.sampled_from((1, 2, 6)))
    entry = st.integers(-bound, bound).map(lambda v: scale * v)
    base = [draw(st.lists(entry, min_size=c0, max_size=c0)) for _ in range(r0)]
    cols = [list(col) for col in zip(*base)]
    cols += [cols[j] for j in draw(st.lists(st.integers(0, c0 - 1), max_size=max_copies))]
    cols += [[0] * r0] * draw(st.integers(0, 1))
    rows = [list(row) for row in zip(*draw(st.permutations(cols)))]
    rows += [rows[i] for i in draw(st.lists(st.integers(0, r0 - 1), max_size=max_copies))]
    rows += [[0] * len(cols)] * draw(st.integers(0, 1))
    return [list(row) for row in draw(st.permutations(rows))]


def assert_minor_gcd_products(x, factors):
    """``factors`` are the invariant factors of ``x`` by the minor-gcd oracle."""
    prod = 1
    for k, alpha in enumerate(factors, start=1):
        prod *= alpha
        assert minor_gcd(x, k) == prod
    if len(factors) < min(x.rows, x.cols):
        assert minor_gcd(x, len(factors) + 1) == 0


@st.composite
def homogeneous_matrices(draw, max_rows=4, max_cols=5, bound=9):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(r):
        row = draw(st.lists(st.integers(-bound, bound), min_size=c, max_size=c))
        rows.append(row + [-sum(row)])
    return IntMat.from_rows(rows)


class TestIntMat:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            IntMat(0, 1, ())
        with pytest.raises(DomainError):
            IntMat(2, 2, (1, 2, 3))
        with pytest.raises(DomainError):
            IntMat(1, 2, (1, True))
        with pytest.raises(DomainError):
            IntMat.from_rows([[1, 2], [3]])

    def test_accessors(self):
        m = IntMat.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.row(1) == (4, 5, 6)
        assert m.to_rows()[1][0] == 4
        assert m.to_cols() == [[1, 4], [2, 5], [3, 6]]
        assert m.row_sums() == (6, 15)
        with pytest.raises(DomainError):
            m.row(2)

    def test_matmul_and_det(self):
        a = IntMat.from_rows([[1, 2], [3, 4]])
        b = IntMat.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        # the only n x n minor is the determinant
        assert minor_gcd(a, 2) == 2
        assert minor_gcd(IntMat.identity(4), 4) == 1
        with pytest.raises(DomainError):
            a @ IntMat.from_rows([[1, 2, 3]])

    def test_slotted_and_frozen(self):
        m = IntMat.from_rows([[1, 2], [3, 4]])
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.rows = 3
        with pytest.raises(AttributeError):
            m.entries = (0, 0, 0, 0)
        assert IntMat.from_rows(m.to_rows()) == m
        transposed = IntMat.from_rows(m.to_cols())
        assert hash(transposed) == hash(IntMat.from_rows([[1, 3], [2, 4]]))

    def test_json_round_trip(self):
        m = IntMat.from_rows([[1, -2], [0, 7]])
        assert IntMat.from_json_dict(m.to_json_dict()) == m
        with pytest.raises(DomainError):
            IntMat.from_json_dict({"rows": 1, "cols": 3, "entries": [[1, 2]]})


class TestSnfExamples:
    def test_identity(self):
        res = snf(IntMat.identity(2))
        assert res.D == IntMat.identity(2)
        assert res.Q == IntMat.identity(2)
        assert res.P == IntMat.identity(2)

    def test_two_by_two(self):
        x = IntMat.from_rows([[2, 4], [6, 8]])
        res = snf(x)
        assert res.D == IntMat.from_rows([[2, 0], [0, 4]])
        assert res.Q @ x == res.D @ res.P

    def test_zero_matrix(self):
        x = IntMat(2, 3, (0,) * 6)
        res = snf(x)
        assert res.D == x
        assert invariant_factors(x) == ()

    def test_invariant_factor_examples(self):
        assert invariant_factors(IntMat.from_rows([[2, 4], [6, 8]])) == (2, 4)
        for n in (1, 2, 4):
            assert invariant_factors(IntMat.identity(n)) == (1,) * n
        # normal matrix of the unit diamond
        diamond = IntMat.from_rows([[-1, 1, 1, -1], [-1, -1, 1, 1]])
        assert invariant_factors(diamond) == (1, 2)
        assert minor_gcd(diamond, 1) == 1
        assert minor_gcd(diamond, 2) == 2

    def test_rank(self):
        # one invariant factor per unit of rank
        assert len(invariant_factors(IntMat.identity(3))) == 3
        assert len(invariant_factors(IntMat.from_rows([[1, 2], [2, 4]]))) == 1


class TestCertificateFreeKernel:
    """``invariant_factors`` and ``hsnf_form`` against the minor-gcd oracle,
    which shares no code with either kernel."""

    def test_diagonal_becomes_a_divisor_chain(self):
        assert invariant_factors(IntMat.from_rows([[2, 0], [0, 3]])) == (1, 6)
        x = IntMat.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 9]])
        assert invariant_factors(x) == (1, 6, 36)
        xh = IntMat.from_rows([[-2, 2, 0], [-3, 0, 3]])
        assert hsnf_form(xh) == IntMat.from_rows([[-1, 1, 0], [-6, 0, 6]])

    def test_column_step_refills_the_pivot_column(self):
        # pivot -4, and -6 beside it: the column step leaves 2 at the pivot
        # and puts a nonzero back under it, which must be cleared again
        x = IntMat.from_rows([[-6, -4], [5, 4]])
        assert invariant_factors(x) == (1, 4)
        xh = IntMat.from_rows([[10, -6, -4], [-9, 5, 4]])
        assert hsnf_form(xh) == IntMat.from_rows([[-1, 1, 0], [-4, 0, 4]])

    def test_factors_are_positive(self):
        assert invariant_factors(IntMat.from_rows([[-4]])) == (4,)
        assert invariant_factors(IntMat.from_rows([[0, -3], [0, 0]])) == (3,)
        assert invariant_factors(IntMat.from_rows([[-2, 0], [0, -4]])) == (2, 4)
        assert hsnf_form(IntMat.from_rows([[5, -5]])) == IntMat.from_rows([[-5, 5]])

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows())
    def test_invariant_factors(self, rows):
        x = IntMat.from_rows(rows)
        assert_minor_gcd_products(x, invariant_factors(x))

    @settings(max_examples=100, deadline=None)
    @given(kernel_rows(max_cols=8))
    def test_hsnf_form(self, rows):
        x = IntMat.from_rows([row + [-sum(row)] for row in rows])
        a = hsnf_form(x)
        assert a == hsnf(x).A
        rows = a.to_rows()
        superdiagonal = [rows[i][i + 1] for i in range(min(x.rows, x.cols - 1))]
        assert_minor_gcd_products(x, [v for v in superdiagonal if v])


class TestMinorGcd:
    def test_examples(self):
        x = IntMat.from_rows([[2, 4], [6, 8]])
        assert minor_gcd(x, 1) == 2
        assert minor_gcd(x, 2) == 8
        assert minor_gcd(IntMat.identity(3), 2) == 1

    def test_out_of_range(self):
        x = IntMat.from_rows([[2, 4], [6, 8]])
        with pytest.raises(DomainError):
            minor_gcd(x, 0)
        with pytest.raises(DomainError):
            minor_gcd(x, 3)

    def test_all_minors_vanish(self):
        assert minor_gcd(IntMat(2, 2, (0,) * 4), 1) == 0

    def test_repeated_rows_and_columns(self):
        # two distinct rows, three distinct columns: no 3 x 3 minor survives
        x = IntMat.from_rows([[2, 4, 2, 0], [6, 8, 6, 0], [2, 4, 2, 0]])
        assert [minor_gcd(x, k) for k in (1, 2, 3)] == [2, 8, 0]
        # the normal matrix of the diamond |x| + |y| <= 2, two points per
        # facet: its 2 x 2 minors are 0 and +-2
        x = IntMat.from_rows([[1, 1, -1, -1, -1, -1, 1, 1], [1, 1, 1, 1, -1, -1, -1, -1]])
        assert minor_gcd(x, 2) == 2

    @settings(max_examples=300, deadline=None)
    @given(planted_rows())
    def test_matches_the_scan_over_every_selection(self, rows):
        x = IntMat.from_rows(rows)
        for k in range(1, min(x.rows, x.cols) + 1):
            assert minor_gcd(x, k) == reference_minor_gcd(x, k), k

    def test_one_by_one_minors_are_the_entries(self):
        assert minor_gcd(IntMat(1, 3, (0, 0, 0)), 1) == 0
        assert minor_gcd(IntMat.from_rows([[-6, 0], [0, -9]]), 1) == 3
        assert minor_gcd(IntMat.from_rows([[0, -4, 0]]), 1) == 4
        assert minor_gcd(IntMat.from_rows([[-7]]), 1) == 7


class TestHsnfExamples:
    def test_one_row(self):
        res = hsnf(IntMat.from_rows([[1, -1]]))
        assert res.A == IntMat.from_rows([[-1, 1]])
        assert res.Q @ IntMat.from_rows([[1, -1]]) == res.A @ res.P

    def test_twice_unit_triangle(self):
        # normal matrix of the triangle (0,0), (2,0), (2,2)
        x = IntMat.from_rows([[0, 0, -1, -1, 1, 1], [1, 1, 0, 0, -1, -1]])
        assert hsnf(x).A == IntMat.from_rows(
            [[-1, 1, 0, 0, 0, 0], [-1, 0, 1, 0, 0, 0]]
        )

    def test_diamond(self):
        x = IntMat.from_rows([[-1, 1, 1, -1], [-1, -1, 1, 1]])
        res = hsnf(x)
        assert res.A == IntMat.from_rows([[-1, 1, 0, 0], [-2, 0, 2, 0]])

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(DomainError):
            hsnf(IntMat.from_rows([[1, 0], [0, 1]]))
        with pytest.raises(DomainError):
            hsnf_form(IntMat.from_rows([[1, 1]]))
        with pytest.raises(DomainError):
            hsnf_left(IntMat.from_rows([[1, 1]]))

    def test_single_column(self):
        x = IntMat(2, 1, (0, 0))
        res = hsnf(x)
        assert res.A == x and res.P == IntMat.identity(1)
        assert hsnf_form(x) == x
        assert hsnf_left(x) == res.Q == IntMat.identity(2)

    def test_is_hsnf_examples(self):
        # a matrix is in HSNF iff both kernels leave it as it is
        for rows, in_form in (
            ([[-1, 1, 0], [-2, 0, 2]], True),
            ([[-1, 1, 0], [0, -2, 2]], False),
            ([[1, -1]], False),
        ):
            a = IntMat.from_rows(rows)
            assert (hsnf_form(a) == a) == in_form
            assert (hsnf(a).A == a) == in_form

    def test_is_snf(self):
        # a matrix is in Smith normal form iff both kernels leave it as it is
        for rows, in_form in (
            ([[1, 0, 0], [0, 4, 0]], True),
            ([[2, 0], [0, 3]], False),  # 2 does not divide 3
            ([[0, 0], [0, 1]], False),  # zero before nonzero
            ([[0, 0], [0, 0], [0, 0]], True),
        ):
            d = IntMat.from_rows(rows)
            assert (smith_form(d) == d) == in_form
            assert (snf(d).D == d) == in_form


class TestSnfProperties:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_certificates(self, x):
        res = snf(x)
        assert res.Q @ x == res.D @ res.P
        # unimodular: the only n x n minor, the determinant, is a unit
        assert minor_gcd(res.Q, res.Q.rows) == 1
        assert minor_gcd(res.P, res.P.rows) == 1
        assert res.D == smith_form(x)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_rows=4, max_cols=5))
    def test_minor_gcd_oracle(self, x):
        assert_minor_gcd_products(x, invariant_factors(x))


class TestHsnfProperties:
    @settings(max_examples=150, deadline=None)
    @given(homogeneous_matrices())
    def test_certificates(self, x):
        res = hsnf(x)
        assert res.Q @ x == res.A @ res.P
        assert minor_gcd(res.Q, res.Q.rows) == 1
        assert minor_gcd(res.P, res.P.rows) == 1
        assert res.P.row_sums() == (1,) * x.cols  # P @ 1 == 1
        assert res.A == hsnf_form(x)
        assert not any(res.A.row_sums())

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_matrices())
    def test_superdiagonal_is_invariant_factors(self, x):
        res = hsnf(x)
        factors = invariant_factors(x)
        expect = factors + (0,) * (min(x.rows, x.cols - 1) - len(factors))
        rows = res.A.to_rows()
        assert tuple(rows[i][i + 1] for i in range(min(x.rows, x.cols - 1))) == expect

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_matrices())
    def test_constructed_p_stabilizes_subspace(self, x):
        # {0} x Z^(l-1) invariant: the first row of P must be (1, 0, ..., 0)
        res = hsnf(x)
        assert res.P.row(0) == (1,) + (0,) * (x.cols - 1)

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_matrices(), st.integers(0, 2**32 - 1))
    def test_orbit_uniqueness(self, x, seed):
        rng = random.Random(seed)
        base = hsnf_form(x)
        for _ in range(5):
            moved = perturb_homogeneous(x, rng)
            assert not any(moved.row_sums())
            assert hsnf_form(moved) == base

    @settings(max_examples=60, deadline=None)
    @given(homogeneous_matrices(), st.integers(0, 2**32 - 1))
    def test_orbit_uniqueness_matrix_form(self, x, seed):
        # literal form: Q0 @ X @ G with G in GL^h (G plays the role of the
        # inverse of a GL^h element, which is again one)
        rng = random.Random(seed)
        q0 = random_unimodular(x.rows, rng)
        g = random_gl_h(x.cols, rng)
        moved = q0 @ x @ g
        assert not any(moved.row_sums())
        assert hsnf_form(moved) == hsnf_form(x)
        assert hsnf(moved).A == hsnf(x).A

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_matrices())
    def test_fast_form_matches_certified_form(self, x):
        assert hsnf_form(x) == hsnf(x).A

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_matrices())
    def test_left_certificate_alone_is_hsnf_q(self, x):
        assert hsnf_left(x) == hsnf(x).Q

    def test_left_certificate_alone_on_criterion_4_shapes(self):
        # r <= 6 rows, c <= 8 columns plus the balancing one, |entry| <= 9
        rng = random.Random(20260809)
        for _ in range(3000):
            x = random_homogeneous_matrix(rng)
            assert hsnf_left(x) == hsnf(x).Q


    def test_certificates_at_the_corner_of_the_box(self):
        # 16 x 16, |entry| <= 1000: certificate entries reach hundreds of digits
        x = IntMat.from_rows(corner_matrix_rows())
        res = hsnf(x)
        assert hsnf_left(x) == res.Q
        assert res.Q @ x == res.A @ res.P
        ones = IntMat(x.cols, 1, (1,) * x.cols)
        assert res.P @ ones == ones
        assert res.A == hsnf_form(x)


def test_random_homogeneous_matrix_has_zero_row_sums():
    rng = random.Random(7)
    for _ in range(50):
        x = random_homogeneous_matrix(rng)
        assert not any(x.row_sums())
