import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi_lattice.errors import DomainError
from severi_lattice.intmat import IntMat, snf
from severi_lattice.lattices import (
    AffineLattice2,
    Z2,
    affine_span,
    divisors,
    intermediate_lattices,
    lattice_index,
    rotate90,
)


def odd_lattice():
    return affine_span([(1, 0), (0, 1), (-1, 0), (0, -1)])


def even_lattice():
    return AffineLattice2.linear_from_generators([(1, 1), (1, -1)])


@st.composite
def linear_lattices(draw, bound=6):
    d1 = draw(st.integers(1, bound))
    d2 = draw(st.integers(1, bound))
    e = draw(st.integers(0, d1 - 1))
    return AffineLattice2((0, 0), ((d1, e), (0, d2)))


@st.composite
def generator_lists(draw):
    count = draw(st.integers(2, 5))
    gens = draw(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
            min_size=count,
            max_size=count,
        )
    )
    return gens


class TestCanonicalForm:
    def test_bad_basis_rejected(self):
        with pytest.raises(DomainError):
            AffineLattice2((0, 0), ((0, 0), (0, 1)))
        with pytest.raises(DomainError):
            AffineLattice2((0, 0), ((2, 2), (0, 1)))  # e out of range
        with pytest.raises(DomainError):
            AffineLattice2((5, 0), ((2, 0), (0, 1)))  # basepoint not reduced

    def test_rank_deficient_span(self):
        with pytest.raises(DomainError):
            AffineLattice2.linear_from_generators([(1, 0), (2, 0)])
        with pytest.raises(DomainError):
            AffineLattice2.linear_from_generators([(0, 0)])
        with pytest.raises(DomainError):
            affine_span([(0, 0), (1, 1), (2, 2)])

    @settings(max_examples=200, deadline=None)
    @given(generator_lists())
    def test_idempotent(self, gens):
        try:
            lat = AffineLattice2.linear_from_generators(gens)
        except DomainError:
            return  # rank-deficient sample
        again = AffineLattice2.linear_from_generators(lat.generators())
        assert lat == again

    @settings(max_examples=100, deadline=None)
    @given(linear_lattices(), st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    def test_basepoint_reduction_is_canonical(self, lat, shift):
        g1, g2 = lat.generators()
        p = (shift[0], shift[1])
        q = (p[0] + 3 * g1[0] - 2 * g2[0], p[1] + 3 * g1[1] - 2 * g2[1])
        a = lat.translate(p)
        b = lat.translate(q)
        assert a == b  # same coset, same representation


class TestSpanAndMembership:
    def test_span_examples(self):
        assert affine_span([(0, 0), (1, 0), (0, 1)]) == Z2
        odd = odd_lattice()
        assert odd.index_in_z2 == 2
        assert odd.contains((1, 0)) and odd.contains((0, 1)) and odd.contains((2, 1))
        assert not odd.contains((0, 0)) and not odd.contains((1, 1))
        both_even = affine_span([(0, 0), (2, 0), (0, 2)])
        assert both_even.index_in_z2 == 4
        assert both_even.contains((4, -2)) and not both_even.contains((1, 2))

    def test_z2_contains_everything(self):
        for p in [(0, 0), (3, -7), (100, 41)]:
            assert Z2.contains(p)

    @settings(max_examples=100, deadline=None)
    @given(linear_lattices(), st.integers(-5, 5), st.integers(-5, 5))
    def test_generated_points_are_members(self, lat, s, t):
        g1, g2 = lat.generators()
        assert lat.contains((s * g1[0] + t * g2[0], s * g1[1] + t * g2[1]))

    @settings(max_examples=60, deadline=None)
    @given(linear_lattices(bound=4))
    def test_membership_density(self, lat):
        # a fundamental-domain tile of Z^2 holds exactly idx cosets,
        # so a (idx x idx) block contains idx lattice points
        idx = lat.index_in_z2
        count = sum(
            1 for x in range(idx) for y in range(idx) if lat.contains((x, y))
        )
        assert count == idx

    @settings(max_examples=100, deadline=None)
    @given(generator_lists())
    def test_span_minimality(self, gens):
        try:
            lat = affine_span(gens)
        except DomainError:
            return
        for p in gens:
            assert lat.contains(p)
        # any sublattice through all the points contains the whole span
        idx = lat.index_in_z2
        if idx > 12:
            return  # keep the exhaustive candidate scan desk-scale
        base = lat.basepoint
        g1, g2 = lat.generators()
        for d1 in range(1, idx + 1):
            for d2 in range(1, idx // d1 + 1):
                for e in range(d1):
                    for bx in range(d1):
                        for by in range(d2):
                            cand = AffineLattice2((bx, by), ((d1, e), (0, d2)))
                            if all(cand.contains(p) for p in gens):
                                assert cand.contains(base)
                                assert cand.contains(
                                    (base[0] + g1[0], base[1] + g1[1])
                                )
                                assert cand.contains(
                                    (base[0] + g2[0], base[1] + g2[1])
                                )


class TestIndices:
    def test_index_examples(self):
        assert Z2.index_in_z2 == 1
        assert even_lattice().index_in_z2 == 2
        assert AffineLattice2.linear_from_generators([(2, 0), (0, 2)]).index_in_z2 == 4

    def test_lattice_index_examples(self):
        two_z2 = AffineLattice2.linear_from_generators([(2, 0), (0, 2)])
        assert lattice_index(two_z2, Z2) == 4
        assert lattice_index(even_lattice(), Z2) == 2
        assert lattice_index(even_lattice(), even_lattice()) == 1

    def test_lattice_index_requires_containment(self):
        three = AffineLattice2.linear_from_generators([(3, 0), (0, 1)])
        two = AffineLattice2.linear_from_generators([(2, 0), (0, 1)])
        with pytest.raises(DomainError):
            lattice_index(three, two)

    def test_lattice_index_requires_linear(self):
        with pytest.raises(DomainError):
            lattice_index(odd_lattice(), Z2)

    @settings(max_examples=80, deadline=None)
    @given(linear_lattices(bound=4))
    def test_index_multiplicativity(self, lat):
        try:
            mids = intermediate_lattices(lat)
        except DomainError:
            return  # non-cyclic quotient
        for mid in mids:
            assert lat.index_in_z2 == mid.index_in_z2 * lattice_index(lat, mid)


class TestRotation:
    def test_examples(self):
        assert rotate90(Z2) == Z2
        assert rotate90(even_lattice()) == even_lattice()
        horizontal = AffineLattice2.linear_from_generators([(1, 0), (0, 3)])
        vertical = AffineLattice2.linear_from_generators([(3, 0), (0, 1)])
        assert rotate90(horizontal) == vertical

    def test_requires_linear(self):
        with pytest.raises(DomainError):
            rotate90(odd_lattice())

    @settings(max_examples=100, deadline=None)
    @given(linear_lattices())
    def test_involution_and_index(self, lat):
        once = rotate90(lat)
        assert once.index_in_z2 == lat.index_in_z2
        assert rotate90(once) == lat
        assert rotate90(rotate90(rotate90(rotate90(lat)))) == lat


class TestIntermediates:
    def test_examples(self):
        assert intermediate_lattices(Z2) == [Z2]
        even = even_lattice()
        assert intermediate_lattices(even) == [even, Z2]
        l6 = AffineLattice2.linear_from_generators([(1, 0), (0, 6)])
        mids = intermediate_lattices(l6)
        assert [lattice_index(l6, m) for m in mids] == [1, 2, 3, 6]
        for mid in mids:
            for g in l6.generators():
                assert mid.contains(g)

    def test_non_cyclic_rejected(self):
        with pytest.raises(DomainError):
            intermediate_lattices(
                AffineLattice2.linear_from_generators([(2, 0), (0, 2)])
            )

    @settings(max_examples=60, deadline=None)
    @given(linear_lattices(bound=5))
    def test_completeness_against_brute_force(self, lat):
        try:
            mids = intermediate_lattices(lat)
        except DomainError:
            return
        # brute force: every triangular basis of index dividing idx
        idx = lat.index_in_z2
        found = set()
        for d1 in range(1, idx + 1):
            if idx % d1:
                continue
            for d2 in range(1, idx // d1 + 1):
                if (d1 * d2) and idx % (d1 * d2) == 0:
                    for e in range(d1):
                        cand = AffineLattice2((0, 0), ((d1, e), (0, d2)))
                        if all(cand.contains(g) for g in lat.generators()):
                            found.add(cand)
        assert found == set(mids)
        assert len(mids) == len(divisors(idx))


def reference_rotate90(lat):
    return AffineLattice2.linear_from_generators(
        [(-g[1], g[0]) for g in lat.generators()]
    )


def reference_translate(lat, point):
    return AffineLattice2.from_generators(point, lat.generators())


def reference_span(points):
    x0, y0 = points[0]
    return AffineLattice2.from_generators(
        points[0], [(x - x0, y - y0) for x, y in points[1:]]
    )


def reference_intermediates(l0):
    """The lattices between ``l0`` and Z^2 from the SNF of its basis.

    In the coordinates where ``l0 = span(e1, idx * e2)``, the lattice of
    index ``d`` over ``l0`` is ``span(e1, (idx/d) * e2)``; mapped back by
    the inverse of the SNF's column certificate.
    """
    res = snf(IntMat.from_rows([list(r) for r in l0.basis]))
    a1, a2 = res.diagonal()
    if a1 != 1:
        raise DomainError(f"Z^2 quotient is not cyclic (invariant factors {a1}, {a2})")
    det = res.Q.det()
    qa, qb, qc, qd = res.Q.entries
    inv = ((qd // det, -qb // det), (-qc // det, qa // det))
    idx = l0.index_in_z2
    return [
        AffineLattice2.linear_from_generators(
            [(inv[0][0], inv[1][0]), (idx // d * inv[0][1], idx // d * inv[1][1])]
        )
        for d in divisors(idx)
    ]


def assert_canonical(lat):
    # the validating constructor accepts the value as it stands
    assert AffineLattice2(lat.basepoint, lat.basis) == lat


class TestClosedForms:
    """Closed forms on (d1, e, d2) against references through from_generators."""

    @settings(max_examples=300, deadline=None)
    @given(
        linear_lattices(bound=12),
        st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    )
    def test_rotate_and_translate(self, lat, point):
        for got, want in (
            (rotate90(lat), reference_rotate90(lat)),
            (lat.translate(point), reference_translate(lat, point)),
            (lat.linear_part(), lat),
        ):
            assert got == want
            assert_canonical(got)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
            min_size=1,
            max_size=8,
        )
    )
    def test_affine_span(self, points):
        try:
            want = reference_span(points)
        except DomainError as exc:
            with pytest.raises(DomainError) as got_exc:
                affine_span(points)
            assert str(got_exc.value) == str(exc)
            return
        got = affine_span(points)
        assert got == want
        assert_canonical(got)

    @settings(max_examples=300, deadline=None)
    @given(linear_lattices(bound=12))
    def test_intermediate_lattices(self, lat):
        try:
            want = reference_intermediates(lat)
        except DomainError as exc:
            with pytest.raises(DomainError) as got_exc:
                intermediate_lattices(lat)
            assert str(got_exc.value) == str(exc)
            return
        got = intermediate_lattices(lat)
        assert got == want
        for d, mid in zip(divisors(lat.index_in_z2), got):
            assert_canonical(mid)
            assert lattice_index(lat, mid) == d

    @pytest.mark.parametrize(
        "basis, factors",
        [
            (((2, 0), (0, 2)), "2, 2"),
            (((4, 2), (0, 6)), "2, 12"),
            (((3, 0), (0, 9)), "3, 9"),
        ],
    )
    def test_non_cyclic_error_text(self, basis, factors):
        lat = AffineLattice2((0, 0), basis)
        with pytest.raises(DomainError) as exc:
            intermediate_lattices(lat)
        assert str(exc.value) == (
            f"Z^2 quotient is not cyclic (invariant factors {factors})"
        )

    def test_outside_input_is_still_checked(self):
        lat = AffineLattice2.linear_from_generators([(2, 0), (1, 3)])
        for bad in [(1.0, 0), (1,), "ab", (True, 0)]:
            with pytest.raises(DomainError):
                lat.contains(bad)
            with pytest.raises(DomainError):
                lat.translate(bad)
            with pytest.raises(DomainError):
                affine_span([(0, 0), bad])
            with pytest.raises(DomainError):
                AffineLattice2.from_generators(bad, [(1, 0), (0, 1)])


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    with pytest.raises(DomainError):
        divisors(0)


def test_divisors_match_the_definition():
    # d divides n iff n is a multiple of d, so one sieve pass lists the
    # divisors of every n up to the limit, in ascending order
    limit = 20_000
    divisors_of = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for n in range(d, limit + 1, d):
            divisors_of[n].append(d)
    for n in range(1, limit + 1):
        assert divisors(n) == divisors_of[n], n
    # the bound-scale triangle's index, and a prime past every small factor
    for n, count in ((21_067_200, 504), (2**31 - 1, 2)):
        pairs = [(d, n // d) for d in range(1, int(n**0.5) + 1) if n % d == 0]
        got = divisors(n)
        assert got == sorted({d for pair in pairs for d in pair})
        assert len(got) == count


def test_json_round_trip():
    lat = odd_lattice()
    assert AffineLattice2.from_json_dict(lat.to_json_dict()) == lat
    with pytest.raises(DomainError):
        AffineLattice2.from_json_dict({"basis": [[1, 0], [0, 1]]})
