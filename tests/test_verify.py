import random
from collections import Counter

from severi_lattice import certificates, severi, verify
from severi_lattice.corpus import CorpusSpec, iter_corpus
from severi_lattice.errors import InvariantViolation
from severi_lattice.intmat import IntMat, minor_gcd
from severi_lattice.lattices import Z2, AffineLattice2
from severi_lattice.polygons import LatticePolygon
from severi_lattice.severi import BoundaryProfile, ComponentDescriptor
from severi_lattice.verify import random_unimodular, run_verification

from helpers import random_gl_h


def test_battery_passes_on_small_corpus():
    report = run_verification(max_coord=2, trials=25, seed=3)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "count formula vs oracle" in names
    assert "lattice width vs brute force" in names
    for check in report.checks:
        assert check.failed == 0
        assert check.passed > 0
    assert "ALL CHECKS PASSED" in report.table()


class TestOnePass:
    """One profile and one classification of M0 per corpus polygon, and a
    planted fault still fails its check."""

    def test_one_profile_and_one_m0_classification(self, monkeypatch, corpus2):
        profiles: dict = {}
        classified: dict = {}
        build, classify = severi.build_profile, LatticePolygon.classify_interior_empty

        def counting_build(poly):
            profile = build(poly)
            profiles.setdefault(poly, []).append(profile)
            return profile

        def counting_classify(poly, lattice):
            classified.setdefault(poly, []).append(lattice)
            return classify(poly, lattice)

        monkeypatch.setattr(severi, "build_profile", counting_build)
        monkeypatch.setattr(LatticePolygon, "classify_interior_empty", counting_classify)
        assert run_verification(max_coord=2, trials=0).ok
        assert set(profiles) == set(classified) == set(corpus2)
        for poly, built in profiles.items():
            assert len(built) == 1, poly
            # Z^2 for the empty-interior lemma, M0 for the count and descriptors
            assert Counter(classified[poly]) == Counter([Z2, built[0].m0]), poly

    @staticmethod
    def _check(report, name):
        (check,) = [c for c in report.checks if c.name == name]
        return check

    def test_wrong_width_fails_its_check(self, monkeypatch):
        width = LatticePolygon.lattice_width

        def off_by_one(poly, lattice):
            w, direction = width(poly, lattice)
            # a width of one stays one: the classification would otherwise
            # raise an InvariantViolation before the width check ran
            return (w + 1 if w > 1 else w), direction

        monkeypatch.setattr(LatticePolygon, "lattice_width", off_by_one)
        report = run_verification(max_coord=2, trials=0)
        assert not report.ok
        check = self._check(report, "lattice width vs brute force")
        assert check.failed > 0 and check.first_failure

    def test_wrong_formula_count_fails_its_check(self, monkeypatch):
        formula = severi._formula_count
        monkeypatch.setattr(
            severi, "_formula_count", lambda *args: formula(*args) + 1
        )
        report = run_verification(max_coord=2, trials=0)
        assert not report.ok
        check = self._check(report, "count formula vs oracle")
        assert check.passed == 0 and check.failed > 0

    def test_wrong_certificate_fails_the_signature_check(self, monkeypatch):
        # Q's row 1 plus its row 0 no longer gives z = R2(Q) @ A / idx: the
        # row records the violation instead of the battery aborting on it
        exact = certificates.hsnf_left

        def skewed(matrix):
            q0, q1 = exact(matrix).to_rows()
            q1 = [a + b for a, b in zip(q0, q1)]
            return IntMat.from_rows([q0, q1])

        monkeypatch.setattr(certificates, "hsnf_left", skewed)
        report = run_verification(max_coord=2, trials=0)
        assert not report.ok
        check = self._check(report, "component signature shape")
        assert check.failed > 0
        assert check.first_failure.startswith("LatticePolygon(")
        assert "is not divisible by the index" in check.first_failure
        assert all(c.failed == 0 for c in report.checks if c is not check)

    def test_wrong_n0_fails_the_rotation_check(self, monkeypatch):
        # N0 is the quarter turn of M0 by construction; the battery compares
        # it with the span of the normals, which a wrong N0 cannot match
        build = severi.build_profile

        def wrong_n0(poly):
            p = build(poly)
            return BoundaryProfile(
                p.polygon, p.facets, p.m0, Z2, p.idx, p.classification
            )

        monkeypatch.setattr(severi, "build_profile", wrong_n0)
        report = run_verification(max_coord=2, trials=0)
        assert not report.ok
        check = self._check(report, "rotation duality M0 <-> N0")
        # only the polygons whose N0 really is Z^2 still pass
        assert check.passed > 0 and check.failed > 0 and check.first_failure

    def test_wrong_m0_fails_the_count_check(self, monkeypatch):
        # the oracle builds its own M0 from two points per facet, so a wrong
        # profile M0 leaves both counts equal; the row also spans all l
        # boundary points, which a planted Z^2 matches only at index one
        build = severi.build_profile

        def wrong_m0(poly):
            p = build(poly)
            return BoundaryProfile(
                p.polygon, p.facets, Z2, p.n0, p.idx, p.classification
            )

        monkeypatch.setattr(severi, "build_profile", wrong_m0)
        report = run_verification(max_coord=2, trials=0)
        assert not report.ok
        check = self._check(report, "count formula vs oracle")
        assert check.passed > 0 and check.failed > 0
        assert "boundary span" in check.first_failure

    @classmethod
    def _only_failure(cls, report, name):
        """The row ``name``, after checking that no other row failed."""
        check = cls._check(report, name)
        assert not report.ok and check.first_failure
        assert [c.name for c in report.checks if c.failed] == [name]
        return check

    def test_no_rank_pair_fails_the_rank_check(self, monkeypatch):
        # the polygons whose M0 has width one lose their pair
        monkeypatch.setattr(verify, "width_one_by_rank", lambda profile: None)
        report = run_verification(max_coord=2, trials=0, seed=3)
        check = self._only_failure(report, "width-one rank criterion")
        assert (check.passed, check.failed) == (55, 64)

    def test_wrong_invariant_factors_fail_their_check(self, monkeypatch):
        monkeypatch.setattr(verify, "invariant_factors", lambda matrix: (1,))
        report = run_verification(max_coord=2, trials=0, seed=3)
        check = self._only_failure(report, "normal matrix invariant factors (1, idx)")
        assert (check.passed, check.failed) == (0, 119)

    def test_flat_interior_counts_fail_the_monotone_check(self, monkeypatch):
        # only the polygons with a lattice above M0 (d > 1) can fail
        exact = severi._descriptors

        def flat(profile):
            return [
                ComponentDescriptor(
                    c.N, c.M, c.d, 0, c.is_empty_locus, c.excluded_nonbirational
                )
                for c in exact(profile)
            ]

        monkeypatch.setattr(severi, "_descriptors", flat)
        report = run_verification(max_coord=2, trials=0, seed=3)
        check = self._only_failure(report, "interior counts grow with the lattice")
        assert (check.passed, check.failed) == (106, 13)

    def test_wrong_image_fails_the_unimodular_check(self, monkeypatch):
        # the unit triangle has no component; no polygon this seed draws has none
        triangle = LatticePolygon([(0, 0), (1, 0), (0, 1)])
        monkeypatch.setattr(verify, "_random_image_in_bounds", lambda poly, rng: triangle)
        report = run_verification(max_coord=2, trials=10, seed=3)
        check = self._only_failure(report, "unimodular invariance of the count")
        assert (check.passed, check.failed) == (0, 30)
        assert check.first_failure.endswith(f" -> {triangle!r}")

    def test_a_raising_row_fails_only_itself(self, monkeypatch):
        # an InvariantViolation raised inside a row is that row's failure,
        # and the battery goes on to every other row and polygon
        def broken(poly):
            raise InvariantViolation("planted")

        monkeypatch.setattr(verify, "count_components_oracle", broken)
        report = run_verification(max_coord=2, trials=0, seed=3)
        assert len(report.checks) == 12
        check = self._only_failure(report, "count formula vs oracle")
        assert (check.passed, check.failed) == (0, 119)
        assert check.first_failure.startswith("LatticePolygon(")
        assert check.first_failure.endswith(": planted")
        assert all(c.passed == 119 for c in report.checks[:10] if c is not check)

    @staticmethod
    def _failed(report):
        return {c.name: (c.passed, c.failed) for c in report.checks if c.failed}

    def test_a_raising_oracle_fails_its_rows_in_the_random_trials_too(
        self, monkeypatch
    ):
        # before, the first random trial let the violation escape: no report
        def broken(poly):
            raise InvariantViolation("planted")

        monkeypatch.setattr(verify, "count_components_oracle", broken)
        report = run_verification(max_coord=1, trials=2, seed=3)
        assert len(report.checks) == 12
        assert self._failed(report) == {
            "count formula vs oracle": (0, 5),
            "count formula vs oracle (random polygons)": (0, 2),
        }
        random_row = self._check(report, "count formula vs oracle (random polygons)")
        assert random_row.first_failure.endswith(": planted")
        assert self._check(report, "unimodular invariance of the count").passed == 6

    def test_a_raising_profile_fails_every_row_it_feeds(self, monkeypatch):
        # the profile feeds every corpus row, and every count of a random
        # trial builds one; the images are still drawn, so the rng order holds
        def broken(poly):
            raise InvariantViolation("planted")

        drawn = []
        image = verify._random_image_in_bounds

        def counting_image(poly, rng):
            drawn.append(poly)
            return image(poly, rng)

        monkeypatch.setattr(severi, "build_profile", broken)
        monkeypatch.setattr(verify, "_random_image_in_bounds", counting_image)
        report = run_verification(max_coord=1, trials=2, seed=3)
        assert len(report.checks) == 12
        expected = {name: (0, 5) for name, _ in verify._CORPUS_ROWS}
        expected["unimodular invariance of the count"] = (0, 6)
        expected["count formula vs oracle (random polygons)"] = (0, 2)
        assert self._failed(report) == expected
        for check in report.checks:
            assert check.first_failure.startswith("LatticePolygon(")
            assert check.first_failure.endswith(": planted")
        assert len(drawn) == 6


def test_scan_rows_test_no_membership_in_z2(monkeypatch):
    # Z^2 holds every integer point, so the Pick and interior-count rows
    # read its scans without _has; any other M0 still filters them
    calls = []
    has = AffineLattice2._has

    def counting(lattice, point):
        calls.append(point)
        return has(lattice, point)

    monkeypatch.setattr(AffineLattice2, "_has", counting)
    rows = (verify._pick_z2, verify._pick_m0, verify._monotone)
    in_z2 = 0
    for poly in iter_corpus(CorpusSpec(max_coordinate=3)):
        profile = severi.build_profile(poly)
        m0 = profile.m0
        calls.clear()
        assert [row(profile) for row in rows] == [None] * 3, poly
        if m0 is Z2:
            in_z2 += 1
            assert calls == [], poly
            continue
        assert calls, poly
        inside = tuple(p for p in poly.interior_points() if has(m0, p))
        border = sum(1 for p in poly.boundary_points() if has(m0, p))
        assert poly.interior_points_in(m0) == inside
        t2 = poly.twice_area() // m0.index_in_z2
        assert poly.verify_pick(m0) == (t2 == 2 * len(inside) + border - 2)
    # 1,514 of the 1,633 classes have an index-one M0
    assert in_z2 == 1514


def test_random_unimodular_is_unimodular():
    rng = random.Random(4)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            # the only n x n minor, the determinant, is a unit
            assert minor_gcd(random_unimodular(n, rng), n) == 1


def test_random_gl_h_fixes_ones():
    rng = random.Random(4)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            g = random_gl_h(n, rng)
            assert minor_gcd(g, n) == 1
            assert g.row_sums() == (1,) * n  # g @ 1 == 1
