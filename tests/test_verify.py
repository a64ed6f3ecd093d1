import random
from collections import Counter

from severi_lattice import severi
from severi_lattice.lattices import Z2
from severi_lattice.polygons import LatticePolygon
from severi_lattice.severi import BoundaryProfile
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

    def test_wrong_n0_fails_the_rotation_check(self, monkeypatch):
        # N0 is the quarter turn of M0 by construction; the battery compares
        # it with the span of the normals, which a wrong N0 cannot match
        build = severi.build_profile

        def wrong_n0(poly):
            p = build(poly)
            return BoundaryProfile(p.polygon, p.facets, p.m0, Z2, p.idx)

        monkeypatch.setattr(severi, "build_profile", wrong_n0)
        report = run_verification(max_coord=2, trials=0)
        assert not report.ok
        check = self._check(report, "rotation duality M0 <-> N0")
        # only the polygons whose N0 really is Z^2 still pass
        assert check.passed > 0 and check.failed > 0 and check.first_failure


def test_random_unimodular_is_unimodular():
    rng = random.Random(4)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            assert abs(random_unimodular(n, rng).det()) == 1


def test_random_gl_h_fixes_ones():
    rng = random.Random(4)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            g = random_gl_h(n, rng)
            assert abs(g.det()) == 1
            ones = [1] * n
            assert list(g.mat_vec(ones)) == ones
