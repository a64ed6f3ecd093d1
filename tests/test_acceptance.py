"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated scale, tolerance, and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time

from severi_lattice.certificates import a_delta, component_signature, width_one_by_rank
from severi_lattice.corpus import random_polygon
from severi_lattice.intmat import (
    IntMat,
    hsnf_form,
    invariant_factors,
    minor_gcd,
    snf,
)
from severi_lattice.lattices import Z2
from severi_lattice.polygons import InteriorClassification, LatticePolygon
from severi_lattice.oracles import count_components_oracle
from severi_lattice.severi import build_profile, count_components
from severi_lattice.verify import _random_image_in_bounds, perturb_homogeneous

from helpers import smith_form

SEED = 20260809


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"[criterion {number}] PASS {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_paper_fixed_point():
    started = time.time()
    profile = build_profile(LatticePolygon([(0, 0), (2, 0), (4, 2)]))
    assert a_delta(profile).to_rows() == [
        [0, 0, -1, -1, 1, 1],
        [1, 1, 1, 1, -2, -2],
    ]
    z = component_signature(profile)
    assert z in ((0, 0, -1, -1, 1, 1), (0, 0, 1, 1, -1, -1)), z
    _report(1, "displayed normal matrix and signature", started, 1.0)


def test_criterion_2_dual_path_count(corpus4):
    started = time.time()
    disagreements = 0
    for poly in corpus4:
        if count_components(poly) != count_components_oracle(poly):
            disagreements += 1
    rng = random.Random(SEED)
    for _ in range(1000):
        poly = random_polygon(rng, 8)
        if count_components(poly) != count_components_oracle(poly):
            disagreements += 1
    assert disagreements == 0
    _report(
        2,
        f"count formula vs oracle on {len(corpus4)} corpus + 1000 random polygons",
        started,
        300.0,
    )


def test_criterion_3_empty_interior_lemma(corpus4):
    started = time.time()
    exceptions = 0
    for poly in corpus4:
        empty = not poly.interior_points()
        cls = poly.classify_interior_empty(Z2)
        lemma_side = cls in (
            InteriorClassification.WIDTH_ONE,
            InteriorClassification.TWICE_PRIMITIVE_TRIANGLE,
        )
        if empty != lemma_side:
            exceptions += 1
    assert exceptions == 0
    _report(3, f"interior lemma on {len(corpus4)} polygons", started, 120.0)


def test_criterion_4_normal_form_suite():
    started = time.time()
    rng = random.Random(SEED)
    matrices = 10**4
    perturbations = 100
    for _ in range(matrices):
        r = rng.randint(1, 6)
        c = rng.randint(1, 8)
        x = IntMat(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        res = snf(x)
        assert res.Q @ x == res.D @ res.P
        # unimodular: the only n x n minor, the determinant, is a unit
        assert minor_gcd(res.Q, r) == 1
        assert minor_gcd(res.P, c) == 1
        # D is diagonal with the invariant factors of the Bezout kernel
        assert res.D == smith_form(x)
        factors = invariant_factors(x)
        prod = 1
        for k, alpha in enumerate(factors, start=1):
            prod *= alpha
            assert minor_gcd(x, k) == prod
        # orbit uniqueness of the homogeneous form, on the balanced companion
        rows = x.to_rows()
        xh = IntMat.from_rows([row + [-sum(row)] for row in rows])
        base = hsnf_form(xh)
        for _ in range(perturbations):
            assert hsnf_form(perturb_homogeneous(xh, rng)) == base
    _report(
        4,
        f"{matrices} matrices, {perturbations} orbit perturbations each",
        started,
        120.0,
    )


def test_criterion_5_width_one_rank_criterion(corpus4):
    started = time.time()
    mismatches = 0
    for poly in corpus4:
        profile = build_profile(poly)
        pair = width_one_by_rank(profile)
        width = poly.lattice_width(profile.m0.linear_part())[0]
        if (pair is not None) != (width == 1):
            mismatches += 1
    assert mismatches == 0
    _report(5, f"rank criterion vs width on {len(corpus4)} polygons", started, 120.0)


def test_criterion_6_named_values():
    started = time.time()
    cases = [
        (LatticePolygon([(0, 0), (2, 0), (0, 2)]), 0),
        (LatticePolygon([(0, 0), (3, 0), (0, 3)]), 1),
        (LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0),
        (LatticePolygon([(1, 0), (0, 1), (-1, 0), (0, -1)]), 1),
        (LatticePolygon([(2, 0), (0, 2), (-2, 0), (0, -2)]), 2),
    ]
    for poly, frozen in cases:
        assert count_components_oracle(poly) == frozen  # oracle confirms first
        assert count_components(poly) == frozen
    _report(6, "five named component counts", started, 1.0)


def test_criterion_7_unimodular_invariance():
    started = time.time()
    rng = random.Random(SEED)
    for _ in range(100):
        poly = random_polygon(rng, 8)
        expected = count_components(poly)
        for _ in range(10):
            image = _random_image_in_bounds(poly, rng)
            assert count_components(image) == expected
    _report(7, "100 polygons x 10 unimodular maps", started, 30.0)
