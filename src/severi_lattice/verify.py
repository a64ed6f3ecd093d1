"""Verification harness: drives every cross-check over a polygon corpus.

Each check pits a formula path against an independent oracle (brute-force
point scans, exhaustive direction searches, literal condition tests) and
reports pass/fail counts.  Used by the ``verify`` CLI command and by the
acceptance suite.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from itertools import chain

from . import severi
from .certificates import a_delta, component_signature, owner, width_one_by_rank
from .corpus import CorpusSpec, enumerate_corpus, random_polygon
from .errors import DomainError
from .intmat import IntMat, invariant_factors, minor_gcd
from .lattices import Z2, AffineLattice2
from .oracles import brute_force_width, count_components_oracle
from .polygons import InteriorClassification, LatticePolygon

__all__ = [
    "CheckOutcome",
    "VerificationReport",
    "run_verification",
    "perturb_homogeneous",
    "random_unimodular",
]


class CheckOutcome:
    __slots__ = ("name", "passed", "failed", "first_failure")

    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, ok: bool, detail: Callable[[], str]) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = detail()


class VerificationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckOutcome]) -> None:
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.checks)

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'check'.ljust(width)}  pass     fail"]
        for c in self.checks:
            lines.append(f"{c.name.ljust(width)}  {c.passed:<8d} {c.failed:<8d}")
            if c.first_failure:
                lines.append(f"  first failure: {c.first_failure}")
        status = "ALL CHECKS PASSED" if self.ok else "FAILURES DETECTED"
        lines.append(status)
        return "\n".join(lines)


# -- random matrix machinery (shared with the acceptance suite) -----------


def random_unimodular(n: int, rng: random.Random, max_ops: int = 20) -> IntMat:
    """Random GL_n(Z) element: a short product of elementary operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, max_ops)):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return IntMat.from_rows(rows)


def perturb_homogeneous(x: IntMat, rng: random.Random) -> IntMat:
    """A random point of the GL_s(Z) x GL_l^h(Z) orbit of ``x``.

    Applies 4 to 19 elementary operations (the count is drawn from ``rng``)
    directly: arbitrary row operations on the left, and on the right only
    column permutations and paired column operations (add c * col_i to
    col_j, subtract it from col_k), which are exactly the elementary
    factors of GL^h.
    """
    s, l = x.rows, x.cols
    rows = x.to_rows()
    gb = rng.getrandbits
    for _ in range(4 + gb(4)):
        bits = gb(24)
        kind = bits & 3
        if kind == 0 and s > 1:
            i = (bits >> 2) % s
            j = (bits >> 7) % s
            if i != j:
                c = ((bits >> 12) % 6) - 3
                if c == 0:
                    c = 3
                rows[i] = [x0 + c * y0 for x0, y0 in zip(rows[i], rows[j])]
        elif kind == 1:
            i = (bits >> 2) % l
            j = (bits >> 7) % l
            if i != j:
                for row in rows:
                    row[i], row[j] = row[j], row[i]
        elif kind == 2 and l > 2:
            i = (bits >> 2) % l
            j = (bits >> 7) % l
            k = (bits >> 12) % l
            if i != j and i != k and j != k:
                c = ((bits >> 17) % 6) - 3
                if c == 0:
                    c = 3
                for row in rows:
                    d = c * row[i]
                    row[j] += d
                    row[k] -= d
        elif s > 1:
            i = (bits >> 2) % s
            j = (bits >> 7) % s
            if i != j:
                rows[i], rows[j] = rows[j], rows[i]
    # every entry is an int sum of ints: a valid matrix by construction
    return IntMat._trusted(s, l, tuple(chain.from_iterable(rows)))


# -- polygon checks --------------------------------------------------------

# sup-norm of the direction box that brute_force_width searches
_WIDTH_ORACLE_SUP_NORM = 25


def run_verification(
    max_coord: int = 4, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Run the full battery over the exhaustive corpus plus random trials.

    One pass per corpus polygon: its boundary profile is built once and M0
    classified once, and the formula count and the descriptors derive from
    them, as in ``analyze``; the oracle count and the other checks keep
    their own paths.  Each polygon leaves the corpus list once it is
    checked, so its caches are released then, not at the end of the run.
    """
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    corpus = enumerate_corpus(CorpusSpec(max_coordinate=max_coord))
    pick_z2 = CheckOutcome("pick identity over Z^2")
    pick_m0 = CheckOutcome("pick identity over M0")
    width_oracle = CheckOutcome("lattice width vs brute force")
    lemma = CheckOutcome("empty interior lemma")
    counts = CheckOutcome("count formula vs oracle")
    factors_check = CheckOutcome("normal matrix invariant factors (1, idx)")
    rotation = CheckOutcome("rotation duality M0 <-> N0")
    rank_width = CheckOutcome("width-one rank criterion")
    signature = CheckOutcome("component signature shape")
    monotone = CheckOutcome("interior counts grow with the lattice")
    unimodular = CheckOutcome("unimodular invariance of the count")
    random_counts = CheckOutcome("count formula vs oracle (random polygons)")

    for i, poly in enumerate(corpus):
        corpus[i] = None
        profile = severi.build_profile(poly)
        cls_m0 = poly.classify_interior_empty(profile.m0)
        pick_z2.record(poly.verify_pick(Z2), lambda: repr(poly))
        pick_m0.record(poly.verify_pick(profile.m0), lambda: repr(poly))

        w_alg = poly.lattice_width(Z2)
        w_ref = brute_force_width(poly, _WIDTH_ORACLE_SUP_NORM)
        width_oracle.record(w_alg == w_ref, lambda: f"{poly!r}: {w_alg} vs {w_ref}")

        empty = not poly.interior_points()
        cls = poly.classify_interior_empty(Z2)
        lemma.record(
            empty == (cls is not InteriorClassification.NON_EMPTY_INTERIOR),
            lambda: f"{poly!r}: interior empty={empty} classified {cls}",
        )

        formula = severi._formula_count(profile, cls_m0)
        oracle = count_components_oracle(poly)
        counts.record(formula == oracle, lambda: f"{poly!r}: {formula} vs {oracle}")

        normals = a_delta(profile)
        fs = invariant_factors(normals)
        g1 = minor_gcd(normals, 1)
        g2 = minor_gcd(normals, 2)
        factors_check.record(
            fs == (1, profile.idx) and g1 == 1 and g2 == profile.idx,
            lambda: f"{poly!r}: snf {fs}, minors ({g1}, {g2}), idx {profile.idx}",
        )

        n_span = AffineLattice2.linear_from_generators(
            [f.normal for f in profile.facets]
        )
        rotation.record(profile.n0 == n_span, lambda: repr(poly))

        pair = width_one_by_rank(profile)
        w_m0 = poly.lattice_width(profile.m0.linear_part())[0]
        rank_width.record(
            (pair is not None) == (w_m0 == 1),
            lambda: f"{poly!r}: pair {pair}, width {w_m0}",
        )

        z = component_signature(profile)
        owners = owner(profile)
        blocks_ok = all(
            z[i] == z[i - 1]
            for i in range(1, len(owners))
            if owners[i] == owners[i - 1]
        )
        signature.record(
            sum(z) == 0 and blocks_ok, lambda: f"{poly!r}: z = {z}"
        )

        base = len(poly.interior_points_in(profile.m0))
        mono_ok = True
        for comp in severi._descriptors(profile, cls_m0):
            if comp.d > 1 and comp.interior_count <= base:
                mono_ok = False
        monotone.record(mono_ok, lambda: repr(poly))

    rng = random.Random(seed)
    for _ in range(trials):
        poly = random_polygon(rng, 8)
        formula = severi.count_components(poly)
        oracle = count_components_oracle(poly)
        random_counts.record(
            formula == oracle, lambda: f"{poly!r}: {formula} vs {oracle}"
        )
        for _ in range(3):
            image = _random_image_in_bounds(poly, rng)
            unimodular.record(
                severi.count_components(image) == formula,
                lambda: f"{poly!r} -> {image!r}",
            )

    return VerificationReport(
        checks=[
            pick_z2,
            pick_m0,
            width_oracle,
            lemma,
            counts,
            factors_check,
            rotation,
            rank_width,
            signature,
            monotone,
            unimodular,
            random_counts,
        ]
    )


def _random_image_in_bounds(
    poly: LatticePolygon, rng: random.Random
) -> LatticePolygon:
    """Apply a random unimodular affine map v -> U @ v + t, resampling if
    coordinates leave the documented bound.

    With 16 elementary operations at most, about half the maps U are more
    than signed permutations, and entries stay small enough that the
    random polygons (|coordinate| <= 8) seldom leave the bound.
    """
    while True:
        a, b, c, d = random_unimodular(2, rng, max_ops=16).entries
        tx, ty = rng.randint(-5, 5), rng.randint(-5, 5)
        try:
            return LatticePolygon(
                [(a * x + b * y + tx, c * x + d * y + ty) for x, y in poly.vertices]
            )
        except DomainError:
            continue
