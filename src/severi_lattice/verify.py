"""Verification harness: drives every cross-check over a polygon corpus.

Each check pits a formula path against an independent oracle (brute-force
point scans, exhaustive direction searches, literal condition tests) and
reports pass/fail counts.  Used by the ``verify`` CLI command and by the
acceptance suite.

A corpus check is a row of ``_CORPUS_ROWS``: a function that reads one
polygon's boundary profile (which holds M0's classification and width),
and returns None for a pass or the failure detail.  The table order is the
order of the CLI table; the two random-polygon rows follow it.

One failure rule holds for the whole battery: an ``InvariantViolation``
fails every row it keeps from being computed, and the battery goes on.
Raised by a row, it fails that row; raised by the profile build, every row
of that polygon (all ten corpus rows, or a random trial's count row and
its three image rows).
"""

from __future__ import annotations

import random
from functools import partial
from itertools import chain

from . import severi
from .certificates import a_delta, component_signature, width_one_by_rank
from .corpus import CorpusSpec, enumerate_corpus, random_polygon
from .errors import DomainError, InvariantViolation
from .intmat import IntMat, invariant_factors, minor_gcd
from .lattices import Z2, AffineLattice2, _span
from .oracles import brute_force_width, count_components_oracle
from .polygons import InteriorClassification, LatticePolygon
from .severi import BoundaryProfile

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

    def record(self, detail: str | None) -> None:
        if detail is None:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = detail


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

# largest accepted --trials: one trial took at most 8.1 ms in 20,000 (README)
_MAX_TRIALS = 10_000


def _pick_z2(profile: BoundaryProfile) -> str | None:
    return None if profile.polygon.verify_pick(Z2) else repr(profile.polygon)


def _pick_m0(profile: BoundaryProfile) -> str | None:
    return None if profile.polygon.verify_pick(profile.m0) else repr(profile.polygon)


def _width(profile: BoundaryProfile) -> str | None:
    poly = profile.polygon
    w_alg = poly.lattice_width(Z2)
    w_ref = brute_force_width(poly)
    return None if w_alg == w_ref else f"{poly!r}: {w_alg} vs {w_ref}"


def _lemma(profile: BoundaryProfile) -> str | None:
    poly = profile.polygon
    empty = not poly.interior_points()
    cls = poly.classify_interior_empty(Z2)
    if empty == (cls is not InteriorClassification.NON_EMPTY_INTERIOR):
        return None
    return f"{poly!r}: interior empty={empty} classified {cls}"


def _count(profile: BoundaryProfile) -> str | None:
    # the oracle spans two points per facet; the literal span reads all l
    poly = profile.polygon
    span = _span(poly.boundary_points())
    if span != profile.m0:
        return f"{poly!r}: boundary span {span} vs m0 {profile.m0}"
    formula = severi._formula_count(profile)
    oracle = count_components_oracle(poly)
    return None if formula == oracle else f"{poly!r}: {formula} vs {oracle}"


def _factors(profile: BoundaryProfile) -> str | None:
    normals = a_delta(profile)
    fs = invariant_factors(normals)
    g1 = minor_gcd(normals, 1)
    g2 = minor_gcd(normals, 2)
    if fs == (1, profile.idx) and g1 == 1 and g2 == profile.idx:
        return None
    return f"{profile.polygon!r}: snf {fs}, minors ({g1}, {g2}), idx {profile.idx}"


def _rotation(profile: BoundaryProfile) -> str | None:
    n_span = AffineLattice2.linear_from_generators([f.normal for f in profile.facets])
    return None if profile.n0 == n_span else repr(profile.polygon)


def _rank(profile: BoundaryProfile) -> str | None:
    pair = width_one_by_rank(profile)
    if (pair is not None) == (profile.width == 1):
        return None
    return f"{profile.polygon!r}: pair {pair}, width {profile.width}"


def _signature(profile: BoundaryProfile) -> None:
    # z must be divisible by idx, sum to zero and be constant on facet
    # blocks; component_signature raises on the first that fails
    component_signature(profile)


def _monotone(profile: BoundaryProfile) -> str | None:
    poly = profile.polygon
    base = len(poly.interior_points_in(profile.m0))
    comps = severi._descriptors(profile)
    grows = all(c.d == 1 or c.interior_count > base for c in comps)
    return None if grows else repr(poly)


_CORPUS_ROWS = (
    ("pick identity over Z^2", _pick_z2),
    ("pick identity over M0", _pick_m0),
    ("lattice width vs brute force", _width),
    ("empty interior lemma", _lemma),
    ("count formula vs oracle", _count),
    ("normal matrix invariant factors (1, idx)", _factors),
    ("rotation duality M0 <-> N0", _rotation),
    ("width-one rank criterion", _rank),
    ("component signature shape", _signature),
    ("interior counts grow with the lattice", _monotone),
)


def _image_count(image: LatticePolygon, profile: BoundaryProfile) -> str | None:
    same = severi.count_components(image) == severi._formula_count(profile)
    return None if same else f"{profile.polygon!r} -> {image!r}"


def _details(poly: LatticePolygon, rows) -> list[str | None]:
    """Each row's detail on ``poly``'s profile, built once, under the
    module's one failure rule."""
    try:
        profile = severi.build_profile(poly)
    except InvariantViolation as exc:
        return [f"{poly!r}: {exc}"] * len(rows)
    details = []
    for row in rows:
        try:
            details.append(row(profile))
        except InvariantViolation as exc:
            details.append(f"{poly!r}: {exc}")
    return details


def run_verification(
    max_coord: int = 4, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Run the full battery over the exhaustive corpus plus random trials.

    One pass per corpus polygon: its boundary profile, with M0's
    classification and width, is built once, and each row of
    ``_CORPUS_ROWS``, in table order (the CLI table's order), reads it and
    returns None for a pass or the failure detail; a random trial's polygon
    feeds its count row and three image rows the same way.  The formula
    count and the descriptors derive from the profile, as in ``analyze``;
    the oracle count and the other checks keep their own paths.  Each
    polygon leaves the corpus list once it is checked, so its caches are
    released then, not at the end of the run.
    """
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    if trials > _MAX_TRIALS:
        raise DomainError(f"trials must be at most {_MAX_TRIALS}, got {trials}")
    corpus = enumerate_corpus(CorpusSpec(max_coordinate=max_coord))
    checks = [CheckOutcome(name) for name, _ in _CORPUS_ROWS]
    rows = [row for _, row in _CORPUS_ROWS]
    for i, poly in enumerate(corpus):
        corpus[i] = None
        for check, detail in zip(checks, _details(poly, rows)):
            check.record(detail)

    unimodular = CheckOutcome("unimodular invariance of the count")
    random_counts = CheckOutcome("count formula vs oracle (random polygons)")
    rng = random.Random(seed)
    for _ in range(trials):
        poly = random_polygon(rng, 8)
        # no row draws from rng, so the images come first
        images = [_random_image_in_bounds(poly, rng) for _ in range(3)]
        trial = [_count] + [partial(_image_count, image) for image in images]
        outcomes = [random_counts] + [unimodular] * len(images)
        for check, detail in zip(outcomes, _details(poly, trial)):
            check.record(detail)
    return VerificationReport([*checks, unimodular, random_counts])


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
