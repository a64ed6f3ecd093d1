"""The benchmark's four workloads.

Each workload makes its inputs from a seeded ``random.Random`` (the only
randomness), writes them to files, and exposes one timed ``call`` per item
plus a ``check`` that validates the call's output with the benchmark's own
arithmetic, never with the code path being timed.

Calls go through module attributes (``severi.analyze``, ``intmat.snf``,
...) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from math import gcd
from pathlib import Path

from severi_lattice import cli, corpus, intmat, polygons, severi, verify

_COMPACT = (",", ":")


# -- shared checks -----------------------------------------------------------


def _twice_area(vertices) -> int:
    n = len(vertices)
    return abs(
        sum(
            vertices[i][0] * vertices[(i + 1) % n][1]
            - vertices[(i + 1) % n][0] * vertices[i][1]
            for i in range(n)
        )
    )


def _boundary_count(vertices) -> int:
    n = len(vertices)
    return sum(
        gcd(vertices[(i + 1) % n][0] - vertices[i][0], vertices[(i + 1) % n][1] - vertices[i][1])
        for i in range(n)
    )


def check_analyze_report(vertices, text: str) -> list[str]:
    """Check one ``analyze`` JSON report against Pick's theorem.

    Every component lattice M contains all l boundary points, so Pick in M
    gives ``interior_count == (2A/[Z^2:M] - l + 2) / 2``; the component
    count must equal the number of contributing descriptors.
    """
    report = json.loads(text)
    area2 = _twice_area(vertices)
    l = _boundary_count(vertices)
    problems = []
    if report["l"] != l:
        problems.append(f"l = {report['l']}, expected {l}")
    for comp in report["components"]:
        (d1, _), (_, d2) = comp["M"]["basis"]
        quot, rem = divmod(area2, d1 * d2)
        if rem or 2 * comp["interior_count"] != quot - l + 2:
            problems.append(f"d={comp['d']}: interior_count {comp['interior_count']} fails Pick")
    contributing = sum(1 for comp in report["components"] if comp["contributes"])
    if report["component_count"] != contributing:
        problems.append(
            f"component_count {report['component_count']} != {contributing} contributing"
        )
    return problems


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _det(rows) -> int:
    """Bareiss determinant."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _rows(mat) -> list[list[int]]:
    c = mat.cols
    return [list(mat.entries[i * c : (i + 1) * c]) for i in range(mat.rows)]


def _snf_diagonal(rows) -> list[int] | None:
    """The diagonal if ``rows`` is in Smith normal form, else None."""
    diag = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if i != j and v:
                return None
        if i < len(row):
            diag.append(row[i])
    nonzero = [v for v in diag if v]
    if diag[: len(nonzero)] != nonzero or any(v < 0 for v in nonzero):
        return None
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return None
    return nonzero


# -- workloads -----------------------------------------------------------------


class _Workload:
    """Defaults for workloads whose call is one op.

    A workload also sets ``name``, ``why``, ``round_size`` (items made by
    ``generate``; one round calls each once, in order), ``tail_pct`` (the
    percentile reported as ``latency_tail_ms``, with at least 10 of a
    round's ops beyond it) and ``digest_ops`` (ops whose output bytes go
    into ``output_sha256``).
    """

    ops_per_call = 1
    host = None  # the run's HostSpeed; a call that spans many ops ticks it

    def op_latencies(self, out, start: float, end: float, paused_s: float):
        """(start, wall time) of each op of one call, or None if the call
        cannot tell its ops apart; ``paused_s`` is the host's reference-loop
        total at ``end``."""
        return [(start, end - start)]


class CorpusAnalyze(_Workload):
    name = "corpus-analyze"
    why = (
        "a seeded 3,000 of the 17,978 translation classes of corpus --max-coord 4; "
        "tiny polygons, so per-call overhead of analyze dominates"
    )
    round_size = 3_000
    tail_pct = 99.0
    digest_ops = 2_000
    max_coord = 4

    def generate(self, rng: random.Random):
        spec = corpus.CorpusSpec(max_coordinate=self.max_coord)
        items = [p.vertices for p in corpus.enumerate_corpus(spec)]
        rng.shuffle(items)
        return items[: self.round_size]

    def write(self, items, directory: Path):
        with open(directory / "polygons.jsonl", "w", encoding="utf-8") as fh:
            for verts in items:
                fh.write(json.dumps({"vertices": [list(v) for v in verts]}, separators=_COMPACT))
                fh.write("\n")
        return items

    def call(self, verts):
        report = severi.analyze(polygons.LatticePolygon(verts))
        return json.dumps(report.to_json_dict(), separators=_COMPACT)

    def check(self, verts, out) -> list[str]:
        return check_analyze_report(verts, out)

    def output_bytes(self, out) -> bytes:
        return out.encode() + b"\n"


class LargeAnalyze(_Workload):
    """A fixed set of random polygons, each moved by a seeded symmetry.

    The cost of one analyze varies tenfold from polygon to polygon, so 40
    freshly drawn polygons would make the round's cost depend on the seed.
    The polygons are therefore drawn once, from a fixed stream, and the seed
    applies to each a symmetry of the square [-100, 100]^2 (a rotation by a
    multiple of 90 degrees, possibly after a reflection) and shuffles the
    order; a symmetry keeps the area, the bounding box and the lattice
    structure, so every seed gives a round of the same cost.
    """

    name = "large-analyze"
    why = (
        "fixed random polygons with |coord| <= 100, each moved by a seeded square symmetry, "
        "through cli.main analyze; area-proportional interior scans dominate"
    )
    round_size = 40
    tail_pct = 75.0
    digest_ops = 20
    max_abs = 100
    max_points = 12
    polygon_stream = "large-analyze polygons"

    def generate(self, rng: random.Random):
        fixed = random.Random(self.polygon_stream)
        items = []
        for _ in range(self.round_size):
            verts = corpus.random_polygon(fixed, self.max_abs, self.max_points).vertices
            sx, sy, swap = rng.choice((1, -1)), rng.choice((1, -1)), rng.random() < 0.5
            moved = [(sx * y, sy * x) if swap else (sx * x, sy * y) for x, y in verts]
            items.append(tuple(corpus.convex_hull(moved)))
        rng.shuffle(items)
        return items

    def write(self, items, directory: Path):
        out = []
        for i, verts in enumerate(items):
            path = directory / f"polygon_{i:04d}.json"
            path.write_text(
                json.dumps({"vertices": [list(v) for v in verts]}, separators=_COMPACT) + "\n",
                encoding="utf-8",
            )
            out.append((verts, str(path)))
        return out

    def call(self, item):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(["analyze", item[1]])
        return code, buf.getvalue()

    def check(self, item, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return check_analyze_report(item[0], text)

    def output_bytes(self, out) -> bytes:
        return out[1].encode()


class NormalForms(_Workload):
    """Criterion-4 matrices, the same number of each shape in every round.

    An op's cost depends mostly on the matrix's shape, so freely drawn
    shapes would make the round's cost, and its median op, depend on the
    seed.  Each of the 48 shapes r x c (r <= 6, c <= 8) therefore appears
    ``round_size / 48`` times; the seed draws the entries and the
    perturbations and shuffles the order.
    """

    name = "normal-forms"
    why = (
        "criterion-4 matrices (r<=6, c<=8, |entry|<=9), 21 of each shape: "
        "certified snf/hsnf beside certificate-free invariant_factors/hsnf_form; "
        "intmat does the work"
    )
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 9)]
    round_size = 21 * len(shapes)
    tail_pct = 99.0
    digest_ops = 500
    perturbations = 10

    def generate(self, rng: random.Random):
        items = []
        for i in range(self.round_size):
            r, c = self.shapes[i % len(self.shapes)]
            x = intmat.IntMat(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
            xh = intmat.IntMat.from_rows([row + [-sum(row)] for row in _rows(x)])
            orbit = [xh] + [
                verify.perturb_homogeneous(xh, rng) for _ in range(self.perturbations)
            ]
            items.append((x, xh, orbit))
        rng.shuffle(items)
        return items

    def write(self, items, directory: Path):
        with open(directory / "matrices.jsonl", "w", encoding="utf-8") as fh:
            for x, _, orbit in items:
                doc = {
                    "matrix": x.to_json_dict(),
                    "orbit": [p.to_json_dict() for p in orbit],
                }
                fh.write(json.dumps(doc, separators=_COMPACT) + "\n")
        return items

    def call(self, item):
        x, xh, orbit = item
        return (
            intmat.snf(x),
            intmat.hsnf(xh),
            intmat.invariant_factors(x),
            [intmat.hsnf_form(p) for p in orbit],
        )

    def check(self, item, out) -> list[str]:
        x, xh, _ = item
        res, hres, factors, forms = out
        problems = []
        q, d, p = _rows(res.Q), _rows(res.D), _rows(res.P)
        if _matmul(q, _rows(x)) != _matmul(d, p):
            problems.append("snf: Q @ X != D @ P")
        if abs(_det(q)) != 1 or abs(_det(p)) != 1:
            problems.append("snf: certificate not unimodular")
        diag = _snf_diagonal(d)
        if diag is None:
            problems.append("snf: D is not in Smith normal form")
        elif tuple(factors) != tuple(diag):
            problems.append(f"invariant_factors {factors} != diagonal {diag}")
        hq, ha, hp = _rows(hres.Q), _rows(hres.A), _rows(hres.P)
        if _matmul(hq, _rows(xh)) != _matmul(ha, hp):
            problems.append("hsnf: Q @ X != A @ P")
        if abs(_det(hq)) != 1 or abs(_det(hp)) != 1 or any(sum(r) != 1 for r in hp):
            problems.append("hsnf: certificate not unimodular or P @ 1 != 1")
        if _rows(forms[0]) != ha:
            problems.append("hsnf(x).A != hsnf_form(x)")
        if any(_rows(f) != ha for f in forms[1:]):
            problems.append("an orbit perturbation has another homogeneous form")
        return problems

    def output_bytes(self, out) -> bytes:
        res, hres, factors, forms = out
        doc = {
            "snf": [m.to_json_dict() for m in (res.Q, res.D, res.P)],
            "hsnf": [m.to_json_dict() for m in (hres.Q, hres.A, hres.P)],
            "invariant_factors": list(factors),
            "hsnf_form": [f.to_json_dict() for f in forms],
        }
        return json.dumps(doc, separators=_COMPACT).encode() + b"\n"


class _MarkedList(list):
    """List whose iteration calls ``mark`` before handing out each item."""

    def __init__(self, items, mark):
        super().__init__(items)
        self._mark = mark

    def __iter__(self):
        for item in super().__iter__():
            self._mark()
            yield item


class VerifyBattery(_Workload):
    name = "verify-battery"
    why = (
        "cli.main verify --max-coord 3 --trials 10, one op per polygon checked; "
        "oracle-heavy: brute-force width, oracle count, signatures, minor gcds"
    )
    max_coord = 3
    corpus_classes = 1_633  # translation classes of corpus --max-coord 3
    # A random polygon costs 3 ms at the median and up to 110 ms, so with
    # 100 trials 11-17 of the 17 slowest ops were random and the seed set
    # latency_tail_ms; ten keep the tail on the fixed corpus.
    trials = 10
    ops_per_call = corpus_classes + trials
    round_size = 1  # one call
    tail_pct = 99.0
    digest_ops = ops_per_call

    def generate(self, rng: random.Random):
        return [
            ["verify", "--max-coord", str(self.max_coord), "--trials", str(self.trials),
             "--seed", str(rng.randrange(2**31))]
            for _ in range(self.round_size)
        ]

    def write(self, items, directory: Path):
        (directory / "argv.json").write_text(json.dumps(items) + "\n", encoding="utf-8")
        return items

    def call(self, argv):
        """Run the battery; op boundaries are stamped where ``run_verification``
        takes its next corpus polygon or draws its next random polygon."""
        marks: list[tuple[float, float]] = []
        listed, drawn = verify.enumerate_corpus, verify.random_polygon
        host = self.host

        def mark():
            if host is not None:
                host.tick()
                marks.append((time.perf_counter(), host.paused_s))
            else:
                marks.append((time.perf_counter(), 0.0))

        def enumerate_marked(*args, **kwargs):
            return _MarkedList(listed(*args, **kwargs), mark)

        def random_marked(*args, **kwargs):
            mark()
            return drawn(*args, **kwargs)

        verify.enumerate_corpus, verify.random_polygon = enumerate_marked, random_marked
        try:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = cli.main(argv)
        finally:
            verify.enumerate_corpus, verify.random_polygon = listed, drawn
        return code, buf.getvalue(), marks

    def op_latencies(self, out, start: float, end: float, paused_s: float):
        """Per-polygon wall times, less the reference loops run between
        polygons, or None if the stamps do not match the ops."""
        marks = out[2]
        if len(marks) != self.ops_per_call:
            return None
        ends = marks[1:] + [(end, paused_s)]
        return [(t0, (t1 - t0) - (p1 - p0)) for (t0, p0), (t1, p1) in zip(marks, ends)]

    def check(self, argv, out) -> list[str]:
        code, text, _ = out
        lines = text.rstrip("\n").split("\n")
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if lines[-1] != "ALL CHECKS PASSED":
            problems.append(f"status line {lines[-1]!r}")
        rows = [ln for ln in lines[1:-1] if not ln.startswith("  first failure")]
        for row in rows:
            name, passed, failed = row.rsplit(None, 2)
            if name == "unimodular invariance of the count":
                expected = 3 * self.trials
            elif name.endswith("(random polygons)"):
                expected = self.trials
            else:
                expected = self.corpus_classes
            if int(passed) != expected or int(failed) != 0:
                problems.append(f"{name}: {passed} passed, {failed} failed, expected {expected}")
        return problems

    def output_bytes(self, out) -> bytes:
        return out[1].encode()


WORKLOADS = {w.name: w for w in (CorpusAnalyze(), LargeAnalyze(), NormalForms(), VerifyBattery())}
