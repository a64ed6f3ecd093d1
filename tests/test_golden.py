"""Golden digests: the sha256 of compact ``analyze`` JSON lines is pinned.

Any change to the analyze pipeline (closed forms in place of scans,
refactors of the profile or the width search) must leave every output byte
as it is; these digests were recorded before such changes were made.
"""

import hashlib
import json
import random

from severi_lattice.corpus import CorpusSpec, iter_corpus, random_polygon
from severi_lattice.severi import analyze

CORPUS3_SHA256 = "37e823b26e1d1d2f98abdc05d0199022b3427a1c2bba7a0c0453c1069f2d15ec"
RANDOM20_SHA256 = "f7f7ee4a28c1b80b83aadbedcabe41d08b330d45d75ad793d6b239b624a09fa4"


def _digest(polygons) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for poly in polygons:
        line = json.dumps(analyze(poly).to_json_dict(), separators=(",", ":"))
        h.update(line.encode() + b"\n")
        n += 1
    return n, h.hexdigest()


def test_corpus3_analyze_digest():
    n, digest = _digest(iter_corpus(CorpusSpec(max_coordinate=3)))
    assert n == 1633
    assert digest == CORPUS3_SHA256


def test_random_polygons_analyze_digest():
    rng = random.Random("golden")
    n, digest = _digest(random_polygon(rng, 100, 12) for _ in range(20))
    assert n == 20
    assert digest == RANDOM20_SHA256
