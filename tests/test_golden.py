"""Golden digests: the sha256 of what the pipeline prints is pinned.

Any change to the analyze pipeline (closed forms in place of scans,
refactors of the profile or the width search), to the normal-form engine,
to the verify battery or to the corpus enumerator must leave every output
byte as it is; these digests were recorded before such changes were made.
"""

import hashlib
import json
import random

import pytest

from severi_lattice.cli import main
from severi_lattice.corpus import CorpusSpec, iter_corpus, random_polygon
from severi_lattice.severi import analyze

from helpers import corner_matrix_rows

# severi analyze, as a library call, over corpus max-coord 3 and 20 random polygons
CORPUS3_SHA256 = "37e823b26e1d1d2f98abdc05d0199022b3427a1c2bba7a0c0453c1069f2d15ec"
RANDOM20_SHA256 = "f7f7ee4a28c1b80b83aadbedcabe41d08b330d45d75ad793d6b239b624a09fa4"
# stdout of severi count / components over corpus max-coord 3, snf / hsnf over
# the seeded matrix set
CLI_COUNT_SHA256 = "0870edcd8f27b20160abf10c844f51ca45c4e5cc86a943d6eee9e5fbff71a939"
CLI_COMPONENTS_SHA256 = "ca46b23c41a02640cfceee3bec7ceb4b6bfbe5a20eafa9ea4f48168cda70383f"
CLI_SNF_SHA256 = "9e908fabdeab0787650d44071f22edb6b16b853e47f195930d5028f705e8a0c6"
CLI_HSNF_SHA256 = "22f27fc45a9bc9c8c07ec23d9a913705705c49b86705cfb5b38fe6e1bda4e191"
# stdout of severi snf / hsnf on the seeded 16 x 16 matrix at the corner of
# the input box
CLI_SNF_CORNER_SHA256 = "a2e334ddd16376701b90a679806eb9f890d77846d326a00dda7ca4191c81828c"
CLI_HSNF_CORNER_SHA256 = "04f103679cc2bff160fdec919230a96fd965322637c135ca1b107a7ca871b5e0"
# stdout of severi verify --max-coord 3 --trials 10 --seed 0
CLI_VERIFY_SHA256 = "4356def34613b4c021a59db5657c137860794334a1bffb04534d50bf0b2eb933"
# stdout of severi corpus --max-coord 4
CLI_CORPUS4_SHA256 = "27a5a2c913eeb240a67c0660ce4b75568b81e2c597bcff94f1b888f5ea401363"
# repr of each vertex tuple of iter_corpus(max-coord 5), one per line
CORPUS5_VERTICES_SHA256 = "2523be18a3096aee8bf96cd3938d8ea10ef3f78971480fe8d4304a55392ee1ff"


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


def _write_docs(directory, docs) -> list[str]:
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"{i:05d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths


def _cli_digest(command, paths, capsys) -> str:
    """sha256 of the stdout of ``severi <command> <file>`` over ``paths``."""
    capsys.readouterr()
    for path in paths:
        assert main([command, path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == len(paths)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus3_files(tmp_path_factory):
    docs = [
        {"vertices": [list(v) for v in poly.vertices]}
        for poly in iter_corpus(CorpusSpec(max_coordinate=3))
    ]
    return _write_docs(tmp_path_factory.mktemp("corpus3"), docs)


def _seeded_matrices(balanced: bool) -> list[dict]:
    """60 matrices of the normal-form suite's shapes and entries, seeded.

    ``balanced`` appends the column that makes every row sum to zero, as
    ``hsnf`` requires.
    """
    rng = random.Random("golden-normal-forms")
    docs = []
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        if balanced:
            rows = [row + [-sum(row)] for row in rows]
        docs.append({"rows": r, "cols": len(rows[0]), "entries": rows})
    return docs


@pytest.mark.parametrize(
    "command, expected",
    [("count", CLI_COUNT_SHA256), ("components", CLI_COMPONENTS_SHA256)],
    ids=["count", "components"],
)
def test_cli_corpus3_digest(command, expected, corpus3_files, capsys):
    assert len(corpus3_files) == 1633
    assert _cli_digest(command, corpus3_files, capsys) == expected


@pytest.mark.parametrize(
    "command, balanced, expected",
    [("snf", False, CLI_SNF_SHA256), ("hsnf", True, CLI_HSNF_SHA256)],
    ids=["snf", "hsnf"],
)
def test_cli_normal_form_digest(command, balanced, expected, tmp_path, capsys):
    paths = _write_docs(tmp_path, _seeded_matrices(balanced))
    assert _cli_digest(command, paths, capsys) == expected


@pytest.mark.parametrize(
    "command, expected",
    [("snf", CLI_SNF_CORNER_SHA256), ("hsnf", CLI_HSNF_CORNER_SHA256)],
    ids=["snf", "hsnf"],
)
def test_cli_normal_form_corner_digest(command, expected, tmp_path, capsys):
    rows = corner_matrix_rows()
    doc = {"rows": len(rows), "cols": len(rows[0]), "entries": rows}
    paths = _write_docs(tmp_path, [doc])
    assert _cli_digest(command, paths, capsys) == expected


def test_cli_verify_digest(capsys):
    capsys.readouterr()
    assert main(["verify", "--max-coord", "3", "--trials", "10", "--seed", "0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith("ALL CHECKS PASSED\n")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_VERIFY_SHA256


@pytest.mark.parametrize(
    "argv, lines, expected",
    [
        (["--max-coord", "4"], 17978, CLI_CORPUS4_SHA256),
    ],
    ids=["max-coord-4"],
)
def test_cli_corpus_digest(argv, lines, expected, capsys):
    capsys.readouterr()
    assert main(["corpus", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_corpus5_vertices_digest():
    h = hashlib.sha256()
    n = 0
    for poly in iter_corpus(CorpusSpec(max_coordinate=5)):
        h.update(repr(poly.vertices).encode() + b"\n")
        n += 1
    assert n == 177967
    assert h.hexdigest() == CORPUS5_VERTICES_SHA256
