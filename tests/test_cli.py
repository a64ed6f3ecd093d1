import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import severi_lattice.cli
import severi_lattice.intmat
import severi_lattice.oracles
import severi_lattice.severi
from severi_lattice.cli import (
    MATRIX_MAX_COLS,
    MATRIX_MAX_ENTRY,
    MATRIX_MAX_ROWS,
    _build_parser,
    _dump,
    _name_digits,
    main,
)
from severi_lattice.corpus import CorpusSpec
from severi_lattice.errors import DomainError
from severi_lattice.lattices import AffineLattice2
from severi_lattice.verify import _MAX_TRIALS

from helpers import corner_matrix_rows


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def d3_file(tmp_path):
    return write_json(tmp_path / "d3.json", {"vertices": [[0, 0], [3, 0], [0, 3]]})


@pytest.fixture
def d2_file(tmp_path):
    return write_json(tmp_path / "d2.json", {"vertices": [[0, 0], [2, 0], [0, 2]]})


@pytest.fixture
def diamond2_file(tmp_path):
    return write_json(
        tmp_path / "dia2.json", {"vertices": [[2, 0], [0, 2], [-2, 0], [0, -2]]}
    )


@pytest.fixture
def square_file(tmp_path):
    return write_json(
        tmp_path / "sq.json", {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    )


class TestAnalyze:
    def test_d3(self, d3_file, capsys):
        assert main(["analyze", d3_file]) == 0
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert doc["component_count"] == 1
        assert out.err == ""

    def test_d2(self, d2_file, capsys):
        assert main(["analyze", d2_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["component_count"] == 0
        assert doc["interior_classification_m0"] == "TWICE_PRIMITIVE_TRIANGLE"

    def test_deterministic_bytes(self, diamond2_file, capsys):
        assert main(["analyze", diamond2_file]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", diamond2_file]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_pretty_flag(self, d3_file, capsys):
        assert main(["analyze", "--pretty", d3_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{\n")

    @pytest.mark.parametrize("flag", ["--oracle", "--json"])
    def test_removed_no_op_flags_are_usage_errors(self, d3_file, flag, capsys):
        # analyze always runs the oracle and prints compact JSON by default
        with pytest.raises(SystemExit) as exc:
            main(["analyze", flag, d3_file])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_invalid_polygon(self, tmp_path, capsys):
        bad = write_json(
            tmp_path / "bad.json",
            {"vertices": [[0, 0], [3, 0], [1, 1], [0, 3]]},  # non-convex
        )
        assert main(["analyze", bad]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error" in out.err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/poly.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_garbage_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestCount:
    def test_values(self, d3_file, square_file, diamond2_file, capsys):
        assert main(["count", d3_file]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["count", square_file]) == 0
        assert capsys.readouterr().out.strip() == "0"
        assert main(["count", "--oracle", diamond2_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_oracle_disagreement_exits_2(self, diamond2_file, capsys, monkeypatch):
        monkeypatch.setattr(
            severi_lattice.oracles, "count_components_oracle", lambda poly: 99
        )
        assert main(["count", "--oracle", diamond2_file]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("internal invariant violation:")
        # without --oracle the formula count stands alone
        assert main(["count", diamond2_file]) == 0
        assert capsys.readouterr().out.strip() == "2"


class TestComponents:
    def test_diamond(self, diamond2_file, capsys):
        assert main(["components", diamond2_file]) == 0
        comps = json.loads(capsys.readouterr().out)
        assert [c["d"] for c in comps] == [1, 2]
        assert all(c["contributes"] for c in comps)


class TestMatrixCommands:
    def test_snf_identity(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "id.json",
            {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
        )
        assert main(["snf", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["D"]["entries"] == [[1, 0], [0, 1]]
        assert doc["Q"]["entries"] == [[1, 0], [0, 1]]
        assert doc["P"]["entries"] == [[1, 0], [0, 1]]

    def test_snf_example(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "m.json",
            {"rows": 2, "cols": 2, "entries": [[2, 4], [6, 8]]},
        )
        assert main(["snf", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["D"]["entries"] == [[2, 0], [0, 4]]

    def test_hsnf_rejects_bad_row_sums(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "m.json",
            {"rows": 1, "cols": 2, "entries": [[1, 1]]},
        )
        assert main(["hsnf", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_hsnf(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "m.json",
            {"rows": 1, "cols": 2, "entries": [[1, -1]]},
        )
        assert main(["hsnf", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["A"]["entries"] == [[-1, 1]]


class TestCorpusCommand:
    def test_unit_box_lines(self, capsys):
        assert main(["corpus", "--max-coord", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert "vertices" in json.loads(line)

    def test_limit(self, capsys):
        assert main(["corpus", "--max-coord", "2", "--limit", "10"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 10

    def test_bound_enforced(self, capsys):
        assert main(["corpus", "--max-coord", "7"]) == 1
        assert "error" in capsys.readouterr().err

    def test_out_dir(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["corpus", "--max-coord", "1", "--out", str(out)]) == 0
        files = sorted(out.glob("polygon_*.json"))
        assert len(files) == 5
        json.loads(files[0].read_text(encoding="utf-8"))

    def test_out_names_sort_in_corpus_order(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["corpus", "--max-coord", "2", "--out", str(out)]) == 0
        assert main(["corpus", "--max-coord", "2"]) == 0
        files = sorted(out.iterdir())
        assert [f.name for f in files[:2]] == ["polygon_000000.json", "polygon_000001.json"]
        text = "".join(f.read_text(encoding="utf-8") for f in files)
        assert text == capsys.readouterr().out

    @pytest.mark.parametrize(
        "max_coordinate, limit, digits",
        [
            (1, None, 6),
            (5, None, 6),  # 177,967 classes
            (6, None, 7),  # 1,588,952 classes: the last is polygon_1588951
            (6, 0, 6),
            (6, 1_000_000, 6),  # the last index is 999,999
            (6, 1_000_001, 7),
            (6, 10**9, 7),
        ],
    )
    def test_out_names_have_the_digits_of_the_largest_index(
        self, max_coordinate, limit, digits
    ):
        assert _name_digits(CorpusSpec(max_coordinate, limit)) == digits

    @pytest.mark.parametrize("where", ["existing file", "below a file"])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = blocker if where == "existing file" else blocker / "corpus"
        assert main(["corpus", "--max-coord", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestStdoutFailures:
    """The ``severi`` command (``entry``) exits 1 with one ``error:`` line and
    no traceback when stdout cannot take its output."""

    @staticmethod
    def severi(*args):
        src = os.path.dirname(os.path.dirname(severi_lattice.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return [sys.executable, "-m", "severi_lattice.cli", *args], env

    @staticmethod
    def assert_one_error_line(code, err):
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    def test_reader_leaves_after_one_line(self):
        # corpus --max-coord 4 writes 17,978 lines, far more than a pipe holds
        argv, env = self.severi("corpus", "--max-coord", "4")
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert json.loads(first) == {"vertices": [[0, 0], [1, 0], [0, 1]]}
        self.assert_one_error_line(code, err)

    def test_closed_stdout(self, d3_file):
        argv, env = self.severi("analyze", d3_file)
        # the shell's >&- runs the command with fd 1 closed
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *argv],
            env=env, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        self.assert_one_error_line(proc.returncode, proc.stderr)


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--max-coord", "1", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # harness sanity: a broken count must flip the exit code to 2
        monkeypatch.setattr(
            severi_lattice.severi, "count_components", lambda poly: 99
        )
        code = main(["verify", "--max-coord", "1", "--trials", "2", "--seed", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAILURES DETECTED" in out


    def test_negative_trials_is_an_input_error(self, capsys):
        assert main(["verify", "--max-coord", "1", "--trials", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("trials", [_MAX_TRIALS + 1, 10**8])
    def test_trials_above_the_cap_is_an_input_error(self, capsys, trials):
        # rejected before the corpus is built: 10**8 trials would run for days
        assert _MAX_TRIALS == 10_000
        assert main(["verify", "--max-coord", "1", "--trials", str(trials)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials must be at most 10000, got {trials}\n"


class TestMalformedInput:
    """Malformed documents exit 1 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("analyze", {"vertices": [[0, 0], [1, 0], 5]}),
            ("analyze", {"vertices": [[0, 0], [1, 0], None]}),
            ("count", {"vertices": [[0, 0], [1, 0], "01"]}),
            ("components", {"vertices": [[0, 0], [1, 0], {"x": 0, "y": 1}]}),
            ("snf", {"rows": 1, "cols": 1, "entries": [5]}),
            ("snf", {"rows": 2, "cols": 1, "entries": [[1], 2]}),
            ("snf", {"rows": "1", "cols": 1, "entries": [[1]]}),
            ("hsnf", {"rows": 1, "cols": 2, "entries": [None]}),
        ],
    )
    def test_wrong_shape(self, tmp_path, capsys, command, doc):
        path = write_json(tmp_path / "bad.json", doc)
        assert main([command, path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error:")

    @pytest.mark.parametrize(
        "payload",
        [b"\xff\xfe{}", b"[" * 100_000, b'{"vertices": 1' + b"0" * 5000 + b"}"],
    )
    def test_undecodable_file(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error:")


class TestHugeResult:
    """A matrix outside the snf/hsnf box, or a result too large to print,
    exits 1 with one ``error:`` line."""

    @pytest.mark.parametrize("command", ["snf", "hsnf"])
    def test_beyond_the_digit_limit(self, tmp_path, capsys, command):
        # certificate entries of this seeded 60 x 60 matrix (and of its
        # balanced companion, for hsnf) would exceed Python's 4300-digit
        # limit on printing an integer; the box now refuses it up front
        rng = random.Random(1)
        rows = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
        if command == "hsnf":
            rows = [row + [-sum(row)] for row in rows]
        doc = {"rows": len(rows), "cols": len(rows[0]), "entries": rows}
        assert main([command, write_json(tmp_path / "big.json", doc)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error:")

    @pytest.mark.parametrize("command", ["snf", "hsnf"])
    @pytest.mark.parametrize(
        "rows, cols, entry",
        [
            (MATRIX_MAX_ROWS + 1, 2, 1),
            (2, MATRIX_MAX_COLS + 1, 1),
            (2, 2, MATRIX_MAX_ENTRY + 1),
        ],
        ids=["rows", "cols", "entry"],
    )
    def test_outside_the_box_before_any_reduction(
        self, tmp_path, capsys, monkeypatch, command, rows, cols, entry
    ):
        def no_reduction(x):
            raise AssertionError(f"{command} ran on a matrix outside the box")

        monkeypatch.setattr(severi_lattice.intmat, command, no_reduction)
        # zero row sums, so only the box can refuse it
        grid = [[0] * cols for _ in range(rows)]
        grid[0][0], grid[0][-1] = entry, -entry
        doc = {"rows": rows, "cols": cols, "entries": grid}
        assert main([command, write_json(tmp_path / "out.json", doc)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error:") and "box" in out.err

    @pytest.mark.parametrize("command", ["snf", "hsnf"])
    def test_the_corner_of_the_box_is_accepted(self, tmp_path, capsys, command):
        # entries of either sign up to the bound, paired so rows sum to zero
        rows = corner_matrix_rows()
        doc = {"rows": len(rows), "cols": len(rows[0]), "entries": rows}
        assert main([command, write_json(tmp_path / "corner.json", doc)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert len(json.loads(out.out)) == 3

    def test_dump_maps_the_digit_limit_to_a_domain_error(self):
        with pytest.raises(DomainError, match="too large to print"):
            _dump({"D": 10**5000}, False)
        with pytest.raises(DomainError, match="too large to print"):
            _dump([10**5000], True)


class TestLatticeJson:
    def test_round_trip(self):
        # the validating constructor takes the printed fields back as they are
        lat = AffineLattice2.from_generators((3, 1), [(2, 0), (1, 3)])
        doc = json.loads(_dump(lat.to_json_dict(), False))
        (d1, e), (z, d2) = doc["basis"]
        assert AffineLattice2(tuple(doc["basepoint"]), ((d1, e), (z, d2))) == lat


def run_main(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call; an
    argparse exit (usage error or help) gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


SMALL = st.integers(-3, 3)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    SMALL,
    st.integers(-(10**30), 10**30),
    st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def near_valid_documents(draw):
    """A valid polygon or matrix document (a matrix with zero row sums half
    of the time, for hsnf), or one with a field replaced by a bool, float,
    huge int or a value of the wrong shape."""
    if draw(st.booleans()):
        pairs = st.tuples(SMALL, SMALL).map(list)
        doc = {"vertices": draw(st.lists(pairs, min_size=3, max_size=7))}
    else:
        r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(SMALL, min_size=c, max_size=c), min_size=r, max_size=r))
        if draw(st.booleans()):
            rows = [row + [-sum(row)] for row in rows]
        doc = {"rows": r, "cols": len(rows[0]), "entries": rows}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(JSON_VALUES)
    elif draw(st.booleans()):
        key = "vertices" if "vertices" in doc else "entries"
        items = doc[key]
        items[draw(st.integers(0, len(items) - 1))] = draw(JSON_VALUES)
    return doc


PAYLOADS = st.one_of(
    st.binary(max_size=64),
    st.one_of(near_valid_documents(), JSON_VALUES).map(lambda d: json.dumps(d).encode()),
)
FILE_COMMANDS = (
    ["analyze"], ["count"], ["count", "--oracle"], ["components"], ["snf"], ["hsnf"],
)
ARGV_TOKENS = st.one_of(
    st.sampled_from(
        ["analyze", "count", "components", "snf", "hsnf", "corpus", "verify",
         "--pretty", "--oracle", "--max-coord", "--limit", "--out", "--dedup",
         "--trials", "--seed", "-h", "--help", "--", "-", "translation", "none",
         "-1", "0", "1", "2", "7", "x", "1.5", "", "missing.json"]
    ),
    # no path separators and no dots, so no token names "..": every file the
    # CLI writes stays in the working directory
    st.text(st.characters(exclude_characters="/\\."), max_size=6),
)


def quick(argv) -> bool:
    """Whether ``argv`` is no full-size corpus or verify run: those take
    seconds to minutes by design, and their defaults are max-coord 4 and
    100 trials."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            return True
    if args.command == "verify":
        return args.max_coord <= 2 and args.trials <= 2
    if args.command == "corpus":
        return args.max_coord <= 2
    return True


class TestFuzz:
    """No input file or argument list gives a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FILE_COMMANDS), PAYLOADS)
    def test_input_files(self, command, payload):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "in.json")
            with open(path, "wb") as fh:
                fh.write(payload)
            code, out, err = run_main([*command, path])
        assert code in (0, 1), err
        if code == 1:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(ARGV_TOKENS, max_size=6),
            st.builds(
                lambda command, rest: [command, *rest],
                st.sampled_from(["analyze", "count", "components", "snf", "hsnf", "corpus", "verify"]),
                st.lists(ARGV_TOKENS, max_size=5),
            ),
        )
    )
    def test_argv(self, argv):
        assume(quick(argv))
        with tempfile.TemporaryDirectory() as d:
            cwd = os.getcwd()
            os.chdir(d)
            try:
                code, out, err = run_main(argv)
            finally:
                os.chdir(cwd)
        # argparse usage errors print the usage line too: no one-line rule here
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
