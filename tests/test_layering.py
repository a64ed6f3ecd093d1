"""Import boundaries between the package's modules, read from the source.

The closed forms and the oracles that check them must share no code, and
the analyze path must not depend on the normal-form engine; every public
name has a caller in the package or the benchmark, not only in the tests.
Each module is parsed with ``ast``, so these checks see what the source
says, not what happens to be loaded.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import severi_lattice

PACKAGE = Path(severi_lattice.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
PRODUCTION = ("lattices", "polygons", "corpus", "severi")
# Pick's theorem, the area, the Gauss reduction, the basis frame they read a
# lattice in, and the production profile
CLOSED_FORMS = {
    "interior_count_in",
    "_lengths_in",
    "_in_basis",
    "twice_area",
    "lattice_width",
    "_width_of_vertices",
    "build_profile",
    "_descriptors",
    "_formula_count",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imported(module: str) -> set[str]:
    """The package modules that ``module`` imports, relatively or by name."""
    out: set[str] = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "severi_lattice":
                base = node.module.split(".")[1:]
            else:
                continue
            if base:
                out.add(base[0])
            else:  # from . import oracles, severi
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "severi_lattice" and len(parts) > 1:
                    out.add(parts[1])
    return out


def named(module: str) -> set[str]:
    """Every identifier ``module`` uses: names, attributes and imported names."""
    out: set[str] = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_imports_neither_intmat_nor_certificates(module):
    assert not imported(module) & {"intmat", "certificates"}


def test_only_analyze_cli_and_verify_import_oracles():
    importers = {m for m in MODULES if "oracles" in imported(m)}
    assert importers <= {"severi", "verify"}


def test_oracles_import_no_profile_certificate_or_intmat():
    assert not imported("oracles") & {"severi", "certificates", "intmat"}


def test_oracles_name_no_closed_form():
    assert not named("oracles") & CLOSED_FORMS


def referrers(name: str) -> set[str]:
    """``module.function`` for every function whose body names ``name``,
    and ``module`` alone for a use outside any function."""
    out: set[str] = set()
    for module in MODULES:
        tree = _tree(module)
        in_functions = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if _names(node, name):
                        in_functions.add(node)
                        out.add(f"{module}.{fn.name}")
        if any(_names(n, name) and n not in in_functions for n in ast.walk(tree)):
            out.add(module)
    return out


def _names(node: ast.AST, name: str) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name == name for alias in node.names)
    return False


CERTIFIED = ("_smith_reduce", "snf", "hsnf", "hsnf_left")
CERTIFICATE_FREE = {
    "intmat.invariant_factors",
    "intmat.hsnf_form",
    "intmat._invariant_chain",
}


def test_only_snf_reaches_the_certified_reduction():
    # the three certified entry points run the reduction themselves;
    # invariant_factors and hsnf_form must not fall back on the certified
    # kernel, or comparing them with snf would compare it with itself
    assert referrers("_smith_reduce") == {"intmat.snf", "intmat.hsnf", "intmat.hsnf_left"}
    for name in CERTIFIED:
        assert not referrers(name) & CERTIFICATE_FREE, name


def trusted_builders() -> dict[str, set[str]]:
    """For each receiver of a ``<receiver>._trusted(...)`` call, the modules
    that make one."""
    out: dict[str, set[str]] = {}
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_trusted"
            ):
                receiver = ast.unparse(node.func.value)
                out.setdefault(receiver, set()).add(module)
    return out


def test_only_the_corpus_builds_unvalidated_polygons():
    # LatticePolygon._trusted skips every check, so only the enumerator's
    # own vertex tuples (convex, counterclockwise, in the box) may use it
    builders = trusted_builders()
    assert builders.get("LatticePolygon") == {"corpus"}
    assert set(builders) == {"LatticePolygon", "IntMat"}


def test_only_the_record_base_sets_fields_behind_the_frozen_guard():
    # every record is filled through its slot descriptors by the _fill
    # that _record generates; no other module may write past
    # Record.__setattr__
    setters = {
        module
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    }
    assert setters <= {"_record"}


def test_the_parser_sees_each_import_form():
    # the checks above are only as good as these two readers
    assert imported("cli") >= {"severi", "corpus", "intmat", "verify"}
    assert imported("severi") >= {"oracles", "lattices", "polygons"}
    assert {"interior_count_in", "build_profile"} <= named("severi")


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh ``python -S`` process that imports
    the package from this tree; -S keeps site packages from loading
    modules first."""
    src = str(PACKAGE.parent)
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_the_cli_imports_no_dataclasses_typing_or_pathlib():
    # each of these costs a severi process milliseconds of start-up; each
    # engine is imported by the command that runs it, not by the CLI, and
    # json by the first read or write of a JSON document
    probe = (
        "import severi_lattice.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib', 'random', 'json', "
        "'severi_lattice.intmat', 'severi_lattice.corpus', "
        "'severi_lattice.verify', 'severi_lattice.certificates', "
        "'severi_lattice.severi', 'severi_lattice.polygons', 'severi_lattice.lattices', "
        "'severi_lattice.oracles', 'severi_lattice._record'} & set(sys.modules)))"
    )
    assert fresh(probe).strip() == "[]"


# what importing the CLI loads; every command adds its engine to these
CLI = ["cli", "errors"]
ANALYZE_PATH = ["_record", "lattices", "oracles", "polygons", "severi"]


@pytest.mark.parametrize(
    "argv, engines, loads_random, loads_json",
    [
        (["analyze", "{polygon}"], ANALYZE_PATH, False, True),
        (["count", "{polygon}"], ANALYZE_PATH, False, True),
        (["components", "{polygon}"], ANALYZE_PATH, False, True),
        (["snf", "{matrix}"], ["_record", "intmat"], False, True),
        (["hsnf", "{matrix}"], ["_record", "intmat"], False, True),
        (
            ["corpus", "--max-coord", "1"],
            ["_record", "corpus", "lattices", "polygons"],
            False,
            False,
        ),
        (
            ["verify", "--max-coord", "1", "--trials", "0"],
            ANALYZE_PATH + ["certificates", "corpus", "intmat", "verify"],
            True,
            False,
        ),
    ],
    ids=["analyze", "count", "components", "snf", "hsnf", "corpus", "verify"],
)
def test_each_command_loads_only_the_engine_it_runs(
    tmp_path, argv, engines, loads_random, loads_json
):
    polygon = tmp_path / "p.json"
    polygon.write_text('{"vertices": [[0, 0], [3, 0], [0, 3]]}', encoding="utf-8")
    matrix = tmp_path / "m.json"  # zero row sums, so hsnf takes it too
    matrix.write_text('{"rows": 1, "cols": 3, "entries": [[2, 4, -6]]}', encoding="utf-8")
    argv = [arg.format(polygon=polygon, matrix=matrix) for arg in argv]
    # the probe prints with repr, not json, so that only the command
    # itself can load json
    probe = (
        "import contextlib, io\n"
        "import severi_lattice.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = severi_lattice.cli.main({argv!r})\n"
        "names = [m.split('.', 1)[1] for m in sys.modules if m.startswith('severi_lattice.')]\n"
        "print(repr([code, sorted(names), 'random' in sys.modules, 'json' in sys.modules]))"
    )
    code, loaded, has_random, has_json = ast.literal_eval(fresh(probe))
    assert code == 0
    assert loaded == sorted(CLI + engines)
    assert has_random is loads_random
    assert has_json is loads_json


ROOT_NAMES = {
    "IntMat": "intmat",
    "snf": "intmat",
    "LatticePolygon": "polygons",
    "analyze": "severi",
    "build_profile": "severi",
    "count_components": "severi",
}


def test_the_package_root_loads_each_module_on_first_use():
    # importing the package loads errors alone; each re-export is its
    # module's own object, bound by ``import *`` and listed by ``dir``
    probe = (
        "import severi_lattice\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('severi_lattice.'))\n"
        "import importlib\n"
        f"same = [name for name, module in {ROOT_NAMES!r}.items() if getattr("
        "severi_lattice, name) is getattr(importlib.import_module("
        "'severi_lattice.' + module), name)]\n"
        "scope = {}\n"
        "exec('from severi_lattice import *', scope)\n"
        "print(repr([loaded, same, sorted(set(scope) - {'__builtins__'}), "
        "sorted(dir(severi_lattice))]))"
    )
    loaded, same, star, listed = ast.literal_eval(fresh(probe))
    assert loaded == ["severi_lattice.errors"]
    assert same == list(ROOT_NAMES)
    assert star == sorted(severi_lattice.__all__)
    assert set(severi_lattice.__all__) <= set(listed)
    unknown = "^module 'severi_lattice' has no attribute 'absent'$"
    with pytest.raises(AttributeError, match=unknown):
        severi_lattice.absent


def _public(module: str) -> list[str]:
    for node in _tree(module).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def package_uses() -> set[str]:
    """Names the package's source reads, each outside the top-level
    definition of the same name; ``__all__`` lists strings, not names."""
    out: set[str] = set()
    for module in MODULES:
        for top in _tree(module).body:
            own = getattr(top, "name", None)  # a def or class defines it
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    out.add(name)
    return out


def benchmark_uses() -> set[str]:
    """Library names the benchmark reaches: ``module.name`` on a package
    module, names imported from the package, and the names the tracer
    wraps, from its ``FUNCTIONS`` and ``POLYGON_METHODS`` tables."""
    out: set[str] = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in MODULES:
                    out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "severi_lattice":
                    out.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and path.name == "tracer.py":
                targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                if targets & {"FUNCTIONS", "POLYGON_METHODS"}:
                    table = ast.literal_eval(node.value)
                    if isinstance(table, dict):  # layer -> function names
                        table = [name for names in table.values() for name in names]
                    out.update(table)
    return out


def test_the_reader_of_the_benchmark_sees_what_it_calls():
    uses = benchmark_uses()
    # module attributes, imported classes, and names the tracer wraps
    assert {"perturb_homogeneous", "convex_hull", "hsnf_form"} <= uses
    assert {"AffineLattice2", "LatticePolygon"} <= uses
    assert {"enumerate_components", "interior_points_in"} <= uses


def test_every_public_name_has_a_caller_outside_the_tests():
    used = package_uses() | benchmark_uses()
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in _public(module)
        if name not in used
    ]
    assert unused == []


def public_methods(module: str) -> list[tuple[str, str]]:
    """``(class, name)`` for each public method and property of the classes
    that ``module`` lists in ``__all__``."""
    exported = set(_public(module))
    return [
        (cls.name, item.name)
        for cls in _tree(module).body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def benchmark_attributes() -> set[str]:
    """Every attribute name the benchmark reads, on any object: it calls
    methods on the values the library returns, and the tracer patches
    ``AffineLattice2.contains`` on the class."""
    return {
        node.attr
        for path in PERFBENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }


def test_every_public_method_has_a_caller_outside_the_tests():
    used = package_uses() | benchmark_uses() | benchmark_attributes()
    unused = [
        f"{module}.{cls}.{name}"
        for module in MODULES
        for cls, name in public_methods(module)
        if name not in used
    ]
    assert unused == []
