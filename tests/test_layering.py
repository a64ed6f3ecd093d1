"""Import boundaries between the package's modules, read from the source.

The closed forms and the oracles that check them must share no code, and
the analyze path must not depend on the normal-form engine.  Each module
is parsed with ``ast``, so these checks see what the source says, not what
happens to be loaded.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import severi_lattice

PACKAGE = Path(severi_lattice.__file__).parent
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


def test_only_snf_reaches_the_certified_reduction():
    # invariant_factors and hsnf_form must not fall back on the certified
    # kernel, or comparing them with snf would compare it with itself
    assert referrers("_smith_reduce") == {"intmat.snf"}


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


def test_the_parser_sees_each_import_form():
    # the checks above are only as good as these two readers
    assert imported("cli") >= {"severi", "corpus", "intmat"}
    assert imported("severi") >= {"oracles", "lattices", "polygons"}
    assert {"interior_count_in", "build_profile"} <= named("severi")


def test_the_cli_imports_no_dataclasses_typing_or_pathlib():
    # each of these costs a severi process milliseconds of start-up;
    # -S keeps site packages from loading them first
    probe = (
        "import sys; import severi_lattice.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} "
        "& set(sys.modules)))"
    )
    src = str(PACKAGE.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
