"""The package imports nothing outside the standard library, and the test
oracles import nothing from the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "overpart"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_oracles_import_nothing_from_the_package():
    path = Path(__file__).resolve().parent / "oracles.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [name for name in imported
                if name.startswith(".") or name.partition(".")[0] == "overpart"]
