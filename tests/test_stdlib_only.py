"""The package imports nothing outside the standard library, the CLI's
start-up imports none of the heavy modules it has no use for, the test
oracles import nothing from the package, and the package reads every
name it imports and every function and class it defines."""

import ast
import subprocess
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


def test_cli_start_up_skips_heavy_modules():
    # -S keeps site's own imports from masking what the package loads;
    # traceback belongs to the exit-3 path alone
    heavy = ["dataclasses", "inspect", "typing", "traceback"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import overpart.cli; "
            "overpart.cli.build_parser(); "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent), *heavy],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


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


# perfbench's tracer wraps ck_table at this attribute, where nothing reads it
UNREAD_IMPORTS_ALLOWED = {("overpartitions.py", "ck_table")}


def test_package_modules_read_every_name_they_import():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, name) for name in imported - read]
    assert sorted(set(unread) - UNREAD_IMPORTS_ALLOWED) == []


# perfbench's tracer wraps theta.pochhammer_negqq, which no package code
# calls since the product source divides psi(q)^2 by (q^2; q^2)_inf^3
UNREAD_DEFINITIONS_ALLOWED = {("theta.py", "pochhammer_negqq")}


def test_package_reads_every_function_and_class_it_defines():
    # a definition is read when its name is loaded, or an attribute of
    # that name is, anywhere in the package
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined, f"no definitions under {PACKAGE}"
    unread = [(module, name) for module, name in defined if name not in read]
    assert sorted(set(unread) - UNREAD_DEFINITIONS_ALLOWED) == []
