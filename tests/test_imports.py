import ast
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dispersal_lab"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_unused_import_scan_sees_a_dead_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom x import y as z\nsys\n"
    assert unused_imports(source) == ["os (line 2)", "z (line 4)"]


# __init__.py is left out: its imports are the package's re-exports.
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports_in_src(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """Functions and methods, dunders aside, whose name no code in the given modules reads
    outside their own definition, as a name or an attribute."""
    defined, reads = [], defaultdict(list)  # reads: name -> [(module, line)]
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node))
            elif isinstance(node, ast.Name):
                reads[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append((module, node.lineno))

    def outside(module: str, node: ast.FunctionDef, where: str, line: int) -> bool:
        return where != module or not node.lineno <= line <= node.end_lineno

    return sorted(f"{module}.{node.name} (line {node.lineno})" for module, node in defined
                  if not (node.name.startswith("__") and node.name.endswith("__"))
                  and not any(outside(module, node, *read) for read in reads[node.name]))


def test_unreferenced_function_scan_sees_a_dead_method():
    source = ("class A:\n    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        pass\n"
              "    def dead(self):\n        return self.dead()\n")
    assert unreferenced_functions({"m": source}) == ["m.dead (line 6)"]


# Entry points that only code outside src/ calls.  find_threshold is the package's threshold
# API: __init__ re-exports it, and README's example, bench/ and the tests call it.
ENTRY_POINTS = {"analysis.find_threshold"}


def test_every_function_in_src_is_referenced_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [name for name in unreferenced_functions(sources)
            if name.split(" ")[0] not in ENTRY_POINTS] == []
