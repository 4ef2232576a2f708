"""No module imports a name at its top level that it never uses."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# __init__.py re-exports its imports; test_acceptance.py is kept as written
SKIP = {"src/cavityspec/__init__.py", "tests/test_acceptance.py"}
FILES = sorted(str(p.relative_to(ROOT))
               for d in ("src/cavityspec", "tests", "bench")
               for p in (ROOT / d).glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


@pytest.mark.parametrize("path", [f for f in FILES if f not in SKIP])
def test_no_unused_top_level_import(path):
    assert _unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    assert _unused_imports("import json\nimport os\nos.sep\n") == ["line 1: json"]
