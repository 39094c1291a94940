"""Every module of the package and of the tests reads each name it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py is left out: its names are lazy re-exports, listed as strings
MODULES = sorted(p for p in (ROOT / "src" / "expanderlab").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names bound by the imports of source (but __future__'s) that it never reads,
    as a Name or inside a string annotation."""
    tree = ast.parse(source)
    imported, read, annotations = [], set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import_and_reads_string_annotations():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import B, C\ndef f(x: 'B') -> None:\n    sys.exit()\n"
    assert unread_imports(source) == ["os", "C"]
