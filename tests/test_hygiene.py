"""Static checks over the package source, read with the stdlib `ast`."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "surfclass"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom re import match, sub\nsub('', '', '')\n") == ["os", "match"]


@pytest.mark.parametrize("module", MODULES)
def test_module_references_every_import(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []
