"""Static checks over the package source, read with the stdlib `ast`."""
import ast
import re
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


ROOT = SRC.parent.parent


def _imported_by_init() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _exported() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    raise AssertionError("__init__.py defines no __all__")


def _names(source: str) -> set[str]:
    """Names loaded or looked up as attributes in one module's source.

    A definition is a `def` or `class` statement, not a name node, so a name
    counts only where it is used."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _referenced() -> set[str]:
    """Names used in the modules and scripts; the re-exports of
    `__init__.py` are left out."""
    paths = [SRC / m for m in MODULES] + sorted((ROOT / "scripts").glob("*.py"))
    return set().union(*(_names(p.read_text(encoding="utf-8")) for p in paths))


def test_all_lists_exactly_what_init_imports():
    exported = _exported()
    assert len(exported) == len(set(exported))
    assert set(exported) == _imported_by_init()


def test_every_export_is_used_or_documented():
    # a name the package exports is referenced by its own code or scripts,
    # or the README presents it in backticks
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = _referenced()
    unused = [n for n in _exported() if n not in used and not re.search(rf"`{n}\b", readme)]
    assert unused == []


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no module uses.

    `sources` maps a module name to its text; an import alone is not a
    use."""
    used = set().union(*map(_names, sources.values()))
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]


def test_unreferenced_private_is_found():
    sources = {
        "a": "def _kept():\n    pass\n\nclass _Left:\n    pass\n\ndef _unused():\n    return 1\n",
        "b": "from a import _kept\n_kept()\n",
    }
    assert _unreferenced_private(sources) == ["a._Left", "a._unused"]


def test_every_private_definition_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private(sources) == []


@pytest.mark.parametrize(
    "rule",
    [r'split\("#"', r"\[0-9\]", r"A-Za-z0-9_", r"\\\^-1"],
    ids=["comment", "ascii-integer", "name", "inverse"],
)
def test_line_and_number_rules_are_written_once(rule):
    # traces, polygon files and scripts share one line reader, one
    # ASCII-integer pattern and one name pattern, and word text one
    # inverse-mark pattern, all in words.py
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert sum(len(re.findall(rule, text)) for text in sources) == 1
