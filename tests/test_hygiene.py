"""Static checks over the package source and the benchmark tracer's tables, read
with the stdlib `ast`."""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

from surfclass.moves import _GRAMMAR
from surfclass.words import Word

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


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules a source imports that are neither `__future__`, the
    standard library nor this package."""
    names: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name for name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {"__future__", "surfclass"}
    ]


def test_foreign_import_is_found():
    source = "import os.path\nimport numpy as np\nfrom . import words\nfrom yaml import load\n"
    assert _foreign_imports(source) == ["numpy", "yaml"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_runtime_is_stdlib_only(module):
    # the package declares no dependencies: every import is the standard
    # library's, __future__ or the package's own
    assert _foreign_imports((SRC / module).read_text(encoding="utf-8")) == []


ROOT = SRC.parent.parent


def _imported_by_init() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _constant(path: Path, name: str):
    """The literal value a module assigns to `name` at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def _exported() -> list[str]:
    return _constant(SRC / "__init__.py", "__all__")


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
    [r'split\("#"', r"\[0-9\]", r"A-Za-z0-9_", r"\\\^-1", r"args\.json", r"json\.dumps",
     r"@dataclass"],
    ids=["comment", "ascii-integer", "name", "inverse", "json-choice", "json-print",
         "dataclass"],
)
def test_line_and_number_rules_are_written_once(rule):
    # traces, polygon files and scripts share one line reader, one
    # ASCII-integer pattern and one name pattern, and word text one
    # inverse-mark pattern, all in words.py; the command line chooses
    # between JSON and text, and prints JSON, in one place in main; and
    # RationalSurface is the one dataclass, kept so that dataclasses.replace
    # on it re-runs its checks, while every other value type is a slotted
    # class on the immutable base in words.py
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert sum(len(re.findall(rule, text)) for text in sources) == 1


@pytest.mark.parametrize("module", [m for m in MODULES if m != "words.py"])
def test_canonical_names_are_spelled_only_in_words(module):
    # canonical_word in words.py is the one place that names the canonical
    # symbols a1, b1, ...; every other module takes them from it
    text = (SRC / module).read_text(encoding="utf-8")
    assert [s for s in ('"a1"', 'f"a{', 'f"b{', 'f"{head}') if s in text] == []


# The benchmark's per-layer tracer wraps program names it looks up by
# string, so a rename would break only a traced benchmark run; these tests
# read its tables without running it.
TRACER = ROOT / "perfbench" / "tracing.py"


def test_every_traced_layer_names_a_function():
    layers = _constant(TRACER, "LAYERS")
    missing = [
        f"surfclass.{module}.{attr}"
        for _, module, attr in layers
        if not callable(getattr(importlib.import_module(f"surfclass.{module}"), attr, None))
    ]
    assert layers
    assert missing == []


def test_traced_move_kinds_are_the_trace_keywords():
    # the tracer files each apply_move call under its step's class name
    assert _constant(TRACER, "MOVE_KINDS") == tuple(_GRAMMAR)
    assert [move.__name__.lower() for move, _ in _GRAMMAR.values()] == list(_GRAMMAR)


def test_traced_word_constructor_hook_exists():
    assert callable(vars(Word).get("__post_init__"))
