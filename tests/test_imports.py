"""No module imports a name it never uses, no private helper is left
behind, and no ``__all__`` entry names something that is gone.

A stdlib ``ast`` scan over the package, the scripts and the tests: every
name an import binds must be referenced somewhere in the same module,
or be listed in the module's ``__all__`` (a re-export).  A second scan
over the package: every module-level ``_private`` function or class must
be referenced somewhere in the package besides its definition.  A third
scan over the package: every ``__all__`` entry must name something its
module defines or imports at top level.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/isom4", "scripts", "tests")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name ``source`` never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_unused_names():
    source = ("import math\nimport os.path\nfrom json import dumps, loads as ld\n"
              "__all__ = ['dumps']\nprint(os.sep)\n")
    assert unused_imports(source) == [(1, "math"), (3, "ld")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level ``_private`` function or class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def referenced_names(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_scan_flags_unreferenced_private_helpers():
    source = ("def _used():\n    pass\ndef _left():\n    pass\nclass _Kept:\n    pass\n"
              "def __dunder__():\n    pass\ndef public():\n    return _used(), m._Kept\n")
    private = private_definitions(source)
    assert private == [(1, "_used"), (3, "_left"), (5, "_Kept")]
    used = referenced_names(source)
    assert [name for _, name in private if name not in used] == ["_left"]


def test_no_unreferenced_private_helpers():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src/isom4").rglob("*.py"))}
    used = set().union(*(referenced_names(text) for text in sources.values()))
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, text in sources.items()
        for line, name in private_definitions(text)
        if name not in used
    ]
    assert found == []


def bound_names(source: str) -> set[str]:
    """Names the top level of ``source`` defines, assigns or imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)}
    return names


def test_scan_flags_stale_exports():
    source = ("from json import dumps\nimport os.path\nLIMIT, (A, B) = 1, (2, 3)\n"
              "N: int = 4\nclass C:\n    pass\ndef f():\n    pass\n"
              "__all__ = ['dumps', 'os', 'LIMIT', 'B', 'N', 'C', 'f', 'gone']\n")
    tree = ast.parse(source)
    assert sorted(_exported(tree) - bound_names(source)) == ["gone"]


def test_every_export_is_bound():
    found = [
        f"{path.relative_to(ROOT)} {name}"
        for path in sorted((ROOT / "src/isom4").rglob("*.py"))
        for text in [path.read_text(encoding="utf-8")]
        for name in sorted(_exported(ast.parse(text)) - bound_names(text))
    ]
    assert found == []
