"""No module imports a name it never uses.

A stdlib ``ast`` scan over the package, the scripts and the tests: every
name an import binds must be referenced somewhere in the same module,
or be listed in the module's ``__all__`` (a re-export).
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
