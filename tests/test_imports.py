"""No module imports a name it never uses, no private helper is left
behind, no ``__all__`` entry names something that is gone, and the
library defines nothing that only the tests reach.

A stdlib ``ast`` scan over the package, the scripts and the tests: every
name an import binds must be referenced somewhere in the same module,
or be listed in the module's ``__all__`` (a re-export).  A second scan
over the package: every module-level ``_private`` function or class must
be referenced somewhere in the package besides its definition.  A third
scan over the package: every ``__all__`` entry must name something its
module defines or imports at top level.  A fourth scan: every
module-level function or class of the package, and every method or
property of its classes but the dunder ones, must be read, as a bare
name or an attribute, outside its own definition somewhere in the
package, the scripts or the benchmark harness; ``__all__`` strings and
docstrings are not reads.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/isom4", "scripts", "tests")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
            if isinstance(node, DEFINITIONS)
            and node.name.startswith("_") and not node.name.startswith("__")]


def _reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, bare or as an attribute."""
    return Counter([node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
                   + [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)])


def referenced_names(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute."""
    return set(_reads(ast.parse(source)))


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
        if isinstance(node, DEFINITIONS):
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


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods and
    properties of those classes; dunder methods are called implicitly."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (member for member in node.body if isinstance(member, DEFINITIONS)
                        and not (member.name.startswith("__") and member.name.endswith("__")))


def unreferenced_definitions(library: dict, readers: dict) -> list[tuple]:
    """(key, line, name) of every module-level function or class of the
    ``library`` sources, and every method or property of those classes,
    that nothing but its own definition reads, in the library or in the
    ``readers`` sources."""
    outside = set().union(*(referenced_names(text) for text in readers.values()))
    trees = {key: ast.parse(text) for key, text in library.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [(key, node.lineno, node.name) for key, tree in trees.items()
            for node in _definitions(tree)
            if node.name not in outside and reads[node.name] == _reads(node)[node.name]]


def test_scan_flags_test_only_definitions():
    library = {
        "a": ('def used():\n    pass\ndef recursive(n):\n    return recursive(n - 1)\n'
              'class Kept:\n    pass\ndef documented():\n    """Calls used()."""\n'
              'def for_scripts():\n    pass\n__all__ = ["documented"]\nX = used()\n'),
        "b": "from a import documented\ndef orphan():\n    return m.Kept\n",
        "c": ("class Point:\n    def __init__(self):\n        self.x = self._half()\n"
              "    def _half(self):\n        return 0.5\n    @property\n"
              "    def norm(self):\n        return self.norm\n    def shown(self):\n"
              "        pass\n    def orphan(self):\n        pass\n"),
    }
    readers = {"script": "import a\na.for_scripts()\nc.Point().shown()\n"}
    assert unreferenced_definitions(library, readers) == [
        ("a", 3, "recursive"), ("a", 7, "documented"), ("b", 2, "orphan"),
        ("c", 7, "norm"), ("c", 11, "orphan")]


def test_every_definition_is_reached():
    library = {path.relative_to(ROOT): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src/isom4").rglob("*.py"))}
    readers = {path: path.read_text(encoding="utf-8")
               for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    found = [f"{path}:{line} {name}"
             for path, line, name in unreferenced_definitions(library, readers)]
    assert found == []
