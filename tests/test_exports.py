"""The public names: each one in dlsq.__all__ has a caller besides the tests."""
import ast
import re
from pathlib import Path

import dlsq

ROOT = Path(__file__).resolve().parents[1]


def _name_read(node):
    """The name a node reads (a name, an attribute or an import), else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def _referenced(path, own_excluded):
    """The names a module reads. With own_excluded, a read inside a def or
    class of the same name does not count."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = _name_read(node)
        if name is not None and not (own_excluded and name in inside):
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def _callers():
    """Every name referenced outside the tests: in src/dlsq (but
    __init__.py, and a name's own def or class), perfbench/, tools/, or
    README's "Library use" section."""
    names = set()
    for path in (ROOT / "src" / "dlsq").glob("*.py"):
        if path.name != "__init__.py":
            names |= _referenced(path, own_excluded=True)
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        names |= _referenced(path, own_excluded=False)
    library_use = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
    return names | set(re.findall(r"\w+", library_use.split("\n## ", 1)[0]))


def test_every_public_name_has_a_caller_besides_the_tests():
    # a name only the tests call is an oracle: it belongs in tests/oracles.py
    assert sorted(set(dlsq.__all__) - _callers()) == []


def test_a_definition_is_not_its_own_caller(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .a import b as c\nV = 1\n\n\ndef f(n):\n"
                      "    return f(n - 1) if n else V.g\n\n\nclass C:\n    x = C\n")
    assert _referenced(module, own_excluded=True) == {"b", "n", "V", "g"}
    assert _referenced(module, own_excluded=False) == {"b", "n", "V", "g", "f", "C"}
