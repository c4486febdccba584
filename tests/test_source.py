"""Properties of the package source itself."""

import ast
from pathlib import Path

import thompson_holo

SOURCES = sorted(Path(thompson_holo.__file__).parent.glob("*.py"))


def self_calls(source: str) -> list[tuple[str, int]]:
    """(name, line) of every call of a function to itself by name, directly
    or as self.name / cls.name."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                name = f.attr if f.value.id in ("self", "cls") else None
            else:
                name = None
            if name == fn.name:
                out.append((name, node.lineno))
    return out


def test_detector_finds_recursion():
    source = (
        "def walk(tree):\n"
        "    return 0 if tree.is_leaf else walk(tree.left) + walk(tree.right)\n"
        "class T:\n"
        "    def size(self, node):\n"
        "        return 1 + self.size(node.left)\n"
        "    def parse(self, text):\n"
        "        return Other.parse(text)\n"
    )
    assert self_calls(source) == [("walk", 2), ("walk", 2), ("size", 5)]


def test_no_recursive_function():
    """Every walk keeps an explicit stack, so trees deeper than the
    interpreter's recursion limit work."""
    assert len(SOURCES) >= 9
    found = {path.name: self_calls(path.read_text()) for path in SOURCES}
    assert {name: calls for name, calls in found.items() if calls} == {}
