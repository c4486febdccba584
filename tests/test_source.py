"""Properties of the package source itself."""

import ast
import re
from pathlib import Path

import thompson_holo

SOURCES = sorted(Path(thompson_holo.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


def unbounded_caches(source: str) -> list[int]:
    """Lines of every functools.cache and every lru_cache(maxsize=None)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                out.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                out.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != "lru_cache":
                continue
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                out.append(node.lineno)
    return out


def test_detector_finds_unbounded_caches():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x): return x\n"
        "@lru_cache(None)\n"
        "def g(x): return x\n"
        "@functools.cache\n"
        "def h(x): return x\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def k(x): return x\n"
    )
    assert unbounded_caches(source) == [2, 3, 5, 7]


def test_no_unbounded_cache():
    """A cache keyed by the inputs grows with every distinct input, so
    every cache in the package has a bound."""
    found = {path.name: unbounded_caches(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def exported(tree: ast.Module) -> list[str]:
    """The module's __all__, or nothing."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def reads(node: ast.AST) -> set[str]:
    """Every name read under node, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_public_names_are_used():
    """The Python surface is each module's __all__: every name there is used
    in the package outside its own definition, named in README.md, or
    imported by the acceptance tests."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    # (module, the name a top-level statement defines or None) -> names it reads
    used = {}
    for module, tree in trees.items():
        for node in tree.body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            used.setdefault((module, owner), set()).update(reads(node))
    readme = (ROOT / "README.md").read_text()
    acceptance = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in exported(tree)
        if not any(name in names for key, names in used.items() if key != (module, name))
        and not re.search(rf"\b{re.escape(name)}\b", readme)
        and name not in acceptance
    ]
    assert unused == []
