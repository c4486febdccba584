"""Properties of the package source itself."""

import ast
import re
from collections import Counter
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


def integer_constant(node: ast.AST | None) -> int | None:
    """The value of an expression of integer literals and arithmetic, or
    None for anything else: a name, None, a float, a call."""
    allowed = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    if node is None or not all(isinstance(n, allowed) for n in ast.walk(node)):
        return None
    value = eval(compile(ast.Expression(node), "<maxsize>", "eval"), {"__builtins__": {}})
    return value if type(value) is int else None


def cache_bounds(source: str) -> list[tuple[int, int | None]]:
    """(line, maxsize) of every functools cache: every functools.cache and
    every lru_cache, with maxsize None unless the cache is given one as an
    integer constant expression."""
    tree = ast.parse(source)
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, None) for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                out.append((node.lineno, None))
        elif isinstance(node, (ast.Name, ast.Attribute)) and "lru_cache" in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
        ):
            call = called.get(id(node))  # a bare lru_cache takes its default maxsize
            sizes = [] if call is None else call.args[:1] + [
                k.value for k in call.keywords if k.arg == "maxsize"
            ]
            out.append((node.lineno, integer_constant(sizes[0]) if sizes else None))
    return sorted(out)


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
        "@functools.lru_cache\n"
        "def l(x): return x\n"
        "@lru_cache(typed=True)\n"
        "def m(x): return x\n"
        "@functools.lru_cache(maxsize=SIZE)\n"
        "def n(x): return x\n"
        "@functools.lru_cache(maxsize=2.5)\n"
        "def o(x): return x\n"
        "@functools.lru_cache(6**3 + 6**2 + 6)\n"
        "def p(x): return x\n"
    )
    assert cache_bounds(source) == [
        (2, None), (3, None), (5, None), (7, None), (9, 8),
        (11, None), (13, None), (15, None), (17, None), (19, 258),
    ]


def test_no_unbounded_cache():
    """A cache keyed by the inputs grows with every distinct input, so
    every cache in the package has an explicit finite integer maxsize."""
    found = [
        (path.name, line, maxsize)
        for path in SOURCES
        for line, maxsize in cache_bounds(path.read_text())
    ]
    assert [(name, line) for name, line, maxsize in found if maxsize is None] == []
    assert len(found) >= 7


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


def unread_private_definitions(sources: list[str]) -> list[str]:
    """Every function or method with a private name (one leading underscore,
    not a dunder) that no code in `sources` reads outside its own body."""
    trees = [ast.parse(source) for source in sources]

    def counts(node: ast.AST) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    total = sum(map(counts, trees), Counter())
    return [
        fn.name
        for tree in trees
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_")
        and not fn.name.endswith("__")
        and total[fn.name] == counts(fn)[fn.name]
    ]


def test_detector_finds_unread_private_definitions():
    sources = [
        "def _used(x): return _used(x) if x else 0\n"
        "def _unused(): return _used(1)\n"
        "class T:\n"
        "    def __init__(self): self._helper()\n"
        "    def _helper(self): pass\n"
        "    def _own(self): return self._own\n",
        "def f(): return _used\n",
    ]
    assert unread_private_definitions(sources) == ["_unused", "_own"]


def test_private_definitions_are_read():
    """Every private function and method in the package is read somewhere in
    the package outside its own body, so none is dead or left for tests only."""
    assert unread_private_definitions([path.read_text() for path in SOURCES]) == []


def unread_module_names(sources: dict[str, str]) -> list[str]:
    """"module: name" for every name a module defines at top level, by an
    assignment, a def or a class (not a dunder, not `__all__`), that the
    module does not export and no other top-level statement of `sources`
    reads, bare or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [(module, node, reads(node)) for module, tree in trees.items() for node in tree.body]
    out = []
    for module, node, _ in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [
            f"{module}: {name}"
            for name in names
            if not name.startswith("__")
            and name not in exported(trees[module])
            and not any(name in seen for _, other, seen in statements if other is not node)
        ]
    return out


def test_detector_finds_unread_module_names():
    sources = {
        "a.py": (
            "import os\n"
            "__all__ = ['Public']\n"
            "__version__ = '1'\n"
            "LIMIT = 3\n"
            "_SEEN, _LOST = 1, 2\n"
            "class Public: pass\n"
            "def _helper(): return LIMIT + _SEEN + _helper()\n"
        ),
        "b.py": "from a import _helper\nVALUE: int = _helper()\ndef f(): return a.VALUE\n",
    }
    assert unread_module_names(sources) == ["a.py: _LOST", "b.py: f"]


def test_module_names_are_read():
    """Every name a module defines at top level is read elsewhere in the
    package or exported, so no constant outlives its readers."""
    assert unread_module_names({path.name: path.read_text() for path in SOURCES}) == []


def test_btz_state_builds_no_network():
    """The BTZ ring is a product of column tensors, so `btz_state` neither
    builds a TensorNetwork nor calls the general contraction."""
    tree = ast.parse((ROOT / "src" / "thompson_holo" / "semicontinuous.py").read_text())
    (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "btz_state"]
    assert reads(fn).isdisjoint({"TensorNetwork", "contract"})


def test_package_surface_is_the_modules_all():
    """`import thompson_holo` exposes exactly the modules' __all__, the
    errors module and the submodules themselves."""
    modules = {path.stem for path in SOURCES} - {"__init__"}
    union = set().union(*(exported(ast.parse(path.read_text())) for path in SOURCES))
    public = {name for name in vars(thompson_holo) if not name.startswith("_")}
    assert public - modules == union
    assert "errors" in public


def test_readme_quick_tour_prints_its_comments(capsys):
    """The README's Quick tour runs, and each print gives the value in its
    trailing comment."""
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = re.findall(r"^print\(.*#\s*(.+)$", code, re.M)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert expected == ["(0.5+0j)", "(0.5+0j)", "[0.5 1.5]"]
