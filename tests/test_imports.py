"""Every module of the package uses every name it imports, and every helper,
every function reads every local it assigns, and every module passes its
doctests; every private name is taken from its home.

`__init__.py` is left out of the import check: its imports are the public
re-exports.  A module-level function or class is a helper unless it is in
`assigncoh.__all__`; each helper must be named on some other line of the
package.  Every module's doctests run, so a new one needs no wiring.  A
private name (one leading underscore) that `src/` or `tests/` imports, or
reads as a module attribute, must come from the module that defines it, so
a helper that moves leaves no second way to it.  Only `ratlin` and
`cochain` take the elimination passes, so every other module solves
through `ratlin`'s wrappers and a second solve cannot grow beside them.
"""

import ast
import doctest
import importlib
import re
from pathlib import Path

import pytest

import assigncoh

PACKAGE_DIR = Path(assigncoh.__file__).parent
TESTS_DIR = Path(__file__).parent


def _unused_imports(source: str):
    """(line, name) of each imported name that no expression mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(a, w)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "z")]
    assert _unused_imports("from __future__ import annotations\n") == []


def test_modules_use_every_import():
    unused = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(path.read_text(encoding="utf-8"))
        if found:
            unused[path.name] = found
    assert unused == {}


def _unused_helpers(sources, public):
    """(file, line, name) of each module-level def or class not in public
    and named on no other line of the sources (file name -> text)."""
    lines = [(name, i, line) for name, text in sources.items()
             for i, line in enumerate(text.splitlines(), 1)]
    unused = []
    for name, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in public:
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line) for f, i, line in lines
                       if (f, i) != (name, node.lineno)):
                unused.append((name, node.lineno, node.name))
    return sorted(unused)


def test_unused_helper_detector():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef lonely():\n    pass\n\n\n"
                "class Public:\n    pass\n\n\nclass _Hidden:\n    pass\n",
        "b.py": "from a import used\n\n\ndef recursive():\n    return recursive()\n",
    }
    assert _unused_helpers(sources, {"Public"}) == [
        ("a.py", 5, "lonely"), ("a.py", 13, "_Hidden"),
    ]
    assert _unused_helpers({"c.py": "def f():\n    pass\n"}, {"f"}) == []


def test_modules_use_every_helper():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unused_helpers(sources, set(assigncoh.__all__)) == []


def _unused_locals(source: str):
    """(line, name) of each single-name assignment `x = ...` inside a function
    that no expression of that function (nested functions included) reads."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id not in read):
                found.add((node.lineno, node.targets[0].id))
    return sorted(found)


def test_unused_local_detector():
    source = (
        "TOP = 1\n"
        "def f(rows):\n"
        "    dead = {r: 1 for r in rows}\n"
        "    used = len(rows)\n"
        "    a, b = used, 2\n"
        "    rows[0] = a\n"
        "    closed = 3\n"
        "    def g():\n"
        "        inner = closed\n"
        "        return f'{b}'\n"
        "    return g\n"
    )
    assert _unused_locals(source) == [(3, "dead"), (9, "inner")]
    assert _unused_locals("x = 1\n") == []


def test_functions_read_every_local():
    found = {path.name: _unused_locals(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


_PASSES = frozenset({"sparse_rref", "sparse_echelon", "_forward", "_back"})


def _elimination_users(sources, allowed):
    """(file, line, name) of each elimination pass (`_PASSES`) that a module
    not in allowed imports, or reads as an attribute."""
    found = []
    for name, text in sources.items():
        if name in allowed:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found.extend((name, node.lineno, n) for n in names if n in _PASSES)
    return sorted(found)


def test_elimination_user_detector():
    sources = {
        "ratlin.py": "def sparse_rref():\n    pass\n",
        "a.py": "from .ratlin import _coef, sparse_rref as rr\n",
        "b.py": "import assigncoh.ratlin as r\nr._forward(r.rank)\n",
        "c.py": "from .ratlin import _back\n",
    }
    assert _elimination_users(sources, {"ratlin.py", "c.py"}) == [
        ("a.py", 1, "sparse_rref"), ("b.py", 2, "_forward"),
    ]


def test_only_ratlin_and_cochain_run_the_elimination_passes():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _elimination_users(sources, {"ratlin.py", "cochain.py"}) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_module_doctest(path):
    name = "assigncoh" if path.stem == "__init__" else f"assigncoh.{path.stem}"
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    # a module whose source shows an example must have doctests that ran
    assert result.attempted > 0 or ">>>" not in path.read_text(encoding="utf-8")


def _defined_names(source: str):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _dotted(node):
    """The dotted name of a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _private_detours(files, modules):
    """(file, line, module, name) of each private name that one of files
    (name -> (package or None, source)) takes from one of modules (dotted
    name -> source) that does not define it: `from m import _x`, relative
    imports resolved against the file's package, or a read of `m._x`."""
    defined = {m: _defined_names(text) for m, text in modules.items()}
    found = []
    for name, (package, text) in files.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = f"{package}.{node.module}" if node.level else node.module
                taken = [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                taken = [(_dotted(node.value), node.attr)]
            else:
                continue
            for module, attr in taken:
                if (module in defined and attr.startswith("_") and not attr.startswith("__")
                        and attr not in defined[module]):
                    found.append((name, node.lineno, module, attr))
    return sorted(found)


def test_private_detour_detector():
    modules = {
        "pkg": "from .a import _x\n",
        "pkg.a": "def _x():\n    pass\n\n\nRows = list\n_Y: int = 1\n",
        "pkg.b": "from .a import _x, Rows\n",
    }
    files = {
        "b.py": ("pkg", "from .a import _x, _Y\nfrom .b import _x as y\n"),
        "t.py": (None, "import pkg.b\nfrom pkg import _x\npkg.a._x()\npkg.b._x()\n"),
    }
    assert _private_detours(files, modules) == [
        ("b.py", 2, "pkg.b", "_x"), ("t.py", 2, "pkg", "_x"), ("t.py", 4, "pkg.b", "_x"),
    ]


def test_private_names_come_from_their_home():
    modules, files = {}, {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        stem = "assigncoh" if path.stem == "__init__" else f"assigncoh.{path.stem}"
        modules[stem] = text
        files[f"src/assigncoh/{path.name}"] = ("assigncoh", text)
    for path in sorted(TESTS_DIR.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        modules[path.stem] = text
        files[f"tests/{path.name}"] = (None, text)
    assert _private_detours(files, modules) == []
