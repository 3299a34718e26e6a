"""Every module of the package uses every name it imports, and every helper,
every function reads every local it assigns, and every module passes its
doctests; every private name is taken from its home.

`__init__.py` is left out of the import check: its imports are the public
re-exports.  A module-level function or class is a helper unless it is in
`assigncoh.__all__`; each helper must be named on some other line of the
package.  Every private function, at module level or a method (a name
with a leading underscore that is no dunder), is referenced in the
package's code outside its own def, by name or as an attribute: a
docstring's mention does not count.  Every module's doctests run, so a new one needs no wiring.  A
private name (one leading underscore) that `src/` or `tests/` imports, or
reads as a module attribute, must come from the module that defines it, so
a helper that moves leaves no second way to it.  Only `ratlin` and
`cochain` take the elimination passes, so every other module solves
through `ratlin`'s wrappers and a second solve cannot grow beside them.
Only `coeffsys` calls `vars(...)`: whether a system's functor report is
known without a walk is decided there alone (`coeffsys._known_clean`).
Only `coeffsys` reads a system's tables (`_explicit`, `_at`) or takes the
cover route (`._route`), so a value pushed up the order has one rule
(`CoefficientSystem._pushed`); only `stratposet` calls `.bit_length()`,
so the bits of a component stay where `_components` sets them.
Only `cohomology` and `_Complex.result` read `_from_counts`, so a degree
answered from chain counts has one owner per route.  In `coeffsys`, only
the constructor's shape check, `pairs()` and the listing walk of
`_walk_laws` call `comparable_pairs()`: every other check reads the pairs
a system is given on (`CoefficientSystem._given`) and composes none.
The count of bare `raise ValueError` sites may only fall: the command line
reads a bare ValueError as a user's validation error.
"""

import ast
import doctest
import importlib
import re
from collections import Counter
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


def _unreferenced_privates(sources):
    """(file, line, name) of each private module-level function or method
    that no Name or Attribute of the sources reads outside its own def."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def refs(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((refs(tree) for tree in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and private(fn.name) and total[fn.name] <= refs(fn)[fn.name]):
                    found.append((name, fn.lineno, fn.name))
    return sorted(found)


def test_unreferenced_private_detector():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _lonely():\n    \"\"\"Not _lonely.\"\"\"\n\n\n"
                "def _recursive():\n    return _recursive()\n\n\n"
                "class C:\n    def __init__(self):\n        self._run()\n\n"
                "    def _run(self):\n        pass\n\n    def _idle(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert _unreferenced_privates(sources) == [
        ("a.py", 5, "_lonely"), ("a.py", 9, "_recursive"), ("a.py", 20, "_idle"),
    ]


def test_every_private_function_and_method_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unreferenced_privates(sources) == []


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


def _vars_callers(sources):
    """(file, line) of each call of the builtin `vars` in the sources."""
    return sorted((name, node.lineno) for name, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "vars")


def test_vars_caller_detector():
    sources = {
        "a.py": "def f(v):\n    return vars(v).get('_report')\n",
        "b.py": "x = obj.vars(1)\nvars = 2\n",
    }
    assert _vars_callers(sources) == [("a.py", 2)]


def test_only_coeffsys_reads_a_cached_report():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f for f, _ in _vars_callers(sources) if f != "coeffsys.py"]
    assert not found, (f"{found[0]} calls vars(...): only coeffsys.py decides whether "
                       "a system's report is known (`coeffsys._known_clean`)")


_OWNERS = {"_explicit": "coeffsys.py", "_at": "coeffsys.py", "_route": "coeffsys.py",
           "bit_length": "stratposet.py"}


def _foreign_reads(sources):
    """(file, line, attribute) of each read or call of an attribute in
    `_OWNERS` by a module other than its owner."""
    return sorted((name, node.lineno, node.attr) for name, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute) and _OWNERS.get(node.attr, name) != name)


def test_foreign_read_detector():
    sources = {
        "coeffsys.py": "def f(v):\n    return v._explicit, v._at, v.space._route(1, 2)\n",
        "a.py": "def g(v, p):\n    return v._explicit.get(p), v.space._route(*p)\n",
        "b.py": "x = v._at\ny = (p & -p).bit_length()\nz = _route(1, 2)\n",
        "stratposet.py": "n = p.bit_length()\nq = v._at\n",
    }
    assert _foreign_reads(sources) == [
        ("a.py", 2, "_explicit"), ("a.py", 2, "_route"), ("b.py", 1, "_at"),
        ("b.py", 2, "bit_length"), ("stratposet.py", 2, "_at"),
    ]


def test_only_coeffsys_pushes_values_and_only_stratposet_reads_bits():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = _foreign_reads(sources)
    assert not found, (f"{found[0]}: only coeffsys.py reads a system's tables or "
                       "takes the cover route (`CoefficientSystem._pushed`), and only "
                       "stratposet.py decodes the bits of a component")


def _readers(sources, target):
    """(file, line, enclosing def) of each read of the name target, by name
    or as an attribute; a def is named `Class.method` inside a class, and
    module level `<module>`."""
    found = []

    def walk(name, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(name, child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if getattr(child, "id", None) == target or getattr(child, "attr", None) == target:
                found.append((name, child.lineno, scope))
            walk(name, child, scope)

    for name, text in sources.items():
        walk(name, ast.parse(text), "<module>")
    return sorted(found)


def test_count_reader_detector():
    sources = {
        "a.py": ("def cohomology(v):\n    return _from_counts(1)\n\n\n"
                 "class _Complex:\n    def result(self):\n        return c._from_counts(2)\n\n"
                 "    def data(self):\n        return [_from_counts(3) for _ in x]\n"),
        "b.py": ("x = _from_counts\ndef f():\n    def g():\n        return h(_from_counts)\n"
                 "    return from_counts(5)\n"),
    }
    assert _readers(sources, "_from_counts") == [
        ("a.py", 2, "cohomology"), ("a.py", 7, "_Complex.result"), ("a.py", 10, "_Complex.data"),
        ("b.py", 1, "<module>"), ("b.py", 4, "f.g"),
    ]


def test_only_cohomology_and_complex_result_count_a_degree():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f for f in _readers(sources, "_from_counts") if f[0] != "cochain.py"
             or f[2] not in {"cohomology", "_Complex.result"}]
    assert not found, (f"{found[0]} reads `_from_counts`: only `cohomology` and "
                       "`_Complex.result` answer a degree from chain counts")


def test_pair_walker_detector():
    sources = {
        "coeffsys.py": ("class CoefficientSystem:\n    def pairs(self):\n"
                        "        return self.space.comparable_pairs()\n\n"
                        "class SystemMorphism:\n    def __init__(self, space):\n"
                        "        for p in space.comparable_pairs():\n            pass\n"),
        "a.py": "def f(space):\n    return comparable_pairs(space)\n",
    }
    assert _readers(sources, "comparable_pairs") == [
        ("a.py", 2, "f"), ("coeffsys.py", 3, "CoefficientSystem.pairs"),
        ("coeffsys.py", 7, "SystemMorphism.__init__"),
    ]


_PAIR_WALKERS = {"CoefficientSystem.__init__", "CoefficientSystem.pairs", "_walk_laws"}


def test_only_the_shape_check_pairs_and_the_law_listing_walk_every_pair():
    text = (PACKAGE_DIR / "coeffsys.py").read_text(encoding="utf-8")
    found = [f for f in _readers({"coeffsys.py": text}, "comparable_pairs")
             if f[2] not in _PAIR_WALKERS]
    assert not found, (f"{found[0]} calls `comparable_pairs()`: a check on a system "
                       "reads the pairs it is given on (`CoefficientSystem._given`)")


def test_kept_system_reader_detector():
    sources = {
        "cochain.py": ("def relative_cohomology(v, n):\n    return cohomology(_kept_on(v, n))\n\n\n"
                       "def les_pair_check(v, n):\n"
                       "    rel = (_Complex(_kept_on(v, k)) for k in n)\n"),
    }
    assert _readers(sources, "_kept_on") == [
        ("cochain.py", 2, "relative_cohomology"), ("cochain.py", 6, "les_pair_check"),
    ]


def test_only_relative_cohomology_builds_a_kept_system():
    text = (PACKAGE_DIR / "cochain.py").read_text(encoding="utf-8")
    found = [f for f in _readers({"cochain.py": text}, "_kept_on")
             if f[2] != "relative_cohomology"]
    assert not found, (f"{found[0]} calls `_kept_on`: a pair's complexes filter the "
                       "space's own complex (`_filtered_tuples`) and hold its system")


def _bare_value_errors(source: str):
    """Line numbers of each `raise ValueError` or `raise ValueError(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(node.lineno)
    return sorted(found)


def test_bare_value_error_detector():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(f'bad {x}')\n"
        "    try:\n"
        "        raise ValueError\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise errors.ValueError('other')\n"
        "    raise TypeError('x') from ValueError('y')\n"
    )
    assert _bare_value_errors(source) == [3, 5]


_BARE_VALUE_ERRORS = 46


def test_no_new_bare_value_error():
    count = sum(len(_bare_value_errors(path.read_text(encoding="utf-8")))
                for path in PACKAGE_DIR.glob("*.py"))
    assert count <= _BARE_VALUE_ERRORS, (
        f"{count} bare `raise ValueError` sites in src/assigncoh, at most "
        f"{_BARE_VALUE_ERRORS}: the command line exits 2 on any ValueError, as on "
        "bad input; raise AssertionError for a program fault, and let a new input "
        "check wait for ROADMAP item 6's validation error class")


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
