"""Every module of the package uses every name it imports, and every helper.

`__init__.py` is left out of the import check: its imports are the public
re-exports.  A module-level function or class is a helper unless it is in
`assigncoh.__all__`; each helper must be named on some other line of the
package.
"""

import ast
import re
from pathlib import Path

import assigncoh

PACKAGE_DIR = Path(assigncoh.__file__).parent


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
