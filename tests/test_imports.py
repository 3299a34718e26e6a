"""Every module of the package uses every name it imports.

`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
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
