"""Every imported name is read: an AST scan of the package and the tests for
imports that nothing uses.  A name counts as read where it is loaded
anywhere in its module, or listed in the module's __all__; __future__
imports are skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "pandora_search").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unread_imports(source: str):
    """(line, name) of each name bound by an import in source and never
    read there."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                  for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    unread = {path.relative_to(ROOT).as_posix(): found for path in MODULES
              if (found := unread_imports(path.read_text()))}
    assert unread == {}


def test_the_scan_finds_an_unread_import():
    source = (ROOT / "src" / "pandora_search" / "twobox.py").read_text()
    assert unread_imports(source) == []
    assert unread_imports("import math\n" + source) == [(1, "math")]
    source = "from __future__ import annotations\nfrom os import path as p, sep\nsep\n"
    assert unread_imports(source) == [(2, "p")]
