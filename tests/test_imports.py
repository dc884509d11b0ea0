"""Source hygiene: every name a braidfact module imports is used there."""

import ast
from pathlib import Path

import braidfact


def test_every_imported_name_is_used():
    unused = {}
    for path in sorted(Path(braidfact.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":  # a package's __init__ imports to re-export
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
