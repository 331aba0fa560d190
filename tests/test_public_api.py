"""The package's public surface and the hygiene of its modules."""

import ast
from pathlib import Path

import legendrian_lab

SOURCES = sorted(Path(legendrian_lab.__file__).parent.glob("*.py"))


def test_every_name_in_all_resolves():
    missing = [name for name in legendrian_lab.__all__ if not hasattr(legendrian_lab, name)]
    assert missing == []
    assert len(set(legendrian_lab.__all__)) == len(legendrian_lab.__all__)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_modules_import_nothing_they_do_not_use():
    # __init__.py imports in order to re-export.
    unused = [u for p in SOURCES if p.name != "__init__.py" for u in _unused_imports(p)]
    assert SOURCES
    assert unused == []
