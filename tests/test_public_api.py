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


#: Top-level definitions that nothing in the package calls, kept on purpose.
UNCALLED_BY_DESIGN = {
    "point_report": "the one-point public view of ChartFrame",
    "eval_complex": "plain complex evaluation, the tests' oracle for eval_jet",
}


def _names_used(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_top_level_definition_is_used_in_the_package():
    # A definition counts as used when another top-level statement of any
    # module names it; __init__.py's re-exports do not count.
    defined, uses = [], []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            uses.append((own, _names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.name != "__init__.py":
                defined.append((path.name, own))
    unused = [
        f"{module}:{name}"
        for module, name in defined
        if name not in UNCALLED_BY_DESIGN
        and not any(name in used for owner, used in uses if owner != name)
    ]
    assert unused == []


def _members_named_nowhere_else(class_name: str) -> list[str]:
    """The methods and properties of a class of src/ that no node of src/
    outside their own definition names (dunder methods aside)."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    cls = next(
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    )
    members = [
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    namings = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    assert members
    unused = []
    for member in members:
        own = set(map(id, ast.walk(member)))
        if not any(name == member.name and id(node) not in own for node, name in namings):
            unused.append(member.name)
    return unused


def test_every_chart_frame_member_is_named_in_the_package():
    # A ChartFrame property or method counts as used when some node of src/
    # outside its own definition names it.
    assert _members_named_nowhere_else("ChartFrame") == []


def test_every_jet_member_is_named_in_the_package():
    # The same for Jet2: no accessor exists for the tests alone, which read a
    # jet-vector's components as F.value[k] or F.coeffs[:, k].
    assert _members_named_nowhere_else("Jet2") == []
