import ast
from pathlib import Path

import szego


def test_every_export_is_a_package_attribute_listed_once():
    names = szego.__all__
    assert [name for name in names if not hasattr(szego, name)] == []
    assert len(set(names)) == len(names)


def _hankel_builders(tree, scope=()) -> list:
    """The enclosing scope of every reference to scipy.linalg's hankel in tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "hankel"
                and ast.unparse(node.value).endswith("linalg")):
            found.append(".".join(scope))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            found += [".".join(scope)] * sum(a.name == "hankel" for a in node.names)
        found += _hankel_builders(node, inner)
    return found


def test_scipy_hankel_is_called_only_by_the_two_builders():
    # FastHankel.dense builds every square Hankel matrix and _rational_core
    # its rectangular strip; a second builder elsewhere fails here
    calls = {path.name: _hankel_builders(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(Path(szego.__file__).parent.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {
        "hankel.py": ["FastHankel.dense", "_rational_core"]}
