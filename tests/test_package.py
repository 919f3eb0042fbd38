import ast
from pathlib import Path

import szego


def test_every_export_is_a_package_attribute_listed_once():
    names = szego.__all__
    assert [name for name in names if not hasattr(szego, name)] == []
    assert len(set(names)) == len(names)


def _scopes(tree, match, scope=()) -> list:
    """The enclosing scope of every node in tree that match counts (0 or more times)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        found += [".".join(scope)] * match(node)
        found += _scopes(node, match, inner)
    return found


def _references(module: str, name: str):
    """A match for module.name, as an attribute or imported from module or below it."""
    def match(node) -> int:
        if isinstance(node, ast.Attribute) and node.attr == name:
            return int(ast.unparse(node.value).endswith(module))
        if isinstance(node, ast.ImportFrom) and module in (node.module or "").split("."):
            return sum(a.name == name for a in node.names)
        return 0
    return match


def _package_scopes(match) -> dict:
    """Per module file of the package, the scopes of the nodes match counts."""
    found = {path.name: _scopes(ast.parse(path.read_text(encoding="utf-8")), match)
             for path in sorted(Path(szego.__file__).parent.glob("*.py"))}
    return {name: scopes for name, scopes in found.items() if scopes}


def test_scipy_hankel_is_called_only_by_the_two_builders():
    # FastHankel.dense builds every square Hankel matrix and _rational_core
    # its rectangular strip; a second builder elsewhere fails here
    assert _package_scopes(_references("linalg", "hankel")) == {
        "hankel.py": ["FastHankel.dense", "_rational_core"]}


def test_circle_sampling_has_one_home_and_poly_one_constructor():
    # grid_transform samples every coefficient array on the circle and
    # FastHankel.matvec convolves; an inline inverse FFT elsewhere fails here,
    # as does an object.__new__ that would skip Poly's trim
    assert _package_scopes(_references("fft", "ifft")) == {
        "algebra.py": ["grid_transform"], "hankel.py": ["FastHankel.matvec"]}
    assert _package_scopes(_references("object", "__new__")) == {}
