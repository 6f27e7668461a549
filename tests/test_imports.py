"""Every module of the package uses every name it imports."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "ionread"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.

    A name counts as read when it appears as a bare name (annotations
    included) or is listed in ``__all__``; ``from __future__`` imports
    bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom typing import Sequence, NamedTuple\n"
        "def f(x: Sequence) -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["line 3: js", "line 4: NamedTuple"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
