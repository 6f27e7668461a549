"""Every module of the package uses every name it imports, and every private
name a module defines is read somewhere in the package."""
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


def private_names(source: str) -> dict[str, int]:
    """Module-level ``_x`` names, dunders aside, that ``source`` defines, by line.

    A name is defined by a top-level ``def``, ``class`` or assignment.
    """
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    return defined


def names_read(source: str) -> set[str]:
    """Names ``source`` reads: bare names, attributes (``sim._times``) and
    names imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private names that one of ``sources`` defines and none of them reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{file} line {line}: {name}"
        for file, source in sources.items()
        for name, line in private_names(source).items()
        if name not in read
    ]


def test_the_checker_finds_an_orphaned_private_helper():
    sources = {
        "a.py": (
            "__all__ = []\n_USED = 1\n_LEFT, _BY_B = 2, 3\n"
            "def _helper():\n    return _USED\n"
            "class _Orphan:\n    _unused_attribute = 4\n"
            "def public():\n    _local = 5\n"
        ),
        "b.py": "import a\nfrom a import _BY_B\ndef f():\n    a._helper = None\n",
    }
    # a._helper is only assigned in b, never read
    assert orphaned_private_names(sources) == [
        "a.py line 3: _LEFT", "a.py line 4: _helper", "a.py line 6: _Orphan"
    ]


def test_every_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(private_names(source)) for source in sources.values()) > 0
    assert orphaned_private_names(sources) == []
