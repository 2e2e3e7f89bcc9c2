"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import matteroptics

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matteroptics"


def unused_imports(source: str) -> list[str]:
    """Imported names never read in the module, as 'name (line N)'.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "print(d)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "osp (line 2)", "b (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_root_exports_resolve():
    # a stale __all__ entry breaks `from matteroptics import *`
    missing = [name for name in matteroptics.__all__ if not hasattr(matteroptics, name)]
    assert missing == []
    assert len(set(matteroptics.__all__)) == len(matteroptics.__all__)
