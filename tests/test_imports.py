"""Every name a package module imports is used in that module.

``__init__`` is left out: it imports names to re-export them.
"""

import ast
import pkgutil
from pathlib import Path

import pytest

import prefixlab

SOURCES = [
    Path(prefixlab.__path__[0]) / f"{info.name}.py"
    for info in pkgutil.iter_modules(prefixlab.__path__)
    if not info.ispkg
]


def imported_names(tree):
    """(bound name, line) for each import; ``import a.b`` binds ``a``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == []
