"""Every name a package module imports is used in that module, and the
package's modules import each other at module level without a cycle.

``__init__`` is left out: it imports names to re-export them.
"""

import ast
import graphlib
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


def module_level_imports(tree):
    """Package modules that ``from .x import ...`` or ``from . import x``
    imports when the module is loaded; imports inside functions run later."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        nodes.extend(ast.iter_child_nodes(node))


def test_module_level_imports_have_no_cycle():
    # A cycle makes ``import prefixlab`` depend on the order ``__init__``
    # lists the modules in: the first module of the cycle to load is still
    # half-initialized when the last one imports a name from it.
    graph = {path.stem: set(module_level_imports(ast.parse(path.read_text())))
             for path in SOURCES}
    assert "oracle" in graph["guidance"]  # the walk sees the edges that exist
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail("import cycle: " + " -> ".join(err.args[1]))
