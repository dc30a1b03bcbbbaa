"""What loading the package costs, and how its modules import each other.

A fresh interpreter loads only the modules a task runs: ``import prefixlab``
loads none, the config schema none of the layers that read it, and the
``verify`` command neither ``sampler`` nor ``harness``. Every name a package
module imports is used in that module, and the modules import each other at
module level without a cycle. ``__init__`` imports no package module: it
names each re-exported name's module in a table.
"""

import ast
import graphlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import prefixlab

SOURCES = [Path(prefixlab.__file__)] + [
    Path(prefixlab.__path__[0]) / f"{info.name}.py"
    for info in pkgutil.iter_modules(prefixlab.__path__)
    if not info.ispkg
]


def loaded_after(code: str) -> set[str]:
    """The package modules, by short name, that a fresh interpreter has
    loaded after running ``code``; the code's own asserts must hold."""
    env = dict(os.environ, PYTHONPATH=str(Path(prefixlab.__path__[0]).parent))
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('prefixlab.')]))"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    return {name.split(".", 1)[1] for name in json.loads(done.stdout.splitlines()[-1])}


def test_config_loads_no_layer_that_reads_it():
    assert loaded_after("import prefixlab.config") == {
        "errors", "tokenizer", "model", "corruption", "config"}


def test_package_import_loads_no_module():
    assert loaded_after("import prefixlab") == set()


def test_verify_loads_neither_sampler_nor_harness(tmp_path):
    config = tmp_path / "one_model.json"
    config.write_text(json.dumps({"verify": {"models": 1}}))
    loaded = loaded_after(
        "from prefixlab import cli\n"
        f"assert cli.main(['verify', '--config', {str(config)!r}, "
        f"'--output-dir', {str(tmp_path / 'out')!r}]) == 0"
    )
    assert "oracle" in loaded  # the command ran
    assert not loaded & {"sampler", "harness"}


def test_every_export_is_read_from_its_module_uncached():
    # Not cached: a name rebound in its module (as the bench tracer rebinds
    # functions) reads through the package as rebound.
    loaded = loaded_after(
        "import importlib\n"
        "import prefixlab\n"
        "for name, module in prefixlab._EXPORTS.items():\n"
        "    source = importlib.import_module(f'prefixlab.{module}')\n"
        "    assert getattr(prefixlab, name) is getattr(source, name), name\n"
        "    assert name not in vars(prefixlab), name\n"
        "    assert name in dir(prefixlab), name\n"
    )
    assert loaded >= set(prefixlab._EXPORTS.values())


def test_unknown_name_raises_attribute_error_and_loads_nothing():
    assert loaded_after(
        "import prefixlab\n"
        "try:\n"
        "    prefixlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    ) == set()


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
