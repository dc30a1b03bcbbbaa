"""Every annotation in the package names something its module can resolve."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import prefixlab

MODULES = [
    importlib.import_module(f"prefixlab.{info.name}")
    for info in pkgutil.iter_modules(prefixlab.__path__)
]


def annotated(module):
    """(name, object) for each function, class and method the module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, raw in vars(obj).items():
                if isinstance(raw, property):
                    raw = raw.fget
                elif isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    yield f"{name}.{attr}", raw


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_type_hints_resolve(module):
    names = []
    for name, obj in annotated(module):
        typing.get_type_hints(obj)
        names.append(name)
    assert names
