"""Every exported name resolves: a name deleted from a module but left in
an export list would otherwise only fail on a star import."""

import importlib
import pkgutil

import pytest

import csfchan

MODULES = ["csfchan"] + [f"csfchan.{info.name}" for info in pkgutil.iter_modules(csfchan.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # the cli module exports nothing
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"

