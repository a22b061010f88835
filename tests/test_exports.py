"""Every name a module exports resolves, so deleting a function while
leaving its ``__all__`` entry fails the suite."""

import importlib
import pkgutil

import pytest

import ghcrypt

MODULES = ["ghcrypt"] + sorted(
    f"ghcrypt.{info.name}" for info in pkgutil.iter_modules(ghcrypt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
