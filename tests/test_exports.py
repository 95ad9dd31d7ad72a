"""Every exported name resolves, so a removed function cannot linger in ``__all__``."""

import importlib
import pkgutil

import pytest

import snskit

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(snskit.__path__) if info.name != "__main__"
)


def test_package_exports_resolve():
    assert len(set(snskit.__all__)) == len(snskit.__all__)
    for name in snskit.__all__:
        assert hasattr(snskit, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"snskit.{module_name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(module, name), f"snskit.{module_name}.{name}"
