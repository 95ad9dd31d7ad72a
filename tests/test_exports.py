"""Every exported name resolves, so a removed function cannot linger in ``__all__``,
and every fatal flag is still raised somewhere, so a removed check cannot linger
in ``keyrate.VACUOUS_FLAGS``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import snskit
from snskit.keyrate import VACUOUS_FLAGS

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


def test_every_fatal_flag_is_raised_outside_keyrate():
    raised = set()
    for path in Path(snskit.__file__).parent.glob("*.py"):
        if path.name != "keyrate.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            raised |= {node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(VACUOUS_FLAGS - raised) == []
