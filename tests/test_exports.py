import importlib
import pkgutil

import pytest

import isomech

MODULES = sorted(f"isomech.{info.name}" for info in pkgutil.iter_modules(isomech.__path__))


def test_every_module_is_listed():
    assert {"isomech.isotonic", "isomech.experiments", "isomech.order"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
