"""Every name a ``spiderweb`` module lists in ``__all__`` is defined there, so
a deleted function left in ``__all__`` fails here and not at a user's
``from spiderweb.<module> import *``."""

import importlib
import pkgutil

import pytest

import spiderweb

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(spiderweb.__path__) if m.name != "__main__")


def test_every_module_is_listed():
    assert {"cli", "model", "qgates", "report", "schedule", "wiring"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"spiderweb.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
