"""Every name a ``spiderweb`` module lists in ``__all__`` is defined there, so
a deleted function left in ``__all__`` fails here and not at a user's
``from spiderweb.<module> import *``; and every public name is used by the
package itself, not only by its tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


# The one public name that only the tests reach: the acceptance suite edits the shipped table as text.
TEST_ONLY = {"schedule.step_table_to_text"}


def _public_names(tree: ast.Module):
    """(qualified name, bare name) of each public module-level function and class, and of
    each public method and property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_name_is_reached_in_the_package():
    """Each public name appears in the package source beyond its definition and its
    ``__all__`` entry, so no API is kept for the tests alone."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in Path(spiderweb.__file__).parent.glob("*.py")}
    text = "\n".join(sources.values())
    unreached = []
    for module, source in sources.items():
        exported = getattr(importlib.import_module(f"spiderweb.{module}"), "__all__", ()) if module in MODULES else ()
        for qualified, name in _public_names(ast.parse(source)):
            uses = len(re.findall(rf"\b{name}\b", text)) - 1 - (name in exported)
            if uses < 1:
                unreached.append(f"{module}.{qualified}")
    assert sorted(set(unreached) - TEST_ONLY) == []
