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
from spiderweb import report

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


# Record fields that no package code reads, each with the reason it stays.
UNREAD_FIELDS = {
    "model.RegionGates.region_kind": "names a data row of the gate inventory",
    "schedule.Event.op": "a column of the expanded trace that EventTrace.events returns to its callers",
}


RECORDS = 25  # record classes the package declares


def _records(trees: dict[str, ast.Module]) -> list:
    """(module, class node) of each record the package declares, as ``class Name(metaclass=record)``."""
    found = [(module, node) for module, tree in trees.items() for node in tree.body if isinstance(node, ast.ClassDef)
             and any(k.arg == "metaclass" and getattr(k.value, "id", None) == "record" for k in node.keywords)]
    assert len(found) == RECORDS  # so the field checks below cannot pass with nothing to check
    return found


def _asdict_records(trees: dict[str, ast.Module], records: set[str]) -> set[str]:
    """The records whose ``_asdict()`` the package calls: on ``self`` in the record's own body, or on a
    field or a method result whose annotation names the record, as in ``config.array._asdict()``."""
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    typed: dict[str, set[str]] = {}  # a field or function name -> the records its annotation names
    for node in nodes:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name, annotation = node.target.id, node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            name, annotation = node.name, node.returns
        else:
            continue
        typed.setdefault(name, set()).update(set(re.findall(r"\w+", ast.unparse(annotation))) & records)
    called = {record.name for _, record in _records(trees) if "self._asdict()" in ast.unparse(record)}
    for node in nodes:
        if isinstance(node, ast.Attribute) and node.attr == "_asdict":
            target = node.value.func if isinstance(node.value, ast.Call) else node.value
            called |= typed.get(getattr(target, "attr", ""), set())
    return called


def _attribute_paths(trees: dict[str, ast.Module]):
    """Each string the package reads as a dotted attribute path: an argument of ``attrgetter(...)``, or
    the ``path`` or ``get`` of a ``report.Quantity(...)`` row, which ``report`` reads with ``attrgetter``."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "attrgetter":
                args = node.args
            elif name == "Quantity":
                args = [arg for field, arg in zip(report.Quantity._fields, node.args) if field in ("path", "get")]
                args += [k.value for k in node.keywords if k.arg in ("path", "get")]
            else:
                continue
            yield from (arg.value for arg in args if isinstance(arg, ast.Constant) and isinstance(arg.value, str))


def test_every_record_field_is_read_in_the_package():
    """Each field of a package record is read by package code: as an attribute (``x.field``, in its
    own methods too), as a segment of an attribute path (an ``attrgetter`` path such as
    ``"power.parasitic_pinned"``), or through ``_asdict()`` of its record; so no field is carried for
    the tests alone.  Another string, such as the key of ``{"op": op}``, reads no field."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(spiderweb.__file__).parent.glob("*.py")}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {segment for path in _attribute_paths(trees) for segment in path.split(".")}
    records = list(_records(trees))
    asdict = _asdict_records(trees, {record.name for _, record in records})
    unread = [f"{module}.{record.name}.{item.target.id}" for module, record in records if record.name not in asdict
              for item in record.body if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert sorted(set(unread) - set(UNREAD_FIELDS)) == []
    assert sorted(set(UNREAD_FIELDS) - set(unread)) == []  # a listed field that is now read leaves the list


def _dumps_owners(node: ast.AST, owner: str | None = None):
    """The name of the function or class around each reference to ``dumps``, or None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Attribute, ast.Name, ast.alias)) and "dumps" in (
                getattr(child, "attr", None), getattr(child, "id", None), getattr(child, "name", None)):
            yield owner
        yield from _dumps_owners(child, child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner)


def test_the_document_format_lives_in_the_writer_module():
    """Only ``writers`` escapes JSON strings itself, and outside it only ``dump-unitary``, whose key
    order is a contract, calls ``json.dumps``; so each rule of the output formats has one home."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in Path(spiderweb.__file__).parent.glob("*.py")}
    assert sorted(name for name, source in sources.items() if "encode_basestring" in source) == ["writers"]
    dumps = {(name, owner) for name, source in sources.items() if name != "writers"
             for owner in _dumps_owners(ast.parse(source))}
    assert dumps == {("cli", "_cmd_dump_unitary")}


# The caches that keep a bound and never keep a failure, kept by hand; every other memo is a
# ``functools.cache`` and every value fixed at import a constant.
KEPT_BY_HAND = {"schedule._plans", "schedule._parsed", "schedule._pieces"}


def test_no_module_level_memo_but_the_bounded_caches():
    """No module-level name starts as an empty ``{}`` or ``[]`` to be filled later, but the
    ``KEPT_BY_HAND`` caches."""
    filled = []
    for path in Path(spiderweb.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value:
                targets = [node.target]
            else:
                continue
            value = node.value
            if isinstance(value, ast.Dict) and not value.keys or isinstance(value, ast.List) and not value.elts:
                filled += [f"{path.stem}.{ast.unparse(target)}" for target in targets]
    assert sorted(filled) == sorted(KEPT_BY_HAND)
