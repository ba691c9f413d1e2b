"""The package installs with the standard library alone; numpy is only the
tests' oracle, and its sources parse at the oldest Python it declares."""

import ast
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_runtime_needs_no_third_party_package():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
    test_extra = project["optional-dependencies"]["test"]
    assert any(req.split(">")[0].split("=")[0].strip() == "numpy" for req in test_extra)


def test_sources_parse_at_the_minimum_python():
    floor = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["requires-python"]
    assert floor.startswith(">=")
    version = tuple(int(part) for part in floor[2:].split(".")[:2])
    sources = sorted((PYPROJECT.parent / "src" / "spiderweb").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
