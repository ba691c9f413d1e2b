"""The package installs with the standard library alone; numpy is only the
tests' oracle."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_runtime_needs_no_third_party_package():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
    test_extra = project["optional-dependencies"]["test"]
    assert any(req.split(">")[0].split("=")[0].strip() == "numpy" for req in test_extra)
