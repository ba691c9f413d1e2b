"""Every function the benchmark's traced run wraps (``bench/tracing.LAYER_FUNCTIONS``)
still exists under its name, so a rename fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


@pytest.mark.skipif(not TRACING.is_file(), reason="no bench/ in this checkout")
def test_traced_layer_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for module_name, attr in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module(f"spiderweb.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []
