"""The benchmark's golden outputs (``report`` in every format, ``verify --json``
and every sweep grid) still match the program byte for byte, and its output
checks pass on a block of its own ops."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from spiderweb import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MAKE_GOLDENS = BENCH / "make_goldens.py"

needs_bench = pytest.mark.skipif(not MAKE_GOLDENS.is_file(), reason="no bench/ in this checkout")


@needs_bench
def test_outputs_match_goldens():
    proc = subprocess.run(
        [sys.executable, str(MAKE_GOLDENS), "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _bench_module(name: str, monkeypatch):
    """``bench/<name>.py``, loaded from its file and registered under its bare name, as
    the benchmark's own modules import each other (``checks`` imports ``inputs``)."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@needs_bench
def test_first_verify_inproc_block_passes_the_benchmark_checks(monkeypatch, tmp_path, cold_caches):
    """Every op of the first ``verify_inproc`` block (seed 1): eight ``verify --json``,
    ``simulate`` on the shipped table and on generated tables of 16 to 512 steps, and
    ``dump-unitary``, run in process and checked as the benchmark checks them: on empty
    caches, then again on the caches the first pass filled, as the benchmark repeats it."""
    inputs = _bench_module("inputs", monkeypatch)
    program = _bench_module("program", monkeypatch)
    checks = _bench_module("checks", monkeypatch)
    checker = checks.Checker(checks.Goldens())
    block = next(inputs.blocks("verify_inproc", 1, inputs.Inputs(ROOT, tmp_path)))
    failures = []
    for run in ("cold", "warm"):
        for op in block:
            _, code, out, err = program.run_inproc(cli, op.argv)
            problem = checker.check(op, code, out, err)
            if problem:
                failures.append(f"{run}: {' '.join(op.argv)}: {problem}")
    assert {op.command for op in block} == {"verify", "simulate", "dump-unitary"}
    assert failures == []
