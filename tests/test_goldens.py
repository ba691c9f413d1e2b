"""The benchmark's golden outputs (``report`` in every format, ``verify --json``
and every sweep grid) still match the program byte for byte, and its output
checks pass on the first block of each in-process workload."""

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


def _first_block_failures(workload: str, monkeypatch, tmp_path) -> tuple[list, list[str]]:
    """The first block (seed 1) of ``workload`` and the benchmark's complaints about its ops, each
    run in process and checked as the benchmark checks it, twice: on the caches as the test finds
    them, then on the caches the first pass filled, as the benchmark repeats a block."""
    inputs = _bench_module("inputs", monkeypatch)
    program = _bench_module("program", monkeypatch)
    checks = _bench_module("checks", monkeypatch)
    checker = checks.Checker(checks.Goldens())
    block = next(inputs.blocks(workload, 1, inputs.Inputs(ROOT, tmp_path)))
    failures = []
    for run in ("cold", "warm"):
        for op in block:
            _, code, out, err = program.run_inproc(cli, op.argv)
            problem = checker.check(op, code, out, err)
            if problem:
                failures.append(f"{run}: {' '.join(op.argv)}: {problem}")
    return block, failures


@needs_bench
def test_first_verify_inproc_block_passes_the_benchmark_checks(monkeypatch, tmp_path, cold_caches):
    """Every op of the first ``verify_inproc`` block (seed 1): eight ``verify --json``,
    ``simulate`` on the shipped table and on generated tables of 16 to 512 steps, and
    ``dump-unitary``, run in process and checked as the benchmark checks them: on empty
    caches, then again on the caches the first pass filled, as the benchmark repeats it."""
    block, failures = _first_block_failures("verify_inproc", monkeypatch, tmp_path)
    assert {op.command for op in block} == {"verify", "simulate", "dump-unitary"}
    assert failures == []


@needs_bench
def test_first_sweep_inproc_block_passes_the_benchmark_checks(monkeypatch, tmp_path):
    """Every op of the first ``sweep_inproc`` block (seed 1): seven json or csv sweeps of 64 to
    512 points, one per sweep family, and one ``report``, checked as the benchmark checks them;
    a json sweep must also be in the CLI's indent-2 sorted-key layout, which the goldens do not pin."""
    block, failures = _first_block_failures("sweep_inproc", monkeypatch, tmp_path)
    assert sorted(op.command for op in block) == ["report", *["sweep"] * 7]
    assert {op.expect["format"] for op in block if op.command == "sweep"} == {"json", "csv"}
    assert failures == []
