"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import make_goldens  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _first_blocks(workload: str, seed: int, count: int = 3) -> list[tuple]:
    """The first blocks' argv and table texts, with the run directory masked."""
    with program.workdir() as work:
        inp = inputs.Inputs(program.ROOT, work)
        blocks = list(itertools.islice(inputs.blocks(workload, seed, inp), count))
        tables = {p.name: p.read_text() for p in work.glob("table*.steps")}
        return [tuple(tuple(a.replace(str(work), "<work>") for a in op.argv) for op in block)
                for block in blocks] + [tables]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert _first_blocks(workload, 7) == _first_blocks(workload, 7)
    assert _first_blocks(workload, 7) != _first_blocks(workload, 8)


@pytest.mark.parametrize("steps", inputs.TABLE_SIZES)
def test_generated_tables_simulate_without_conflict(steps):
    program.import_cli()
    from spiderweb import schedule

    bodies = inputs.shipped_bodies(program.ROOT)
    table = inputs.generated_table(random.Random(steps), steps, bodies)
    parsed = schedule.step_table_from_text(table.text)
    assert [s.index for s in parsed.steps] == list(range(1, steps + 1))
    assert [s.kind for s in parsed.steps[-2:]] == ["one_qubit", "readout"]
    assert parsed.steps[-2].park
    trace = schedule.simulate_cycle(parsed, schedule.TimingParams())
    assert trace.counters == table.census
    assert len(trace.events) == table.events


def test_shipped_table_facts_match_the_simulator():
    program.import_cli()
    from spiderweb import schedule

    with program.workdir() as work:
        shipped = inputs.Inputs(program.ROOT, work).shipped
    trace = schedule.simulate_cycle(schedule.default_step_table(), schedule.TimingParams())
    assert trace.counters == shipped.census
    assert len(trace.events) == shipped.events
    assert len(trace.annotations) == shipped.hooks


def test_goldens_reproduce():
    assert make_goldens.main(["--check"]) == 0


def test_tracer_counts_and_restores_bindings():
    cli = program.import_cli()
    from spiderweb import config

    keymap = dict(config._KEYMAP)
    with program.workdir() as work:
        inp = inputs.Inputs(program.ROOT, work)
        ops = [inp.report("reference", "json"), inp.verify()]
        tracer = tracing.Tracer()
        record = run.replay(ops, lambda op: (*program.run_inproc(cli, op.argv), 0),
                            checks.Checker(checks.Goldens()), run.in_process_speed(), tracer)
    assert not record.failures
    metrics = tracing.layer_metrics(tracer, record.ops, record.seconds)
    assert metrics["model.validate_calls_per_report"] == 14
    assert metrics["qgates.expand_calls_per_verify"] == 42
    assert config._KEYMAP == keymap
    for module, attr in tracing.LAYER_FUNCTIONS:
        fn = sys.modules[f"spiderweb.{module}"]
        for part in attr.split("."):
            fn = getattr(fn, part)
        assert not hasattr(fn, "__wrapped__"), attr


def test_importtime_breakdown():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |         numpy.core",
        "import time:       200 |        250 |       numpy",
        "import time:       300 |        550 |     scipy",
        "import time:        40 |        590 |   spiderweb.config",
        "import time:        10 |         10 |   spiderweb.units",
        "import time:         5 |        605 | spiderweb.cli",
    ])
    got = tracing.import_breakdown(tracing.parse_importtime(sample))
    assert got == {
        "import.spiderweb_cli_ms": 0.605,
        "import.scipy_ms": 0.55,
        "import.numpy_ms": 0.25,
        "import.spiderweb_self_ms": 0.055,
        "import.modules_loaded": 6,
    }


def _bench(*args: str, cwd: Path = program.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_every_named_metric_appears(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace == "1":
        assert result["metrics"]["model.validate_calls_per_report"]["value"] == 14
        assert result["metrics"]["qgates.expand_calls_per_verify"]["value"] == 42


def test_fails_without_the_program():
    program.WORK.mkdir(exist_ok=True)
    bare = program.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(program.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(program.ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "cold_cli", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
