"""Every function the benchmark's traced run wraps (``bench/tracing.LAYER_FUNCTIONS``)
still exists under its name, so a rename fails here and not only in a traced run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spiderweb

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

needs_bench = pytest.mark.skipif(not TRACING.is_file(), reason="no bench/ in this checkout")


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


@needs_bench
def test_traced_layer_functions_resolve():
    unresolved = []
    for module_name, attr in _layer_functions():
        owner = importlib.import_module(f"spiderweb.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []


@needs_bench
def test_importing_the_cli_loads_every_traced_module():
    """``Tracer.install`` looks up ``sys.modules["spiderweb.<module>"]`` for every
    traced function, also in a workload that never calls it (``sweep_inproc``
    runs no ``verify``). So a module that the CLI imported only inside a command,
    say ``qgates``, would make a traced run raise ``KeyError``."""
    modules = sorted({f"spiderweb.{module_name}" for module_name, _ in _layer_functions()})
    probe = f"import sys, spiderweb.cli; print([m for m in {modules!r} if m not in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(spiderweb.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


_TRACE_PROBE = """
import contextlib, importlib.util, io, json, sys
import spiderweb.cli as cli
spec = importlib.util.spec_from_file_location("bench_tracing", {tracing!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
codes = []
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(list(argv)))
run("report")
run("sweep", "x", "0,1")
pending = type(sys.modules["spiderweb.qgates"]) is not type(sys)
tracer = tracing.Tracer()
tracer.install()
wrapped = {{(m, a): sys.modules["spiderweb." + m].__dict__[a] for m, a in tracing.LAYER_FUNCTIONS if "." not in a}}
run("verify", "--json")
run("sweep", "x", "0,1")
tracer.uninstall()
restored = all(sys.modules["spiderweb." + m].__dict__[a] is fn.__wrapped__ for (m, a), fn in wrapped.items())
print(json.dumps({{"codes": codes, "pending": pending, "restored": restored,
                  "spans": sorted({{name for name, *_ in tracer.spans}})}}))
"""


@needs_bench
def test_the_tracer_wraps_a_module_the_cli_has_not_run():
    """``sweep_inproc`` installs the tracer with ``qgates`` registered but never run;
    the install runs it, and its spans record as those of a module run before."""
    env = dict(os.environ, PYTHONPATH=str(Path(spiderweb.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _TRACE_PROBE.format(tracing=str(TRACING))], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["pending"]
    assert {"qgates.verify_plaquette_X", "qgates.verify_identities", "report.sweep_record_valid"} <= set(
        result["spans"])
    assert result["restored"]
