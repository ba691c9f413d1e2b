"""Which ``spiderweb`` modules each command runs, and how the CLI registers the
ones it runs only on demand.

Each probe runs in a fresh interpreter, since a module, once run, stays run.
An ``exec`` audit hook names every module whose code actually ran; a module
that is only registered in ``sys.modules`` never shows up there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spiderweb

PACKAGE = Path(spiderweb.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
ON_DEMAND = ("electronics", "power", "qgates", "report", "schedule", "wiring")
# what ``import spiderweb.cli`` runs
AT_IMPORT = ["__init__", "cli", "config", "errors", "model", "units", "writers"]

_RAN = """
import contextlib, io, json, sys
from pathlib import Path
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(Path(args[0].co_filename)))
"""


def _probe(code: str, flags: tuple[str, ...] = ()) -> dict:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, *flags, "-c", _RAN + code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


_COMMAND_PROBE = """
import spiderweb.cli
package = Path(spiderweb.__file__).resolve().parent
def ours():
    return sorted(p.stem for p in ran if p.resolve().parent == package)
registered = sorted(m for m in sys.modules if m.startswith("spiderweb."))
at_import = ours()
ran.clear()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = spiderweb.cli.main({argv!r})
print(json.dumps({{"code": code, "registered": registered, "at_import": at_import, "ran": ours()}}))
"""

# each command's exit code and every module it runs after the import
_RUNS = {
    ("report",): (0, ["electronics", "power", "report", "wiring"]),
    ("sweep", "x", "0,1"): (0, ["electronics", "power", "report", "wiring"]),
    ("report", "--set", "bogus=1"): (1, []),
    ("simulate",): (0, ["schedule"]),
    ("verify",): (0, ["qgates", "schedule"]),
    ("dump-unitary", "rz", "0.5"): (0, ["qgates"]),
}


# -S skips site, whose .pth files may import modules of their own
@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize("argv", list(_RUNS), ids=" ".join)
def test_each_command_runs_only_the_modules_it_uses(argv, flags):
    result = _probe(_COMMAND_PROBE.format(argv=list(argv)), flags)
    assert result["at_import"] == AT_IMPORT
    assert (result["code"], result["ran"]) == _RUNS[argv]
    # importing the CLI registers every module of the package, run or not
    assert result["registered"] == [f"spiderweb.{m}" for m in MODULES]
    assert sorted(ON_DEMAND) == [m for m in MODULES if m not in AT_IMPORT]


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first(name):
    """A module imported before any other finds no import cycle: ``config`` holds
    the section records that ``model``, ``electronics``, ``power`` and ``schedule`` read."""
    result = _probe(f"import spiderweb.{name} as m\n"
                    "print(json.dumps([n for n in getattr(m, '__all__', ()) if not hasattr(m, n)]))")
    assert result == []


def test_a_module_imported_before_the_cli_is_reused():
    result = _probe("""
import spiderweb.report as first
import spiderweb.cli
before = sorted(p.stem for p in ran if p.stem in ("report", "wiring"))
print(json.dumps({"same": spiderweb.cli.report is first is sys.modules["spiderweb.report"],
                  "wiring": sys.modules["spiderweb.wiring"] is spiderweb.wiring is first.wiring,
                  "ran": before}))
""")
    assert result == {"same": True, "wiring": True, "ran": ["report", "wiring"]}


def test_the_package_attribute_is_the_registered_module():
    result = _probe("""
import spiderweb.cli
from spiderweb import qgates, report
import spiderweb.wiring as wiring
before = sorted(p.stem for p in ran if p.stem in ("qgates", "report", "wiring"))
print(json.dumps({"qgates": qgates is spiderweb.cli.qgates is sys.modules["spiderweb.qgates"],
                  "report": report is spiderweb.cli.report is sys.modules["spiderweb.report"],
                  "wiring": wiring is report.wiring is sys.modules["spiderweb.wiring"],
                  "ran": before}))
""")
    # ``import spiderweb.wiring`` runs the module; ``from spiderweb import ...`` does not
    assert result == {"qgates": True, "report": True, "wiring": True, "ran": ["wiring"]}


def test_monkeypatching_a_module_that_has_not_run_takes_effect():
    result = _probe("""
import pytest
import spiderweb.cli
out = []
for patched in (True, False):
    with pytest.MonkeyPatch.context() as mp:
        if patched:
            mp.setattr(spiderweb.cli.report, "render_text", lambda doc: "patched\\n")
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            spiderweb.cli.main(["report"])
    out.append(buf.getvalue())
print(json.dumps({"patched": out[0], "restored": out[1].startswith("geometry\\n"),
                  "runs": [p.stem for p in ran].count("report")}))
""")
    assert result == {"patched": "patched\n", "restored": True, "runs": 1}
