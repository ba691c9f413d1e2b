"""Output checks for every benchmark op.

``report``, ``verify`` and ``sweep`` outputs are compared with goldens made on
the seed commit by ``make_goldens.py``.  ``simulate`` is checked against the
census, event count and census-weighted makespan that ``inputs`` computes
from the table it generated.  ``dump-unitary`` is checked against rotation
matrices built here with ``math``.  Error-path ops must exit 1 with a single
``error:`` line.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
from pathlib import Path

from inputs import SWEEP_FAMILIES, Op

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}

MAKESPAN_RTOL = 1e-12
UNITARY_TOL = 1e-12
RESIDUAL_TOL = 1e-12        # verify residuals depend on the BLAS build
SI_TEXT_RTOL = 5e-4         # the text formats print 4 significant digits

_SI_PREFIX = {"T": 1e12, "G": 1e9, "M": 1e6, "k": 1e3, "": 1.0, "m": 1e-3,
              "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15, "a": 1e-18}


def row_hash(row: str) -> str:
    return hashlib.sha256(row.encode("utf-8")).hexdigest()[:16]


def csv_rows(records: list[dict], fields: list[str]) -> list[str]:
    """Rows ``spiderweb sweep --format csv`` writes for these records."""
    buf = io.StringIO()
    csv.DictWriter(buf, fieldnames=fields).writerows(records)
    return buf.getvalue().split("\r\n")[:-1]


def read_exact(path: Path) -> str:
    """File text with its line ends untouched (report csv ends lines in CRLF)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


class Goldens:
    def __init__(self, directory: Path = GOLDEN_DIR):
        self.reports = {path.name: read_exact(path) for path in (directory / "report").iterdir()}
        self.verify = json.loads(read_exact(directory / "verify.json"))
        sweep = json.loads(read_exact(directory / "sweep.json"))
        self.sweep_header: str = sweep["header"]
        self.sweep_rows = {
            family: dict(zip(SWEEP_FAMILIES[family].grid, hashes, strict=True))
            for family, hashes in sweep["rows"].items()
        }

    def report(self, config: str, fmt: str) -> str:
        return self.reports[f"{config}.{EXTENSIONS[fmt]}"]


def _same(value, golden, key: str = "") -> bool:
    if isinstance(golden, dict):
        return (isinstance(value, dict) and value.keys() == golden.keys()
                and all(_same(value[k], golden[k], k) for k in golden))
    if isinstance(golden, list):
        return (isinstance(value, list) and len(value) == len(golden)
                and all(_same(v, g, key) for v, g in zip(value, golden)))
    if key == "residual" and isinstance(golden, float):
        return isinstance(value, float) and abs(value - golden) <= RESIDUAL_TOL
    return type(value) is type(golden) and value == golden


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def _rotation(gate: str, theta: float) -> list[list[complex]]:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if gate == "rx":
        return [[c, -1j * s], [-1j * s, c]]
    if gate == "ry":
        return [[c, -s], [s, c]]
    return [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]]


class Checker:
    def __init__(self, goldens: Goldens):
        self.goldens = goldens

    def check(self, op: Op, code, out: str, err: str) -> str | None:
        """None when the op's output is right, otherwise why it is wrong."""
        if "Traceback (most recent call last)" in err:
            return "traceback on stderr"
        kind = op.expect["kind"]
        if kind == "error":
            lines = err.splitlines()
            if code != 1 or out or len(lines) != 1 or not lines[0].startswith("error: "):
                return f"error path: exit {code}, {len(lines)} stderr line(s)"
            return None
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        try:
            return getattr(self, "_" + kind)(op.expect, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable {kind} output: {exc!r}"

    def _report(self, expect: dict, out: str) -> str | None:
        if out != self.goldens.report(expect["config"], expect["format"]):
            return f"report {expect['config']} {expect['format']} differs from golden"
        return None

    def _verify(self, expect: dict, out: str) -> str | None:
        if not _same(json.loads(out), self.goldens.verify):
            return "verify --json differs from golden"
        return None

    def _sweep(self, expect: dict, out: str) -> str | None:
        header = self.goldens.sweep_header
        fields = header.split(",")
        if expect["format"] == "json":
            records = json.loads(out)
            if out != json.dumps(records, indent=2, sort_keys=True) + "\n":
                return "sweep json is not in the CLI's indent-2 sorted-key layout"
            if any(sorted(r) != sorted(fields) for r in records):
                return "sweep json records have other keys than the csv header"
            rows = csv_rows(records, fields)
        else:
            lines = out.split("\r\n")
            if lines[0] != header or lines[-1] != "":
                return "sweep csv header or line ends differ from golden"
            rows = lines[1:-1]
        golden = self.goldens.sweep_rows[expect["family"]]
        values = expect["values"]
        if len(rows) != len(values):
            return f"sweep has {len(rows)} rows for {len(values)} values"
        for value, row in zip(values, rows):
            if row_hash(row) != golden[value]:
                return f"sweep {expect['family']}={value} row differs from golden"
        return None

    def _simulate(self, expect: dict, out: str) -> str | None:
        census, makespan = expect["census"], expect["makespan_s"]
        fmt = expect["format"]
        if fmt == "json":
            doc = json.loads(out)
            times = [e["time_s"] for e in doc["events"]]
            if doc["counters"] != census:
                return f"counters {doc['counters']} != census {census}"
            if not _close(doc["makespan_s"], makespan, MAKESPAN_RTOL):
                return f"makespan {doc['makespan_s']!r} != census-weighted {makespan!r}"
            if len(doc["annotations"]) != expect["hooks"]:
                return "annotation count differs from the table's hook steps"
        elif fmt == "csv":
            lines = out.splitlines()
            if lines[0] != "time_s,step,qubit,op,resource":
                return "simulate csv header differs"
            times = [float(line.split(",", 1)[0]) for line in lines[1:]]
        else:
            # label column is 20 characters wide
            fields = {line[:20].strip(): line[20:].strip() for line in out.splitlines()}
            named = {"steps": "steps", "shuttle round trips": "shuttle_round_trips",
                     "one-qubit gates": "one_qubit_gates", "exchanges": "exchanges",
                     "readout phases": "readout_phases"}
            got = {key: int(fields[label]) for label, key in named.items()}
            if got != census:
                return f"text counters {got} != census {census}"
            if int(fields["events"]) != expect["events"]:
                return f"text event count {fields['events']} != {expect['events']}"
            number, unit = fields["makespan"].split()
            seconds = float(number) * _SI_PREFIX[unit[:-1]]
            if not _close(seconds, makespan, SI_TEXT_RTOL):
                return f"text makespan {fields['makespan']} != {makespan!r}"
            return None
        if len(times) != expect["events"]:
            return f"{len(times)} events, table implies {expect['events']}"
        if not _close(max(times), makespan, MAKESPAN_RTOL):
            return f"last event at {max(times)!r}, makespan {makespan!r}"
        return None

    def _dump(self, expect: dict, out: str) -> str | None:
        doc = json.loads(out)
        if (doc["gate"], doc["params"], doc["dim"]) != (expect["gate"], [expect["angle"]], 2):
            return "dump-unitary header fields differ"
        want = _rotation(expect["gate"], expect["angle"])
        for row, want_row in zip(doc["matrix"], want, strict=True):
            for (re, im), w in zip(row, want_row, strict=True):
                if abs(complex(re, im) - w) > UNITARY_TOL:
                    return f"{expect['gate']}({expect['angle']}) entry off by {abs(complex(re, im) - w):.3g}"
        return None
