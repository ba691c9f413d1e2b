import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderweb import cli, electronics, model, power, report, wiring
from spiderweb.config import (
    _KEYMAP,
    FRINGE_MODES,
    SECTIONS,
    ElectronicsParams,
    SignalParams,
    ToolConfig,
    apply_entries,
    load_config,
    parse_config_text,
    read_entries,
    resolve_override,
)
from spiderweb.electronics import (
    demux_clock,
    footprint,
    min_hold_capacitance,
    refresh_rate,
)
from spiderweb.model import GATE_INVENTORY, READOUT_MODES, cycle_time, derive_geometry
from spiderweb.power import parasitic_capacitance, total_power
from spiderweb.errors import ConfigParseError
from spiderweb.report import Design, compute, sweep_record
from spiderweb.units import parse_quantity
from spiderweb.wiring import (
    LEVELS,
    lines_at,
    logical_qubit_capacity,
    max_fab_crossbars,
    rent_exponent,
)

# The modules whose bindings one ``compute`` call goes through.
_OWNERS = (model, electronics, wiring, power, report)


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` wherever the spiderweb modules bind it; the returned
    list grows by one per call."""
    original = getattr(owner, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for space in (*_OWNERS, owner):
        if getattr(space, name, None) is original:
            monkeypatch.setattr(space, name, counted)
    return calls


def test_compute_runs_each_stage_once(monkeypatch):
    counts = {
        "derive_geometry": _count_calls(monkeypatch, model, "derive_geometry"),
        "lines_at": _count_calls(monkeypatch, wiring, "lines_at"),
        "parasitic_capacitance": _count_calls(monkeypatch, power, "parasitic_capacitance"),
        "refresh_rate": _count_calls(monkeypatch, electronics, "refresh_rate"),
        "SignalParams.resolved": _count_calls(monkeypatch, SignalParams, "resolved"),
    }
    compute(ToolConfig())
    assert {name: len(calls) for name, calls in counts.items()} == {
        "derive_geometry": 1,
        "lines_at": len(LEVELS),
        "parasitic_capacitance": 1,
        "refresh_rate": 1,
        "SignalParams.resolved": 1,
    }


_SMALL_FILE = """\
[array]
n_b = 16
m_b = 8
n_r = 8
m_r = 16
q = 8
r = 8
[timing]
t_r = 2us
[signals]
f_p = 2MHz
[interconnect]
n_l = 200
"""

_LARGE_FILE = """\
[array]
d = 10um
n_b = 64
m_b = 32
n_r = 16
m_r = 128
q = 64
r = 4
d_c = 25
[electronics]
drift = 50mV/s
[interconnect]
fringe_mode = disabled
"""

# (file text, overrides, pinned parasitic capacitance): the reference design
# and five others that move every config section and the pinned path.
_CONFIGS = {
    "reference": ("", (), None),
    "crossbars": ("", ("x=200",), None),
    "pitch": ("", ("d=20um", "drift=0.2V/s", "t_r=2us"), None),
    "pinned": ("", ("x=8",), 700e-15),
    "small_file": (_SMALL_FILE, (), None),
    "large_file": (_LARGE_FILE, ("x=50",), None),
}


def _rebuilt(config: ToolConfig, pinned: float | None) -> Design:
    """A Design assembled from the public stage functions, independently of
    ``compute``: each input a stage function takes (line totals, hold
    capacitances, grid capacitance, refresh rate) is computed here afresh
    with its own public function and passed in."""
    cfg, elec = config.array, config.electronics
    plane, cell = lines_at("quantum_plane", cfg).total, lines_at("unit_cell", cfg).total
    fine, coarse = min_hold_capacitance("fine", elec), min_hold_capacitance("coarse", elec)
    refresh = refresh_rate(elec)
    grid = parasitic_capacitance(config.interconnect)
    return Design(
        geometry=derive_geometry(cfg),
        lines={level: lines_at(level, cfg) for level in LEVELS},
        rent_exponent=rent_exponent(plane, cell, cfg.unit_cells),
        capacity_defect=logical_qubit_capacity(cfg, "defect"),
        capacity_lattice_surgery=logical_qubit_capacity(cfg, "lattice_surgery"),
        fabrication_crossbar_limit=max_fab_crossbars(cfg),
        coarse_hold_capacitance_f=coarse,
        fine_hold_capacitance_f=fine,
        refresh_rate_hz=refresh,
        demux_clock_hz=demux_clock(cfg, refresh),
        footprint=footprint(cfg, elec, GATE_INVENTORY, fine, coarse),
        cycles={mode: cycle_time(config.timing, cfg, mode) for mode in READOUT_MODES},
        grid=grid,
        power=total_power(cfg, config.signals, elec, grid, refresh, pinned),
    )


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_compute_equals_public_stages(name):
    text, overrides, pinned = _CONFIGS[name]
    config = apply_entries({**parse_config_text(text), **read_entries(None, list(overrides))})
    assert compute(config, pinned) == _rebuilt(config, pinned)


def _leaf_paths(doc: dict, prefix: str = "") -> list[str]:
    return [path for key, value in doc.items()
            for path in (_leaf_paths(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key])]


def test_every_report_leaf_comes_from_one_quantity_row():
    paths = [row.path for row in report.QUANTITIES if row.path]
    leaves = [leaf for leaf in _leaf_paths(report.build_report(ToolConfig())) if not leaf.startswith("config.")]
    for leaf in leaves:
        owners = [p for p in paths if leaf == p or leaf.startswith(p + ".")]
        assert owners == [leaf] or owners in (["lines"], ["timing"]), leaf
    assert all(any(leaf == p or leaf.startswith(p + ".") for leaf in leaves) for p in paths)


def test_quantity_paths_labels_and_columns_are_unique():
    for field in ("path", "label", "column"):
        named = [getattr(row, field) for row in report.QUANTITIES if getattr(row, field)]
        assert len(named) == len(set(named)), field
    # every row sets a leaf, prints a line or fills a column; only a printed line has a formatter
    assert all(row.path or row.label or row.column for row in report.QUANTITIES)
    assert all(row.text is None or row.label for row in report.QUANTITIES)


def test_sweep_fields_are_the_csv_header_contract():
    assert report.SWEEP_FIELDS == (
        "parameter", "value", "valid", "violations", "unit_cells", "lines_unit_cell", "lines_quantum_plane",
        "rent_exponent", "capacity_defect", "capacity_lattice_surgery", "crossbar_fab_limit", "min_pitch_um",
        "pitch_feasible", "cycle_mixed_s", "array_total_w",
    )


# The stages a later sweep point reruns: by swept key for the array section, whose stages read
# single fields, and for each other section the same stages whichever of its keys is swept.
@pytest.mark.parametrize("section, stages", [
    ("array", {"x": ["lines"],
               "d": ["geometry", "lines", "electronics", "power"],
               "n_r": ["lines", "timing"]}),
    ("electronics", ["electronics", "power"]),
    ("timing", ["timing"]),
    ("signals", ["power"]),
    ("interconnect", ["power"]),
])
def test_a_section_reruns_the_stages_it_feeds(section, stages):
    if isinstance(stages, dict):
        by_key = {resolve_override(f"{key}=0")[0]: names for key, names in stages.items()}
    else:
        by_key = {key: stages for key in _KEYMAP if key[0] == section}
    for key, names in by_key.items():
        checks, runs = report.Sweep(key).plan
        assert checks == (section,)
        assert [name for name, (_, run) in report.STAGES.items() if run in runs] == names


def test_each_stage_read_names_a_section_or_field():
    for reads, _ in report.STAGES.values():
        for read in reads:
            section, _, field = read.partition(".")
            assert section in SECTIONS
            assert not field or field in SECTIONS[section]._fields, read


def _readme_stage_rows() -> list[list[str]]:
    """The cells of each row of the README's stage table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| stage | reads | reruns in a sweep of |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]


def _ticked(text: str) -> list[str]:
    return text.split("`")[1::2]


def test_the_readme_stage_table_is_the_stage_table():
    # a reads cell is ``section`` or ``section`: `field`, ...`` parts, split by "; "; in the last cell a
    # section stands for each of its keys
    rows = _readme_stage_rows()
    assert [_ticked(stage) for stage, _, _ in rows] == [[name] for name in report.STAGES]
    for (stage, reads, swept), (name, (want, run)) in zip(rows, report.STAGES.items()):
        got = []
        for part in reads.split("; "):
            section, *fields = _ticked(part)
            got += [f"{section}.{field}" for field in fields] if ":" in part else [section, *fields]
        assert tuple(got) == want, name
        keys = {key for word in _ticked(swept)
                for key in ([key for key in _KEYMAP if key[0] == word] if word in SECTIONS
                            else [resolve_override(f"{word}=0")[0]])}
        assert keys == {key for key in _KEYMAP if run in report.Sweep(key).plan[1]}, name


def _covers(reads: tuple[str, ...], read: str) -> bool:
    return read in reads or read.partition(".")[0] in reads


class _ReadLog(dict):
    """A stage's ``out`` that records the results a run reads from it."""

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_a_stage_that_reads_another_stage_lists_every_read_of_it(name):
    # Run the stages in order on an empty ``out``: each adds its results and reads only earlier ones.
    text, overrides, pinned = _CONFIGS[name]
    config = apply_entries({**parse_config_text(text), **read_entries(None, list(overrides))})
    out, made, found = _ReadLog(), {}, set()
    for stage, (reads, run) in report.STAGES.items():
        before, out.read = set(out), set()
        run(config, out, pinned)
        made[stage] = set(out) - before
        for upstream, results in made.items():
            if upstream != stage and out.read & results:
                found.add((stage, upstream))
                assert all(_covers(reads, read) for read in report.STAGES[upstream][0]), (stage, upstream)
    assert ("power", "electronics") in found  # power reads electronics' refresh rate


def _changed(value) -> list:
    if isinstance(value, str):
        return [mode for mode in FRINGE_MODES if mode != value]
    if value is None:  # signals.line_length_m, one unit-cell span until set
        return [1e-3, 2e-3]
    return [value + 1, 2 * value + 3]


# Each stage with every field, of every section, that it does not read
_UNREAD = [(name, section, field) for name, (reads, _) in report.STAGES.items()
           for section, cls in SECTIONS.items() for field in cls._fields if not _covers(reads, f"{section}.{field}")]


@pytest.mark.parametrize("name, section, field", _UNREAD)
def test_a_stage_does_not_read_the_fields_it_leaves_out(name, section, field):
    run = report.STAGES[name][1]
    for text, overrides, pinned in _CONFIGS.values():
        config = apply_entries({**parse_config_text(text), **read_entries(None, list(overrides))})
        base = compute(config, pinned)._asdict()
        part = getattr(config, section)
        for changed in _changed(getattr(part, field)):
            other = config._replace(**{section: part._replace(**{field: changed})})
            want, got = dict(base), dict(base)
            run(config, want, pinned)
            run(other, got, pinned)
            assert got == want, (name, section, field, changed)


def _sweep_counts(monkeypatch, argv, names) -> dict[str, int]:
    counts = {name: _count_calls(monkeypatch, owner, name) for owner, name in names}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return {name: len(calls) for name, calls in counts.items()}


def test_a_timing_sweep_reruns_only_the_timing_stage(monkeypatch):
    values = ",".join(f"{20 * k}ns" for k in range(1, 65))
    counts = _sweep_counts(monkeypatch, ["sweep", "t_r", values, "--format", "json"], [
        (electronics, "footprint"), (power, "parasitic_capacitance"), (power, "total_power"),
        (model, "cycle_time"), (model, "validate_config"),
    ])
    assert counts == {"footprint": 1, "parasitic_capacitance": 1, "total_power": 1,
                      "cycle_time": 3 * 64, "validate_config": 1}


def test_a_crossbar_sweep_reruns_only_the_line_counts(monkeypatch):
    values = ",".join(str(k) for k in range(64))
    counts = _sweep_counts(monkeypatch, ["sweep", "x", values, "--format", "json"], [
        (model, "derive_geometry"), (electronics, "footprint"), (model, "cycle_time"),
        (power, "parasitic_capacitance"), (power, "total_power"), (wiring, "lines_at"),
    ])
    assert counts == {"derive_geometry": 1, "footprint": 1, "cycle_time": 3, "parasitic_capacitance": 1,
                      "total_power": 1, "lines_at": 3 * 64}


def test_an_electronics_sweep_counts_lines_once(monkeypatch):
    values = ",".join(f"{k}mV/s" for k in range(1, 33))
    counts = _sweep_counts(monkeypatch, ["sweep", "drift", values, "--format", "csv"], [
        (wiring, "lines_at"), (electronics, "footprint"), (power, "total_power"),
    ])
    assert counts == {"lines_at": len(LEVELS), "footprint": 32, "total_power": 32}


def test_a_rejected_point_keeps_the_reuse(monkeypatch):
    # the other sections are checked at the first valid point only, also after the rejected x=-1
    counts = _sweep_counts(monkeypatch, ["sweep", "x", "--", "0,-1,1"], [
        (model, "validate_config"), (ElectronicsParams, "validate"),
    ])
    assert counts == {"validate_config": 3, "validate": 1}
    # no point is valid: the first checks every other section, then breaks the array rule; the
    # second checks only the swept section and the array
    counts = _sweep_counts(monkeypatch, ["sweep", "--set", "n_b=7", "--", "t_r", "1us,2us"], [
        (model, "validate_config"), (ElectronicsParams, "validate"), (model, "cycle_time"),
    ])
    assert counts == {"validate_config": 2, "validate": 1, "cycle_time": 0}


# Every array key and a swept key from every other section, each with values that are valid, that
# the array rules reject, that break a section rule, that do not parse, or whose result is not
# finite.  The readout keys have a valid value for each base file.  No length the parser takes breaks
# an array rule, so a length key's points are rejected only under ``n_b=7``.  ``r`` runs on a 3x3
# readout module (n_b=24, n_r=3, q=3), where every r is rejected.
_SWEPT = {
    "x": ("0", "8", "200", "-3", "abc", "1e400"),
    "d": ("10um", "13um", "20um", "0nm", "13.5nm", "1e290"),
    "gate_pitch": ("50nm", "25nm", "20um", "0nm", "1.5nm", "abc"),
    "n_b": ("32", "16", "7", "0", "-1"),
    "m_b": ("16", "8", "32", "0", "-1", "1.5"),
    "n_r": ("4", "8", "16", "2", "0", "abc"),
    "m_r": ("128", "16", "64", "0", "-3", "x"),
    "q": ("4", "8", "64", "2", "0", "2.5"),
    "r": ("3", "1", "2", "4"),
    "d_c": ("16", "25", "3", "0", "-2", "abc"),
    "n_layers": ("12", "1", "40", "0", "-1", "1e400"),
    "delta_i": ("80nm", "40nm", "200nm", "1e290", "0nm", "1.5nm"),
    "drift": ("1mV/s", "0.2V/s", "50mV/s", "0", "-1", "1e305"),
    "t_r": ("20ns", "1us", "2us", "0", "-1ns", "abc"),
    "v_p": ("1", "0.5", "0", "-1", "1e300"),
    "lines_per_layer": ("150", "1", "512", "0", "-5"),
    "fringe_mode": ("printed_magnitude", "disabled", "bogus"),
}
_BASE_OVERRIDES = ("x=8", "d=20um", "drift=0.2V/s", "t_r=2us", "v_p=2", "n_l=200", "fringe_mode=disabled",
                   "n_b=7", "drift=-1", "t_r=-1ns", "w=abc")
_FILES = {None: None, "small": _SMALL_FILE, "large": _LARGE_FILE}


def _fresh_sweep(key: str, values: list[str], path: str | None, base: list[str],
                 pinned: float | None) -> tuple[int, list[dict] | None, str]:
    """Exit code, records and stderr of the sweep, each point's record built by a fresh
    ``sweep_record`` on a fresh ``load_config`` as a sweep's first point, which checks the
    array last, a failure reported as the CLI reports it."""
    records = []
    for value in values:
        point = f"{key}={value}"
        try:
            config = load_config(path, [*base, point])
        except ConfigParseError as exc:
            return 1, None, f"error: {exc}\n"
        try:
            record = sweep_record(key, value, config, pinned, report.Sweep(resolve_override(point)[0]))
        except ValueError as exc:
            return 1, None, f"error: sweep point {point}: {exc}\n"
        for field, v in record.items():
            if isinstance(v, float) and not math.isfinite(v):
                return 1, None, f"error: sweep point {point}: value {field} is not finite ({v})\n"
        records.append(record)
    return 0, records, ""


_KEY_AND_VALUES = st.sampled_from(sorted(_SWEPT)).flatmap(
    lambda key: st.tuples(st.just(key), st.lists(st.sampled_from(_SWEPT[key]), max_size=8)))


@settings(max_examples=400, deadline=None)
@given(_KEY_AND_VALUES, st.lists(st.sampled_from(_BASE_OVERRIDES), max_size=3),
       st.sampled_from(sorted(_FILES, key=str)), st.sampled_from([None, "700fF"]))
@example(("x", ["-3", "0", "-3", "8"]), [], None, None)
@example(("d", ["10um", "13um", "20um"]), ["x=8"], None, None)
@example(("drift", ["1mV/s", "0.2V/s", "50mV/s"]), [], "small", None)
@example(("v_p", ["1", "0.5", "0"]), ["n_l=200"], None, "700fF")
@example(("lines_per_layer", ["150", "1", "512"]), [], "large", None)
@example(("fringe_mode", ["disabled", "printed_magnitude"]), ["d=20um"], None, None)
@example(("t_r", ["20ns", "1us", "-1ns"]), ["n_b=7"], "large", "700fF")
@example(("x", ["-3", "5"]), ["drift=-1"], None, None)
@example(("x", ["1", "2"]), ["x=abc"], "small", None)
@example(("gate_pitch", ["50nm", "20um", "25nm", "abc"]), ["d=20um"], None, None)
@example(("m_b", ["16", "8", "32"]), [], "small", None)
@example(("n_r", ["4", "8", "16", "0"]), [], "large", "700fF")
@example(("m_r", ["128", "64", "16"]), [], "small", None)
@example(("q", ["4", "8", "64", "2.5"]), ["x=8"], "large", None)
@example(("d_c", ["16", "0", "25", "3"]), ["t_r=2us"], None, None)
@example(("n_layers", ["12", "1", "0", "40"]), [], "large", None)
@example(("delta_i", ["80nm", "1e290", "40nm"]), ["n_b=7"], None, None)
@example(("drift", []), ["w=abc"], None, None)
def test_a_sweep_equals_fresh_points(key_and_values, base, file_name, pin_cp):
    """The CLI's incremental sweep prints the bytes, or the error and exit code, of fresh points."""
    key, values = key_and_values
    if key == "r":
        base = ["n_b=24", "n_r=3", "q=3", *base]
    with tempfile.TemporaryDirectory() as tmp:
        path = None
        if _FILES[file_name] is not None:
            path = os.path.join(tmp, "base.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_FILES[file_name])
        code, records, err = _fresh_sweep(key, values, path, base,
                                          None if pin_cp is None else parse_quantity(pin_cp))
        argv = ["sweep", key, *(["--config", path] if path else []), *(f"--set={b}" for b in base),
                *(["--pin-cp", pin_cp] if pin_cp else [])]
        for fmt in ("csv", "json"):
            out, got_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(got_err):
                got = cli.main([*argv, "--format", fmt, "--", ",".join(values)])
            assert (got, got_err.getvalue()) == (code, err)
            if records is None:
                assert out.getvalue() == ""
            elif fmt == "json":
                assert out.getvalue() == json.dumps(records, indent=2, sort_keys=True, allow_nan=False) + "\n"
            else:
                expected = io.StringIO()
                writer = csv.DictWriter(expected, fieldnames=report.SWEEP_FIELDS)
                writer.writeheader()
                writer.writerows(records)
                assert out.getvalue() == expected.getvalue()
