import contextlib
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spiderweb
from spiderweb import cli, config, electronics, model, power, qgates, report, schedule, wiring, writers
from spiderweb.cli import _sweep_csv, main
from spiderweb.config import load_config
from spiderweb.errors import ScheduleConflictError
from spiderweb.report import SWEEP_FIELDS, sweep_record
from spiderweb.units import parse_quantity

REPORT_DEFAULT_JSON = ["report", "--format", "json"]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each float field of a sweep record: the stage function patched to leave it non-finite, the
# change to that function's result, and the field's value then
_SPOILERS = {
    "rent_exponent": (wiring, "rent_exponent", lambda p: math.inf, "inf"),
    "min_pitch_um": (electronics, "footprint", lambda fp: fp._replace(min_pitch_m=math.nan), "nan"),
    "cycle_mixed_s": (report, "cycle_time", lambda ct: ct._replace(total_s=math.inf), "inf"),
    "array_total_w": (power, "total_power", lambda pw: pw._replace(line_w=-math.inf), "-inf"),
}


class TestReport:
    def test_default_text_report(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert "rent exponent           0.43" in out
        assert "= 16836" in out
        assert "= 74" in out
        assert "pitch feasible        yes" in out

    def test_default_json_report(self, capsys):
        code, out, _ = run(capsys, *REPORT_DEFAULT_JSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["lines"]["quantum_plane"]["total"] == 16836
        assert doc["lines"]["unit_cell"]["total"] == 74
        assert 0.43 <= doc["rent_exponent"] <= 0.44
        assert doc["capacity"] == {
            "defect": 682,
            "lattice_surgery": 1024,
            "fabrication_crossbar_limit": 1950,
        }
        assert doc["timing"]["mixed"]["cycle_s"] == pytest.approx(5.65e-6)
        # unpinned grid model still lands at order 100 mW for the array
        assert 0.05 <= doc["power"]["array"]["total_w"] <= 0.2

    def test_text_and_json_carry_same_values(self, capsys):
        _, text_out, _ = run(capsys, "report")
        _, json_out, _ = run(capsys, *REPORT_DEFAULT_JSON)
        doc = json.loads(json_out)
        assert f"unit cells            {doc['geometry']['unit_cells']}" in text_out
        assert f"rent exponent           {doc['rent_exponent']:.2f}" in text_out
        assert f"defect encoding       {doc['capacity']['defect']}" in text_out
        assert f"{doc['geometry']['plane_area_m2'] * 1e6:.4g} mm^2" in text_out

    def test_set_crossbars_moves_rent_exponent(self, capsys):
        code, out, _ = run(capsys, "report", "--set", "x=200", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert 0.49 <= doc["rent_exponent"] <= 0.50

    def test_pin_cp(self, capsys):
        code, out, _ = run(capsys, "report", "--pin-cp", "700fF", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["power"]["parasitic_pinned"] is True
        assert doc["power"]["used_parasitic_f"] == pytest.approx(700e-15)
        assert doc["power"]["array"]["pulsed_w"] == pytest.approx(91.75e-3, rel=1e-3)

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "report", "--format", "csv")
        assert code == 0
        rows = dict((r[0], r[1]) for r in csv.reader(io.StringIO(out)) if r)
        assert rows["lines.quantum_plane.total"] == "16836"

    def test_config_file_and_line_diagnostics(self, capsys, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("[array]\nx = 200\n")
        code, out, _ = run(capsys, "report", "--config", str(good), "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["array"]["crossbars"] == 200

        bad = tmp_path / "bad.cfg"
        bad.write_text("[array]\nx = 200\nwidth = 3\n")
        code, _, err = run(capsys, "report", "--config", str(bad))
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("argv", [["report"], ["sweep", "x", "1"], ["verify"], ["simulate"]],
                             ids=["report", "sweep", "verify", "simulate"])
    def test_config_file_that_is_not_utf8_is_named(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[array]\n# caf\xe9\nx = 200\n")
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read config file {str(path)!r}: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("error:") == 1 and err.count("\n") == 1

    def test_invalid_config_exits_1(self, capsys):
        code, _, err = run(capsys, "report", "--set", "m_r=100")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            *(pytest.param(["report", "--set", override], named, id=override) for override, named in [
                ("x=1e400", "array.crossbars"),
                ("d=1e400m", "array.qubit_pitch"),
                ("w=1e400", "interconnect.line_width"),
                ("dv_fine=0", "fine_resolution_v"),
                ("dv_coarse=0", "coarse_resolution_v"),
                ("d=1e300", "array.qubit_pitch"),            # round(inf) nanometres
                ("lines_per_layer=1e308", "interconnect.lines_per_layer"),  # past 2**53
                ("v_p=1e300", "power.per_cell.pulsed_w"),    # V^2 overflows to inf
                ("d=1e290", "geometry.plane_area_m2"),       # plane edge squared overflows
                ("c_per_um=1e300", "power.per_cell.line_w"),  # (pi*C)^2 overflows
                ("v_t=1e290", "power.per_cell.line_w"),       # (V*f)^2 overflows
                ("dv_fine=1e-300", "fine_resolution_v"),      # dV^2 underflows to 0
                ("line_gap=9e15", "line_gap_m"),               # gap/(gap + 2w) rounds to 1
                ("w=5e-324", "line_width_m"),
            ]),
            pytest.param(["verify", "--set", "d=1e308"], "array.qubit_pitch", id="verify-d=1e308"),
            pytest.param(["sweep", "v_p", "1e300", "--format", "json"], "v_p=1e300: value array_total_w",
                         id="sweep-v_p=1e300"),
            pytest.param(["sweep", "d", "1e290", "--format", "json"], "d=1e290: value array_total_w",
                         id="sweep-d=1e290"),
            pytest.param(["sweep", "w", "1e-300"], "line_width_m", id="sweep-w=1e-300"),
            pytest.param(["report", "--set", "dv_coarse=1e300", "--set", "dv_fine=1e200"], "fine_resolution_v",
                         id="dv_fine=1e200-squared-overflows"),
            pytest.param(["report", "--set", "drift=5e-324", "--set", "dv_fine=10", "--set", "dv_coarse=100"],
                         "drift_v_per_s / fine_resolution_v underflows to a zero refresh rate", id="zero-refresh"),
        ],
    )
    def test_out_of_range_value_exits_1(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0]
        assert "Traceback" not in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["lines"]["unit_cell"]["total"] == 74

    def test_report_is_deterministic(self, capsys):
        _, first, _ = run(capsys, *REPORT_DEFAULT_JSON)
        _, second, _ = run(capsys, *REPORT_DEFAULT_JSON)
        assert first == second

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pin_cp_of_negative_zero_is_zero(self, capsys, fmt):
        negative = run(capsys, "report", "--pin-cp=-0", "--format", fmt)
        assert negative == run(capsys, "report", "--pin-cp=0", "--format", fmt)
        assert negative[0] == 0 and "-0.0" not in negative[1]


class TestSweep:
    def test_crossbar_sweep_monotone(self, capsys):
        code, out, _ = run(capsys, "sweep", "x", "0,10,100,1000", "--format", "json")
        assert code == 0
        records = json.loads(out)
        values = [r["rent_exponent"] for r in records]
        assert values == sorted(values)
        assert all(r["valid"] for r in records)

    def test_pitch_sweep_flips_feasibility(self, capsys):
        code, out, _ = run(capsys, "sweep", "d", "10um,13um,20um")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        flags = [r["pitch_feasible"] for r in rows]
        assert flags == ["False", "True", "True"]
        assert [r["value"] for r in rows] == ["10um", "13um", "20um"]

    def test_infeasible_points_kept(self, capsys):
        code, out, _ = run(capsys, "sweep", "m_r", "100,128", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["valid"] for r in records] == [False, True]
        assert records[0]["rent_exponent"] is None
        assert "!=" in records[0]["violations"]

    def test_non_power_of_two_readout_flagged(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "x", "0,1", "--format", "json",
            "--set", "n_b=3", "--set", "m_b=2", "--set", "n_r=3",
            "--set", "m_r=2", "--set", "q=3", "--set", "r=3",
        )
        assert code == 0
        records = json.loads(out)
        assert all(not r["valid"] for r in records)
        assert all("power of two" in r["violations"] for r in records)

    def test_empty_value_list(self, capsys):
        code, out, _ = run(capsys, "sweep", "x", ",")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows == []

    def test_empty_value_list_json(self, capsys):
        assert run(capsys, "sweep", "x", ",", "--format", "json") == (0, "[]\n", "")

    def test_swept_key_resolves_once(self, capsys, monkeypatch):
        calls = []
        resolve = config._resolve
        monkeypatch.setattr(config, "_resolve", lambda *args: calls.append(args) or resolve(*args))
        code, out, _ = run(capsys, "sweep", "x", "1,2,3,4,5", "--set", "t_r=2us")
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 5
        assert calls == [(None, "t_r"), (None, "x")]

    @pytest.mark.parametrize("argv, message", [
        (("foo.x", "1"), "error: unknown section 'foo' in override 'foo.x=1'\n"),
        (("line_length", "1um"),
         "error: ambiguous key 'line_length'; qualify as one of: signals.line_length, interconnect.line_length\n"),
        (("nosuch", "1,2"), "error: unknown key 'nosuch' in any section\n"),
    ], ids=["unknown-section", "ambiguous", "unknown-key"])
    def test_bad_swept_key_message(self, capsys, argv, message):
        assert run(capsys, "sweep", *argv) == (1, "", message)

    def test_unknown_parameter_exits_1(self, capsys):
        code, _, err = run(capsys, "sweep", "qubits", "1,2")
        assert code == 1
        assert "unknown key" in err

    def test_zero_resolution_exits_1(self, capsys):
        code, out, err = run(capsys, "sweep", "dv_fine", "1uV,0")
        assert code == 1
        assert out == ""
        assert err == "error: sweep point dv_fine=0: fine_resolution_v must be strictly positive (got 0.0)\n"


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_point_exits_1(self, capsys, fmt):
        code, out, err = run(capsys, "sweep", "w", "1um,1e308", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "error: sweep point w=1e308: value array_total_w is not finite (inf)\n"

    @pytest.mark.parametrize("fields", [(f,) for f in _SPOILERS] + list(itertools.combinations(_SPOILERS, 2)))
    def test_non_finite_float_field_named_first_in_field_order(self, capsys, monkeypatch, fields):
        for field in fields:
            owner, name, spoil, _ = _SPOILERS[field]
            stage = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, stage=stage, spoil=spoil: spoil(stage(*args)))
        first = min(fields, key=SWEEP_FIELDS.index)
        message = f"error: sweep point x=1: value {first} is not finite ({_SPOILERS[first][3]})\n"
        assert run(capsys, "sweep", "x", "1,2") == (1, "", message)

    def test_missing_config_file_noted_once(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        code, out, err = run(capsys, "sweep", "x", "0,1,2", "--config", str(missing))
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 3
        assert err == f"note: config file {str(missing)!r} not found, using defaults\n"

    @pytest.mark.parametrize("option, message", [
        (("--set", "foo=1"), "error: unknown key 'foo' in any section\n"),
        (("--pin-cp", "abc"), "error: cannot parse quantity 'abc'\n"),
        (("--pin-cp=-1fF",), "error: pinned parasitic capacitance must be non-negative\n"),
        (("--pin-cp=",), "error: cannot parse quantity ''\n"),
    ], ids=["base-override", "pin-cp", "negative-pin-cp", "empty-pin-cp"])
    def test_bad_base_fails_before_first_point(self, capsys, option, message):
        code, out, err = run(capsys, "sweep", "x", ",", *option)
        assert code == 1
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("argv", [("sweep", "n_b", "0,7"), ("sweep", "t_r", "1ns,2ns"), ("report",)],
                             ids=["all-points-rejected", "all-points-valid", "report"])
    def test_negative_pin_cp_exits_1_with_one_line(self, capsys, argv):
        message = "error: pinned parasitic capacitance must be non-negative\n"
        assert run(capsys, *argv, "--pin-cp=-1fF") == (1, "", message)

    def test_empty_pin_cp_exits_1_with_one_line(self, capsys):
        assert run(capsys, "report", "--pin-cp=") == (1, "", "error: cannot parse quantity ''\n")

    def test_base_value_of_the_swept_key_is_never_parsed(self, capsys):
        code, out, err = run(capsys, "sweep", "x", "1,2", "--set", "x=abc")
        assert (code, err) == (0, "")
        assert [r["value"] for r in csv.DictReader(io.StringIO(out))] == ["1", "2"]

    @pytest.mark.parametrize("fmt, out", [("csv", ",".join(SWEEP_FIELDS) + "\r\n"), ("json", "[]\n")])
    def test_no_points_parse_no_base_value(self, capsys, fmt, out):
        assert run(capsys, "sweep", "x", "", "--set", "w=abc", "--format", fmt) == (0, out, "")

    def test_bad_later_point_names_its_override(self, capsys):
        message = "error: override 'x=abc': bad value for array.crossbars: cannot parse quantity 'abc'\n"
        assert run(capsys, "sweep", "x", "1,abc") == (1, "", message)

    def test_section_rule_fails_a_point_the_array_rules_reject(self, capsys):
        # until its first valid point a sweep checks every other section before the array
        code, out, err = run(capsys, "sweep", "x", "--set", "drift=-1", "--", "-1,5")
        assert (code, out) == (1, "")
        assert err == "error: sweep point x=-1: drift_v_per_s must be strictly positive (got -1.0)\n"

    @pytest.mark.parametrize("values", ["7", "7,32"])
    def test_invalid_unswept_section_is_named_at_an_array_rejection(self, capsys, values):
        message = "error: sweep point n_b=7: readout_s must be non-negative\n"
        assert run(capsys, "sweep", "n_b", values, "--set", "t_r=-1") == (1, "", message)

    def test_array_rejection_under_valid_sections_is_a_rejected_row(self, capsys):
        code, out, err = run(capsys, "sweep", "t_r", "1ns", "--set", "n_b=7")
        assert (code, err) == (0, "")
        records = list(csv.DictReader(io.StringIO(out)))
        assert [(r["value"], r["valid"]) for r in records] == [("1ns", "False")]
        assert records[0]["violations"].startswith("bias and readout tilings")

    def test_report_names_the_array_first(self, capsys):
        code, out, err = run(capsys, "report", "--set", "t_r=-1", "--set", "n_b=7")
        assert (code, out) == (1, "")
        assert err.startswith("error: bias and readout tilings") and len(err.splitlines()) == 1

    def test_one_cell_point_is_recorded_as_rejected(self, capsys):
        one_cell = ["--set", "n_b=1", "--set", "m_b=1", "--set", "n_r=1", "--set", "q=1", "--set", "r=1"]
        code, out, err = run(capsys, "sweep", "m_r", "2,1", *one_cell)
        assert (code, err) == (0, "")
        records = list(csv.DictReader(io.StringIO(out)))
        assert [(r["value"], r["valid"]) for r in records] == [("2", "False"), ("1", "False")]
        message = "a plane of one unit cell has no Rent exponent: bias_module_edge*bias_grid_edge = 1"
        assert records[1]["violations"] == message
        assert records[0]["violations"].startswith("bias and readout tilings")
        assert records[0]["violations"].endswith("; " + message)

    def test_leading_negative_value_needs_the_separator(self, capsys):
        code, out, err = run(capsys, "sweep", "x", "-1,5")
        assert (code, out) == (1, "")
        assert "required: values" in err
        code, out, _ = run(capsys, "sweep", "x", "--", "-1,5")
        assert code == 0
        assert [r["valid"] for r in csv.DictReader(io.StringIO(out))] == ["False", "True"]


# Strings that could break a writer that splices encoded text: the record
# separator itself, quotes, backslashes, control characters, non-ASCII and the
# ``%`` of a format layout.
_NASTY = st.sampled_from([
    '},\n    {', '",\n  "', '", "', ", ", '"', "\\", "\\u0000", "\x00\x1f\n\r\t",
    "µm Ω ü 中 \U0001f600", "", "%", "%s", "%%d",
])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1]),
    st.text(),
    _NASTY,
)


def _dictwriter_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_FIELDS)
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    return buf.getvalue()


def _sweep_points(*values: str) -> list[dict]:
    return [sweep_record("x", v, load_config(overrides=[f"x={v}"])) for v in values]


class TestSweepWriters:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.one_of(st.text(), _NASTY), _SCALARS, max_size=8), max_size=6))
    @example([])
    @example([{}])
    @example([{"a": 1}, {}, {"b": None}])
    @example([{"a": 1}, {"b": 2}, {"a": 3}])
    @example([{"list": [1, {"b": None, "a": [0.5]}], "nested": {"d": {"e": []}, "c": (True,)}}, {"nested": {}}])
    def test_json_is_the_indent_2_sorted_layout(self, records):
        expected = json.dumps(records, indent=2, sort_keys=True, allow_nan=False)
        assert writers.value(records) == expected

    def test_json_of_real_records(self):
        records = _sweep_points("-1", "0", "200")
        assert writers.value(records) == json.dumps(records, indent=2, sort_keys=True, allow_nan=False)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            writers.value([{"a": value}])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fixed_dictionaries({f: _SCALARS for f in SWEEP_FIELDS}), max_size=6))
    @example([])
    def test_csv_matches_dictwriter(self, records):
        assert _sweep_csv(records) == _dictwriter_csv(records)

    def test_csv_of_real_records(self):
        records = _sweep_points("-1", "0", "200")
        assert _sweep_csv(records) == _dictwriter_csv(records)


def _bench_config_pool() -> dict:
    """The benchmark's report configs, ``bench/inputs.CONFIG_POOL``, or none in a checkout without ``bench/``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    if not path.is_file():
        return {}
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # as its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.CONFIG_POOL


_REPORT_CONFIGS = {
    **{f"pool-{name}": (pool.overrides, pool.pin_cp, pool.file_text) for name, pool in _bench_config_pool().items()},
    "pin-zero": ((), "0", None),
    "no-crossbars": (("x=0",), None, None),
    "pitch-infeasible": (("d=25um",), None, None),
    "subnormal-readout": (("t_r=5e-324s",), None, None),
    "tiny-line-capacitance": (("c_per_um=1e-300",), None, None),
    "many-crossbars-one-line-per-layer": (("x=447", "lines_per_layer=1"), None, None),
}


class TestReportWriter:
    @pytest.mark.parametrize("overrides, pin_cp, file_text", _REPORT_CONFIGS.values(), ids=_REPORT_CONFIGS)
    def test_json_is_the_indent_2_sorted_document(self, capsys, tmp_path, overrides, pin_cp, file_text):
        path = None
        if file_text is not None:
            path = tmp_path / "pool.cfg"
            path.write_text(file_text, encoding="utf-8")
        argv = [*(("--config", str(path)) if path else ()), *(f"--set={o}" for o in overrides),
                *((f"--pin-cp={pin_cp}",) if pin_cp else ())]
        code, out, err = run(capsys, "report", "--format", "json", *argv)
        doc = report.build_report(load_config(path, list(overrides)), pin_cp and parse_quantity(pin_cp))
        assert (code, err) == (0, "")
        assert out == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


_DETAILS = st.dictionaries(st.one_of(st.text(), _NASTY), _SCALARS, max_size=5)
_CHECKS = st.lists(st.one_of(
    st.fixed_dictionaries({"check": st.one_of(st.text(), _NASTY), "passed": st.booleans(), "residual": _SCALARS}),
    st.fixed_dictionaries({"check": st.one_of(st.text(), _NASTY), "passed": st.booleans(), "residual": _SCALARS,
                           "detail": _DETAILS}),
), max_size=6)


class TestVerifyWriter:
    @settings(max_examples=300, deadline=None)
    @given(passed=st.booleans(), checks=_CHECKS)
    @example(passed=True, checks=[])
    @example(passed=False, checks=[{"check": "a", "passed": False, "residual": None, "detail": {}},
                                   {"check": '"detail": 0', "passed": True, "residual": 1e-17,
                                    "detail": {"detail": 0, '"detail": 0': "µ \"q\""}}])
    def test_is_the_indent_2_sorted_document(self, passed, checks):
        expected = json.dumps({"passed": passed, "checks": checks}, indent=2, sort_keys=True, allow_nan=False)
        assert writers.value({"checks": checks, "passed": passed}) == expected

    @pytest.mark.parametrize("check", [
        {"check": "identity:x", "passed": True, "residual": math.inf},
        {"check": "schedule:x", "passed": True, "residual": None, "detail": {"makespan_s": -math.inf}},
    ], ids=["residual", "detail"])
    def test_rejects_non_finite(self, check):
        with pytest.raises(ValueError):
            writers.value({"checks": [check], "passed": True})

    def test_infinite_residual_exits_1(self, capsys, monkeypatch):
        inf = qgates.IdentityCheck("sp-squared", math.inf)
        monkeypatch.setattr(qgates, "verify_identities", lambda corrupt=False: [inf])
        code, out, err = run(capsys, "verify", "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")

    # sha256 of each document as json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) wrote it
    @pytest.mark.parametrize("argv, code, digest", [
        ((), 0, "31f62402bb0d380ccd27d3f7f9caa2c8d021e287117eed7c54d61d0570a46e35"),
        (("--corrupt", "sp-sign"), 2, "c16fdcbd213ac9a5c3f140da259d442f2edae4f90b3c5d000de9665fadc5aaab"),
        (("--corrupt", "plaquette"), 2, "95ad408cdc4c79fe762b3c8ad2335a487488fafdb59db529f0d11891918fc561"),
    ], ids=["clean", "sp-sign", "plaquette"])
    def test_output_bytes(self, capsys, argv, code, digest):
        result = run(capsys, "verify", "--json", *argv)
        assert result[0] == code
        assert hashlib.sha256(result[1].encode("utf-8")).hexdigest() == digest


def _shipped_table_with(old: str, new: str):
    """Mutation: the shipped step table with its first ``old`` text replaced by ``new``."""
    def mutate(monkeypatch):
        text = schedule.step_table_to_text(schedule.default_step_table())
        assert old in text
        table = schedule.step_table_from_text(text.replace(old, new, 1))
        monkeypatch.setattr(schedule, "default_step_table", lambda: table)
    return mutate


def _patched(module, name: str, make):
    """Mutation: ``module.name`` replaced by ``make(old value)``."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, make(getattr(module, name)))


def _signed(module, name: str, when):
    """Mutation: the matrix that ``module.name`` returns picks up a sign on the calls whose arguments
    pass ``when``.  A sign is a global phase: it fails only the identities compared without one."""
    def make(build):
        def signed(*args):
            matrix = build(*args)
            return [[-v for v in row] for row in matrix] if when(*args) else matrix
        return signed
    return _patched(module, name, make)


def _without_last_wall(kind: str):
    """Mutation: the ``kind`` plaquette circuit loses its closing rotation wall."""
    def make(build):
        def without(k, corrupt=False):
            circuit = build(k, corrupt)
            return circuit._replace(steps=circuit.steps[:-1]) if k == kind else circuit
        return without
    return _patched(qgates, "build_plaquette", make)


# Every check that ``verify --json`` prints, in its order, with one mutation of the program,
# applied with monkeypatch, that fails that check and no other.
_VERIFY_MUTATIONS = {
    # one-qubit gates embedded on qubit 1, then on qubit 2, of a pair
    "identity:sp-from-sqrt-swap": _signed(qgates, "expand", lambda m, n, targets: (n, targets) == (2, (1,))),
    "identity:sp-dagger-from-sqrt-swap": _signed(qgates, "expand", lambda m, n, targets: (n, targets) == (2, (2,))),
    # the Kronecker products rz(90) x rz(-90), rz(-90) x rz(90) and Z x Z, told apart by their first factor
    "identity:cz-from-sp": _signed(qgates, "_kron", lambda a, b: a[0][0].imag < 0),
    "identity:cz-from-sp-dagger": _signed(qgates, "_kron", lambda a, b: a[0][0].imag > 0),
    "identity:sp-squared": _signed(qgates, "_kron", lambda a, b: a[0][0].imag == 0),
    # cnot-from-sp compares up to a global phase, so its rx rotates the other way
    "identity:cnot-from-sp": _patched(qgates, "gate", lambda gate: lambda name, *p: gate(
        name, *(-a for a in p) if name == "rx" else p)),
    "identity:hadamard-ry-z": _signed(qgates, "gate", lambda name, *p: name == "ry" and p[0] > 0),
    "identity:hadamard-z-ry": _signed(qgates, "gate", lambda name, *p: name == "ry" and p[0] < 0),
    "identity:sqrt-swap-squared": _patched(qgates, "_SWAP", lambda swap: [[float(i == j) for j in range(4)]
                                                                          for i in range(4)]),
    "plaquette:X": _without_last_wall("X"),
    "plaquette:Z": _without_last_wall("Z"),
    "schedule:census": _shipped_table_with("16 readout", "16 hook extra\n17 readout"),
    "schedule:steps-3-13-single-shuttle": _shipped_table_with("3 one_qubit D1@b", "3 one_qubit D2@b"),
    # one more shuttle round trip in the closed-form census than the program runs
    "schedule:conflict-free": _patched(model, "_GATE_WINDOWS", lambda windows: (windows[0] + 1, *windows[1:])),
}


class TestVerify:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out

    def test_corrupt_hook_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--corrupt", "sp-sign")
        assert code == 2
        assert "FAIL" in out

    def test_unknown_corruption_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "--corrupt", "swap-sign")
        assert (code, out) == (1, "")
        assert "argument --corrupt: invalid choice: 'swap-sign'" in err

    def test_json_residual_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        identity = [c for c in doc["checks"] if c["check"].startswith("identity:")]
        assert identity and all(c["residual"] < 1e-12 for c in identity)
        assert {c["check"] for c in doc["checks"]} >= {
            "plaquette:X",
            "plaquette:Z",
            "schedule:census",
            "schedule:steps-3-13-single-shuttle",
            "schedule:conflict-free",
        }

    def test_corrupt_plaquette_fails_both_kinds(self, capsys):
        code, out, _ = run(capsys, "verify", "--corrupt", "plaquette", "--json")
        assert code == 2
        failed = [c["check"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == ["plaquette:X", "plaquette:Z"]

    def test_references_composed_once_per_process(self, capsys, monkeypatch):
        # each verify composes both plaquette circuits and embeds six identity
        # gates; only the two references are kept from the first verify
        qgates.reference_plaquette.cache_clear()
        calls = {"compose": 0, "expand": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(qgates, name, counted(name, getattr(qgates, name)))
        counts = []
        for argv in (["verify"], ["verify", "--json"], ["verify"]):
            before = dict(calls)
            assert run(capsys, *argv)[0] == 0
            counts.append({name: calls[name] - before[name] for name in calls})
        assert counts == [{"compose": 4, "expand": 6}, {"compose": 2, "expand": 6}, {"compose": 2, "expand": 6}]

    def test_invalid_array_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "--set", "n_b=7")
        assert code == 1
        assert out == ""
        assert err.startswith("error: bias and readout tilings cover different plane edges")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_cycle_exits_1(self, capsys, fmt):
        # inf == inf would pass the simulated-against-closed-form check
        code, out, err = run(capsys, "verify", "--format", fmt, "--set", "t_sh=1e308")
        assert (code, out) == (1, "")
        assert err == "error: verify value makespan_s is not finite (inf)\n"

    def test_every_check_has_a_mutation(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        assert sorted(c["check"] for c in json.loads(out)["checks"]) == sorted(_VERIFY_MUTATIONS)

    @pytest.mark.parametrize("check", list(_VERIFY_MUTATIONS))
    def test_each_check_fails_on_its_own_mutation(self, capsys, monkeypatch, check):
        _VERIFY_MUTATIONS[check](monkeypatch)
        code, out, err = run(capsys, "verify", "--json")
        assert (code, err) == (2, "")
        assert [c["check"] for c in json.loads(out)["checks"] if not c["passed"]] == [check]

    def test_a_conflict_fails_every_schedule_check(self, capsys, monkeypatch):
        # no schedule check is read without the trace, so a conflicting shipped table fails all three
        _shipped_table_with("1 one_qubit D1@op1:ry(-90)", "1 one_qubit D2@op1:x D1@op1:ry(-90)")(monkeypatch)
        code, out, err = run(capsys, "verify", "--json")
        assert (code, err) == (2, "")
        checks = json.loads(out)["checks"]
        assert [c["check"] for c in checks if not c["passed"]] == [
            "schedule:census", "schedule:steps-3-13-single-shuttle", "schedule:conflict-free"]
        with pytest.raises(ScheduleConflictError) as conflict:
            schedule.simulate_cycle(schedule.default_step_table(), config.TimingParams())
        assert checks[-1]["detail"] == {"conflict": str(conflict.value)}


class TestSimulate:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "simulate")
        assert code == 0
        assert "shuttle round trips 22" in out
        assert "makespan            2.65 us" in out

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "70b7122acc9cb02e77950b0fbbb9b27f0add669b89e8929753fbf5926b22b8cb"),
        ("csv", "d513b7b2ad6c60f10112056c6116ea77d94199a1af924c1ed95816f2e6562166"),
    ])
    def test_shipped_table_output_bytes(self, capsys, fmt, digest):
        # pins event order, times and labels of the shipped cycle
        code, out, _ = run(capsys, "simulate", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_csv_trace(self, capsys):
        code, out, _ = run(capsys, "simulate", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"time_s", "step", "qubit", "op", "resource"} == set(rows[0])
        assert any(r["op"] == "readout" for r in rows)

    def test_custom_table_conflict_exits_2(self, capsys, tmp_path, cold_caches):
        table = tmp_path / "bad.steps"
        table.write_text("1 one_qubit D1@op1:ry(-90) D2@op1:ry(-90) A1@op1:ry(-90)\n")
        for _ in ("cold", "warm"):
            code, _, err = run(capsys, "simulate", "--table", str(table))
            assert code == 2
            assert "step 1" in err and "op1" in err

    @pytest.mark.parametrize("line", [
        "1 one_qubit D1@op1:x D1@op2:x",
        "1 two_qubit D1+A1@op1:rz=D1 D1+A2@op2:rz=A2",
        "1 readout D1@op1 D1@op2",
    ], ids=["one-qubit", "two-pairs", "readout"])
    def test_qubit_in_two_regions_exits_2(self, capsys, tmp_path, line, cold_caches):
        table = tmp_path / "twice.steps"
        table.write_text(line + "\n")
        for _ in ("cold", "warm"):
            code, out, err = run(capsys, "simulate", "--table", str(table))
            assert code == 2
            assert out == ""
            assert err == "schedule conflict: step 1: qubit 'D1' is in 2 regions (op1, op2) in one window\n"

    @pytest.mark.parametrize("text, step, message", [
        ("1 one_qubit+park A1@op1:x\n2 readout A1@op1 A1@op1\n", 2, None),
        ("1 readout A1@op1 A1@op1 A1@op1\n", 1, "qubit 'A1' is listed 3 times in one window"),
    ], ids=["twice", "three-times"])
    def test_readout_listing_a_qubit_again_exits_2(self, capsys, tmp_path, text, step, message, cold_caches):
        table = tmp_path / "again.steps"
        table.write_text(text)
        for _ in ("cold", "warm"):
            code, out, err = run(capsys, "simulate", "--table", str(table))
            assert (code, out) == (2, "")
            assert err.startswith(f"schedule conflict: step {step}: ") and "A1" in err
            assert len(err.splitlines()) == 1
            assert message is None or err == f"schedule conflict: step {step}: {message}\n"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_non_finite_times_exit_1(self, capsys, fmt):
        code, out, err = run(capsys, "simulate", "--format", fmt, "--set", "t_sh=1e307")
        assert code == 1
        assert out == ""
        assert err == "error: simulate value makespan_s is not finite (inf)\n"

    @pytest.mark.parametrize("fmt, value, digest", [
        ("text", "1e306s", "74a5de06314f21b1d0bd886ab85b038cd27b267c0e46e3b9bf0462a3dfd06561"),
        ("csv", "1e306s", "12ecd2a647f8a1a8838b7a21139013190064dcd0366f670ebead5d14c180ec7c"),
        ("json", "1e306s", "e56a3a14a20e18df70b7134c45fab4067355051736c70a6b47b4f4403888a621"),
        ("text", "1e307s", None), ("csv", "1e307s", None), ("json", "1e307s", None),
    ])
    def test_window_times_whose_sum_overflows(self, capsys, fmt, value, digest):
        # at 1e306 s every window time is finite but their sum is not, so the check falls back to
        # naming the non-finite events, and names none; at 1e307 s the makespan itself overflows
        code, out, err = run(capsys, "simulate", "--format", fmt, "--set", f"t_sh={value}")
        if digest is None:
            assert (code, out, err) == (1, "", "error: simulate value makespan_s is not finite (inf)\n")
        else:
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_commands_never_expand_the_events(self, capsys, monkeypatch, tmp_path):
        """The writers, every simulate format and verify read the per-step runs only."""
        def refuse(trace):
            raise AssertionError("EventTrace.events was expanded")

        table = tmp_path / "long.steps"
        bodies = ["one_qubit D1@op1:x%s A1@op2:{0}", "two_qubit A1+D1@op1:rz=A1", "hook say, \"hi\""]
        table.write_text("".join(f"{i} {bodies[i % 3]}\n" for i in range(1, 41)) + "41 readout A2@op2\n")
        monkeypatch.setattr(schedule.EventTrace, "events", property(refuse))
        trace = schedule.simulate_cycle(schedule.default_step_table(), config.TimingParams())
        assert trace.to_csv() and trace.to_json()
        for argv in ([], ["--table", str(table)]):
            for fmt in ("text", "csv", "json"):
                code, out, err = run(capsys, "simulate", "--format", fmt, *argv)
                assert (code, err) == (0, "")
                assert out
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "verify", "--format", fmt)
            assert (code, err) == (0, "")
            assert out

    def test_json_to_a_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        _, out, _ = run(capsys, "simulate", "--format", "json")
        code, _, _ = run(capsys, "simulate", "--format", "json", "--out", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == out and out.endswith("}\n")

    def test_text_counts_the_events(self, capsys, tmp_path):
        table = tmp_path / "long.steps"
        table.write_text("1 one_qubit+park D1@op1:x\n2 two_qubit A1+A2@op2:rz=A2\n3 hook\n4 readout D1@op1\n")
        code, out, _ = run(capsys, "simulate", "--table", str(table))
        trace = schedule.simulate_cycle(schedule.load_step_table(table), config.TimingParams())
        assert code == 0
        assert f"events              {len(trace.events)}\n" in out
        assert len(trace.events) == 2 + 15 + 1 + 1

    @pytest.mark.parametrize("times, err", [
        ((0.0, float("inf"), 1.0), "error: simulate value event 1 time_s is not finite (inf)\n"),
        ((0.0, 1.0, float("nan")), ""),  # no event reads the third window time
    ], ids=["event", "unused-slot"])
    def test_non_finite_window_time(self, capsys, monkeypatch, times, err):
        template = ((0, "D1", "shuttle_out", "D1~op1"), (1, "D1", "1q_gate:x", "op1"))
        trace = schedule.EventTrace(((1, times, template),), {}, 2.0)
        monkeypatch.setattr(schedule, "simulate_cycle", lambda table, timing: trace)
        code, out, stderr = run(capsys, "simulate", "--format", "csv")
        assert stderr == err
        assert (code, out == "") == ((1, True) if err else (0, False))

    def test_step_index_out_of_order_exits_1(self, capsys, tmp_path):
        table = tmp_path / "order.steps"
        table.write_text("1 hook start\n2 hook middle\n2 hook again\n")
        code, out, err = run(capsys, "simulate", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == "error: line 3: step index 2 repeats or is out of order\n"

    @pytest.mark.parametrize("kind, item", [
        ("one_qubit", "@op1:x"), ("one_qubit", "D1@:x"), ("one_qubit", "D1@op1:"), ("two_qubit", "A+@op1:rz=A"),
        ("two_qubit", "+B@op1:rz=B"), ("two_qubit", "A+B@op1:A"), ("readout", "@op1"), ("readout", "D1@"),
        ("two_qubit", "A+B+C@op1:rz=A"), ("one_qubit", "D1@op1@op2:x"), ("readout", "D1@op1:x"),
        ("two_qubit", "A+A@op1:rz=A"), ("one_qubit", "q@a+b:x"), ("two_qubit", "A1+D1@a+b:rz=A1"),
        ("readout", "A1@a+b"),
    ], ids=["empty-qubit", "empty-region", "empty-gate", "empty-second-member", "empty-first-member",
            "pair-without-rz", "readout-empty-qubit", "readout-empty-region", "plus-in-a-pair-member",
            "at-in-a-region", "colon-in-a-readout-region", "self-pair", "plus-in-a-region",
            "plus-in-a-pair-region", "plus-in-a-readout-region"])
    def test_item_that_breaks_the_grammar_exits_1(self, capsys, tmp_path, kind, item):
        table = tmp_path / "bad.steps"
        table.write_text(f"# header\n1 {kind} {item}\n")
        message = f"error: line 2: bad {kind} item {item!r}\n"
        assert run(capsys, "simulate", "--table", str(table)) == (1, "", message)

    def test_table_that_is_not_utf8_is_named(self, capsys, tmp_path):
        table = tmp_path / "latin1.steps"
        table.write_bytes(b"1 hook caf\xe9\n")
        code, out, err = run(capsys, "simulate", "--table", str(table))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read step table {str(table)!r}: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("error:") == 1 and err.count("\n") == 1

    @pytest.mark.parametrize("kind, items", [("two_qubit", "A1+D1@op1:rz=A1"), ("readout", "A1@op1"), ("hook", "x")])
    def test_park_on_a_kind_other_than_one_qubit_exits_1(self, capsys, tmp_path, kind, items):
        table = tmp_path / "park.steps"
        table.write_text(f"# header\n1 one_qubit+park A1@op1:x\n2 {kind}+park {items}\n")
        message = f"error: line 3: +park applies only to one_qubit steps, not {kind}\n"
        assert run(capsys, "simulate", "--table", str(table)) == (1, "", message)


@pytest.mark.parametrize("argv", [("simulate", "--format", "json"), ("simulate", "--format", "csv"),
                                  ("verify", "--json")], ids=["simulate-json", "simulate-csv", "verify"])
def test_times_of_negative_zero_are_zero(capsys, argv):
    """Every gate time set to ``-0ns`` reads as 0.0, so no time or makespan prints as ``-0.0``."""
    negative = run(capsys, *argv, *(f"--set={key}=-0ns" for key in ("t_sh", "t_1q", "t_sw", "t_r")))
    assert negative == run(capsys, *argv, *(f"--set={key}=0ns" for key in ("t_sh", "t_1q", "t_sw", "t_r")))
    assert negative[0] == 0 and "-0.0" not in negative[1]
    assert argv[-1] == "csv" or '"makespan_s": 0.0' in negative[1]


class TestDumpUnitary:
    def test_sp_matrix(self, capsys):
        code, out, _ = run(capsys, "dump-unitary", "sp")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4
        assert doc["matrix"][1][1] == [0.0, 1.0]
        assert doc["matrix"][3][3] == [-1.0, 0.0]

    def test_rotation_with_angle(self, capsys):
        code, out, _ = run(capsys, "dump-unitary", "rz", "3.141592653589793")
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"][0][0][1] == pytest.approx(-1.0)

    def test_unknown_gate_exits_1(self, capsys):
        code, _, err = run(capsys, "dump-unitary", "toffoli")
        assert code == 1
        assert "unknown gate" in err

    @pytest.mark.parametrize("argv", [("rz", "-0"), ("rz", "--", "-0.0")], ids=["minus-0", "minus-0.0"])
    def test_signed_zero_angle_reads_as_zero(self, capsys, argv):
        """Angles parse as every config quantity does, so a signed zero is the bytes of ``rz 0``."""
        code, out, err = run(capsys, "dump-unitary", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"] == [0.0] and '"params": [\n    0.0\n  ]' in out
        assert out == run(capsys, "dump-unitary", "rz", "0")[1]

    @pytest.mark.parametrize("angle", ["nan", "inf", "1e400"])
    def test_non_finite_angle_exits_1(self, capsys, angle):
        code, out, err = run(capsys, "dump-unitary", "rz", angle)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("angle", ["5ns", "500m", "1V", "2 rad", "1e-3e"])
    def test_unit_suffix_on_an_angle_exits_1(self, capsys, angle):
        """An angle is a bare number of radians: ``500m`` is not 500 metres, nor 0.5."""
        code, out, err = run(capsys, "dump-unitary", "rz", angle)
        assert (code, out) == (1, "")
        assert err.startswith("error: unit suffix ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("angle, value", [(".5", 0.5), ("1e-3", 1e-3), ("2.5E+0", 2.5)])
    def test_bare_angle_is_radians(self, capsys, angle, value):
        code, out, err = run(capsys, "dump-unitary", "rz", angle)
        assert (code, err) == (0, "")
        matrix = [[[v.real, v.imag] for v in row] for row in qgates.gate("rz", value)]
        assert out == json.dumps({"gate": "rz", "params": [value], "dim": 2, "matrix": matrix}, indent=2) + "\n"

    @pytest.mark.parametrize("angle, value", [("-1e-3", -1e-3), ("-2.5E+0", -2.5)])
    def test_negative_angle_after_double_dash(self, capsys, angle, value):
        code, out, err = run(capsys, "dump-unitary", "rz", "--", angle)
        assert (code, err) == (0, "")
        matrix = [[[v.real, v.imag] for v in row] for row in qgates.gate("rz", value)]
        assert out == json.dumps({"gate": "rz", "params": [value], "dim": 2, "matrix": matrix}, indent=2) + "\n"

    def test_help_says_a_negative_angle_goes_after_double_dash(self, capsys):
        code, out, _ = run(capsys, "dump-unitary", "--help")
        assert code == 0
        assert "-1e-3, goes after '--'" in " ".join(out.split())


# a value of each config section that breaks one of its rules, and the error it gives
_BROKEN_SECTIONS = {
    "array": ("n_b=7", "bias and readout tilings cover different plane edges: "),
    "electronics": ("dv_fine=0", "fine_resolution_v must be strictly positive (got 0.0)"),
    "timing": ("t_r=-1ns", "readout_s must be non-negative"),
    "signals": ("v_p=-1", "pulse_amplitude_v must be non-negative (got -1.0)"),
    "interconnect": ("fringe_mode=full", "fringe_mode must be one of ('printed_magnitude', 'disabled')"),
}


@pytest.mark.parametrize("section", _BROKEN_SECTIONS)
@pytest.mark.parametrize("command", ["report", "sweep", "verify", "simulate"])
def test_every_command_checks_every_section_first(capsys, command, section):
    """A broken rule of any section stops every command before a model runs; only a sweep
    records a point the array rules reject, and goes on."""
    override, message = _BROKEN_SECTIONS[section]
    swept = ["t_sh", "50ns,60ns"] if command == "sweep" else []
    code, out, err = run(capsys, command, "--set", override, *swept)
    if command == "sweep" and section == "array":
        assert (code, err) == (0, "")
        records = list(csv.DictReader(io.StringIO(out)))
        assert [r["valid"] for r in records] == ["False", "False"]
        assert all(r["violations"].startswith(message) for r in records)
        return
    prefix = "error: sweep point t_sh=50ns: " if command == "sweep" else "error: "
    assert (code, out) == (1, "")
    assert err.startswith(prefix + message)
    assert len(err.splitlines()) == 1


class TestUnitSuffixes:
    @pytest.mark.parametrize("option, message", [
        (("--set", "t_sh=50nF"), "override 't_sh=50nF': bad value for timing.shuttle: unit suffix 'nF' in '50nF': "
                                 "expected a unit of s"),
        (("--set", "d=13us"), "override 'd=13us': bad value for array.qubit_pitch: unit suffix 'us' in '13us': "
                              "expected a unit of m"),
        (("--pin-cp", "700fs"), "--pin-cp: unit suffix 'fs' in '700fs': expected a unit of F"),
        (("--set", "x=5k"), "override 'x=5k': bad value for array.crossbars: unit suffix 'k' in '5k': "
                            "expected a bare number"),
        (("--set", "eps_r=3.9V"), "override 'eps_r=3.9V': bad value for interconnect.eps_r: unit suffix 'V' in "
                                  "'3.9V': expected a bare number"),
    ], ids=["shuttle-in-farads", "pitch-in-seconds", "pin-cp-in-seconds", "crossbars-in-kelvin", "eps-r-in-volts"])
    @pytest.mark.parametrize("command", [("report",), ("sweep", "t_r", "1us,2us")], ids=["report", "sweep"])
    def test_a_suffix_of_another_unit_exits_1_naming_key_and_suffix(self, capsys, command, option, message):
        assert run(capsys, *command, *option) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("option", [("--set", "t_sh=50ns"), ("--set", "d=13um"), ("--pin-cp", "700fF"),
                                        ("--set", "x=5"), ("--set", "eps_r=3.9"), ("--set", "drift=2uV/s")])
    def test_a_suffix_of_the_keys_unit_runs(self, capsys, option):
        assert run(capsys, "report", *option)[0] == 0


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("report", "--bogus"),
        ("sweep", "x"),
        ("verify", "--dump-unitary", "sp"),
        ("verify", "--format", "csv"),
        ("verify", "--pin-cp", "700fF"),
        ("simulate", "--pin-cp", "abc"),
    ], ids=["unknown-flag", "sweep-without-values", "verify-dump-unitary", "verify-csv",
            "verify-pin-cp", "simulate-pin-cp"])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    @pytest.mark.parametrize("overrides, key", [
        (["w=1e308", "h=1e308"], "power.grid_parasitic_f"),
        (["t_sh=0", "t_1q=0", "t_sw=0", "t_r=0", "t2_star=0"], "timing.parallel.coherence_ratio"),
    ], ids=["wide-grid", "zero-timing"])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_non_finite_report_exits_1(self, capsys, fmt, overrides, key):
        argv = ["report", "--format", fmt]
        for override in overrides:
            argv += ["--set", override]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: report value {key} is not finite (inf)")


# Values at and past the numeric edges: signed zeros, subnormals, magnitudes
# near the float limits, nan/inf text and malformed suffixes.
_EDGE_VALUES = st.one_of(
    st.sampled_from([
        "0", "-0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300", "-1e-300", "1e300",
        "-1e300", "1e-290", "1e290", "1e308", "-1e308", "1e400", "9e15", "nan", "-nan", "inf", "-inf",
        "Infinity", "1e", "e3", "1..2", "um", "12 um", "",
    ]),
    st.tuples(
        st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e-300, 1e300, 9e15])).map(repr),
        st.sampled_from(["", "m", "u", "n", "p", "f", "k", "M", "G", "um", "nm", "fF", "mV", "kk", "V/s"]),
    ).map("".join),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["report", "sweep", "verify", "simulate"]), st.sampled_from(config.KNOWN_KEYS),
       _EDGE_VALUES, st.sampled_from(["text", "json"]))
@example("report", "array.qubit_pitch", "1e290", "text")
@example("sweep", "array.qubit_pitch", "1e290", "json")
@example("report", "signals.cap_per_length", "1e300", "text")
@example("report", "signals.line_amplitude", "1e290", "text")
@example("report", "electronics.fine_resolution", "1e-300", "text")
@example("report", "interconnect.line_gap", "9e15", "text")
@example("report", "interconnect.line_width", "5e-324", "text")
@example("sweep", "interconnect.line_width", "1e-300", "text")
def test_edge_values_keep_the_exit_code_contract(command, key, value, fmt):
    if command == "sweep":
        argv = ["sweep", "--format", fmt, "--", key, value]
    else:
        argv = [command, "--set", f"{key}={value}", "--format", fmt]
    _assert_exit_code_contract(argv, fmt)


def _assert_exit_code_contract(argv: list[str], fmt: str) -> None:
    """Exit 0, 1 or 2, no traceback, and strict JSON on a json success."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and fmt == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)


_MAGNITUDES = ("0", "-0", "5e-324", "-5e-324", "1e-300", "1e-200", "1e-30", "1", "9e15", "1e30", "1e200",
               "1e290", "1e300", "1e308", "-1e300")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["report", "sweep", "verify", "simulate"]),
       st.dictionaries(st.sampled_from(config.KNOWN_KEYS), st.sampled_from(_MAGNITUDES), min_size=2, max_size=5),
       st.sampled_from(["text", "json"]), st.booleans())
@example("report", {"electronics.dv_coarse": "1e300", "electronics.dv_fine": "1e200"}, "text", False)
@example("report", {"electronics.dv_coarse": "1e300", "electronics.dv_fine": "1e200"}, "json", True)
@example("sweep", {"electronics.dv_coarse": "1e300", "electronics.dv_fine": "1e200"}, "json", True)
def test_extreme_key_sets_keep_the_exit_code_contract(command, values, fmt, in_file):
    """Several keys at extreme magnitudes at once, as overrides or in a config
    file; a sweep sweeps the last key over its value."""
    entries = list(values.items())
    argv = [command, "--format", fmt]
    if command == "sweep":
        argv += ["--", *entries.pop()]
    with tempfile.TemporaryDirectory() as tmp:
        if in_file:
            path = os.path.join(tmp, "extreme.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines("[{}]\n{} = {}\n".format(*key.split("."), value) for key, value in entries)
            argv[1:1] = ["--config", path]
        else:
            argv[1:1] = [f"--set={key}={value}" for key, value in entries]
        _assert_exit_code_contract(argv, fmt)


# Step-table text from the grammar's tokens: whole items (two of them overfill a region or place a
# qubit twice), and names and separators glued into items; kinds with and without +park; the line's
# own number as its index, or another token; comments, blank and stray lines, four line ends, a
# leading byte-order mark, and now and then a byte that is not UTF-8.
_TABLE_ITEMS = st.one_of(
    st.sampled_from(["D1@op1:x", "D2@op1:x", "A1@op1:rz(90)", "D1@op2:x", "A1+D1@op1:rz=A1", "A2+D2@op2:rz=D2",
                     "A1@op1", "D1@b", "lattice", "D1@op1:x D2@op1:x A1@op1:x", "D1@op1:x D1@op2:x"]),
    st.lists(st.sampled_from(["D1", "A1", "op1", "x", "rz(90)", "\x00", "中", "+", "@", ":", "=", "rz=", "+park",
                              ",", '"', "#"]), max_size=7).map("".join),
)
_TABLE_KINDS = st.sampled_from(["one_qubit", "two_qubit", "readout", "hook", "one_qubit+park", "readout+park",
                                "teleport"])
_TABLE_INDICES = st.sampled_from([None, None, None, "1", "0", "-1", "01", "x", "1e3", "\u0661", "9" * 5000])
_TABLE_LINES = st.one_of(
    st.tuples(_TABLE_INDICES, _TABLE_KINDS, st.lists(_TABLE_ITEMS, max_size=4)),
    st.sampled_from(["", "# comment", " \t ", "\ufeff1 hook", "#", "1", "hook", "1 one_qubit D1@op1:x"]),
)


@st.composite
def _step_table_bytes(draw) -> bytes:
    lines = [line if isinstance(line, str) else " ".join([line[0] or str(number), line[1], *line[2]])
             for number, line in enumerate(draw(st.lists(_TABLE_LINES, max_size=8)), start=1)]
    data = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c"])).join(lines)
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data.encode("utf-8")
    if draw(st.sampled_from([False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80", b"\xc3"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(_step_table_bytes())
@example(b"1 two_qubit A+B+C@op1:rz=A\n")
@example(b"1 one_qubit D1@op1@op2:x\n")
@example(b"1 readout D1@op1:x\n")
@example(b"1 two_qubit A+A@op1:rz=A\n")
@example(b"\xef\xbb\xbf1 one_qubit D1@op1:x D2@op1:x A1@op1:x\n")
@example(b"\xef\xbb\xbf1 one_qubit+park D1@op1:a,b\n2 hook say \"hi\"\n3 readout D1@op1\n")
def test_step_table_text_keeps_the_exit_code_contract(data):
    """Exit 0, 1 or 2 with no traceback; a 1 or a 2 is one ``error:`` or ``schedule conflict:`` line
    and no output; a json success is strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.steps")
        with open(path, "wb") as fh:
            fh.write(data)
        for fmt in ("csv", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["simulate", "--table", path, "--format", fmt])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code:
                lines = err.splitlines()
                assert len(lines) == 1 and err.endswith("\n") and out == ""
                assert lines[0].startswith("error: " if code == 1 else "schedule conflict: ")
            elif fmt == "json":
                json.loads(out, parse_constant=_reject_constant)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_set_lists_do_not_leak_between_calls(self, capsys):
        _, default, _ = run(capsys, *REPORT_DEFAULT_JSON)
        code, changed, _ = run(capsys, "report", "--set", "x=200", "--format", "json")
        assert code == 0 and changed != default
        code, again, _ = run(capsys, *REPORT_DEFAULT_JSON)
        assert code == 0 and again == default
        assert json.loads(again)["config"]["array"]["crossbars"] == 0
        assert cli.build_parser().parse_args(["report"]).overrides == []

    def test_usage_error_after_a_run_goes_to_the_current_stderr(self, capsys):
        assert run(capsys, "report")[0] == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["report", "--format", "xml"])
        assert code == 1
        assert err.getvalue().startswith("usage: spiderweb report")
        assert "spiderweb report: error: argument --format: invalid choice: 'xml'" in err.getvalue()
        assert capsys.readouterr() == ("", "")

    def test_main_asks_for_the_parser_on_every_call(self, capsys, monkeypatch):
        # the benchmark's tracer times cli.build_parser as a span of each op
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        for argv in (["report"], ["dump-unitary", "sp"], ["report", "--bogus"]):
            main(argv)
        assert len(calls) == 3


_IMPORT_PROBE = """
import contextlib, io, json, sys
import spiderweb.cli
registered = "spiderweb.qgates" in sys.modules
argvs = (["report"], ["sweep", "x", "0,1"], ["verify"], ["simulate"], ["dump-unitary", "rz", "0.5"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [spiderweb.cli.main(argv) for argv in argvs]
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
resources = "importlib.resources" in sys.modules
records = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
print(json.dumps({"codes": codes, "heavy": heavy, "registered": registered, "resources": resources,
                  "records": records}))
"""


def test_commands_run_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(spiderweb.__file__).resolve().parent.parent))
    # -S skips site, whose .pth files may load importlib.resources themselves
    for flags in ([], ["-S"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True,
            check=True,
        )
        result = json.loads(proc.stdout)
        assert result["codes"] == [0, 0, 0, 0, 0]
        assert result["heavy"] == []
        # The benchmark's tracer looks up sys.modules["spiderweb.qgates"] when it
        # installs, also in workloads that never run verify.
        assert result["registered"]
    # the last run is the -S one: site's .pth files may load these themselves
    assert not result["resources"]
    assert result["records"] == []


def _readme_commands() -> list[str]:
    """Each ``spiderweb`` line of the fenced ``sh`` block under ``## Command line`` in the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("spiderweb ")]
    assert commands, "the README's command block lists no spiderweb command"
    return commands


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs_as_written(capsys, line):
    """A command exits 0, or the ``exits N`` that its comment states."""
    program, *argv = shlex.split(line, comments=True)
    stated = re.search(r"\bexits (\d+)", line.partition("#")[2])
    code, out, err = run(capsys, *argv)
    assert (program, code) == ("spiderweb", int(stated[1]) if stated else 0), err
