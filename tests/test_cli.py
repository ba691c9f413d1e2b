import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spiderweb
from spiderweb import cli, config, electronics, power, report, schedule, wiring
from spiderweb.cli import _sweep_csv, _sweep_json, main
from spiderweb.config import load_config
from spiderweb.report import SWEEP_FIELDS, sweep_record

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
    ], ids=["base-override", "pin-cp"])
    def test_bad_base_fails_before_first_point(self, capsys, option, message):
        code, out, err = run(capsys, "sweep", "x", ",", *option)
        assert code == 1
        assert out == ""
        assert err == message

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

    def test_rejected_point_then_section_rule_names_the_later_point(self, capsys):
        code, out, err = run(capsys, "sweep", "x", "--set", "drift=-1", "--", "-1,5")
        assert (code, out) == (1, "")
        assert err == "error: sweep point x=5: drift_v_per_s must be strictly positive (got -1.0)\n"

    def test_leading_negative_value_needs_the_separator(self, capsys):
        code, out, err = run(capsys, "sweep", "x", "-1,5")
        assert (code, out) == (1, "")
        assert "required: values" in err
        code, out, _ = run(capsys, "sweep", "x", "--", "-1,5")
        assert code == 0
        assert [r["valid"] for r in csv.DictReader(io.StringIO(out))] == ["False", "True"]


# Strings that could break a writer that splices encoded text: the record
# separator itself, quotes, backslashes, control characters and non-ASCII.
_NASTY = st.sampled_from([
    '},\n    {', '",\n  "', '", "', ", ", '"', "\\", "\\u0000", "\x00\x1f\n\r\t",
    "µm Ω ü 中 \U0001f600", "",
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
    def test_json_is_the_indent_2_sorted_layout(self, records):
        expected = json.dumps(records, indent=2, sort_keys=True, allow_nan=False)
        assert _sweep_json(records) == expected

    def test_json_of_real_records(self):
        records = _sweep_points("-1", "0", "200")
        assert _sweep_json(records) == json.dumps(records, indent=2, sort_keys=True, allow_nan=False)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            _sweep_json([{"a": value}])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fixed_dictionaries({f: _SCALARS for f in SWEEP_FIELDS}), max_size=6))
    @example([])
    def test_csv_matches_dictwriter(self, records):
        assert _sweep_csv(records) == _dictwriter_csv(records)

    def test_csv_of_real_records(self):
        records = _sweep_points("-1", "0", "200")
        assert _sweep_csv(records) == _dictwriter_csv(records)


class TestVerify:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out

    def test_corrupt_hook_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--corrupt", "sp-sign")
        assert code == 2
        assert "FAIL" in out

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

    def test_custom_table_conflict_exits_2(self, capsys, tmp_path):
        table = tmp_path / "bad.steps"
        table.write_text("1 one_qubit D1@op1:ry(-90) D2@op1:ry(-90) A1@op1:ry(-90)\n")
        code, _, err = run(capsys, "simulate", "--table", str(table))
        assert code == 2
        assert "step 1" in err and "op1" in err

    @pytest.mark.parametrize("line", [
        "1 one_qubit D1@op1:x D1@op2:x",
        "1 two_qubit D1+A1@op1:rz=D1 D1+A2@op2:rz=A2",
        "1 readout D1@op1 D1@op2",
    ], ids=["one-qubit", "two-pairs", "readout"])
    def test_qubit_in_two_regions_exits_2(self, capsys, tmp_path, line):
        table = tmp_path / "twice.steps"
        table.write_text(line + "\n")
        code, out, err = run(capsys, "simulate", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err == "schedule conflict: step 1: qubit 'D1' is in 2 regions (op1, op2) in one window\n"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_non_finite_times_exit_1(self, capsys, fmt):
        code, out, err = run(capsys, "simulate", "--format", fmt, "--set", "t_sh=1e307")
        assert code == 1
        assert out == ""
        assert err == "error: simulate value makespan_s is not finite (inf)\n"

    def test_commands_never_expand_the_events(self, capsys, monkeypatch, tmp_path):
        """The writers and every simulate format read the per-step runs only."""
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
