import copy
import csv
import hashlib
import io
import itertools
import pickle
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import schedule_oracle
from spiderweb import schedule
from spiderweb.errors import ScheduleConflictError
from spiderweb.config import TimingParams
from spiderweb.model import CYCLE_CENSUS, ArrayConfig, cycle_time, readout_windows
from spiderweb.schedule import (
    HOME_QUBITS,
    Event,
    EventTrace,
    PairGate,
    SoloGate,
    Step,
    StepTable,
    default_step_table,
    simulate_cycle,
    step_table_from_text,
    step_table_to_text,
)

REFERENCE = ArrayConfig()
TIMING = TimingParams()


def random_timing(rng: random.Random) -> TimingParams:
    return TimingParams(
        shuttle_s=rng.uniform(0, 200e-9),
        single_qubit_s=rng.uniform(0, 100e-9),
        exchange_s=rng.uniform(0, 100e-9),
        readout_s=rng.uniform(0, 5e-6),
        dephasing_s=rng.uniform(1e-6, 100e-6),
    )


def home_movers(trace: EventTrace) -> dict[int, set[str]]:
    """The home qubits each step shuttles out, read from the trace's events."""
    movers: dict[int, set[str]] = {}
    for event in trace.events:
        movers.setdefault(event.step, set())
        if event.op == "shuttle_out" and event.qubit in HOME_QUBITS:
            movers[event.step].add(event.qubit)
    return movers


class TestDefaultTable:
    def test_parsed_once(self):
        assert default_step_table() is default_step_table()

    def test_census_matches_cycle_coefficients(self):
        census = simulate_cycle(default_step_table(), TIMING).counters
        assert CYCLE_CENSUS == {"shuttle_round_trips": 22, "one_qubit_gates": 14, "exchanges": 8,
                                "readout_phases": 1}
        assert list(census.items()) == [*CYCLE_CENSUS.items(), ("steps", 16)]

    def test_steps_3_and_13_move_only_data_qubit_1(self):
        table = default_step_table()
        movers = home_movers(simulate_cycle(table, TIMING))
        for index in (3, 13):
            assert table.steps[index - 1].index == index
            assert movers[index] == {"D1"}

    def test_no_other_step_is_home_solo(self):
        solo = [index for index, movers in home_movers(simulate_cycle(default_step_table(), TIMING)).items()
                if len(movers) == 1]
        assert solo == [3, 13]

    def test_readout_is_the_final_step(self):
        table = default_step_table()
        assert table.steps[-1].kind == "readout"
        assert {g.qubit for g in table.steps[-1].gates} == {"A1", "A2"}

    def test_text_round_trip(self):
        table = default_step_table()
        assert step_table_from_text(step_table_to_text(table)) == table

    def test_home_qubit_roles(self):
        assert HOME_QUBITS == ("D1", "D2", "A1", "A2")


def conflict_cold_and_warm(table: StepTable) -> ScheduleConflictError:
    """Simulate a conflicting table twice: first on the caches the test left (empty,
    under ``cold_caches``), then on the plans the first run kept.  Both runs must
    raise the same error; the second one is returned."""
    seen = []
    for _ in ("cold", "warm"):
        with pytest.raises(ScheduleConflictError) as err:
            simulate_cycle(table, TIMING)
        seen.append((str(err.value), err.value.step, err.value.resource, err.value.occupants, err.value.capacity))
    assert seen[0] == seen[1]
    return err.value


class TestCycleTime:
    def test_reference_mixed(self):
        ct = cycle_time(TIMING, REFERENCE, "mixed")
        assert ct.total_s == pytest.approx(5.65e-6, rel=1e-12)
        assert ct.coherence_ratio > 3.0

    def test_reference_parallel(self):
        ct = cycle_time(TIMING, REFERENCE, "parallel")
        assert ct.total_s == pytest.approx(2.65e-6, rel=1e-12)

    def test_reference_sequential(self):
        ct = cycle_time(TIMING, REFERENCE, "sequential")
        assert ct.total_s == pytest.approx(22 * 50e-9 + 14 * 25e-9 + 8 * 25e-9 + 4e-6, rel=1e-12)

    def test_all_zero_times(self):
        zero = TimingParams(0.0, 0.0, 0.0, 0.0, 0.0)
        assert cycle_time(zero, REFERENCE, "mixed").total_s == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="readout mode"):
            cycle_time(TIMING, REFERENCE, "serial")

    def test_each_mode_is_the_census_sum_bit_for_bit(self):
        rng = random.Random(25)
        split = REFERENCE._replace(sequential_readouts=2, parallel_readouts=8)  # mixed and sequential differ
        for _ in range(100):
            t = random_timing(rng)
            for cfg in (REFERENCE, split):
                for mode, m in (("parallel", 1), ("mixed", cfg.sequential_readouts),
                                ("sequential", cfg.readout_module_edge)):
                    assert readout_windows(cfg, mode) == m
                    total = 22 * t.shuttle_s + 14 * t.single_qubit_s + 8 * t.exchange_s + m * t.readout_s
                    assert cycle_time(t, cfg, mode).total_s == total

    def test_readout_mode_monotonicity_over_random_timings(self):
        rng = random.Random(20260808)
        for _ in range(100):
            t = random_timing(rng)
            parallel = cycle_time(t, REFERENCE, "parallel").total_s
            mixed = cycle_time(t, REFERENCE, "mixed").total_s
            sequential = cycle_time(t, REFERENCE, "sequential").total_s
            assert parallel <= mixed <= sequential


class TestSimulation:
    def test_conflict_free_and_exact_makespan(self):
        trace = simulate_cycle(default_step_table(), TIMING)
        assert trace.makespan_s == cycle_time(TIMING, REFERENCE, "parallel").total_s

    def test_makespan_matches_formula_for_random_timings(self):
        rng = random.Random(42)
        table = default_step_table()
        for _ in range(20):
            t = random_timing(rng)
            trace = simulate_cycle(table, t)
            assert trace.makespan_s == cycle_time(t, REFERENCE, "parallel").total_s

    def test_electron_conservation(self):
        trace = simulate_cycle(default_step_table(), TIMING)
        outs: dict[str, int] = {}
        backs: dict[str, int] = {}
        last: dict[str, str] = {}
        for event in trace.events:
            if event.op == "shuttle_out":
                outs[event.qubit] = outs.get(event.qubit, 0) + 1
            elif event.op == "shuttle_back":
                backs[event.qubit] = backs.get(event.qubit, 0) + 1
            if event.op.startswith("shuttle"):
                last[event.qubit] = event.op
        assert outs == backs
        # every qubit's final movement returns it to its home vertex
        assert set(last.values()) == {"shuttle_back"}

    def test_event_times_within_makespan(self):
        trace = simulate_cycle(default_step_table(), TIMING)
        assert all(0.0 <= e.time_s <= trace.makespan_s for e in trace.events)
        times = [e.time_s for e in trace.events]
        assert times == sorted(times)

    def test_hook_step_annotated(self):
        trace = simulate_cycle(default_step_table(), TIMING)
        assert any("lattice_surgery_interrupt" in a for a in trace.annotations)

    def test_region_overload_rejected_with_location(self, cold_caches):
        text = step_table_to_text(default_step_table())
        corrupted = text.replace("D2@op2:ry(-90)", "D2@op1:ry(-90)", 1)
        err = conflict_cold_and_warm(step_table_from_text(corrupted))
        assert err.step == 1
        assert err.resource == "op1"
        assert len(err.occupants) == 3

    def test_channel_overuse_rejected(self, cold_caches):
        # the one way to fill channel D1~op1 twice is to list D1 twice in op1, which the listing rule names
        step = Step(1, "one_qubit", gates=(
            SoloGate("D1", "op1", "ry(-90)"),
            SoloGate("D1", "op1", "rz(90)"),
        ))
        err = conflict_cold_and_warm(StepTable((step,)))
        assert (err.resource, err.occupants, err.capacity) == ("D1", ("op1", "op1"), 1)
        assert str(err) == "step 1: qubit 'D1' is listed 2 times in one window"

    @pytest.mark.parametrize("text", [
        "1 one_qubit D1@op1:x D1@op2:x\n",
        "1 two_qubit D1+A1@op1:rz=D1 D1+A2@op2:rz=A2\n",
        "1 readout D1@op1 D1@op2\n",
    ], ids=["one-qubit", "two-pairs", "readout"])
    def test_qubit_in_two_regions_rejected(self, text, cold_caches):
        err = conflict_cold_and_warm(step_table_from_text(text))
        assert err.step == 1
        assert err.resource == "D1"
        assert err.occupants == ("op1", "op2")
        assert "qubit 'D1' is in 2 regions (op1, op2)" in str(err)

    @pytest.mark.parametrize("text, step, message", [
        ("1 one_qubit+park A1@op1:x\n2 readout A1@op1 A1@op1\n", 2, None),
        ("1 readout A1@op1 A1@op1 A1@op1\n", 1, "step 1: qubit 'A1' is listed 3 times in one window"),
    ], ids=["twice", "three-times"])
    def test_readout_listing_a_qubit_again_rejected(self, text, step, message, cold_caches):
        # one electron listed three times is named once, not counted as three in its region
        err = conflict_cold_and_warm(step_table_from_text(text))
        assert err.step == step and "A1" in str(err)
        assert message is None or str(err) == message

    @pytest.mark.parametrize("item", ["a~@b:x", "a@~b:x", "a~b@op1", "a+b~@op1:rz=a"])
    def test_a_name_holding_the_lane_separator_is_rejected(self, item):
        # a lane is the label qubit~region, so "a~" to "b" and "a" to "~b" would print as one resource a~~b
        kind = "readout" if ":" not in item else "two_qubit" if "+" in item else "one_qubit"
        with pytest.raises(ValueError) as err:
            step_table_from_text(f"1 {kind} {item}\n")
        assert str(err.value) == f"line 1: bad {kind} item {item!r}"

    def test_qubit_listed_twice_names_it(self, cold_caches):
        err = conflict_cold_and_warm(step_table_from_text("1 readout D1@op1 A1@op2 A1@op2\n"))
        assert (err.resource, err.occupants, err.capacity) == ("A1", ("op2", "op2"), 1)
        assert str(err) == "step 1: qubit 'A1' is listed 2 times in one window"

    def test_csv_export_shape(self):
        trace = simulate_cycle(default_step_table(), TIMING)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "time_s,step,qubit,op,resource"
        assert len(lines) == len(trace.events) + 1
        assert all(line.count(",") == 4 for line in lines)

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a,b+c@d:e"])  # a gate label may hold the separators
    def test_csv_quotes_a_label_that_needs_it(self, label):
        trace = simulate_cycle(step_table_from_text(f"1 one_qubit D1@op1:{label}\n"), TIMING)
        rows = list(csv.reader(io.StringIO(trace.to_csv())))
        assert all(len(row) == 5 for row in rows)
        assert [row[3] for row in rows[1:]] == ["shuttle_out", f"1q_gate:{label}", "shuttle_back"]


_REGIONS = ("op1", "op2", "op3")
_DURATIONS = st.floats(min_value=0.0, max_value=1e-5, allow_nan=False)
_TIMINGS = st.builds(TimingParams, _DURATIONS, _DURATIONS, _DURATIONS, _DURATIONS, _DURATIONS)


@st.composite
def _valid_step(draw, index: int) -> Step:
    """One step that keeps every window within capacity: distinct home
    qubits, split over two regions, at most two per region."""
    qubits = draw(st.permutations(HOME_QUBITS))
    regions = draw(st.permutations(_REGIONS))[:2]
    kind = draw(st.sampled_from(("one_qubit", "two_qubit", "readout", "hook")))
    if kind == "hook":
        return Step(index, "hook", note=draw(st.sampled_from(("", "lattice_surgery_interrupt"))))
    if kind == "two_qubit":
        pairs = [(qubits[0], qubits[1], regions[0]), (qubits[2], qubits[3], regions[1])]
        chosen = pairs[:draw(st.integers(1, 2))]
        return Step(index, "two_qubit", gates=tuple(
            PairGate(a, b, region, draw(st.sampled_from((a, b)))) for a, b, region in chosen
        ))
    placed = [(q, regions[i % 2]) for i, q in enumerate(qubits[:draw(st.integers(0, 4))])]
    if kind == "readout":
        return Step(index, "readout", gates=tuple(SoloGate(q, r, "readout") for q, r in placed))
    gate = draw(st.sampled_from(("ry(-90)", "rz(90)", "x")))
    return Step(index, "one_qubit", gates=tuple(SoloGate(q, r, gate) for q, r in placed),
                park=draw(st.booleans()))


@st.composite
def _valid_tables(draw) -> StepTable:
    size = draw(st.integers(0, 24))
    return StepTable(tuple(draw(_valid_step(index)) for index in range(1, size + 1)))


@settings(max_examples=200, deadline=None)
@given(table=_valid_tables(), timing=_TIMINGS)
def test_generated_table_runs_its_census(table, timing):
    trace = simulate_cycle(table, timing)
    census = schedule_oracle.simulate(table, timing).counters
    assert trace.counters == census
    # the census-weighted sum, in the order the benchmark computes it
    assert trace.makespan_s == (
        census["shuttle_round_trips"] * timing.shuttle_s
        + census["one_qubit_gates"] * timing.single_qubit_s
        + census["exchanges"] * timing.exchange_s
        + census["readout_phases"] * timing.readout_s
    )
    outs = Counter(e.qubit for e in trace.events if e.op == "shuttle_out")
    backs = Counter(e.qubit for e in trace.events if e.op == "shuttle_back")
    assert outs == backs


class TestStepTableFormat:
    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            step_table_from_text("1 one_qubit D1@op1:ry(-90)\n2 bogus_kind foo\n")

    def test_bad_item_rejected(self):
        with pytest.raises(ValueError, match="bad one_qubit item"):
            step_table_from_text("1 one_qubit D1-op1-ry\n")

    def test_carrier_must_belong_to_pair(self):
        with pytest.raises(ValueError, match="carrier"):
            step_table_from_text("1 two_qubit A1+D1@op1:rz=D2\n")

    @pytest.mark.parametrize("text, line, index", [
        ("1 hook a\n1 hook b\n", 2, 1),
        ("1 hook a\n3 hook b\n# gap\n2 hook c\n", 4, 2),
        ("1 hook a\n2 hook a\n2 hook a\n", 3, 2),
    ], ids=["repeat", "out-of-order", "repeated-body"])
    def test_step_indices_must_increase(self, text, line, index):
        with pytest.raises(ValueError) as err:
            step_table_from_text(text)
        assert str(err.value) == f"line {line}: step index {index} repeats or is out of order"

    @pytest.mark.parametrize("kind", ["two_qubit", "readout", "hook"])
    def test_park_applies_only_to_one_qubit_steps(self, kind):
        with pytest.raises(ValueError) as err:
            step_table_from_text(f"1 one_qubit+park D1@op1:x\n\n3 {kind}+park\n")
        assert str(err.value) == f"line 3: +park applies only to one_qubit steps, not {kind}"

    def test_comments_and_blanks_ignored(self):
        table = step_table_from_text("# header\n\n1 one_qubit D1@op1:ry(-90)  # inline\n")
        assert len(table.steps) == 1
        assert table.steps[0].gates[0].gate == "ry(-90)"

    def test_each_distinct_body_is_held_once(self):
        table = step_table_from_text("1 hook\n2  hook\n3 one_qubit D1@op1:x\n7 one_qubit  D1@op1:x  # again\n")
        assert table.order == ((1, 0), (2, 0), (3, 1), (7, 1))
        assert table.bodies == (Step(0, "hook")[1:], Step(0, "one_qubit", (SoloGate("D1", "op1", "x"),))[1:])
        assert [s.index for s in table.steps] == [1, 2, 3, 7]
        assert StepTable(table.steps) == table and table.steps is not table.steps

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "cycle.steps"
        text = step_table_to_text(default_step_table())
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert schedule.load_step_table(path) == default_step_table()


# The README grammar, written here from its sentence: a name (qubit, pair member, region) is
# non-empty and holds none of + @ : ~, a pair joins two different qubits and its label is
# rz=CARRIER, a carrier of the pair, and a gate label is the non-empty text after the first ":".
_NAME = r"[^+@:~]+"
_GRAMMAR = {
    "one_qubit": re.compile(rf"({_NAME})@({_NAME}):(.+)"),
    "two_qubit": re.compile(rf"({_NAME})\+({_NAME})@({_NAME}):rz=(.*)"),
    "readout": re.compile(rf"({_NAME})@({_NAME})"),
}


def _grammar_gates(kind: str, items: list[str]) -> tuple | None:
    """The gates that the README grammar reads from a body's items, or None if it rejects one."""
    gates = []
    for item in items:
        match = _GRAMMAR[kind].fullmatch(item)
        if match is None:
            return None
        if kind == "two_qubit":
            a, b, region, carrier = match.groups()
            if a == b or carrier not in (a, b):
                return None
            gates.append(PairGate(a, b, region, carrier))
        else:
            gates.append(SoloGate(*match.groups(), *(() if kind == "one_qubit" else ("readout",))))
    return tuple(gates)


_GRAMMAR_NAMES = st.one_of(st.sampled_from(["a", "b"]), st.sampled_from(["", "+", "@", ":", "~"]).map("a{}b".format))
_GRAMMAR_LABELS = st.sampled_from(["", "x", "rz=a", "rz=b", "rz=", "rz=c", "+@:~"])


@st.composite
def _grammar_body(draw) -> str:
    """A body text over short names and the separators + @ : ~.  An item is mostly its kind's shape,
    at times with a pair or label too many or too few, each name perhaps empty or holding a separator;
    otherwise it is any string of names and separators."""
    kind = draw(st.sampled_from(("one_qubit", "one_qubit+park", "two_qubit", "readout")))
    items = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)) == 0:
            items.append("".join(draw(st.lists(st.sampled_from(["a", "b", "rz=a", "+", "@", ":", "~"]), min_size=1,
                                               max_size=7))))
            continue
        pair = (kind == "two_qubit") != (draw(st.integers(0, 5)) == 0)
        labelled = (kind != "readout") != (draw(st.integers(0, 5)) == 0)
        target = draw(_GRAMMAR_NAMES) + (f"+{draw(_GRAMMAR_NAMES)}" if pair else "")
        items.append(f"{target}@{draw(_GRAMMAR_NAMES)}" + (f":{draw(_GRAMMAR_LABELS)}" if labelled else ""))
    return " ".join([kind, *items])


@settings(max_examples=500, deadline=None)
@given(text=_grammar_body())
@example(text="one_qubit q@a+b:x")
@example(text="two_qubit A1+D1@a+b:rz=A1")
@example(text="readout A1@a+b")
@example(text="one_qubit+park a@b:+@:~ a@b:rz=a")
def test_parser_accepts_exactly_the_readme_grammar(text):
    """``_parse_body`` raises exactly where the grammar rejects an item, and every body it accepts
    is the grammar's reading, which ``step_table_to_text`` writes back as it was."""
    kind, *items = text.split(" ")
    gates = _grammar_gates(kind.removesuffix("+park"), items)
    if gates is None:
        with pytest.raises(ValueError):
            schedule._parse_body(1, text)
        return
    body = schedule._parse_body(1, text)
    assert body == (kind.removesuffix("+park"), gates, kind.endswith("+park"), "")
    table = StepTable((Step(1, *body),))
    assert step_table_to_text(table) == f"1 {text}\n"
    assert step_table_from_text(f"1 {text}\n") == table


_LABELS = st.one_of(st.text(max_size=6), st.sampled_from([
    '"', "\\", '", "', "µm Ω ü 中", "\U0001f600\U00010348", "\x00\x1f\n\r\t\x7f", "\u2028", "",
    "%", "%s", "%%", "{0}", "}",
]))


@st.composite
def _labelled_step(draw, index: int) -> Step:
    """One step over arbitrary labels: distinct qubits, at most two per window."""
    qubits = draw(st.lists(_LABELS, min_size=2, max_size=2, unique=True))
    region, gate = draw(_LABELS), draw(_LABELS)
    kind = draw(st.sampled_from(("one_qubit", "two_qubit", "readout", "hook")))
    if kind == "hook":
        return Step(index, "hook", note=draw(_LABELS))
    if kind == "two_qubit":
        return Step(index, "two_qubit", gates=(PairGate(*qubits, region, qubits[0]),))
    placed = tuple(SoloGate(q, draw(_LABELS), gate) for q in qubits[:draw(st.integers(0, 2))])
    if kind == "readout":
        return Step(index, "readout", gates=placed)
    return Step(index, "one_qubit", gates=placed, park=draw(st.booleans()))


def _trace_document_json(trace) -> str:
    """The trace's own events, written by the oracle's ``json.dumps(indent=2, sort_keys=True)``."""
    return schedule_oracle.OracleTrace(trace.events, trace.counters, trace.makespan_s, trace.annotations).to_json()


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(0, 6).flatmap(lambda n: st.tuples(*(_labelled_step(i) for i in range(1, n + 1)))),
       timing=_TIMINGS)
@example(steps=(), timing=TIMING)
@example(steps=(Step(1, "hook", note='say "\\ \U0001f600"'), Step(2, "one_qubit")), timing=TIMING)
@example(steps=(Step(1, "one_qubit", gates=(SoloGate("%s", "%%", '"'),)),), timing=TIMING)
def test_trace_json_is_the_indent_2_sorted_document(steps, timing):
    try:
        trace = simulate_cycle(StepTable(steps), timing)
    except ScheduleConflictError:
        assume(False)  # a step may still list one qubit twice, or over-fill a region
    assert trace.to_json() == _trace_document_json(trace)


def generated_table(rng: random.Random, steps: int) -> StepTable:
    """``steps`` steps renumbered 1..N: shipped gate steps drawn at random, then
    the shipped park and readout steps, as the benchmark builds its tables."""
    shipped = default_step_table().steps
    pool = [s for s in shipped if s.kind in ("one_qubit", "two_qubit") and not s.park]
    tail = [s for s in shipped if s.park or s.kind == "readout"]
    drawn = [rng.choice(pool) for _ in range(steps - len(tail))] + tail
    return StepTable(tuple(s._replace(index=i) for i, s in enumerate(drawn, start=1)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_json_of_a_long_generated_table(seed):
    """Hundreds of windows, each of whose events share one time object."""
    rng = random.Random(seed)
    table = generated_table(rng, 130)
    trace = simulate_cycle(table, random_timing(rng))
    assert len({id(e.time_s) for e in trace.events}) < len(trace.events) / 2
    assert trace.to_json() == _trace_document_json(trace)


def test_events_expand_the_runs():
    """One run per step, then one per parking step at the end time; ``events``
    is their expansion, sharing each window's time objects, built afresh."""
    rng = random.Random(130)
    table = generated_table(rng, 130)
    trace = simulate_cycle(table, random_timing(rng))
    assert EventTrace._fields == ("runs", "counters", "makespan_s", "annotations")
    parking = [s.index for s in table.steps if s.park]
    assert [index for index, _, _ in trace.runs] == [s.index for s in table.steps] + parking
    assert all(times == (trace.makespan_s,) for _, times, _ in trace.runs[len(table.steps):])
    expanded = [(times[slot], index, qubit, op, resource)
                for index, times, template in trace.runs for slot, qubit, op, resource in template]
    events = trace.events
    assert events == tuple(expanded) and all(type(e) is Event for e in events)
    assert all(e.time_s is t for e, (t, *_) in zip(events, expanded))
    assert trace.events is not events


# Digests of the simulator that lowered and checked every step on its own.
@pytest.mark.parametrize("steps, csv_digest, json_digest", [
    (16, "5ff661f1c9b5ca9e0906eee3ef85840a5474f408daafdde78cbe0cabba2c41ec",
     "85fbb00dbc7cbe902afea5b78b597c1521dfafa4eca9ebacf02ab6fa41ae7139"),
    (128, "bfd0c7e6575ac1a64c4867393735a281e9cf123b3e1b37bfffaa6f656b797bb3",
     "0ba503f255590f480f4e2b114983d449f2f2fafdc22baa1b2d3fc7c8895b8458"),
    (512, "81658e62f985676f1b150ae0233bb46f572cebaee004cdba2823ef9e5be18625",
     "2acbdcb939c2e60df127691345f1ab7e05bc5bf61bf2f3721386a1e8199d9a38"),
])
def test_generated_table_output_bytes(steps, csv_digest, json_digest):
    rng = random.Random(steps)
    trace = simulate_cycle(generated_table(rng, steps), random_timing(rng))
    assert hashlib.sha256(trace.to_csv().encode("utf-8")).hexdigest() == csv_digest
    assert hashlib.sha256(trace.to_json().encode("utf-8")).hexdigest() == json_digest


def test_text_table_output_bytes():
    """A 512-step table parsed from text in the benchmark's layout: one '<index> <body>' line
    per step, the shipped gate bodies drawn at random, then its park and readout bodies."""
    shipped = (Path(schedule.__file__).parent / "data" / "unit_cell_cycle.steps").read_text(encoding="utf-8")
    bodies = [line.split(None, 1)[1] for line in shipped.splitlines() if line and not line.startswith("#")]
    pool = [b for b in bodies if b.split()[0] in ("one_qubit", "two_qubit")]
    tail = [b for b in bodies if b.split()[0] in ("one_qubit+park", "readout")]
    rng = random.Random(5120)
    drawn = [rng.choice(pool) for _ in range(512 - len(tail))] + tail
    text = "".join(f"{i} {body}\n" for i, body in enumerate(drawn, start=1))
    trace = simulate_cycle(step_table_from_text(text), random_timing(rng))
    assert hashlib.sha256(trace.to_csv().encode("utf-8")).hexdigest() == (
        "0930b511ec712dba010eb8722ebdbe5ad944564d930f3cdca53c31896ef88791")
    assert hashlib.sha256(trace.to_json().encode("utf-8")).hexdigest() == (
        "f77f1dd35fe671fbc7a4553f02538084e532bc382112f645bd6d6dc4793187e1")


@pytest.mark.usefixtures("cold_caches")
class TestRepeatedBodies:
    """Each distinct step body is lowered, checked and parsed once."""

    OVERLOAD = "one_qubit D1@op1:x A1@op1:x D2@op1:x"

    def test_conflicting_body_raises_at_its_first_step(self):
        text = f"1 one_qubit D1@op1:x\n4 {self.OVERLOAD}\n5 hook\n7 {self.OVERLOAD}\n"
        err = conflict_cold_and_warm(step_table_from_text(text))
        assert err.step == 4
        assert str(err) == "step 4: resource 'op1' holds 3 electrons (D1, A1, D2), capacity 2"

    def test_conflict_names_the_first_step_of_each_table(self):
        # a body that fails its checks is never kept, so another table names its own step
        for text, step in ((f"1 one_qubit D1@op1:x\n4 {self.OVERLOAD}\n", 4),
                           (f"2 {self.OVERLOAD}\n3 one_qubit D1@op1:x\n", 2),
                           (f"1 one_qubit D1@op1:x\n9 {self.OVERLOAD}\n", 9)):
            err = conflict_cold_and_warm(step_table_from_text(text))
            assert str(err) == f"step {step}: resource 'op1' holds 3 electrons (D1, A1, D2), capacity 2"

    def test_plans_are_kept_across_calls_and_tables(self):
        shipped = simulate_cycle(default_step_table(), TIMING)
        again = simulate_cycle(default_step_table(), random_timing(random.Random(7)))
        assert all(a is b for (_, _, a), (_, _, b) in zip(shipped.runs, again.runs))
        # a generated table draws the shipped bodies at other indices: their templates are reused
        templates = {id(template) for _, _, template in shipped.runs}
        generated = simulate_cycle(generated_table(random.Random(3), 64), TIMING)
        assert {id(template) for _, _, template in generated.runs} <= templates

    def test_repeated_body_events_carry_each_steps_index(self):
        body = "two_qubit A1+D1@op1:rz=A1"
        table = step_table_from_text(f"2 {body}\n3 one_qubit D2@c:x\n9 {body}\n")
        trace = simulate_cycle(table, TIMING)
        by_step = {i: [e for e in trace.events if e.step == i] for i in (2, 3, 9)}
        assert len(trace.events) == sum(map(len, by_step.values())) == 2 * 15 + 3
        assert [e[2:] for e in by_step[9]] == [e[2:] for e in by_step[2]]
        assert min(e.time_s for e in by_step[9]) > max(e.time_s for e in by_step[3])

    def test_parked_returns_follow_their_steps(self):
        text = "1 one_qubit+park D1@op1:x\n2 one_qubit+park A1@op2:x D2@op1:x\n3 readout D1@op1 A1@op2 D2@op1\n"
        trace = simulate_cycle(step_table_from_text(text), TIMING)
        end = trace.makespan_s
        assert trace.events[-3:] == (Event(end, 1, "D1", "shuttle_back", "D1~op1"),
                                     Event(end, 2, "A1", "shuttle_back", "A1~op2"),
                                     Event(end, 2, "D2", "shuttle_back", "D2~op1"))

    @pytest.mark.parametrize("step", [
        Step(1, "two_qubit", gates=(PairGate("A1", "D1", "op1", "A1"),)),
        Step(1, "readout", gates=(SoloGate("A1", "op1", "readout"),)),
        Step(1, "hook", note="mark"),
    ], ids=["two_qubit", "readout", "hook"])
    def test_park_lowers_only_a_one_qubit_step(self, step, cold_caches):
        # the parser rejects +park on these kinds; a hand-built Step may still carry it
        parked = simulate_cycle(StepTable((step._replace(park=True),)), TIMING)
        assert parked == simulate_cycle(StepTable((step,)), TIMING)

    def test_unknown_kind_of_a_built_step_raises(self, cold_caches):
        for _ in ("cold", "warm"):
            with pytest.raises(ValueError) as err:
                simulate_cycle(StepTable((Step(1, "one_qubit"), Step(2, "teleport"))), TIMING)
            assert str(err.value) == "unknown step kind 'teleport'"

    def test_one_plan_lookup_per_distinct_body(self, monkeypatch):
        class CountingPlans(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

            def __getitem__(self, key):
                self.lookups += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                self.lookups += 1
                return super().__contains__(key)

        plans = CountingPlans()
        monkeypatch.setattr(schedule, "_plans", plans)
        table = generated_table(random.Random(512), 512)
        overload = step_table_from_text(f"1 {self.OVERLOAD}\n").steps[0]
        steps = list(table.steps)
        steps[99], steps[299] = overload._replace(index=100), overload._replace(index=300)
        for table, step in ((table, None), (StepTable(tuple(steps)), 100)):
            bodies = len({s[1:] for s in table.steps})
            assert len(table.bodies) == bodies < 20
            for _ in ("cold", "warm"):
                plans.lookups = 0
                if step is None:
                    assert simulate_cycle(table, TIMING).counters["steps"] == 512
                else:
                    with pytest.raises(ScheduleConflictError) as err:
                        simulate_cycle(table, TIMING)
                    assert err.value.step == step
                assert 0 < plans.lookups <= bodies

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda table: pickle.loads(pickle.dumps(table))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_table_copies_and_pickles_as_it_is(self, copy_of):
        table = default_step_table()
        reordered = table._replace(bodies=table.bodies[::-1],
                                   order=tuple((index, len(table.bodies) - 1 - n) for index, n in table.order))
        for original in (table, reordered):
            copied = copy_of(original)
            assert type(copied) is StepTable and copied == original and copied.steps == original.steps
        assert reordered.order != StepTable(reordered.steps).order

    def test_body_numbers_need_not_be_in_first_seen_order(self):
        table = step_table_from_text(f"1 hook a\n2 one_qubit D1@op1:x\n3 hook a\n4 {self.OVERLOAD}\n")
        reordered = table._replace(order=((1, 1), (2, 0), (3, 1)))
        assert simulate_cycle(reordered, TIMING) == simulate_cycle(StepTable(reordered.steps), TIMING)
        assert conflict_cold_and_warm(table._replace(order=((2, 2), (5, 0)))).step == 2

    def test_bad_body_fails_at_its_first_line(self):
        text = "# header\n1 hook\n2 one_qubit D1-op1\n\n3 one_qubit   D1-op1  # again\n"
        with pytest.raises(ValueError) as err:
            step_table_from_text(text)
        assert str(err.value) == "line 3: bad one_qubit item 'D1-op1'"

    def test_each_body_text_is_tokenised_once_per_process(self, monkeypatch, cold_caches):
        calls = Counter()

        def counting(line_no, text):
            calls[text] += 1
            return parse(line_no, text)

        parse = schedule._parse_body
        text = step_table_to_text(generated_table(random.Random(512), 512))
        cold_caches()  # the shipped table, parsed to draw this one, parsed its bodies
        monkeypatch.setattr(schedule, "_parse_body", counting)
        tables = [step_table_from_text(text) for _ in ("cold", "warm")]
        texts = {line.split(None, 1)[1] for line in text.splitlines()}
        assert tables[0] == tables[1] and len(tables[0].order) == 512 and len(texts) < 20
        assert calls == Counter(texts)

    def test_a_bad_body_names_its_line_in_each_table(self):
        # a text that fails to parse is never kept, so each table names its own line
        bad = "one_qubit D1@op1:x D2-op1"
        for text, line in ((f"1 hook\n# note\n2 {bad}\n", 3),
                           (f"1 hook\n\n\n2 hook\n3 one_qubit D1@op1:x\n\n4 {bad}\n5 {bad}\n", 7)):
            with pytest.raises(ValueError) as err:
                step_table_from_text(text)
            assert str(err.value) == f"line {line}: bad one_qubit item 'D2-op1'"
        assert bad not in schedule._parsed


@st.composite
def _repeating_tables(draw) -> StepTable:
    """A few valid bodies drawn again and again, with gaps in the indices."""
    pool = draw(st.lists(_valid_step(0), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=40))
    indices = itertools.accumulate(draw(st.lists(st.integers(1, 3), min_size=len(picks), max_size=len(picks))))
    return StepTable(tuple(s._replace(index=i) for s, i in zip(picks, indices)))


@settings(max_examples=200, deadline=None)
@given(table=_repeating_tables())
def test_text_round_trip_over_generated_tables(table):
    assert step_table_from_text(step_table_to_text(table)) == table


@settings(max_examples=200, deadline=None)
@given(table=_repeating_tables(), timing=_TIMINGS, data=st.data())
def test_respaced_text_parses_and_simulates_the_same(table, timing, data):
    """Runs of spaces or tabs between tokens, trailing comments and blank lines change
    neither the parsed table nor a byte of its simulated csv and json."""
    indents, gaps = st.sampled_from(["", " ", "\t"]), st.sampled_from([" ", "  ", "\t", " \t "])
    lines = []
    for tokens in map(str.split, step_table_to_text(table).splitlines()):
        lines += data.draw(st.lists(st.sampled_from(["", " \t", "# a comment"]), max_size=2))
        spaced = [data.draw(gaps if i else indents) + token for i, token in enumerate(tokens)]
        lines.append("".join(spaced) + data.draw(st.sampled_from(["", " ", "  # note", "\t# a # b"])))
    parsed = step_table_from_text("\n".join(lines))
    assert parsed == table
    trace, expected = simulate_cycle(parsed, timing), simulate_cycle(table, timing)
    assert (trace.to_csv(), trace.to_json()) == (expected.to_csv(), expected.to_json())


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(0, 6).flatmap(lambda n: st.tuples(*(_labelled_step(i) for i in range(1, n + 1)))),
       timing=_TIMINGS)
@example(steps=(Step(1, "one_qubit", gates=(SoloGate("D,1", "op\n1", 'a"b'),)),), timing=TIMING)
@example(steps=(Step(1, "one_qubit", gates=(SoloGate("D1", "op1", "a\rb"),)),), timing=TIMING)
def test_trace_csv_reads_back_cell_for_cell(steps, timing):
    try:
        trace = simulate_cycle(StepTable(steps), timing)
    except ScheduleConflictError:
        assume(False)
    text = trace.to_csv()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["time_s", "step", "qubit", "op", "resource"]
    assert rows[1:] == [[repr(e.time_s), str(e.step), e.qubit, e.op, e.resource] for e in trace.events]
    plain = all(not set(',"\r\n') & set(e.qubit + e.op + e.resource) for e in trace.events)
    if plain:  # nothing to quote: one unquoted line per event
        assert text.count("\n") == len(trace.events) + 1 and '"' not in text


_CROWD_QUBITS = st.sampled_from(("D1", "D2", "A1", "A2"))
_CROWD_REGIONS = st.sampled_from(("op1", "op2", "c"))


@st.composite
def _crowded_step(draw, index: int) -> Step:
    """One step whose gates may share qubits, regions and channels at will."""
    kind = draw(st.sampled_from(("one_qubit", "two_qubit", "readout")))
    size = draw(st.integers(0, 5))
    if kind == "two_qubit":
        pairs = [(draw(_CROWD_QUBITS), draw(_CROWD_QUBITS), draw(_CROWD_REGIONS)) for _ in range(size)]
        return Step(index, kind, gates=tuple(PairGate(a, b, r, draw(st.sampled_from((a, b)))) for a, b, r in pairs))
    return Step(index, kind, gates=tuple(SoloGate(draw(_CROWD_QUBITS), draw(_CROWD_REGIONS), "x") for _ in range(size)))


# ``cold_caches`` empties the caches once per test; each example empties them itself
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.integers(1, 4).flatmap(lambda n: st.tuples(*(_crowded_step(i) for i in range(1, n + 1)))))
@example(steps=(Step(1, "one_qubit", gates=(SoloGate("D1", "op1", "x"), SoloGate("D1", "op1", "x"),
                                             SoloGate("A1", "op1", "x"))),))
def test_window_checks_keep_their_order_and_text(cold_caches, steps):
    """The first broken rule within a window: a qubit in two regions, then a qubit
    listed twice, then each region in the order it is first used, as the oracle checks them."""
    table = StepTable(steps)
    try:
        schedule_oracle.simulate(table, TIMING)
    except schedule_oracle.Conflict as conflict:
        expected = str(conflict)
    else:
        expected = None
    cold_caches()
    for _ in ("cold", "warm"):
        try:
            simulate_cycle(table, TIMING)
        except ScheduleConflictError as err:
            assert str(err) == expected
        else:
            assert expected is None


# Labels that a writer splicing text could mistake for its own syntax: csv
# separators and quotes, %-format fields, str.format braces, line breaks.
_ORACLE_QUBITS = st.sampled_from(["D1", "A1", 'q"1', "q,2", "q%s", "{q}", "q\n4"])
_ORACLE_REGIONS = st.sampled_from(["op1", "op%", 'r"', "r,\r\n", "{}"])
_ORACLE_LABELS = st.sampled_from(["x", "ry(-90)", "%", "%s", "%%", "%(a)s", '"', ",", "\n", "{}", "{0}", "µ", ""])


@st.composite
def _oracle_body(draw) -> Step:
    """One step body (index 0) whose gates may share qubits, regions and channels."""
    kind = draw(st.sampled_from(("one_qubit", "one_qubit+park", "two_qubit", "readout", "hook")))
    size = draw(st.integers(0, 3))
    if kind == "hook":
        return Step(0, "hook", note=draw(_ORACLE_LABELS))
    if kind == "two_qubit":
        pairs = [(draw(_ORACLE_QUBITS), draw(_ORACLE_QUBITS), draw(_ORACLE_REGIONS)) for _ in range(size)]
        return Step(0, kind, gates=tuple(PairGate(a, b, r, draw(st.sampled_from((a, b)))) for a, b, r in pairs))
    gates = tuple(SoloGate(draw(_ORACLE_QUBITS), draw(_ORACLE_REGIONS), draw(_ORACLE_LABELS)) for _ in range(size))
    return Step(0, kind.removesuffix("+park"), gates=gates, park=kind.endswith("+park"))


def _tables_over(pool: list[Step]):
    """Tables that draw the pool's bodies again and again, with gaps in the indices."""
    return st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=12).map(
        lambda picks: StepTable(tuple(body._replace(index=index) for (body, _), index in
                                      zip(picks, itertools.accumulate(gap for _, gap in picks)))))


def assert_matches_oracle(table: StepTable, timing: TimingParams) -> None:
    try:
        expected = schedule_oracle.simulate(table, timing)
    except schedule_oracle.Conflict as conflict:
        with pytest.raises(ScheduleConflictError) as err:
            simulate_cycle(table, timing)
        assert str(err.value) == str(conflict)
        assert (err.value.step, err.value.resource, err.value.occupants, err.value.capacity) == (
            conflict.step, conflict.resource, conflict.occupants, conflict.capacity)
        return
    trace = simulate_cycle(table, timing)
    assert trace.events == expected.events
    assert (trace.makespan_s, trace.counters, trace.annotations) == (
        expected.makespan_s, expected.counters, expected.annotations)
    assert trace.to_csv() == expected.to_csv()
    assert trace.to_json() == expected.to_json()


_PARKING = Step(0, "one_qubit", gates=(SoloGate("q%s", "op%", "%(a)s"), SoloGate('q"1', "r,\r\n", "{0}")),
                park=True)
_READ = Step(0, "readout", gates=(SoloGate("q%s", "op%", "readout"), SoloGate('q"1', "r,\r\n", "readout")))


def _placed(*bodies: Step) -> StepTable:
    return StepTable(tuple(body._replace(index=i) for i, body in enumerate(bodies, start=1)))


# ``cold_caches`` empties the caches once per test; each example empties them itself
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables=st.lists(_oracle_body(), min_size=1, max_size=4).flatmap(
    lambda pool: st.tuples(_tables_over(pool), _tables_over(pool))), timing=_TIMINGS)
@example(tables=(_placed(_PARKING, _READ), _placed(Step(0, "hook"), _PARKING, _PARKING._replace(park=False), _READ)),
         timing=TIMING)
def test_simulator_matches_the_per_event_oracle(cold_caches, tables, timing):
    """Events, makespan, counters, annotations, both documents' bytes and the first
    conflict's text, on an empty cache, then with the same bodies at other indices."""
    cold_caches()
    for table in (tables[0], tables[1], tables[0]):
        assert_matches_oracle(table, timing)


def test_oracle_matches_the_shipped_and_generated_tables(cold_caches):
    for table in (default_step_table(), generated_table(random.Random(5), 128), default_step_table()):
        assert_matches_oracle(table, random_timing(random.Random(len(table.steps))))


class TestPlanCache:
    def test_never_grows_past_its_bound(self, cold_caches):
        # one-qubit steps with distinct labels: one body each, more than the cache keeps
        steps = tuple(Step(i, "one_qubit", gates=(SoloGate("D1", "op1", f"g{i}"),))
                      for i in range(1, schedule.PLANS_KEPT + 41))
        trace = simulate_cycle(StepTable(steps), TIMING)
        assert len(schedule._plans) == schedule.PLANS_KEPT
        assert list(schedule._plans)[-1] == steps[-1][1:]  # the oldest plans went first
        assert [e.op for e in trace.events[-3:]] == ["shuttle_out", f"1q_gate:g{len(steps)}", "shuttle_back"]
        simulate_cycle(default_step_table(), TIMING)
        assert len(schedule._plans) == schedule.PLANS_KEPT

    def test_every_cache_stops_at_the_bound(self, cold_caches):
        # more distinct body texts than any cache keeps, parsed, simulated and written in both formats
        text = "".join(f"{i} one_qubit D1@op1:g{i}\n" for i in range(1, schedule.PLANS_KEPT + 41))
        trace = simulate_cycle(step_table_from_text(text), TIMING)
        assert trace.to_csv() and trace.to_json()
        assert len(schedule._parsed) == len(schedule._plans) == len(schedule._pieces) == schedule.PLANS_KEPT
        assert list(schedule._parsed)[-1] == f"one_qubit D1@op1:g{schedule.PLANS_KEPT + 40}"

    def test_a_table_written_again_after_its_plans_are_dropped(self, cold_caches):
        # the writers' pieces outlive the plans they were formed from, so they are found by the template's
        # value: a template built after an eviction can sit where a dropped template of another body sat
        table = generated_table(random.Random(9), 64)
        filler = StepTable(tuple(Step(i, "one_qubit", gates=(SoloGate("D1", "op1", f"g{i}"),))
                                 for i in range(1, schedule.PLANS_KEPT + 1)))
        expected = schedule_oracle.simulate(table, TIMING)
        for _ in ("cold", "evicted"):
            trace = simulate_cycle(table, TIMING)
            assert (trace.to_csv(), trace.to_json()) == (expected.to_csv(), expected.to_json())
            pieces = dict(schedule._pieces)
            del trace
            simulate_cycle(filler, TIMING)
            assert not any(body in schedule._plans for body in table.bodies)
        assert schedule._pieces == pieces and all(schedule._pieces[key] is p for key, p in pieces.items())

    def test_a_conflicting_body_leaves_the_cache_unchanged(self, cold_caches):
        simulate_cycle(default_step_table(), TIMING)
        kept = dict(schedule._plans)
        text = "1 one_qubit D1@op1:x A1@op1:x D2@op1:x\n"
        with pytest.raises(ScheduleConflictError):
            simulate_cycle(step_table_from_text(text), TIMING)
        assert schedule._plans == kept and all(schedule._plans[body] is plan for body, plan in kept.items())
