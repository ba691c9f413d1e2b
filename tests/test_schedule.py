import csv
import hashlib
import io
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spiderweb.errors import ScheduleConflictError
from spiderweb.config import TimingParams
from spiderweb.model import CYCLE_EXCHANGES, CYCLE_ONE_QUBIT_GATES, CYCLE_SHUTTLES, ArrayConfig, cycle_time
from spiderweb.schedule import (
    HOME_QUBITS,
    Event,
    EventTrace,
    PairGate,
    SoloGate,
    Step,
    StepTable,
    default_step_table,
    _windows,
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


class TestDefaultTable:
    def test_parsed_once(self):
        assert default_step_table() is default_step_table()

    def test_census_matches_cycle_coefficients(self):
        census = default_step_table().census()
        assert census["shuttle_round_trips"] == CYCLE_SHUTTLES == 22
        assert census["one_qubit_gates"] == CYCLE_ONE_QUBIT_GATES == 14
        assert census["exchanges"] == CYCLE_EXCHANGES == 8
        assert census["readout_phases"] == 1
        assert census["steps"] == 16

    def test_steps_3_and_13_move_only_data_qubit_1(self):
        table = default_step_table()
        for index in (3, 13):
            step = table.steps[index - 1]
            assert step.index == index
            assert step.home_shuttling_qubits() == ("D1",)

    def test_no_other_step_is_home_solo(self):
        table = default_step_table()
        solo = [s.index for s in table.steps if len(s.home_shuttling_qubits()) == 1]
        assert solo == [3, 13]

    def test_readout_is_the_final_step(self):
        table = default_step_table()
        assert table.steps[-1].kind == "readout"
        assert {g.qubit for g in table.steps[-1].measured} == {"A1", "A2"}

    def test_text_round_trip(self):
        table = default_step_table()
        assert step_table_from_text(step_table_to_text(table)) == table

    def test_home_qubit_roles(self):
        assert HOME_QUBITS == ("D1", "D2", "A1", "A2")


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

    def test_trace_counters_equal_table_census(self):
        table = default_step_table()
        assert simulate_cycle(table, TIMING).counters == table.census()

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

    def test_region_overload_rejected_with_location(self):
        text = step_table_to_text(default_step_table())
        corrupted = text.replace("D2@op2:ry(-90)", "D2@op1:ry(-90)", 1)
        table = step_table_from_text(corrupted)
        with pytest.raises(ScheduleConflictError) as err:
            simulate_cycle(table, TIMING)
        assert err.value.step == 1
        assert err.value.resource == "op1"
        assert len(err.value.occupants) == 3

    def test_channel_overuse_rejected(self):
        step = Step(1, "one_qubit", solo_gates=(
            SoloGate("D1", "op1", "ry(-90)"),
            SoloGate("D1", "op1", "rz(90)"),
        ))
        with pytest.raises(ScheduleConflictError) as err:
            simulate_cycle(StepTable((step,)), TIMING)
        assert err.value.resource == "D1~op1"
        assert err.value.capacity == 1

    @pytest.mark.parametrize("text", [
        "1 one_qubit D1@op1:x D1@op2:x\n",
        "1 two_qubit D1+A1@op1:rz=D1 D1+A2@op2:rz=A2\n",
        "1 readout D1@op1 D1@op2\n",
    ], ids=["one-qubit", "two-pairs", "readout"])
    def test_qubit_in_two_regions_rejected(self, text):
        with pytest.raises(ScheduleConflictError) as err:
            simulate_cycle(step_table_from_text(text), TIMING)
        assert err.value.step == 1
        assert err.value.resource == "D1"
        assert err.value.occupants == ("op1", "op2")
        assert "qubit 'D1' is in 2 regions (op1, op2)" in str(err.value)

    def test_csv_export_shape(self):
        trace = simulate_cycle(default_step_table(), TIMING)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "time_s,step,qubit,op,resource"
        assert len(lines) == len(trace.events) + 1
        assert all(line.count(",") == 4 for line in lines)

    @pytest.mark.parametrize("label", ["a,b", 'a"b'])
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
        return Step(index, "two_qubit", pair_gates=tuple(
            PairGate(a, b, region, draw(st.sampled_from((a, b)))) for a, b, region in chosen
        ))
    placed = [(q, regions[i % 2]) for i, q in enumerate(qubits[:draw(st.integers(0, 4))])]
    if kind == "readout":
        return Step(index, "readout", measured=tuple(SoloGate(q, r, "readout") for q, r in placed))
    gate = draw(st.sampled_from(("ry(-90)", "rz(90)", "x")))
    return Step(index, "one_qubit", solo_gates=tuple(SoloGate(q, r, gate) for q, r in placed),
                park=draw(st.booleans()))


@st.composite
def _valid_tables(draw) -> StepTable:
    size = draw(st.integers(0, 24))
    return StepTable(tuple(draw(_valid_step(index)) for index in range(1, size + 1)))


@settings(max_examples=200, deadline=None)
@given(table=_valid_tables(), timing=_TIMINGS)
def test_generated_table_runs_its_census(table, timing):
    trace = simulate_cycle(table, timing)
    census = table.census()
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

    def test_comments_and_blanks_ignored(self):
        table = step_table_from_text("# header\n\n1 one_qubit D1@op1:ry(-90)  # inline\n")
        assert len(table.steps) == 1
        assert table.steps[0].solo_gates[0].gate == "ry(-90)"


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
        return Step(index, "two_qubit", pair_gates=(PairGate(*qubits, region, qubits[0]),))
    placed = tuple(SoloGate(q, draw(_LABELS), gate) for q in qubits[:draw(st.integers(0, 2))])
    if kind == "readout":
        return Step(index, "readout", measured=placed)
    return Step(index, "one_qubit", solo_gates=placed, park=draw(st.booleans()))


def _trace_document_json(trace) -> str:
    doc = {
        "makespan_s": trace.makespan_s,
        "counters": trace.counters,
        "annotations": list(trace.annotations),
        "events": [
            {"time_s": e.time_s, "step": e.step, "qubit": e.qubit, "op": e.op, "resource": e.resource}
            for e in trace.events
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(0, 6).flatmap(lambda n: st.tuples(*(_labelled_step(i) for i in range(1, n + 1)))),
       timing=_TIMINGS)
@example(steps=(), timing=TIMING)
@example(steps=(Step(1, "hook", note='say "\\ \U0001f600"'), Step(2, "one_qubit")), timing=TIMING)
def test_trace_json_is_the_indent_2_sorted_document(steps, timing):
    try:
        trace = simulate_cycle(StepTable(steps), timing)
    except ScheduleConflictError:
        assume(False)  # two labels can still name one channel, as "a~" + "b" and "a" + "~b"
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


class TestRepeatedBodies:
    """Each distinct step body is lowered, checked and parsed once."""

    OVERLOAD = "one_qubit D1@op1:x A1@op1:x D2@op1:x"

    def test_conflicting_body_raises_at_its_first_step(self):
        text = f"1 one_qubit D1@op1:x\n4 {self.OVERLOAD}\n5 hook\n7 {self.OVERLOAD}\n"
        with pytest.raises(ScheduleConflictError) as err:
            simulate_cycle(step_table_from_text(text), TIMING)
        assert err.value.step == 4
        assert str(err.value) == "step 4: resource 'op1' holds 3 electrons (D1, A1, D2), capacity 2"

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

    def test_bad_body_fails_at_its_first_line(self):
        text = "# header\n1 hook\n2 one_qubit D1-op1\n\n3 one_qubit   D1-op1  # again\n"
        with pytest.raises(ValueError) as err:
            step_table_from_text(text)
        assert str(err.value) == "line 3: bad one_qubit item 'D1-op1'"


@st.composite
def _repeating_tables(draw) -> StepTable:
    """A few valid bodies drawn again and again, with gaps in the indices."""
    pool = draw(st.lists(_valid_step(0), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=40))
    indices = itertools.accumulate(draw(st.lists(st.integers(1, 3), min_size=len(picks), max_size=len(picks))))
    return StepTable(tuple(s._replace(index=i) for s, i in zip(picks, indices)))


@settings(max_examples=200, deadline=None)
@given(table=_repeating_tables(), data=st.data())
def test_text_round_trip_over_generated_tables(table, data):
    text = step_table_to_text(table)
    assert step_table_from_text(text) == table
    # the same bodies spaced and commented differently on each line parse to the same table
    spaces = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [data.draw(st.sampled_from(["", " ", "\t"])) + data.draw(spaces).join(line.split())
             + data.draw(st.sampled_from(["", " ", "  # note", "\t# a # b"]))
             for line in text.splitlines()]
    assert step_table_from_text("\n".join(lines)) == table


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(0, 6).flatmap(lambda n: st.tuples(*(_labelled_step(i) for i in range(1, n + 1)))),
       timing=_TIMINGS)
@example(steps=(Step(1, "one_qubit", solo_gates=(SoloGate("D,1", "op\n1", 'a"b'),)),), timing=TIMING)
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
        return Step(index, kind, pair_gates=tuple(PairGate(a, b, r, draw(st.sampled_from((a, b))))
                                                  for a, b, r in pairs))
    gates = tuple(SoloGate(draw(_CROWD_QUBITS), draw(_CROWD_REGIONS), "x") for _ in range(size))
    return Step(index, kind, measured=gates) if kind == "readout" else Step(index, kind, solo_gates=gates)


def _first_conflict(table: StepTable) -> str | None:
    """The first window rule the table breaks, written out plainly: within a window, each
    region in the order it is first used, then each channel, then a qubit in two regions."""
    for step in table.steps:
        for _, movers, actors, _ in _windows(step):
            regions, channels, places = {}, {}, {}
            for qubit, _, region in actors:
                regions.setdefault(region, []).append(qubit)
                places.setdefault(qubit, {})[region] = None
            for qubit, region in movers:
                channels.setdefault(f"{qubit}~{region}", []).append(qubit)
            for used, capacity in ((regions, 2), (channels, 1)):
                for resource, occupants in used.items():
                    if len(occupants) > capacity:
                        return (f"step {step.index}: resource {resource!r} holds {len(occupants)} "
                                f"electrons ({', '.join(occupants)}), capacity {capacity}")
            for qubit, where in places.items():
                if len(where) > 1:
                    return (f"step {step.index}: qubit {qubit!r} is in {len(where)} regions "
                            f"({', '.join(where)}) in one window")
    return None


@settings(max_examples=300, deadline=None)
@given(steps=st.integers(1, 4).flatmap(lambda n: st.tuples(*(_crowded_step(i) for i in range(1, n + 1)))))
@example(steps=(Step(1, "one_qubit", solo_gates=(SoloGate("D1", "op1", "x"), SoloGate("D1", "op1", "x"),
                                                  SoloGate("A1", "op1", "x"))),))
def test_window_checks_keep_their_order_and_text(steps):
    expected = _first_conflict(StepTable(steps))
    try:
        simulate_cycle(StepTable(steps), TIMING)
    except ScheduleConflictError as err:
        assert str(err) == expected
    else:
        assert expected is None
