import csv
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spiderweb.errors import ScheduleConflictError
from spiderweb.model import ArrayConfig
from spiderweb.schedule import (
    CYCLE_EXCHANGES,
    CYCLE_ONE_QUBIT_GATES,
    CYCLE_SHUTTLES,
    HOME_QUBITS,
    PairGate,
    SoloGate,
    Step,
    StepTable,
    TimingParams,
    cycle_time,
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
    ], ids=["repeat", "out-of-order"])
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_json_of_a_long_generated_table(seed):
    """Shipped gate steps drawn at random, then the shipped park and readout
    steps: hundreds of windows, each of whose events share one time object."""
    rng = random.Random(seed)
    shipped = default_step_table().steps
    pool = [s for s in shipped if s.kind in ("one_qubit", "two_qubit") and not s.park]
    tail = [s for s in shipped if s.park or s.kind == "readout"]
    steps = [rng.choice(pool) for _ in range(128)] + tail
    table = StepTable(tuple(s._replace(index=i) for i, s in enumerate(steps, start=1)))
    trace = simulate_cycle(table, random_timing(rng))
    assert len({id(e.time_s) for e in trace.events}) < len(trace.events) / 2
    assert trace.to_json() == _trace_document_json(trace)


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
