"""Discrete-event model of the unit-cell error-correction cycle and cycle-time
evaluation.

Every unit cell executes the same broadcast program in lock step, so the
cycle is modelled as a sequence of *windows*: a shuttle window is one round
trip between vertex and operation region (several qubits may ride their own
channels in parallel inside it), a gate window applies one broadcast
single-qubit or exchange pulse, and the readout window measures the parked
ancillas.  The cycle census counts windows per kind; the makespan is the
census-weighted sum of the window durations, which is exactly the closed-form
cycle time: 22 shuttle round trips, 14 single-qubit gates, 8 exchange pulses
and one readout.

The shipped default program is one consistent reconstruction of the cycle:
its window census, step count, the two steps that only move data qubit D1,
resource capacities (two electrons per operation region, one per channel)
and per-qubit electron conservation are the checked contract; the exact
interleaving of the dressing pulses is a free choice.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .errors import ScheduleConflictError
from .model import ArrayConfig

__all__ = [
    "CYCLE_EXCHANGES",
    "CYCLE_ONE_QUBIT_GATES",
    "CYCLE_SHUTTLES",
    "CYCLE_STEPS",
    "CycleTime",
    "Event",
    "EventTrace",
    "HOME_QUBITS",
    "PairGate",
    "READOUT_MODES",
    "SoloGate",
    "Step",
    "StepTable",
    "TimingParams",
    "cycle_time",
    "default_step_table",
    "load_step_table",
    "simulate_cycle",
    "step_table_from_text",
    "step_table_to_text",
]

# Window census of one error-correction cycle (the closed-form coefficients).
CYCLE_SHUTTLES = 22
CYCLE_ONE_QUBIT_GATES = 14
CYCLE_EXCHANGES = 8
CYCLE_STEPS = 16  # steps of the shipped program

READOUT_MODES = ("parallel", "sequential", "mixed")

HOME_QUBITS = ("D1", "D2", "A1", "A2")

REGION_CAPACITY = 2   # electrons per operation region
CHANNEL_CAPACITY = 1  # electrons per shuttling channel


class TimingParams(NamedTuple):
    """Operation durations [s]; the shuttle time covers a full round trip."""

    shuttle_s: float = 50e-9
    single_qubit_s: float = 25e-9
    exchange_s: float = 25e-9
    readout_s: float = 1e-6
    dephasing_s: float = 20e-6

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


class SoloGate(NamedTuple):
    qubit: str
    region: str
    gate: str


class PairGate(NamedTuple):
    qubit_a: str
    qubit_b: str
    region: str
    rz_carrier: str


class Step(NamedTuple):
    index: int
    kind: str                       # one_qubit | two_qubit | readout | hook
    solo_gates: tuple[SoloGate, ...] = ()
    pair_gates: tuple[PairGate, ...] = ()
    measured: tuple[SoloGate, ...] = ()
    park: bool = False              # defer the return trip past the readout
    note: str = ""

    def shuttling_qubits(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(q for _, movers, _, _ in _windows(self) for q, _ in movers))

    def home_shuttling_qubits(self) -> tuple[str, ...]:
        return tuple(q for q in self.shuttling_qubits() if q in HOME_QUBITS)


class StepTable(NamedTuple):
    steps: tuple[Step, ...]

    def census(self) -> dict[str, int]:
        counts = _zero_counts()
        for step in self.steps:
            for kind, _, _, _ in _windows(step):
                _tally(counts, kind)
        counts["steps"] = len(self.steps)
        return counts


# A window is (kind, movers, actors, park): ``movers`` are (qubit, region)
# pairs that ride their channels, ``actors`` are (qubit, op_label, region)
# receiving the window's pulse, and ``park`` defers the movers' return trip
# past the readout.
def _windows(step: Step) -> tuple[tuple, ...]:
    """The windows one step lowers to; the one definition of the cycle rule."""
    if step.kind == "one_qubit":
        movers = [(g.qubit, g.region) for g in step.solo_gates]
        actors = [(g.qubit, f"1q_gate:{g.gate}", g.region) for g in step.solo_gates]
        return (("one_qubit", movers, actors, step.park),)
    if step.kind == "two_qubit":
        # exchange, interleaved rz on the carrier, exchange
        both = [(q, p.region) for p in step.pair_gates for q in (p.qubit_a, p.qubit_b)]
        swaps = [(q, f"sqrt_swap:{p.qubit_a}+{p.qubit_b}", p.region)
                 for p in step.pair_gates for q in (p.qubit_a, p.qubit_b)]
        carriers = [(p.rz_carrier, p.region) for p in step.pair_gates]
        rz = [(p.rz_carrier, "1q_gate:rz(180)", p.region) for p in step.pair_gates]
        exchange = ("exchange", both, swaps, False)
        return (exchange, ("one_qubit", carriers, rz, False), exchange)
    if step.kind == "readout":
        return (("readout", [], [(g.qubit, "readout", g.region) for g in step.measured], False),)
    if step.kind == "hook":
        return ()
    raise ValueError(f"unknown step kind {step.kind!r}")


_CENSUS_KEY = {"one_qubit": "one_qubit_gates", "exchange": "exchanges", "readout": "readout_phases"}


def _zero_counts() -> dict[str, int]:
    return {"shuttle_round_trips": 0, "one_qubit_gates": 0, "exchanges": 0, "readout_phases": 0}


def _tally(counts: dict[str, int], kind: str) -> None:
    if kind != "readout":  # every other window is bracketed by one shuttle round trip
        counts["shuttle_round_trips"] += 1
    counts[_CENSUS_KEY[kind]] += 1


def _duration(timing: TimingParams, counts: dict[str, int]) -> float:
    """Census-weighted duration: the simulator's clock and the closed-form cycle time."""
    return (
        counts["shuttle_round_trips"] * timing.shuttle_s
        + counts["one_qubit_gates"] * timing.single_qubit_s
        + counts["exchanges"] * timing.exchange_s
        + counts["readout_phases"] * timing.readout_s
    )


def _channel(qubit: str, region: str) -> str:
    return f"{qubit}~{region}"


class Event(NamedTuple):
    time_s: float
    step: int
    qubit: str
    op: str
    resource: str


class EventTrace(NamedTuple):
    events: tuple[Event, ...]
    counters: dict[str, int]
    makespan_s: float
    annotations: tuple[str, ...] = ()

    def to_csv(self) -> str:
        rows, last, stamp = [], None, ""
        for t, step, qubit, op, resource in self.events:
            if t is not last:  # the events of a window share one time object: repr it once
                last, stamp = t, repr(t)
            rows.append(f"{stamp},{step},{qubit},{op},{resource}\n")
        body = "".join(rows)
        if body.count(",") != 4 * len(rows) or body.count("\n") != len(rows) or '"' in body or "\r" in body:
            # a name holds a comma, quote or line break: quote such cells as csv.writer does
            body = "".join([f"{t!r},{step},{_csv_cell(qubit)},{_csv_cell(op)},{_csv_cell(resource)}\n"
                            for t, step, qubit, op, resource in self.events])
        return "time_s,step,qubit,op,resource\n" + body

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the trace document, written
        directly; the caller checks that the times are finite."""
        annotations = ",\n".join(f"    {_json_str(a)}" for a in self.annotations)
        counters = ",\n".join(f"    {_json_str(k)}: {v!r}" for k, v in sorted(self.counters.items()))
        rows, last, stamp = [], None, ""
        for t, step, qubit, op, resource in self.events:
            if t is not last:  # the events of a window share one time object: repr it once
                last, stamp = t, repr(t)
            rows.append(f'    {{\n      "op": {_json_str(op)},\n      "qubit": {_json_str(qubit)},\n'
                        f'      "resource": {_json_str(resource)},\n      "step": {step},\n'
                        f'      "time_s": {stamp}\n    }}')
        events = ",\n".join(rows)
        return (f'{{\n  "annotations": {_json_block("[", annotations, "]")},\n'
                f'  "counters": {_json_block("{", counters, "}")},\n'
                f'  "events": {_json_block("[", events, "]")},\n'
                f'  "makespan_s": {self.makespan_s!r}\n}}')


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _json_block(open_: str, body: str, close: str) -> str:
    return f"{open_}\n{body}\n  {close}" if body else open_ + close


class _Simulator:
    """Window-by-window executor.

    Time is tracked as integer window counts per kind and re-expanded into
    seconds for every event, so the finished makespan is bit-identical to
    the closed-form census-weighted sum.
    """

    def __init__(self, timing: TimingParams):
        timing.validate()
        self.timing = timing
        self.pulse_s = {"one_qubit": timing.single_qubit_s, "exchange": timing.exchange_s,
                        "readout": timing.readout_s}
        self.counts = _zero_counts()
        self.events: list[Event] = []
        self.parked: list[tuple[int, str, str]] = []  # (step, qubit, region)

    def now(self) -> float:
        return _duration(self.timing, self.counts)

    def run_window(self, step_index: int, kind: str, movers: list[tuple[str, str]],
                   actors: list[tuple[str, str, str]], park: bool) -> None:
        """Check the window's capacities, then emit its events and advance the clock."""
        lanes = [_channel(qubit, region) for qubit, region in movers]
        # only more actors than one region holds, or a repeated lane, can overflow;
        # regions are counted from the actors, so a readout needs no path of its own
        if len(actors) > REGION_CAPACITY or len(set(lanes)) < len(lanes):
            regions: dict[str, list[str]] = {}
            for qubit, _, region in actors:
                regions.setdefault(region, []).append(qubit)
            channels: dict[str, list[str]] = {}
            for (qubit, _), lane in zip(movers, lanes):
                channels.setdefault(lane, []).append(qubit)
            for resource, occupants in regions.items():
                if len(occupants) > REGION_CAPACITY:
                    raise ScheduleConflictError(step_index, resource, tuple(occupants), REGION_CAPACITY)
            for resource, occupants in channels.items():
                if len(occupants) > CHANNEL_CAPACITY:
                    raise ScheduleConflictError(step_index, resource, tuple(occupants), CHANNEL_CAPACITY)
        # the actors place every qubit of the window, a measured one too
        if len({qubit for qubit, _, _ in actors}) < len(actors):
            placed = dict.fromkeys((qubit, region) for qubit, _, region in actors)
            qubits = [q for q, _ in placed]
            for qubit in (q for q in qubits if qubits.count(q) > 1):
                places = tuple(r for q, r in placed if q == qubit)
                detail = f"qubit {qubit!r} is in {len(places)} regions ({', '.join(places)}) in one window"
                raise ScheduleConflictError(step_index, qubit, places, 1, detail)

        start = self.now()
        events = self.events
        events.extend([Event(start, step_index, qubit, "shuttle_out", lane)
                       for (qubit, _), lane in zip(movers, lanes)])
        # a shuttled pulse lands half a round trip in; a readout at the window start
        pulse_start = start if kind == "readout" else start + self.timing.shuttle_s / 2.0
        events.extend([Event(pulse_start, step_index, qubit, label, region)
                       for qubit, label, region in actors])
        if park:
            self.parked.extend((step_index, qubit, region) for qubit, region in movers)
        else:
            back_start = pulse_start + self.pulse_s[kind]
            events.extend([Event(back_start, step_index, qubit, "shuttle_back", lane)
                           for (qubit, _), lane in zip(movers, lanes)])
        _tally(self.counts, kind)

    def release_parked(self) -> None:
        # Return trips of parked (measured) qubits complete at the cycle
        # boundary; their round-trip time was charged by the parking step.
        end = self.now()
        self.events.extend([Event(end, step_index, qubit, "shuttle_back", _channel(qubit, region))
                            for step_index, qubit, region in self.parked])
        self.parked.clear()


def simulate_cycle(table: StepTable, timing: TimingParams) -> EventTrace:
    """Execute the step table, checking resource capacities window by window.

    A capacity violation, or one qubit in two regions in one window, raises
    :class:`ScheduleConflictError` naming the step and resource.
    """
    sim = _Simulator(timing)
    for step in table.steps:
        for kind, movers, actors, park in _windows(step):
            sim.run_window(step.index, kind, movers, actors, park)
    sim.release_parked()
    return EventTrace(
        events=tuple(sim.events),
        counters={**sim.counts, "steps": len(table.steps)},
        makespan_s=sim.now(),
        annotations=tuple(
            f"step {s.index}: {s.note}" for s in table.steps if s.kind == "hook"
        ),
    )


class CycleTime(NamedTuple):
    total_s: float
    readout_mode: str
    coherence_ratio: float


def cycle_time(timing: TimingParams, cfg: ArrayConfig, readout_mode: str = "parallel") -> CycleTime:
    """Closed-form cycle duration for a readout multiplexing mode.

    parallel: one readout window; sequential: one window per module-edge
    group; mixed: one window per sequential readout slot of the q*r split.
    Also reports how many cycles fit into the dephasing time.
    """
    if readout_mode not in READOUT_MODES:
        raise ValueError(f"unknown readout mode {readout_mode!r}; expected one of {READOUT_MODES}")
    readout_multiplier = {
        "parallel": 1,
        "sequential": cfg.readout_module_edge,
        "mixed": cfg.sequential_readouts,
    }[readout_mode]
    total = _duration(timing, {
        "shuttle_round_trips": CYCLE_SHUTTLES,
        "one_qubit_gates": CYCLE_ONE_QUBIT_GATES,
        "exchanges": CYCLE_EXCHANGES,
        "readout_phases": readout_multiplier,
    })
    ratio = timing.dephasing_s / total if total > 0 else float("inf")
    return CycleTime(total_s=total, readout_mode=readout_mode, coherence_ratio=ratio)


# ---------------------------------------------------------------------------
# Step-table text format

def step_table_from_text(text: str) -> StepTable:
    steps: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {line_no}: expected '<index> <kind> ...'")
        try:
            index = int(tokens[0])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad step index {tokens[0]!r}") from exc
        if steps and index <= steps[-1].index:
            raise ValueError(f"line {line_no}: step index {index} repeats or is out of order")
        kind_token = tokens[1]
        park = kind_token.endswith("+park")
        kind = kind_token.removesuffix("+park")
        items = tokens[2:]
        if kind == "one_qubit":
            solo = []
            for item in items:
                try:
                    placement, gate_label = item.split(":", 1)
                    qubit, region = placement.split("@", 1)
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: bad one_qubit item {item!r}") from exc
                solo.append(SoloGate(qubit, region, gate_label))
            steps.append(Step(index, "one_qubit", solo_gates=tuple(solo), park=park))
        elif kind == "two_qubit":
            pairs = []
            for item in items:
                try:
                    placement, carrier_part = item.split(":", 1)
                    pair, region = placement.split("@", 1)
                    qubit_a, qubit_b = pair.split("+", 1)
                    carrier = carrier_part.removeprefix("rz=")
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: bad two_qubit item {item!r}") from exc
                if carrier not in (qubit_a, qubit_b):
                    raise ValueError(
                        f"line {line_no}: rz carrier {carrier!r} is not part of pair {pair!r}"
                    )
                pairs.append(PairGate(qubit_a, qubit_b, region, carrier))
            steps.append(Step(index, "two_qubit", pair_gates=tuple(pairs)))
        elif kind == "readout":
            measured = []
            for item in items:
                try:
                    qubit, region = item.split("@", 1)
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: bad readout item {item!r}") from exc
                measured.append(SoloGate(qubit, region, "readout"))
            steps.append(Step(index, "readout", measured=tuple(measured)))
        elif kind == "hook":
            steps.append(Step(index, "hook", note=" ".join(items)))
        else:
            raise ValueError(f"line {line_no}: unknown step kind {kind!r}")
    return StepTable(tuple(steps))


def step_table_to_text(table: StepTable) -> str:
    lines = []
    for step in table.steps:
        kind = step.kind + ("+park" if step.park else "")
        if step.kind == "one_qubit":
            items = [f"{g.qubit}@{g.region}:{g.gate}" for g in step.solo_gates]
        elif step.kind == "two_qubit":
            items = [
                f"{p.qubit_a}+{p.qubit_b}@{p.region}:rz={p.rz_carrier}"
                for p in step.pair_gates
            ]
        elif step.kind == "readout":
            items = [f"{g.qubit}@{g.region}" for g in step.measured]
        else:
            items = [step.note] if step.note else []
        lines.append(" ".join([str(step.index), kind, *items]).rstrip())
    return "\n".join(lines) + "\n"


def load_step_table(path) -> StepTable:
    with open(path, encoding="utf-8") as fh:
        return step_table_from_text(fh.read())


_shipped: list[StepTable] = []


def default_step_table() -> StepTable:
    """The shipped unit-cell cycle program (see module docstring); one
    immutable table, parsed once per process."""
    if not _shipped:
        _shipped.append(
            load_step_table(os.path.join(os.path.dirname(__file__), "data", "unit_cell_cycle.steps"))
        )
    return _shipped[0]
