"""Discrete-event model of the unit-cell error-correction cycle.

Every unit cell executes the same broadcast program in lock step, so the
cycle is modelled as a sequence of *windows*: a shuttle window is one round
trip between vertex and operation region (several qubits may ride their own
channels in parallel inside it), a gate window applies one broadcast
single-qubit or exchange pulse, and the readout window measures the parked
ancillas.  The cycle census counts windows per kind; the makespan is the
census-weighted sum of the window durations (``model._duration``), which is
exactly the closed-form cycle time that :func:`spiderweb.model.cycle_time`
evaluates: 22 shuttle round trips, 14 single-qubit gates, 8 exchange pulses
and one readout.

The shipped default program is one consistent reconstruction of the cycle:
its window census, step count, the two steps that only move data qubit D1,
resource capacities (two electrons per operation region, one per channel)
and per-qubit electron conservation are the checked contract; the exact
interleaving of the dressing pulses is a free choice.

A long program repeats a few distinct step bodies (a step without its index),
so the parser reads each distinct body once, and the simulator lowers and
checks each once, at the first step that carries it; every step then stamps
its own index and times on the body's events.  This is exact: the lanes and
the region, channel and two-region checks read only the body, and the clock
only the integer window counts so far.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import NamedTuple

from .config import TimingParams
from .errors import ScheduleConflictError
from .model import _duration, cycle_time  # the benchmark traces cycle_time under this module's name

__all__ = [
    "Event",
    "EventTrace",
    "HOME_QUBITS",
    "PairGate",
    "SoloGate",
    "Step",
    "StepTable",
    "default_step_table",
    "load_step_table",
    "simulate_cycle",
    "step_table_from_text",
    "step_table_to_text",
]

HOME_QUBITS = ("D1", "D2", "A1", "A2")

REGION_CAPACITY = 2   # electrons per operation region
CHANNEL_CAPACITY = 1  # electrons per shuttling channel


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

    def home_shuttling_qubits(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(q for _, movers, _, _ in _windows(self) for q, _ in movers if q in HOME_QUBITS))


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


def _channel(qubit: str, region: str) -> str:
    return f"{qubit}~{region}"


class Event(NamedTuple):
    time_s: float
    step: int
    qubit: str
    op: str
    resource: str


class EventTrace(NamedTuple):
    """The simulated cycle as runs (step index, window times, body event template): one
    per step, then one per parking step for its return trips at the end time."""

    runs: tuple[tuple[int, tuple[float, ...], tuple], ...]
    counters: dict[str, int]
    makespan_s: float
    annotations: tuple[str, ...] = ()

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event in order, built afresh on each access; a window's events share its times."""
        new = tuple.__new__  # skips Event's Python-level __new__: half the cost per event
        return tuple([new(Event, (times[slot], index, qubit, op, resource))
                      for index, times, template in self.runs for slot, qubit, op, resource in template])

    def _fill(self, parts: list[str], rows, stamps) -> list[str]:
        """Append each step's rows to ``parts``: ``rows(template)``, with a ``%s`` per event,
        is built once per distinct body and filled by one ``%`` per step."""
        bodies: dict[int, tuple] = {}
        for index, times, template in self.runs:
            if template:
                if id(template) not in bodies:
                    bodies[id(template)] = rows(template), itemgetter(*[event[0] for event in template])
                text, pick = bodies[id(template)]
                parts.append(text % pick(stamps(times, index)))
        return parts

    def to_csv(self) -> str:
        return "".join(self._fill(["time_s,step,qubit,op,resource\n"], _csv_rows,
                                  lambda times, index: [f"{t!r},{index}" for t in times]))

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the trace document, written
        directly; the caller checks that the times are finite."""
        annotations = ",\n".join(f"    {_json_str(a)}" for a in self.annotations)
        counters = ",\n".join(f"    {_json_str(k)}: {v!r}" for k, v in sorted(self.counters.items()))
        parts = self._fill([f'{{\n  "annotations": {_json_block("[", annotations, "]")},\n'
                            f'  "counters": {_json_block("{", counters, "}")},\n  "events": ['], _json_rows,
                           lambda times, index: [f'{index},\n      "time_s": {t!r}' for t in times])
        if len(parts) > 1:
            parts[1] = parts[1][1:]  # the first event follows the "[" without a comma
        parts.append(("\n  ]" if len(parts) > 1 else "]") + f',\n  "makespan_s": {self.makespan_s!r}\n}}')
        return "".join(parts)


def _csv_rows(template: tuple) -> str:
    """One body's csv rows, ``%s`` for each row's time and step.  One check of the joined
    rows finds a label that needs quoting or holds a ``%``; only then is each cell escaped."""
    rows, n = "".join([f"%s,{q},{op},{r}\n" for _, q, op, r in template]), len(template)
    if tuple(map(rows.count, ',\n%"\r')) == (3 * n, n, n, 0, 0):
        return rows
    return "".join(["%s" + f",{_csv_cell(q)},{_csv_cell(op)},{_csv_cell(r)}\n".replace("%", "%%")
                    for _, q, op, r in template])


def _json_rows(template: tuple) -> str:
    """One body's json events, each led by a comma, ``%s`` for its step and time."""
    rows = "".join([f',\n    {{\n      "op": {_json_str(op)},\n      "qubit": {_json_str(q)},\n'
                    f'      "resource": {_json_str(r)},\n      "step": %s\n    }}'
                    for _, q, op, r in template])
    if rows.count("%") > len(template):  # a label's quotes are escaped: '"step": %%s' is a placeholder
        rows = rows.replace("%", "%%").replace('"step": %%s', '"step": %s')
    return rows


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _json_block(open_: str, body: str, close: str) -> str:
    return f"{open_}\n{body}\n  {close}" if body else open_ + close


def _check_window(index: int, movers: list[tuple[str, str]], lanes: list[str],
                  actors: list[tuple[str, str, str]]) -> None:
    """Raise :class:`ScheduleConflictError` at step ``index`` if the window
    over-fills a region or a channel, or places one qubit in two regions."""
    # only more actors than one region holds, or a repeated lane, can overflow; regions are
    # counted from the actors (a readout has no path), occupants gathered only to name one
    if len(actors) > REGION_CAPACITY:
        regions: dict[str, int] = {}
        for _, _, region in actors:
            regions[region] = regions.get(region, 0) + 1
        for region, count in regions.items():
            if count > REGION_CAPACITY:
                occupants = tuple(q for q, _, r in actors if r == region)
                raise ScheduleConflictError(index, region, occupants, REGION_CAPACITY)
    if len(set(lanes)) < len(lanes):
        for lane in lanes:
            if lanes.count(lane) > CHANNEL_CAPACITY:
                occupants = tuple(q for (q, _), other in zip(movers, lanes) if other == lane)
                raise ScheduleConflictError(index, lane, occupants, CHANNEL_CAPACITY)
    # the actors place every qubit of the window, a measured one too
    if len({qubit for qubit, _, _ in actors}) < len(actors):
        placed = dict.fromkeys((qubit, region) for qubit, _, region in actors)
        qubits = [q for q, _ in placed]
        for qubit in (q for q in qubits if qubits.count(q) > 1):
            places = tuple(r for q, r in placed if q == qubit)
            detail = f"qubit {qubit!r} is in {len(places)} regions ({', '.join(places)}) in one window"
            raise ScheduleConflictError(index, qubit, places, 1, detail)


def _plan(step: Step) -> tuple[tuple[str, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """Lower and check one step body: its window kinds, its events as
    (time slot, qubit, op, resource) with slots 3w, 3w+1, 3w+2 for window w's
    start, pulse and return, and the return trips it parks, at slot 0."""
    kinds, template, parked = [], [], []
    for w, (kind, movers, actors, park) in enumerate(_windows(step)):
        lanes = [_channel(qubit, region) for qubit, region in movers]
        _check_window(step.index, movers, lanes, actors)
        kinds.append(kind)
        template += [(3 * w, qubit, "shuttle_out", lane) for (qubit, _), lane in zip(movers, lanes)]
        template += [(3 * w + 1, qubit, label, region) for qubit, label, region in actors]
        returns = [(qubit, "shuttle_back", lane) for (qubit, _), lane in zip(movers, lanes)]
        if park:
            parked += [(0, *event) for event in returns]
        else:
            template += [(3 * w + 2, *event) for event in returns]
    return tuple(kinds), tuple(template), tuple(parked)


def simulate_cycle(table: StepTable, timing: TimingParams) -> EventTrace:
    """Execute the step table, checking resource capacities window by window.

    A capacity violation, or one qubit in two regions in one window, raises
    :class:`ScheduleConflictError` naming the first step with that body and
    the resource.  Time is kept as integer window counts per kind and
    re-expanded into seconds for every window, so the makespan is
    bit-identical to the closed-form census-weighted sum.
    """
    timing.validate()
    pulse_s = {"one_qubit": timing.single_qubit_s, "exchange": timing.exchange_s, "readout": timing.readout_s}
    half_trip = timing.shuttle_s / 2.0
    counts = _zero_counts()
    plans: dict[tuple, tuple] = {}
    runs: list[tuple] = []
    parked: list[tuple[int, tuple]] = []  # (step, the return trips it parks)
    for step in table.steps:
        body = step[1:]
        plan = plans.get(body)
        if plan is None:
            plan = plans[body] = _plan(step)
        kinds, template, returns = plan
        times = []  # the events of a window share these time objects
        for kind in kinds:
            start = _duration(timing, counts)
            # a shuttled pulse lands half a round trip in; a readout at the window start
            pulse = start if kind == "readout" else start + half_trip
            times += (start, pulse, pulse + pulse_s[kind])
            _tally(counts, kind)
        runs.append((step.index, tuple(times), template))
        parked.append((step.index, returns))
    # Return trips of parked (measured) qubits complete at the cycle
    # boundary; their round-trip time was charged by the parking step.
    end = _duration(timing, counts)
    runs += [(index, (end,), returns) for index, returns in parked if returns]
    annotations = tuple(f"step {s.index}: {s.note}" for s in table.steps if s.kind == "hook")
    return EventTrace(tuple(runs), {**counts, "steps": len(table.steps)}, end, annotations)


# ---------------------------------------------------------------------------
# Step-table text format

def step_table_from_text(text: str) -> StepTable:
    """Parse the step-table text.  Each distinct body (the tokens after the
    index) is parsed once; the index and its order are checked on every line."""
    steps: list[Step] = []
    bodies: dict[tuple[str, ...], tuple] = {}
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
        key = tuple(tokens[1:])
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = _parse_body(line_no, tokens[1], tokens[2:])
        steps.append(Step(index, *body))
    return StepTable(tuple(steps))


def _parse_body(line_no: int, kind_token: str, items: list[str]) -> tuple:
    """The fields of a step after its index, from its kind token and items."""
    park = kind_token.endswith("+park")
    kind = kind_token.removesuffix("+park")
    if kind == "hook":
        return "hook", (), (), (), False, " ".join(items)
    if kind not in ("one_qubit", "two_qubit", "readout"):
        raise ValueError(f"line {line_no}: unknown step kind {kind!r}")
    gates = []
    for item in items:  # QUBIT@REGION:GATE, A+B@REGION:rz=CARRIER or QUBIT@REGION
        try:
            placement, label = (item, "readout") if kind == "readout" else item.split(":", 1)
            target, region = placement.split("@", 1)
            if kind == "two_qubit":
                qubit_a, qubit_b = target.split("+", 1)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad {kind} item {item!r}") from exc
        if kind != "two_qubit":
            gates.append(SoloGate(target, region, label))
            continue
        carrier = label.removeprefix("rz=")
        if carrier not in (qubit_a, qubit_b):
            raise ValueError(f"line {line_no}: rz carrier {carrier!r} is not part of pair {target!r}")
        gates.append(PairGate(qubit_a, qubit_b, region, carrier))
    if kind == "one_qubit":
        return kind, tuple(gates), (), (), park, ""
    if kind == "two_qubit":
        return kind, (), tuple(gates), (), False, ""
    return kind, (), (), tuple(gates), False, ""


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
