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

The shipped default program is one consistent reconstruction of the cycle.
Its checked contract is its window census, step count and the two steps that
only move data qubit D1, which ``verify`` reads from its one simulated trace,
and the rules that every simulation checks: each qubit once per window, and
two electrons per operation region.  Per-qubit electron conservation holds
for it, but only a test checks that; the simulator does not.  The exact
interleaving of the dressing pulses is a free choice.

A long program repeats a few distinct step bodies (a step without its index),
so a table holds each body once and each step as its index and body number.
Per process (``PLANS_KEPT`` of each kept), a body text is parsed once, and a
body lowered and checked in one pass and its csv and json rows formed once.
The clock is four integer window counts, in ``CYCLE_CENSUS`` order; a window
starts at ``model._duration`` of the counts so far.  This is exact: the lanes
and the window checks read only the body, and the clock only the window
counts.  A body that fails its checks is never kept: its error names its first
step in the table at hand.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import groupby
from operator import itemgetter

from . import writers
from .config import TimingParams
from .errors import ScheduleConflictError
from .model import CYCLE_CENSUS, _duration, cycle_time, record  # the benchmark traces cycle_time under this name

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
PLANS_KEPT = 1024     # entries kept per process in each cache below; the oldest goes first
_plans: dict[tuple, tuple] = {}   # step body (a step without its index) -> its checked plan
_parsed: dict[str, tuple] = {}    # step-body text -> its parsed body
_pieces: dict[tuple, list] = {}   # (row writer, event template) -> the template's slot pieces
# Each gate kind's item in the step-table text, from its gate's fields; any other kind is a hook
_ITEMS = {"one_qubit": "{0}@{1}:{2}", "two_qubit": "{0}+{1}@{2}:rz={3}", "readout": "{0}@{1}"}
_SEPARATORS = frozenset("+@:~")  # no name (qubit, pair member, region) may hold one


class SoloGate(metaclass=record):
    qubit: str
    region: str
    gate: str


class PairGate(metaclass=record):
    qubit_a: str
    qubit_b: str
    region: str
    rz_carrier: str


class Step(metaclass=record):
    index: int
    kind: str                       # one_qubit | two_qubit | readout | hook
    gates: tuple[SoloGate | PairGate, ...] = ()  # PairGates for two_qubit; a readout's SoloGates read "readout"
    park: bool = False              # defer the return trip past the readout
    note: str = ""


class StepTable(metaclass=record):
    """A step program: each distinct body (a step without its index) once, numbered in first-seen order,
    and each step as (index, body number).  ``StepTable(steps)`` groups the steps once; ``steps``
    rebuilds them on each access."""

    bodies: tuple[tuple, ...]
    order: tuple[tuple[int, int], ...]

    def __new__(cls, steps):
        numbers: dict[tuple, int] = {}
        order = tuple([(step[0], numbers.setdefault(step[1:], len(numbers))) for step in steps])
        return tuple.__new__(cls, (tuple(numbers), order))

    def __reduce__(self):  # copy and pickle rebuild the fields as they are, not through __new__(steps)
        return StepTable._make, (tuple(self),)

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple([tuple.__new__(Step, (index, *self.bodies[number])) for index, number in self.order])


class Event(metaclass=record):
    time_s: float
    step: int
    qubit: str
    op: str
    resource: str


class EventTrace(metaclass=record):
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

    def _fill(self, parts: list[str], rows, stamp) -> list[str]:
        """Append each step's rows to ``parts``.  Per body, each run of events in one time slot becomes the pieces
        that ``rows`` cuts where each event's step and time go, which a step writes as ``stamp.join(pieces)``."""
        seen: dict[int, list] = {}  # id(template) -> its pieces, for this call; ``_pieces`` is keyed by value
        for index, times, template in self.runs:
            slots = seen.get(id(template))
            if slots is None:  # per time slot of the body, its run of events as ``rows`` writes it
                slots = seen[id(template)] = _kept(_pieces, (rows, template), lambda: [
                    (slot, rows(list(run))) for slot, run in groupby(template, itemgetter(0))])
            before, after = stamp(index)
            parts += [f"{before}{times[slot]!r}{after}".join(pieces) for slot, pieces in slots]
        return parts

    def to_csv(self) -> str:
        return "".join(self._fill(["time_s,step,qubit,op,resource\n"], _csv_rows, lambda index: ("", f",{index},")))

    def to_json(self) -> str:
        """The trace document; the caller checks that the times are finite."""
        between = writers.split([dict(zip(Event._fields, (writers.SLOT,) * 2))], 1)[1]  # from a step to its time
        events = self._fill([], _json_rows, lambda index: (f"{index}{between}", ""))
        return writers.document({"annotations": [*self.annotations], "counters": self.counters,
                                 "makespan_s": self.makespan_s}, "events", events)


def _csv_rows(run: list) -> list[str]:
    """A run of one body's events as csv rows, each after its stamp (time and step)."""
    return ["", *writers.csv_lines([event[1:] for event in run], "\n")]


def _json_rows(run: list) -> list[str]:
    """A run of one body's events as json list items, each an ``Event`` as a dict, cut where its step and time go."""
    return writers.split([dict(zip(Event._fields, (writers.SLOT, writers.SLOT, *event[1:]))) for event in run], 1)[::2]


def _kept(cache: dict, key, make, *args):
    """``cache[key]``, else ``make(*args)``, kept unless it raises; past ``PLANS_KEPT`` the oldest entry goes."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = make(*args)
        if len(cache) > PLANS_KEPT:
            del cache[next(iter(cache))]
    return value


def _grouped(pairs) -> dict:
    """Each key of the ``(key, value)`` pairs with its values, both in first-seen order."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _check_window(index: int, actors: list[tuple[str, str, str]]) -> None:
    """Raise :class:`ScheduleConflictError` at step ``index`` if the window places one qubit in two
    regions or twice, or over-fills a region.  Each actor of a shuttled window rides its own channel
    ``qubit~region``, so only a qubit listed twice in one region could share one: no channel rule."""
    for qubit, places in _grouped(dict.fromkeys((q, region) for q, _, region in actors)).items():
        if len(places) > 1:
            detail = f"qubit {qubit!r} is in {len(places)} regions ({', '.join(places)}) in one window"
            raise ScheduleConflictError(index, qubit, tuple(places), 1, detail)
    for qubit, places in _grouped((q, region) for q, _, region in actors).items():
        if len(places) > 1:
            detail = f"qubit {qubit!r} is listed {len(places)} times in one window"
            raise ScheduleConflictError(index, qubit, tuple(places), 1, detail)
    # regions are filled by the actors (a readout has no path), each now a distinct electron
    for region, occupants in _grouped((region, q) for q, _, region in actors).items():
        if len(occupants) > REGION_CAPACITY:
            raise ScheduleConflictError(index, region, tuple(occupants), REGION_CAPACITY)


def _plan(step: Step) -> tuple[tuple[str, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """Lower and check one step body in one pass: the one definition of the cycle rule.  A window is
    (kind, actors), each actor (qubit, op, region) receiving its pulse; each actor of a shuttled
    (non-readout) window rides its own channel, and a parking ``one_qubit`` step defers the return
    trips past the readout.  Returns the window kinds, the events as (time slot, qubit, op, resource)
    with slots 3w, 3w+1, 3w+2 for window w's start, pulse and return, and the parked returns at slot 0."""
    windows = []
    if step.kind == "one_qubit":
        windows = [("one_qubit", [(g.qubit, f"1q_gate:{g.gate}", g.region) for g in step.gates])]
    elif step.kind == "two_qubit":  # exchange, interleaved rz on the carrier, exchange
        swaps = [(q, f"sqrt_swap:{p.qubit_a}+{p.qubit_b}", p.region)
                 for p in step.gates for q in (p.qubit_a, p.qubit_b)]
        rz = [(p.rz_carrier, "1q_gate:rz(180)", p.region) for p in step.gates]
        windows = [("exchange", swaps), ("one_qubit", rz), ("exchange", swaps)]
    elif step.kind == "readout":
        windows = [("readout", [(g.qubit, "readout", g.region) for g in step.gates])]
    elif step.kind != "hook":
        raise ValueError(f"unknown step kind {step.kind!r}")
    kinds, template, parked = [], [], []
    for w, (kind, actors) in enumerate(windows):
        lanes = [] if kind == "readout" else [f"{qubit}~{region}" for qubit, _, region in actors]
        _check_window(step.index, actors)
        kinds.append(kind)
        template += [(3 * w, qubit, "shuttle_out", lane) for (qubit, _, _), lane in zip(actors, lanes)]
        template += [(3 * w + 1, *actor) for actor in actors]
        returns = [(qubit, "shuttle_back", lane) for (qubit, _, _), lane in zip(actors, lanes)]
        if step.park and step.kind == "one_qubit":
            parked += [(0, *event) for event in returns]
        else:
            template += [(3 * w + 2, *event) for event in returns]
    return tuple(kinds), tuple(template), tuple(parked)


def simulate_cycle(table: StepTable, timing: TimingParams) -> EventTrace:
    """Execute the step table, checking resource capacities window by window.

    One qubit in two regions or twice in one window, or a region over-filled,
    raises :class:`ScheduleConflictError` naming the first step with that body
    and the resource.  Time is kept as integer window counts per kind and
    re-expanded into seconds for every window, so the makespan is
    bit-identical to the closed-form census-weighted sum.  ``timing`` is a
    validated section (see :meth:`spiderweb.config.ToolConfig.validate`).
    """
    one_qubit_s, exchange_s, readout_s = timing.single_qubit_s, timing.exchange_s, timing.readout_s
    half_trip = timing.shuttle_s / 2.0
    shuttles = one_qubit = exchanges = readouts = 0  # the census counts so far, in CYCLE_CENSUS order
    bodies, plans = table.bodies, [None] * len(table.bodies)  # each body's plan, fetched at its first step
    runs: list[tuple] = []
    parked: list[tuple[int, tuple]] = []  # (step, the return trips it parks)
    for index, number in table.order:
        plan = plans[number]
        if plan is None:
            plan = plans[number] = _kept(_plans, bodies[number], _plan, Step(index, *bodies[number]))
        kinds, template, returns = plan
        times = []  # the events of a window share these time objects
        for kind in kinds:
            start = _duration(timing, shuttles, one_qubit, exchanges, readouts)
            if kind == "readout":  # at the window start, with no round trip
                times += (start, start, start + readout_s)
                readouts += 1
                continue
            pulse = start + half_trip  # a shuttled pulse lands half a round trip in
            shuttles += 1
            if kind == "exchange":
                times += (start, pulse, pulse + exchange_s)
                exchanges += 1
            else:
                times += (start, pulse, pulse + one_qubit_s)
                one_qubit += 1
        runs.append((index, tuple(times), template))
        parked.append((index, returns))
    # Return trips of parked (read-out) qubits complete at the cycle
    # boundary; their round-trip time was charged by the parking step.
    counts = (shuttles, one_qubit, exchanges, readouts)
    end = _duration(timing, *counts)
    runs += [(index, (end,), returns) for index, returns in parked if returns]
    notes = {number: body[-1] for number, body in enumerate(bodies) if body[0] == "hook"}  # (kind, gates, park, note)
    annotations = tuple([f"step {index}: {notes[number]}" for index, number in table.order if number in notes])
    return EventTrace(tuple(runs), dict(zip(CYCLE_CENSUS, counts), steps=len(table.order)), end, annotations)


# ---------------------------------------------------------------------------
# Step-table text format

def step_table_from_text(text: str) -> StepTable:
    """Parse the step-table text.  Each distinct body text (the text after the index) is parsed once per process,
    and numbered by its body, which two texts can share; every line's index order is checked."""
    order: list[tuple[int, int]] = []
    numbers: dict[str, int] = {}   # body text -> body number
    bodies: dict[tuple, int] = {}  # body -> body number, in first-seen order
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head = raw.partition("#")[0].split(None, 1)
        if not head:
            continue
        if len(head) < 2:
            raise ValueError(f"line {line_no}: expected '<index> <kind> ...'")
        try:
            index = int(head[0])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad step index {head[0]!r}") from exc
        if order and index <= order[-1][0]:
            raise ValueError(f"line {line_no}: step index {index} repeats or is out of order")
        rest = head[1].rstrip()  # the body text
        number = numbers.get(rest)
        if number is None:
            number = numbers[rest] = bodies.setdefault(_kept(_parsed, rest, _parse_body, line_no, rest), len(bodies))
        order.append((index, number))
    return tuple.__new__(StepTable, (tuple(bodies), tuple(order)))


def _parse_body(line_no: int, text: str) -> tuple:
    """The fields of a step after its index, from the text of its body."""
    kind_token, *items = text.split()
    park = kind_token.endswith("+park")
    kind = kind_token.removesuffix("+park")
    if park and kind in ("two_qubit", "readout", "hook"):
        raise ValueError(f"line {line_no}: +park applies only to one_qubit steps, not {kind}")
    if kind == "hook":
        return "hook", (), False, " ".join(items)
    if kind not in _ITEMS:
        raise ValueError(f"line {line_no}: unknown step kind {kind!r}")
    gates = []
    for item in items:  # QUBIT@REGION:GATE, A+B@REGION:rz=CARRIER or QUBIT@REGION (see _ITEMS)
        placement, colon, label = (item, ":", "readout") if kind == "readout" else item.partition(":")
        target, _, region = placement.partition("@")
        names = (*target.split("+"), region)  # each qubit (two for a pair), then the region
        qubits = names[:-1]
        pair_ok = (len(qubits) == 2 and qubits[0] != qubits[1] and label.startswith("rz=") if kind == "two_qubit"
                   else len(qubits) == 1)
        if not (colon and label and pair_ok and all(names) and _SEPARATORS.isdisjoint("".join(names))):
            raise ValueError(f"line {line_no}: bad {kind} item {item!r}")
        if kind != "two_qubit":
            gates.append(SoloGate(target, region, label))
            continue
        carrier = label.removeprefix("rz=")
        if carrier not in qubits:
            raise ValueError(f"line {line_no}: rz carrier {carrier!r} is not part of pair {target!r}")
        gates.append(PairGate(*qubits, region, carrier))
    return kind, tuple(gates), park, ""


def step_table_to_text(table: StepTable) -> str:
    texts = []
    for step in [Step(0, *body) for body in table.bodies]:
        items = [_ITEMS[step.kind].format(*gate) for gate in step.gates] if step.kind in _ITEMS else [step.note]
        texts.append(" ".join([step.kind + ("+park" if step.park else ""), *items]))
    return "\n".join([f"{index} {texts[number]}".rstrip() for index, number in table.order]) + "\n"


def load_step_table(path) -> StepTable:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read step table {path!r}: {getattr(exc, 'strerror', exc)}") from exc
    return step_table_from_text(text)


@cache
def default_step_table() -> StepTable:
    """The shipped unit-cell cycle program (see module docstring); one
    immutable table, parsed once per process."""
    return load_step_table(os.path.join(os.path.dirname(__file__), "data", "unit_cell_cycle.steps"))
