"""A plain reference for ``spiderweb.schedule.simulate_cycle``.

It walks the step table window by window and writes one ``Event`` per shuttle,
pulse and return as it goes.  It keeps no plans: every step is lowered and
checked where it stands, the capacity rules are counted in plain dicts, and the
csv and json documents are written with ``csv.writer`` and ``json.dumps``.  It
imports only the simulator's data types; the window rule, the checks, the clock
(the census-weighted sum of ``model._duration``) and the writers are written
out again here.
"""

import csv
import io
import json
from typing import NamedTuple

from spiderweb.schedule import Event, Step, StepTable

REGION_CAPACITY = 2


class Conflict(Exception):
    """The first window rule a table breaks, with the simulator's error text."""

    def __init__(self, step: int, resource: str, occupants: tuple, capacity: int, text: str):
        super().__init__(f"step {step}: {text}")
        self.step, self.resource, self.occupants, self.capacity = step, resource, occupants, capacity


class OracleTrace(NamedTuple):
    events: tuple
    counters: dict
    makespan_s: float
    annotations: tuple

    def to_csv(self) -> str:
        rows = [("time_s", "step", "qubit", "op", "resource")]
        rows += [(repr(e.time_s), e.step, e.qubit, e.op, e.resource) for e in self.events]
        return "".join(map(_csv_line, rows))

    def to_json(self) -> str:
        doc = {
            "annotations": list(self.annotations),
            "counters": self.counters,
            "events": [{"op": e.op, "qubit": e.qubit, "resource": e.resource, "step": e.step, "time_s": e.time_s}
                       for e in self.events],
            "makespan_s": self.makespan_s,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _csv_line(cells) -> str:
    """One row by ``csv.writer``, whose default "\r\n" terminator has it quote a cell
    holding "\r" or "\n"; the line then ends in "\n", as the simulator writes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue().removesuffix("\r\n") + "\n"


def windows(step: Step) -> list[tuple[str, list, list, bool]]:
    """(kind, movers as (qubit, region), actors as (qubit, op, region), park) per window."""
    if step.kind == "one_qubit":
        return [("one_qubit", [(g.qubit, g.region) for g in step.solo_gates],
                 [(g.qubit, "1q_gate:" + g.gate, g.region) for g in step.solo_gates], step.park)]
    if step.kind == "two_qubit":
        movers, swaps, carriers, rz = [], [], [], []
        for p in step.pair_gates:
            for qubit in (p.qubit_a, p.qubit_b):
                movers.append((qubit, p.region))
                swaps.append((qubit, "sqrt_swap:" + p.qubit_a + "+" + p.qubit_b, p.region))
            carriers.append((p.rz_carrier, p.region))
            rz.append((p.rz_carrier, "1q_gate:rz(180)", p.region))
        return [("exchange", movers, swaps, False), ("one_qubit", carriers, rz, False),
                ("exchange", movers, swaps, False)]
    if step.kind == "readout":
        return [("readout", [], [(g.qubit, "readout", g.region) for g in step.measured], False)]
    assert step.kind == "hook", step.kind
    return []


def check(index: int, actors: list) -> None:
    """Raise :class:`Conflict` for the first broken rule of one window: a qubit placed in
    two regions, then a qubit listed twice, then each region in the order of first use.
    A channel is ``qubit~region``, so only a qubit listed twice in one region could
    fill one twice, and the listing rule comes first: there is no channel rule."""
    places: dict[str, list[str]] = {}
    for qubit, _, region in actors:
        if region not in places.setdefault(qubit, []):
            places[qubit].append(region)
    for qubit, where in places.items():
        if len(where) > 1:
            raise Conflict(index, qubit, tuple(where), 1,
                           f"qubit {qubit!r} is in {len(where)} regions ({', '.join(where)}) in one window")
    listed: dict[str, list[str]] = {}
    for qubit, _, region in actors:
        listed.setdefault(qubit, []).append(region)
    for qubit, where in listed.items():
        if len(where) > 1:
            raise Conflict(index, qubit, tuple(where), 1, f"qubit {qubit!r} is listed {len(where)} times in one window")
    regions: dict[str, list[str]] = {}
    for qubit, _, region in actors:
        regions.setdefault(region, []).append(qubit)
    for region, occupants in regions.items():
        if len(occupants) > REGION_CAPACITY:
            raise Conflict(index, region, tuple(occupants), REGION_CAPACITY,
                           f"resource {region!r} holds {len(occupants)} electrons "
                           f"({', '.join(occupants)}), capacity {REGION_CAPACITY}")


def simulate(table: StepTable, timing) -> OracleTrace:
    counts = {"shuttle_round_trips": 0, "one_qubit_gates": 0, "exchanges": 0, "readout_phases": 0}
    pulse_s = {"one_qubit": timing.single_qubit_s, "exchange": timing.exchange_s, "readout": timing.readout_s}
    census_key = {"one_qubit": "one_qubit_gates", "exchange": "exchanges", "readout": "readout_phases"}

    def clock() -> float:
        return (counts["shuttle_round_trips"] * timing.shuttle_s + counts["one_qubit_gates"] * timing.single_qubit_s
                + counts["exchanges"] * timing.exchange_s + counts["readout_phases"] * timing.readout_s)

    events: list[Event] = []
    parked: list[Event] = []  # return trips deferred to the cycle's end, time filled in then
    for step in table.steps:
        for kind, movers, actors, park in windows(step):
            check(step.index, actors)
            start = clock()
            pulse = start if kind == "readout" else start + timing.shuttle_s / 2.0
            for qubit, region in movers:
                events.append(Event(start, step.index, qubit, "shuttle_out", qubit + "~" + region))
            for qubit, op, region in actors:
                events.append(Event(pulse, step.index, qubit, op, region))
            back = [Event(pulse + pulse_s[kind], step.index, qubit, "shuttle_back", qubit + "~" + region)
                    for qubit, region in movers]
            (parked if park else events).extend(back)
            if kind != "readout":
                counts["shuttle_round_trips"] += 1
            counts[census_key[kind]] += 1
    end = clock()
    events += [e._replace(time_s=end) for e in parked]
    annotations = tuple(f"step {s.index}: {s.note}" for s in table.steps if s.kind == "hook")
    return OracleTrace(tuple(events), {**counts, "steps": len(table.steps)}, end, annotations)
