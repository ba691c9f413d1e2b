"""Assembly of the full design report and of sweep records.

The report gathers every derived quantity for one configuration: geometry,
line counts at all three hierarchy levels, Rent's exponent, logical-qubit
capacities, electronics constraints, footprint, cycle timing and the power
budget.  Values are kept in SI units in the machine-readable document; the
text renderer converts to engineering units.

``compute`` validates a configuration and runs every model stage once,
returning the typed results.  Each reported quantity is one row of
``QUANTITIES``: its document path, how it is read from the results, its text
label and formatter, and its sweep column if it is swept.  ``build_report``,
``render_text``, ``SWEEP_FIELDS`` and ``sweep_record`` all read that table, so
adding a quantity means adding one row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from operator import attrgetter

from . import electronics, power, wiring
from .config import _KEYMAP, VALIDATION_ORDER, ToolConfig
from .errors import InvalidConfigError
from .model import GATE_INVENTORY, READOUT_MODES, CycleTime, GeometrySummary, cycle_time, derive_geometry, record
from .units import si_format

__all__ = ["Design", "Sweep", "compute", "QUANTITIES", "build_report", "render_text", "sweep_record", "SWEEP_FIELDS"]


class Design(metaclass=record):
    """Typed stage results for one validated configuration."""

    geometry: GeometrySummary
    lines: dict[str, wiring.LineCount]          # by level, in ``wiring.LEVELS`` order
    rent_exponent: float
    capacity_defect: int
    capacity_lattice_surgery: int
    fabrication_crossbar_limit: int
    coarse_hold_capacitance_f: float
    fine_hold_capacitance_f: float
    refresh_rate_hz: float
    demux_clock_hz: float
    footprint: electronics.FootprintReport
    cycles: dict[str, CycleTime]                # by readout mode
    grid: power.GridCapacitance
    power: power.PowerReport


def _geometry(config: ToolConfig, out: dict, pinned: float | None) -> None:
    out["geometry"] = derive_geometry(config.array)


def _lines(config: ToolConfig, out: dict, pinned: float | None) -> None:
    cfg = config.array
    lines = out["lines"] = {level: wiring.lines_at(level, cfg) for level in wiring.LEVELS}
    out["rent_exponent"] = wiring.rent_exponent(lines["quantum_plane"].total, lines["unit_cell"].total,
                                                cfg.unit_cells)
    out["capacity_defect"] = wiring.logical_qubit_capacity(cfg, "defect")
    out["capacity_lattice_surgery"] = wiring.logical_qubit_capacity(cfg, "lattice_surgery")
    out["fabrication_crossbar_limit"] = wiring.max_fab_crossbars(cfg)


def _electronics(config: ToolConfig, out: dict, pinned: float | None) -> None:
    cfg, elec = config.array, config.electronics
    coarse = out["coarse_hold_capacitance_f"] = electronics.min_hold_capacitance("coarse", elec)
    fine = out["fine_hold_capacitance_f"] = electronics.min_hold_capacitance("fine", elec)
    refresh = out["refresh_rate_hz"] = electronics.refresh_rate(elec)
    out["demux_clock_hz"] = electronics.demux_clock(cfg, refresh)
    out["footprint"] = electronics.footprint(cfg, elec, GATE_INVENTORY, fine, coarse)


def _timing(config: ToolConfig, out: dict, pinned: float | None) -> None:
    out["cycles"] = {m: cycle_time(config.timing, config.array, m) for m in READOUT_MODES}


def _power(config: ToolConfig, out: dict, pinned: float | None) -> None:
    grid = out["grid"] = power.parasitic_capacitance(config.interconnect)
    out["power"] = power.total_power(config.array, config.signals, config.electronics, grid,
                                     out["refresh_rate_hz"], pinned)


# The model stages in run order: name -> (config sections or ``section.field``s read, run).  A run adds
# its Design fields to ``out``.  A stage that reads another stage's result lists every read of that stage.
STAGES = {
    "geometry": (("array.qubit_pitch_nm", "array.gate_pitch_nm", "array.bias_module_edge",
                  "array.bias_grid_edge"), _geometry),
    "lines": (("array",), _lines),
    "electronics": (("array.bias_module_edge", "array.qubit_pitch_nm", "electronics"), _electronics),
    "timing": (("array.readout_module_edge", "array.sequential_readouts", "timing"), _timing),
    "power": (("array.bias_module_edge", "array.bias_grid_edge", "array.qubit_pitch_nm", "electronics",
               "signals", "interconnect"), _power),
}
_FULL_PLAN = (VALIDATION_ORDER, tuple(run for _, run in STAGES.values()))


class Sweep:
    """A sweep's last valid Design, and what later points rerun: the swept section's checks and the
    stages that read the swept section or field.  ``key`` is the swept ``(section, key)`` as
    :func:`~spiderweb.config.resolve_override` resolves it."""

    def __init__(self, key: tuple[str, str]):
        section = key[0]
        field = f"{section}.{_KEYMAP[key][0]}"
        self.plan = ((section,), tuple(run for reads, run in STAGES.values() if section in reads or field in reads))
        # Until a valid point every stage runs.  A sweep records an array violation as a rejected point,
        # so its first point checks every other section before the array; once they have passed (else the
        # sweep has failed), the next points check only the swept section and the array.
        self.pending = (tuple(s for s in VALIDATION_ORDER if s != "array") + ("array",), _FULL_PLAN[1])
        self.retry = (tuple(dict.fromkeys((section, "array"))), _FULL_PLAN[1])
        self.last: Design | None = None


def compute(config: ToolConfig, pinned_parasitic_f: float | None = None, sweep: Sweep | None = None) -> Design:
    """Validate ``config`` and run every model stage on it.  After a valid point of ``sweep``, only the
    sweep's plan runs, and every other result is that point's; a valid result becomes its last point."""
    last = sweep.last if sweep else None
    sections, runs = sweep.plan if last else sweep.pending if sweep else _FULL_PLAN
    if sweep:
        sweep.pending = sweep.retry
    config.validate(sections)
    out = last._asdict() if last else {}
    for run in runs:
        run(config, out, pinned_parasitic_f)
    design = Design(**out)
    if sweep:
        sweep.last = design
    return design


def _si(unit: str) -> Callable[[float], str]:
    return lambda value: si_format(value, unit)


def _scaled(factor: float, unit: str) -> Callable[[float], str]:
    return lambda value: f"{value * factor:.4g} {unit}"


def _counts(level: str) -> Callable[[dict], str]:
    return lambda doc: "{dc_biasing}/{shuttling}/{pulsed_mw}/{logical_ops}/{readout} = {total}".format(
        **doc["lines"][level])


def _cycle(mode: str) -> Callable[[dict], str]:
    return lambda doc: "{}  (dephasing/cycle {:.2f})".format(
        si_format(doc["timing"][mode]["cycle_s"], "s"), doc["timing"][mode]["coherence_ratio"])


# One row of QUANTITIES; each field defaults to None.
#   path    the dotted document path that ``build_report`` sets (``lines`` and ``timing`` are whole blocks)
#   label   the label of one ``render_text`` line; a row without ``text`` prints it alone, as a heading
#   text    formats the value at ``path`` for that line, or the whole document when there is no path
#   column  the ``sweep_record`` field that holds the value
#   get     reads the value from Design: a dotted attribute path (``path`` when omitted) or a function
Quantity = namedtuple("Quantity", ("path", "label", "text", "column", "get"), defaults=(None,) * 5)

# Every reported quantity, in text order.
QUANTITIES = (
    Quantity(label="geometry"),
    Quantity("geometry.unit_cells", "  unit cells", str, "unit_cells"),
    Quantity("geometry.qubit_count", "  qubits", str),
    Quantity("geometry.plane_edge_m", "  plane edge", _si("m")),
    Quantity("geometry.plane_area_m2", "  plane area", _scaled(1e6, "mm^2")),
    Quantity("geometry.plane_perimeter_m", "  plane perimeter", _si("m")),
    Quantity("geometry.gates_per_arm", "  gates per arm", str),
    Quantity(label="line counts (dc/shuttle/pulsed/logical/readout = total)"),
    Quantity("lines", get=lambda d: {level: count.to_dict() for level, count in d.lines.items()}),
    Quantity(None, "  unit_cell", _counts("unit_cell"), "lines_unit_cell", lambda d: d.lines["unit_cell"].total),
    Quantity(None, "  module", _counts("module")),
    Quantity(None, "  quantum_plane", _counts("quantum_plane"), "lines_quantum_plane",
             lambda d: d.lines["quantum_plane"].total),
    Quantity("rent_exponent", "rent exponent", "{:.2f}".format, "rent_exponent"),
    Quantity(label="logical qubit capacity"),
    Quantity("capacity.defect", "  defect encoding", str, "capacity_defect", "capacity_defect"),
    Quantity("capacity.lattice_surgery", "  lattice surgery", str, "capacity_lattice_surgery",
             "capacity_lattice_surgery"),
    Quantity("capacity.fabrication_crossbar_limit", "  crossbar fab limit", str, "crossbar_fab_limit",
             "fabrication_crossbar_limit"),
    Quantity(label="electronics"),
    Quantity("electronics.coarse_hold_capacitance_f", "  coarse hold cap", _si("F"),
             get="coarse_hold_capacitance_f"),
    Quantity("electronics.fine_hold_capacitance_f", "  fine hold cap", _si("F"), get="fine_hold_capacitance_f"),
    Quantity("electronics.refresh_rate_hz", "  refresh rate", _si("Hz"), get="refresh_rate_hz"),
    Quantity("electronics.demux_clock_hz", "  demux clock", _si("Hz"), get="demux_clock_hz"),
    Quantity(label="footprint per unit cell"),
    Quantity("footprint.hold_capacitance_f", "  hold capacitance", _si("F")),
    Quantity("footprint.capacitor_area_m2", "  capacitor area", _scaled(1e12, "um^2")),
    Quantity("footprint.demux_area_m2", "  demux area", _scaled(1e12, "um^2")),
    Quantity("footprint.total_area_m2", "  total area", _scaled(1e12, "um^2")),
    Quantity("footprint.min_pitch_m", "  minimum pitch", _si("m")),
    Quantity(column="min_pitch_um", get="footprint.min_pitch_um"),
    Quantity("footprint.pitch_feasible", "  pitch feasible", lambda ok: "yes" if ok else "NO", "pitch_feasible"),
    Quantity(label="cycle time"),
    Quantity("timing", get=lambda d: {mode: {"cycle_s": ct.total_s, "coherence_ratio": ct.coherence_ratio}
                                      for mode, ct in d.cycles.items()}),
    Quantity(None, "  parallel", _cycle("parallel")),
    Quantity(None, "  mixed", _cycle("mixed"), "cycle_mixed_s", lambda d: d.cycles["mixed"].total_s),
    Quantity(None, "  sequential", _cycle("sequential")),
    Quantity(label="power"),
    Quantity("power.grid_parasitic_f", get="grid.total_f"),
    Quantity("power.used_parasitic_f", get="power.parasitic_capacitance_f"),
    Quantity("power.parasitic_pinned", get="power.parasitic_pinned"),
    Quantity(None, "  parasitic cap", lambda doc: si_format(doc["power"]["used_parasitic_f"], "F")
             + (" (pinned)" if doc["power"]["parasitic_pinned"] else "")),
    Quantity("power.per_cell.pulsed_w", "  per cell pulsed", _si("W"), get="power.pulsed_w"),
    Quantity("power.per_cell.demux_w", "  per cell demux", _si("W"), get="power.demux_w"),
    Quantity("power.per_cell.line_w", "  per cell line loss", _si("W"), get="power.line_w"),
    Quantity("power.array.pulsed_w", "  array pulsed", _si("W"), get="power.array_pulsed_w"),
    Quantity("power.array.demux_w", "  array demux", _si("W"), get="power.array_demux_w"),
    Quantity("power.array.line_w", "  array line loss", _si("W"), get="power.array_line_w"),
    Quantity("power.array.total_w", "  array total", _si("W"), "array_total_w", "power.total_w"),
    Quantity("power.line_constant_w_s2_per_v2", "  line-loss constant", _scaled(1e27, "nW*ns^2/V^2"),
             get="power.line_constant_w_s2_per_v2"),
)


def _getter(row: Quantity) -> Callable[[Design], object]:
    get = row.get or row.path
    return attrgetter(get) if isinstance(get, str) else get


def _keys(path: str | None) -> tuple[str, ...]:
    return tuple(path.split(".")) if path else ()


# each path split once: (parent keys, leaf, getter) to build; (heading, or label padded to the
# 24-column value start, keys, text) to print
_LEAVES = tuple((keys[:-1], keys[-1], _getter(row)) for row in QUANTITIES if (keys := _keys(row.path)))
_LINES = tuple((row.label if row.text is None else f"{row.label:<24}", _keys(row.path), row.text)
               for row in QUANTITIES if row.label)
_COLUMNS = tuple((row.column, _getter(row)) for row in QUANTITIES if row.column)
SWEEP_FIELDS = ("parameter", "value", "valid", "violations", *(column for column, _ in _COLUMNS))


def build_report(config: ToolConfig, pinned_parasitic_f: float | None = None) -> dict[str, object]:
    design = compute(config, pinned_parasitic_f)
    resolved = config._replace(signals=config.signals.resolved(config.array))
    doc: dict[str, object] = {"config": {name: part._asdict() for name, part in zip(ToolConfig._fields, resolved)}}
    for parents, leaf, get in _LEAVES:
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = get(design)
    return doc


def render_text(doc: dict[str, object]) -> str:
    out: list[str] = []
    for label, keys, text in _LINES:
        if text is None:
            out.append(label)
            continue
        value = doc
        for key in keys:
            value = value[key]
        out.append(label + text(value))
    return "\n".join(out) + "\n"


def sweep_record(parameter: str, raw_value: str, config: ToolConfig, pinned_parasitic_f: float | None = None,
                 sweep: Sweep | None = None) -> dict[str, object]:
    """One sweep-point record; infeasible or invalid points are flagged, not dropped."""
    record: dict[str, object] = dict.fromkeys(SWEEP_FIELDS)
    record["parameter"] = parameter
    record["value"] = raw_value
    try:
        design = compute(config, pinned_parasitic_f, sweep)
    except InvalidConfigError as exc:
        record.update(valid=False, violations=str(exc))
        return record
    record.update(valid=True, violations="")
    for column, get in _COLUMNS:
        record[column] = get(design)
    return record
