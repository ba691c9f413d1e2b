"""Assembly of the full design report and of sweep records.

The report gathers every derived quantity for one configuration: geometry,
line counts at all three hierarchy levels, Rent's exponent, logical-qubit
capacities, electronics constraints, footprint, cycle timing and the power
budget.  Values are kept in SI units in the machine-readable document; the
text renderer converts to engineering units.

``compute`` validates a configuration and runs every model stage once,
returning the typed results; ``build_report`` lays them out as the document
and ``sweep_record`` reads the few a sweep row needs.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from . import electronics, power, wiring
from .config import _KEYMAP, ToolConfig
from .errors import InvalidConfigError
from .model import (READOUT_MODES, CycleTime, GeometrySummary, cycle_time, default_gate_inventory, derive_geometry,
                    validate_config)
from .units import si_format

__all__ = ["Design", "Sweep", "compute", "build_report", "render_text", "sweep_record", "SWEEP_FIELDS"]


class Design(NamedTuple):
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


_INVENTORY = default_gate_inventory()


def _validate(config: ToolConfig, out: dict, pinned: float | None, sections: tuple[str, ...]) -> None:
    for section in sections:
        if section == "array":
            validate_config(config.array).raise_if_invalid()
        else:
            getattr(config, section).validate()


def _geometry(config: ToolConfig, out: dict, pinned: float | None, sections: tuple[str, ...]) -> None:
    out["geometry"] = derive_geometry(config.array)


def _lines(config: ToolConfig, out: dict, pinned: float | None, sections: tuple[str, ...]) -> None:
    cfg = config.array
    lines = out["lines"] = {level: wiring.lines_at(level, cfg) for level in wiring.LEVELS}
    out["rent_exponent"] = wiring.rent_exponent(lines["quantum_plane"].total, lines["unit_cell"].total,
                                                cfg.unit_cells)
    out["capacity_defect"] = wiring.logical_qubit_capacity(cfg, "defect")
    out["capacity_lattice_surgery"] = wiring.logical_qubit_capacity(cfg, "lattice_surgery")
    out["fabrication_crossbar_limit"] = wiring.max_fab_crossbars(cfg)


def _electronics(config: ToolConfig, out: dict, pinned: float | None, sections: tuple[str, ...]) -> None:
    cfg, elec = config.array, config.electronics
    coarse = out["coarse_hold_capacitance_f"] = electronics.min_hold_capacitance("coarse", elec)
    fine = out["fine_hold_capacitance_f"] = electronics.min_hold_capacitance("fine", elec)
    refresh = out["refresh_rate_hz"] = electronics.refresh_rate(elec, elec.fine_resolution_v)
    out["demux_clock_hz"] = electronics.demux_clock(cfg, refresh)
    out["footprint"] = electronics.footprint(cfg, elec, _INVENTORY, fine, coarse)


def _timing(config: ToolConfig, out: dict, pinned: float | None, sections: tuple[str, ...]) -> None:
    out["cycles"] = {m: cycle_time(config.timing, config.array, m) for m in READOUT_MODES}


def _power(config: ToolConfig, out: dict, pinned: float | None, sections: tuple[str, ...]) -> None:
    grid = out["grid"] = power.parasitic_capacitance(config.interconnect)
    out["power"] = power.total_power(config.array, config.signals, config.electronics, grid,
                                     out["refresh_rate_hz"], pinned)


# The model stages in run order: name -> (config sections or ``section.field``s read, upstream stages
# read, run).  A run adds its Design fields to ``out``; ``validate`` checks the given sections, in order.
STAGES = {
    "validate": (("array", "electronics", "timing", "interconnect", "signals"), (), _validate),
    "geometry": (("array.qubit_pitch_nm", "array.gate_pitch_nm", "array.bias_module_edge",
                  "array.bias_grid_edge"), (), _geometry),
    "lines": (("array",), (), _lines),
    "electronics": (("array.bias_module_edge", "array.qubit_pitch_nm", "electronics"), (), _electronics),
    "timing": (("array.readout_module_edge", "array.sequential_readouts", "timing"), (), _timing),
    "power": (("array.bias_module_edge", "array.bias_grid_edge", "array.qubit_pitch_nm", "electronics",
               "signals", "interconnect"), ("electronics",), _power),
}
_FULL_PLAN = (STAGES["validate"][0], tuple(run for _, _, run in STAGES.values()))


class Sweep:
    """A sweep's last valid Design, and what later points rerun: the swept section's checks and the
    stages that read the swept key's field, directly or downstream.  ``key`` is the swept
    ``(section, key)`` as :func:`~spiderweb.config.resolve_override` resolves it."""

    def __init__(self, key: tuple[str, str]):
        section = key[0]
        field = f"{section}.{_KEYMAP[key][0]}"
        reached: list[str] = []
        for name, (reads, after, _) in STAGES.items():
            if section in reads or field in reads or set(after) & set(reached):
                reached.append(name)
        self.plan = ((section,), tuple(STAGES[name][2] for name in reached))
        self.last: Design | None = None


def compute(config: ToolConfig, pinned_parasitic_f: float | None = None, sweep: Sweep | None = None) -> Design:
    """Validate ``config`` and run every model stage on it.  After a valid point of ``sweep``, only the
    sweep's plan runs, and every other result is that point's; a valid result becomes its last point."""
    last = sweep.last if sweep else None
    sections, runs = sweep.plan if last else _FULL_PLAN
    out = last._asdict() if last else {}
    for run in runs:
        run(config, out, pinned_parasitic_f, sections)
    design = Design(**out)
    if sweep:
        sweep.last = design
    return design


def build_report(config: ToolConfig, pinned_parasitic_f: float | None = None) -> dict[str, Any]:
    design = compute(config, pinned_parasitic_f)
    fp, pw = design.footprint, design.power
    return {
        "config": {
            "array": config.array._asdict(),
            "electronics": config.electronics._asdict(),
            "timing": config.timing._asdict(),
            "signals": config.signals.resolved(config.array)._asdict(),
            "interconnect": config.interconnect._asdict(),
        },
        "geometry": design.geometry._asdict(),
        "lines": {level: count.to_dict() for level, count in design.lines.items()},
        "rent_exponent": design.rent_exponent,
        "capacity": {
            "defect": design.capacity_defect,
            "lattice_surgery": design.capacity_lattice_surgery,
            "fabrication_crossbar_limit": design.fabrication_crossbar_limit,
        },
        "electronics": {
            "coarse_hold_capacitance_f": design.coarse_hold_capacitance_f,
            "fine_hold_capacitance_f": design.fine_hold_capacitance_f,
            "refresh_rate_hz": design.refresh_rate_hz,
            "demux_clock_hz": design.demux_clock_hz,
        },
        "footprint": {
            "capacitor_area_m2": fp.capacitor_area_m2,
            "demux_area_m2": fp.demux_area_m2,
            "total_area_m2": fp.total_area_m2,
            "hold_capacitance_f": fp.hold_capacitance_f,
            "min_pitch_m": fp.min_pitch_m,
            "pitch_feasible": fp.pitch_feasible,
        },
        "timing": {
            mode: {
                "cycle_s": ct.total_s,
                "coherence_ratio": ct.coherence_ratio,
            }
            for mode, ct in design.cycles.items()
        },
        "power": {
            "grid_parasitic_f": design.grid.total_f,
            "used_parasitic_f": pw.parasitic_capacitance_f,
            "parasitic_pinned": pw.parasitic_pinned,
            "per_cell": {
                "pulsed_w": pw.pulsed_w,
                "demux_w": pw.demux_w,
                "line_w": pw.line_w,
            },
            "array": {
                "pulsed_w": pw.array_pulsed_w,
                "demux_w": pw.array_demux_w,
                "line_w": pw.array_line_w,
                "total_w": pw.total_w,
            },
            "line_constant_w_s2_per_v2": pw.line_constant_w_s2_per_v2,
        },
    }


def render_text(doc: dict[str, Any]) -> str:
    geo = doc["geometry"]
    cap = doc["capacity"]
    el = doc["electronics"]
    fp = doc["footprint"]
    pw = doc["power"]
    out: list[str] = []
    out.append("geometry")
    out.append(f"  unit cells            {geo['unit_cells']}")
    out.append(f"  qubits                {geo['qubit_count']}")
    out.append(f"  plane edge            {si_format(geo['plane_edge_m'], 'm')}")
    out.append(f"  plane area            {geo['plane_area_m2'] * 1e6:.4g} mm^2")
    out.append(f"  plane perimeter       {si_format(geo['plane_perimeter_m'], 'm')}")
    out.append(f"  gates per arm         {geo['gates_per_arm']}")
    out.append("line counts (dc/shuttle/pulsed/logical/readout = total)")
    for level in ("unit_cell", "module", "quantum_plane"):
        c = doc["lines"][level]
        out.append(
            f"  {level:<14}        {c['dc_biasing']}/{c['shuttling']}/{c['pulsed_mw']}"
            f"/{c['logical_ops']}/{c['readout']} = {c['total']}"
        )
    out.append(f"rent exponent           {doc['rent_exponent']:.2f}")
    out.append("logical qubit capacity")
    out.append(f"  defect encoding       {cap['defect']}")
    out.append(f"  lattice surgery       {cap['lattice_surgery']}")
    out.append(f"  crossbar fab limit    {cap['fabrication_crossbar_limit']}")
    out.append("electronics")
    out.append(f"  coarse hold cap       {si_format(el['coarse_hold_capacitance_f'], 'F')}")
    out.append(f"  fine hold cap         {si_format(el['fine_hold_capacitance_f'], 'F')}")
    out.append(f"  refresh rate          {si_format(el['refresh_rate_hz'], 'Hz')}")
    out.append(f"  demux clock           {si_format(el['demux_clock_hz'], 'Hz')}")
    out.append("footprint per unit cell")
    out.append(f"  hold capacitance      {si_format(fp['hold_capacitance_f'], 'F')}")
    out.append(f"  capacitor area        {fp['capacitor_area_m2'] * 1e12:.4g} um^2")
    out.append(f"  demux area            {fp['demux_area_m2'] * 1e12:.4g} um^2")
    out.append(f"  total area            {fp['total_area_m2'] * 1e12:.4g} um^2")
    out.append(f"  minimum pitch         {si_format(fp['min_pitch_m'], 'm')}")
    out.append(f"  pitch feasible        {'yes' if fp['pitch_feasible'] else 'NO'}")
    out.append("cycle time")
    for mode in ("parallel", "mixed", "sequential"):
        t = doc["timing"][mode]
        out.append(
            f"  {mode:<10}            {si_format(t['cycle_s'], 's')}"
            f"  (dephasing/cycle {t['coherence_ratio']:.2f})"
        )
    out.append("power")
    pinned = " (pinned)" if pw["parasitic_pinned"] else ""
    out.append(f"  parasitic cap         {si_format(pw['used_parasitic_f'], 'F')}{pinned}")
    out.append(f"  per cell pulsed       {si_format(pw['per_cell']['pulsed_w'], 'W')}")
    out.append(f"  per cell demux        {si_format(pw['per_cell']['demux_w'], 'W')}")
    out.append(f"  per cell line loss    {si_format(pw['per_cell']['line_w'], 'W')}")
    out.append(f"  array pulsed          {si_format(pw['array']['pulsed_w'], 'W')}")
    out.append(f"  array demux           {si_format(pw['array']['demux_w'], 'W')}")
    out.append(f"  array line loss       {si_format(pw['array']['line_w'], 'W')}")
    out.append(f"  array total           {si_format(pw['array']['total_w'], 'W')}")
    out.append(
        f"  line-loss constant    {pw['line_constant_w_s2_per_v2'] * 1e27:.4g} nW*ns^2/V^2"
    )
    return "\n".join(out) + "\n"


SWEEP_FIELDS = (
    "parameter",
    "value",
    "valid",
    "violations",
    "unit_cells",
    "lines_unit_cell",
    "lines_quantum_plane",
    "rent_exponent",
    "capacity_defect",
    "capacity_lattice_surgery",
    "crossbar_fab_limit",
    "min_pitch_um",
    "pitch_feasible",
    "cycle_mixed_s",
    "array_total_w",
)


def sweep_record(
    parameter: str,
    raw_value: str,
    config: ToolConfig,
    pinned_parasitic_f: float | None = None,
    sweep: Sweep | None = None,
) -> dict[str, Any]:
    """One sweep-point record; infeasible or invalid points are flagged, not dropped."""
    record: dict[str, Any] = {f: None for f in SWEEP_FIELDS}
    record["parameter"] = parameter
    record["value"] = raw_value
    try:
        design = compute(config, pinned_parasitic_f, sweep)
    except InvalidConfigError as exc:
        record.update(valid=False, violations=str(exc))
        return record
    record.update(
        valid=True,
        violations="",
        unit_cells=design.geometry.unit_cells,
        lines_unit_cell=design.lines["unit_cell"].total,
        lines_quantum_plane=design.lines["quantum_plane"].total,
        rent_exponent=design.rent_exponent,
        capacity_defect=design.capacity_defect,
        capacity_lattice_surgery=design.capacity_lattice_surgery,
        crossbar_fab_limit=design.fabrication_crossbar_limit,
        min_pitch_um=design.footprint.min_pitch_um,
        pitch_feasible=design.footprint.pitch_feasible,
        cycle_mixed_s=design.cycles["mixed"].total_s,
        array_total_w=design.power.total_w,
    )
    return record
