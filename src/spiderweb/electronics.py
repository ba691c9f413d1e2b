"""Sample-and-hold electronics constraints: hold capacitance, refresh rate,
demultiplexer clock, and the per-unit-cell footprint that sets the minimum
qubit pitch.

Every DC-biased gate electrode is fed by a local demultiplexer output holding
its voltage on a capacitor.  Coarse gates only need the held charge to be
large against single-electron fluctuations; fine gates need the capacitor's
thermal (kT/C) noise below the fine voltage resolution.  Shuttling gates are
driven directly and hold no charge.
"""

from __future__ import annotations

from math import sqrt

from .config import ElectronicsParams
from .model import GATE_INVENTORY, ArrayConfig, GateInventory, record

ELECTRON_CHARGE = 1.602176634e-19  # C, exact in the SI since 2019
BOLTZMANN = 1.380649e-23  # J/K, exact in the SI since 2019

__all__ = [
    "FootprintReport",
    "demux_clock",
    "footprint",
    "min_hold_capacitance",
    "refresh_rate",
]

# DC-biased (fine + coarse) gates of the unit cell, each on a hold capacitor.
_HELD_GATES = GATE_INVENTORY.dc_biased_total


def min_hold_capacitance(kind: str, params: ElectronicsParams) -> float:
    """Minimum hold capacitance [F] for a biasing class.

    coarse: one electron of held charge must not move the voltage by more
    than the coarse resolution, C >= e/dV.
    fine: the capacitor's thermal noise must stay below the fine resolution,
    C >= kB*T/dV^2.
    """
    if kind == "coarse":
        return ELECTRON_CHARGE / params.coarse_resolution_v
    if kind == "fine":
        return BOLTZMANN * params.temperature_k / params.fine_resolution_v**2
    raise ValueError(f"unknown capacitor kind {kind!r}; expected 'coarse' or 'fine'")


def refresh_rate(params: ElectronicsParams) -> float:
    """Minimum refresh rate [Hz] keeping leakage drift within one fine resolution step."""
    return params.drift_v_per_s / params.fine_resolution_v


def demux_clock(cfg: ArrayConfig, refresh_hz: float) -> float:
    """Minimum demultiplexer clock [Hz] to refresh a whole biasing module.

    One module refresh visits every held gate (``GateInventory.dc_biased_total``) of each of
    the module's edge^2 unit cells; modules refresh in parallel across the plane.
    """
    return _HELD_GATES * cfg.bias_module_edge**2 * refresh_hz


class FootprintReport(metaclass=record):
    capacitor_area_m2: float
    demux_area_m2: float
    hold_capacitance_f: float
    min_pitch_m: float
    pitch_m: float

    @property
    def total_area_m2(self) -> float:
        return self.capacitor_area_m2 + self.demux_area_m2

    @property
    def pitch_feasible(self) -> bool:
        return self.pitch_m >= self.min_pitch_m

    @property
    def min_pitch_um(self) -> float:
        return self.min_pitch_m * 1e6


def footprint(cfg: ArrayConfig, params: ElectronicsParams, inventory: GateInventory,
              fine_f: float, coarse_f: float) -> FootprintReport:
    """Local-electronics footprint per unit cell and the minimum qubit pitch,
    from the fine and coarse :func:`min_hold_capacitance` of ``params``.

    The unit cell offers four pitch-squared open regions, so the pitch must
    satisfy 4*d^2 >= total electronics area.  An infeasible pitch is reported
    through the feasibility flag rather than raised, so sweeps can chart the
    infeasible region.
    """
    hold_c = inventory.fine_total * fine_f + inventory.coarse_total * coarse_f
    capacitor_area = hold_c / params.cap_density_f_per_m2
    demux_area = params.demux_per_cell * params.demux_area_m2
    total = capacitor_area + demux_area
    return FootprintReport(
        capacitor_area_m2=capacitor_area,
        demux_area_m2=demux_area,
        hold_capacitance_f=hold_c,
        min_pitch_m=sqrt(total / 4.0),
        pitch_m=cfg.qubit_pitch_m,
    )
