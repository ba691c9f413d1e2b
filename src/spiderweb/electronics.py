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

from math import inf, sqrt
from typing import NamedTuple

from .model import ArrayConfig, GateInventory, default_gate_inventory

ELECTRON_CHARGE = 1.602176634e-19  # C, exact in the SI since 2019
BOLTZMANN = 1.380649e-23  # J/K, exact in the SI since 2019

__all__ = [
    "ElectronicsParams",
    "FootprintReport",
    "demux_clock",
    "footprint",
    "min_hold_capacitance",
    "refresh_rate",
]

# DC-biased (fine + coarse) gates of the unit cell, each on a hold capacitor.
_HELD_GATES = default_gate_inventory().dc_biased_total


class ElectronicsParams(NamedTuple):
    """Electrical parameters of the local biasing electronics (SI units).

    ``drift_v_per_s`` is the hold-capacitor leakage drift; demonstrated
    values span 2 µV/s to 0.1 V/s and the default takes the pessimistic end.
    ``demux_energy_j`` is the energy for one full 16-output decoder cycle
    (0.2-0.35 pJ depending on switch load; worst case by default).
    """

    coarse_resolution_v: float = 1e-3
    fine_resolution_v: float = 1e-6
    temperature_k: float = 1.0
    drift_v_per_s: float = 0.1
    cap_density_f_per_m2: float = 1.0    # 1 pF/um^2 deep-trench capacitors
    demux_area_m2: float = 45e-12        # 45 um^2 per 1-to-16 demultiplexer
    demux_per_cell: int = 4
    demux_energy_j: float = 0.35e-12

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive (got {value})")
        if self.fine_resolution_v >= self.coarse_resolution_v:
            raise ValueError("fine resolution must be below the coarse resolution")
        if not 0 < self.fine_resolution_v * self.fine_resolution_v < inf:  # kB*T/dV^2 needs dV^2
            raise ValueError(f"fine_resolution_v squared leaves the float range (got {self.fine_resolution_v})")


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


def refresh_rate(params: ElectronicsParams, resolution_v: float) -> float:
    """Minimum refresh rate [Hz] keeping leakage drift within one resolution step."""
    if resolution_v <= 0:
        raise ValueError("resolution must be positive")
    return params.drift_v_per_s / resolution_v


def demux_clock(cfg: ArrayConfig, refresh_hz: float) -> float:
    """Minimum demultiplexer clock [Hz] to refresh a whole biasing module.

    One module refresh visits all 64 held gates of each of the module's
    edge^2 unit cells; modules refresh in parallel across the plane.
    """
    if refresh_hz <= 0:
        raise ValueError("refresh rate must be positive")
    return _HELD_GATES * cfg.bias_module_edge**2 * refresh_hz


class FootprintReport(NamedTuple):
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
    def capacitor_area_um2(self) -> float:
        return self.capacitor_area_m2 * 1e12

    @property
    def demux_area_um2(self) -> float:
        return self.demux_area_m2 * 1e12

    @property
    def total_area_um2(self) -> float:
        return self.total_area_m2 * 1e12

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
