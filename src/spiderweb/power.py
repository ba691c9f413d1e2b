"""Heat dissipation models: interconnect parasitics, dynamic switching power,
demultiplexer transient power, lossy transmission lines, and the array total.

The array total is strictly additive over the three per-cell contributions:
pulsed-line dynamic power, demultiplexer refresh power and transmission-line
loss, each multiplied by the unit-cell count.  Charging of the hold
capacitors themselves is omitted (it is at the fW-per-cell level).
"""

from __future__ import annotations

from math import log, pi, sqrt
from typing import NamedTuple

from .config import ElectronicsParams, InterconnectGrid, SignalParams
from .model import ArrayConfig

LIGHT_SPEED = 299792458.0  # m/s, exact by definition of the metre
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m, CODATA 2022 recommended value

__all__ = [
    "GridCapacitance",
    "PowerReport",
    "TransmissionLineResult",
    "dynamic_power",
    "demux_power",
    "parasitic_capacitance",
    "total_power",
    "transmission_line_power",
]


class GridCapacitance(NamedTuple):
    """Parasitic capacitance of the interconnect grid, with the two
    per-crossing contributions exposed for inspection."""

    neighbour_f: float      # between adjacent lines within one layer
    crossing_f: float       # per overlap of two orthogonal lines
    lines_per_layer: int

    @property
    def total_f(self) -> float:
        n = self.lines_per_layer
        return 2 * n * self.neighbour_f + n**2 * self.crossing_f


def parasitic_capacitance(grid: InterconnectGrid) -> GridCapacitance:
    """Analytical parasitic capacitance of the metal grid.

    Neighbour capacitance combines the sidewall parallel-plate term with a
    fringe correction; the ``printed_magnitude`` fringe form is numerically
    negligible against the sidewall term for realistic geometries, and can
    be switched off entirely.  Crossing capacitance is a plate term plus a
    quadratic thickness correction.
    """
    eps = grid.eps_r * VACUUM_PERMITTIVITY
    w, h = grid.line_width_m, grid.line_thickness_m
    gap, dielectric = grid.line_gap_m, grid.dielectric_thickness_m

    alpha1 = gap / (gap + 2 * w)
    fringe = 0.0
    if grid.fringe_mode == "printed_magnitude":
        fringe = 1.0 / (
            377.0 * pi * LIGHT_SPEED * log(2.0 * sqrt(1 + alpha1) / sqrt(1 - alpha1))
        )
    neighbour = eps * grid.line_length_m * (h / gap + fringe)

    alpha2 = h / (h + 0.2 * dielectric)
    crossing = eps * w * (3.285 * w / dielectric + 9.01 * alpha2 - 8.696 * alpha2**2)
    return GridCapacitance(neighbour, crossing, grid.lines_per_layer)


def dynamic_power(capacitance_f: float, amplitude_v: float, frequency_hz: float) -> float:
    """Dynamic dissipation [W] of pulsing a capacitive load: C*V^2*f/2."""
    return 0.5 * capacitance_f * (amplitude_v * amplitude_v) * frequency_hz


def demux_power(params: ElectronicsParams, refresh_hz: float) -> float:
    """Transient power [W] of a unit cell's demultiplexers at a refresh rate."""
    return params.demux_energy_j * refresh_hz * params.demux_per_cell


class TransmissionLineResult(NamedTuple):
    power_w: float
    # constant k such that power = k * (amplitude * frequency)^2
    constant_w_s2_per_v2: float


def transmission_line_power(signals: SignalParams) -> TransmissionLineResult:
    """Loss [W] of one line segment over a unit cell, from first principles.

    The segment is a series resistance R with capacitance C to ground; the
    capacitor draws a current of amplitude 2*pi*V*f*C, dissipating
    2*R*(pi*V*f*C)^2 in the resistance.  The implied lumped constant k is
    reported so the quadratic amplitude-frequency scaling can be compared
    directly across geometries.  ``signals`` has its line length resolved.
    """
    length = signals.line_length_m
    resistance = signals.sheet_resistance_ohm * length / signals.line_width_m
    capacitance = signals.cap_per_length_f_per_m * length
    # squared by multiplying: an overflow gives inf for the non-finite check, not OverflowError
    pc = pi * capacitance
    vf = signals.line_amplitude_v * signals.line_frequency_hz
    constant = 2.0 * resistance * (pc * pc)
    power = constant * (vf * vf)
    return TransmissionLineResult(power, constant)


class PowerReport(NamedTuple):
    unit_cells: int
    pulsed_w: float
    demux_w: float
    line_w: float
    parasitic_capacitance_f: float
    parasitic_pinned: bool
    line_constant_w_s2_per_v2: float

    @property
    def array_pulsed_w(self) -> float:
        return self.unit_cells * self.pulsed_w

    @property
    def array_demux_w(self) -> float:
        return self.unit_cells * self.demux_w

    @property
    def array_line_w(self) -> float:
        return self.unit_cells * self.line_w

    @property
    def total_w(self) -> float:
        # additive by construction: total = U * (Pp + Pd + Pt)
        return self.unit_cells * (self.pulsed_w + self.demux_w + self.line_w)


def total_power(
    cfg: ArrayConfig,
    signals: SignalParams,
    elec: ElectronicsParams,
    grid_capacitance: GridCapacitance,
    refresh_hz: float,
    pinned_parasitic_f: float | None = None,
) -> PowerReport:
    """Array power report from the grid's :func:`parasitic_capacitance` and the
    hold capacitors' refresh rate; ``pinned_parasitic_f`` (non-negative, as the CLI
    checks) overrides the grid model."""
    parasitic = grid_capacitance.total_f if pinned_parasitic_f is None else pinned_parasitic_f
    resolved = signals.resolved(cfg)
    line = transmission_line_power(resolved)
    return PowerReport(
        unit_cells=cfg.unit_cells,
        pulsed_w=dynamic_power(parasitic, resolved.pulse_amplitude_v, resolved.pulse_frequency_hz),
        demux_w=demux_power(elec, refresh_hz),
        line_w=line.power_w,
        parasitic_capacitance_f=parasitic,
        parasitic_pinned=pinned_parasitic_f is not None,
        line_constant_w_s2_per_v2=line.constant_w_s2_per_v2,
    )
