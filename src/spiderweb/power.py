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

from .electronics import ElectronicsParams, refresh_rate
from .model import ArrayConfig

LIGHT_SPEED = 299792458.0  # m/s, exact by definition of the metre
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m, CODATA 2022 recommended value

__all__ = [
    "FRINGE_MODES",
    "GridCapacitance",
    "InterconnectGrid",
    "PowerReport",
    "SignalParams",
    "TransmissionLineResult",
    "dynamic_power",
    "demux_power",
    "parasitic_capacitance",
    "total_power",
    "transmission_line_power",
]

FRINGE_MODES = ("printed_magnitude", "disabled")


class InterconnectGrid(NamedTuple):
    """Geometry of the two densest interconnect layers, modelled as a regular
    grid: one layer of parallel lines crossed by an orthogonal layer above.
    """

    lines_per_layer: int = 150
    line_length_m: float = 24e-6
    line_width_m: float = 80e-9
    line_thickness_m: float = 50e-9
    line_gap_m: float = 80e-9
    dielectric_thickness_m: float = 500e-9
    eps_r: float = 3.9
    fringe_mode: str = "printed_magnitude"

    def validate(self) -> None:
        for name, value in zip(self._fields[:-1], self):  # all but fringe_mode
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive (got {value})")
        if self.fringe_mode not in FRINGE_MODES:
            raise ValueError(f"fringe_mode must be one of {FRINGE_MODES}")


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
    if capacitance_f < 0 or amplitude_v < 0 or frequency_hz < 0:
        raise ValueError("capacitance, amplitude and frequency must be non-negative")
    return 0.5 * capacitance_f * (amplitude_v * amplitude_v) * frequency_hz


def demux_power(params: ElectronicsParams, refresh_hz: float) -> float:
    """Transient power [W] of a unit cell's demultiplexers at a refresh rate."""
    if refresh_hz < 0:
        raise ValueError("refresh rate must be non-negative")
    return params.demux_energy_j * refresh_hz * params.demux_per_cell


class SignalParams(NamedTuple):
    """Drive amplitudes/frequencies and transmission-line properties.

    ``line_length_m=None`` resolves to twice the qubit pitch (one unit-cell
    span) when evaluated against a configuration.
    """

    pulse_amplitude_v: float = 1.0
    pulse_frequency_hz: float = 1e6
    line_amplitude_v: float = 1.0
    line_frequency_hz: float = 1e9
    cap_per_length_f_per_m: float = 2e-10   # 0.2 fF/um to ground
    sheet_resistance_ohm: float = 0.1
    line_width_m: float = 1e-6
    line_length_m: float | None = None

    def validate(self) -> None:
        for name, value in zip(self._fields[:-2], self):  # all but the line geometry
            if value < 0:
                raise ValueError(f"{name} must be non-negative (got {value})")
        if self.line_width_m <= 0:
            raise ValueError("line_width_m must be strictly positive")
        if self.line_length_m is not None and self.line_length_m <= 0:
            raise ValueError("line_length_m must be strictly positive")

    def resolved(self, cfg: ArrayConfig) -> "SignalParams":
        """Fill the line length with one unit-cell span (2x qubit pitch)."""
        if self.line_length_m is not None:
            return self
        return self._replace(line_length_m=2.0 * cfg.qubit_pitch_m)


class TransmissionLineResult(NamedTuple):
    power_w: float
    resistance_ohm: float
    capacitance_f: float
    # constant k such that power = k * (amplitude * frequency)^2
    constant_w_s2_per_v2: float

    @property
    def constant_nw_ns2_per_v2(self) -> float:
        return self.constant_w_s2_per_v2 * 1e27


def transmission_line_power(signals: SignalParams) -> TransmissionLineResult:
    """Loss [W] of one line segment over a unit cell, from first principles.

    The segment is a series resistance R with capacitance C to ground; the
    capacitor draws a current of amplitude 2*pi*V*f*C, dissipating
    2*R*(pi*V*f*C)^2 in the resistance.  The implied lumped constant k is
    reported so the quadratic amplitude-frequency scaling can be compared
    directly across geometries.
    """
    if signals.line_length_m is None:
        raise ValueError("line length unresolved; call SignalParams.resolved(cfg) first")
    length = signals.line_length_m
    resistance = signals.sheet_resistance_ohm * length / signals.line_width_m
    capacitance = signals.cap_per_length_f_per_m * length
    constant = 2.0 * resistance * (pi * capacitance) ** 2
    power = constant * (signals.line_amplitude_v * signals.line_frequency_hz) ** 2
    return TransmissionLineResult(power, resistance, capacitance, constant)


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
    grid: InterconnectGrid,
    signals: SignalParams,
    elec: ElectronicsParams,
    pinned_parasitic_f: float | None = None,
    grid_capacitance: GridCapacitance | None = None,
    refresh_hz: float | None = None,
) -> PowerReport:
    """Array power report; ``pinned_parasitic_f`` overrides the grid model.
    ``grid_capacitance`` (of ``grid``) and ``refresh_hz`` (at the fine resolution
    of ``elec``) pass in results the caller holds; omitted, they are computed here."""
    if pinned_parasitic_f is not None:
        if pinned_parasitic_f < 0:
            raise ValueError("pinned parasitic capacitance must be non-negative")
        parasitic = pinned_parasitic_f
    else:
        parasitic = (grid_capacitance or parasitic_capacitance(grid)).total_f
    if refresh_hz is None:
        refresh_hz = refresh_rate(elec, elec.fine_resolution_v)
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
