"""Signal-line counts and their scaling across the array hierarchy.

Five line categories are tracked: DC biasing (demultiplexer address, enable
and source lines), shuttling drive, shared pulsed/microwave control, logical
operation crossbars, and readout.  Counts are evaluated at three levels:
a single unit cell, one module, and the full quantum plane boundary.

Readout counts contain log2 terms because sequential readout addressing uses
binary decoders, so the readout module edge must be a power of two.  That rule
lives in :func:`spiderweb.model.validate_config`; the functions here assume a
configuration that passes it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import ArrayConfig, default_gate_inventory

__all__ = [
    "LEVELS",
    "LineCount",
    "lines_at",
    "logical_qubit_capacity",
    "max_fab_crossbars",
    "rent_exponent",
    "rent_exponent_from_counts",
]

LEVELS = ("unit_cell", "module", "quantum_plane")

# Every pulsed gate of the unit cell has its own globally shared signal line.
_PULSED_LINES = default_gate_inventory().pulsed_total


class LineCount(NamedTuple):
    level: str
    dc_biasing: int
    shuttling: int
    pulsed_mw: int
    logical_ops: int
    readout: int

    @property
    def total(self) -> int:
        return (
            self.dc_biasing + self.shuttling + self.pulsed_mw
            + self.logical_ops + self.readout
        )

    def to_dict(self) -> dict:
        return {**self._asdict(), "total": self.total}


def lines_at(level: str, cfg: ArrayConfig) -> LineCount:
    """Local connection count at one level of the array hierarchy.

    Per unit cell, DC biasing needs 4 address + 4 enable lines plus one
    voltage-source feed; shuttling needs the 4 phase-shifted drives; all 58
    pulsed/MW signals are globally shared; each crossbar contributes 2
    horizontal + 2 vertical lines; readout needs 2 sensor plunger lines and
    one shared drain line.  Address and drive lines are shared upward, while
    enable lines, crossbar lines, voltage-source feeds and drain lines scale
    with the module edge and grid size.
    """
    log2_nr = cfg.readout_module_edge.bit_length() - 1
    log2_r = cfg.parallel_readouts.bit_length() - 1
    n_b = cfg.bias_module_edge
    m_b = cfg.bias_grid_edge
    m_r = cfg.readout_grid_edge
    x = cfg.crossbars

    if level == "unit_cell":
        return LineCount("unit_cell", 9, 4, _PULSED_LINES, 4 * x, 3)
    if level == "module":
        return LineCount(
            "module", 4 * n_b + 5, 4, _PULSED_LINES, 4 * n_b * x,
            2 * log2_nr - log2_r + 1,
        )
    if level == "quantum_plane":
        return LineCount(
            "quantum_plane", m_b**2 + 4 * n_b + 4, 4, _PULSED_LINES, 4 * n_b * m_b * x,
            m_r**2 + 2 * log2_nr - log2_r,
        )
    raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")


def rent_exponent_from_counts(plane_total: int, cell_total: int, unit_cells: int) -> float:
    """Rent exponent p solving plane_total = cell_total * unit_cells**p."""
    if unit_cells <= 1:
        raise ValueError("Rent's exponent is undefined for a single unit cell")
    if plane_total < cell_total:
        raise ValueError("plane-level line count below the unit-cell count")
    return math.log(plane_total / cell_total) / math.log(unit_cells)


def rent_exponent(cfg: ArrayConfig, lines: dict[str, LineCount] | None = None) -> float:
    """Rent exponent of the configured array, from the line-scaling model.
    ``lines``, counts by level as :func:`lines_at` gives them, skips the recount."""
    if lines is None:
        lines = {level: lines_at(level, cfg) for level in ("unit_cell", "quantum_plane")}
    plane, cell = lines["quantum_plane"].total, lines["unit_cell"].total
    return rent_exponent_from_counts(plane, cell, cfg.unit_cells)


def logical_qubit_capacity(cfg: ArrayConfig, scheme: str) -> int:
    """Maximum logical qubits the array can hold under the given encoding.

    ``defect`` encodings need roughly 1.5 code-distance-squared cells per
    logical qubit; ``lattice_surgery`` patches need one code-distance-squared
    block each.
    """
    unit_cells = cfg.unit_cells
    d2 = cfg.code_distance**2
    if scheme == "defect":
        return (2 * unit_cells) // (3 * d2)
    if scheme == "lattice_surgery":
        return unit_cells // d2
    raise ValueError(f"unknown scheme {scheme!r}; expected 'defect' or 'lattice_surgery'")


def max_fab_crossbars(cfg: ArrayConfig) -> int:
    """Fabrication-limited crossbar count.

    The interconnect stack can route 8*pitch*layers/line_pitch lines across a
    unit-cell perimeter; each crossbar's 4 lines cross that perimeter twice,
    so 8 routed lines are consumed per crossbar.
    """
    return (cfg.qubit_pitch_nm * cfg.metal_layers) // cfg.interconnect_pitch_nm
