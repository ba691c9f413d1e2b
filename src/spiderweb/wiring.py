"""Signal-line counts and their scaling across the array hierarchy.

Five line categories are tracked: DC biasing (demultiplexer address, enable
and source lines), shuttling drive, shared pulsed/microwave control, logical
operation crossbars, and readout.  Counts are evaluated at three levels:
a single unit cell, one module, and the full quantum plane boundary.

Readout counts contain log2 terms because sequential readout addressing uses
binary decoders, so the readout module edge must be a power of two, and
Rent's exponent divides by the log of the unit-cell count, so the plane must
hold more than one cell.  Those rules live in
:func:`spiderweb.model.validate_config`; the functions here assume a
configuration that passes it.
"""

from __future__ import annotations

import math

from .model import GATE_INVENTORY, ArrayConfig, record

__all__ = [
    "LEVELS",
    "LineCount",
    "lines_at",
    "logical_qubit_capacity",
    "max_fab_crossbars",
    "rent_exponent",
]

LEVELS = ("unit_cell", "module", "quantum_plane")

# Every pulsed gate of the unit cell has its own globally shared signal line.
_PULSED_LINES = GATE_INVENTORY.pulsed_total
_ADDRESS_LINES = _ENABLE_LINES = 4  # DC biasing: address lines, and enable lines per cell along the module edge


def _dc_biasing(edge: int, modules: int) -> int:  # and one voltage-source feed per module
    return _ADDRESS_LINES + _ENABLE_LINES * edge + modules


class LineCount(metaclass=record):
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

    DC biasing (``_dc_biasing``) needs ``_ADDRESS_LINES`` demultiplexer address lines,
    ``_ENABLE_LINES`` enable lines per cell along the module edge and one voltage-source feed per
    module; shuttling needs the 4 phase-shifted drives; the pulsed/MW signals
    (``GateInventory.pulsed_total``) are globally shared; each crossbar contributes 2 horizontal +
    2 vertical lines; readout needs 2 sensor plunger lines and one shared drain line.  Address and
    drive lines are shared upward, while enable lines, crossbar lines, voltage-source feeds and
    drain lines scale with the module edge and grid size.
    """
    log2_nr = cfg.readout_module_edge.bit_length() - 1
    log2_r = cfg.parallel_readouts.bit_length() - 1
    n_b = cfg.bias_module_edge
    m_b = cfg.bias_grid_edge
    m_r = cfg.readout_grid_edge
    x = cfg.crossbars

    if level == "unit_cell":
        return LineCount("unit_cell", _dc_biasing(1, 1), 4, _PULSED_LINES, 4 * x, 3)
    if level == "module":
        return LineCount(
            "module", _dc_biasing(n_b, 1), 4, _PULSED_LINES, 4 * n_b * x,
            2 * log2_nr - log2_r + 1,
        )
    if level == "quantum_plane":
        return LineCount(
            "quantum_plane", _dc_biasing(n_b, m_b**2), 4, _PULSED_LINES, 4 * n_b * m_b * x,
            m_r**2 + 2 * log2_nr - log2_r,
        )
    raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")


def rent_exponent(plane_total: int, cell_total: int, unit_cells: int) -> float:
    """Rent exponent p solving plane_total = cell_total * unit_cells**p, from the
    quantum-plane and unit-cell line totals that :func:`lines_at` counts."""
    return math.log(plane_total / cell_total) / math.log(unit_cells)


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
