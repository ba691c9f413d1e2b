"""Array configuration, consistency checks, derived geometry and the
closed-form cycle time.

The quantum plane is a square lattice of four-qubit unit cells.  Unit cells
are grouped into modules twice over: DC-biasing modules (``bias_module_edge``
cells on a side, ``bias_grid_edge`` modules on a side) and readout modules
(``readout_module_edge`` / ``readout_grid_edge``).  Both tilings must cover
the same plane, and a readout module, whose edge must be a power of two,
must be exactly covered by the sequential/parallel readout split.

Lengths that enter pitch arithmetic (qubit pitch, gate pitch, interconnect
pitch) are stored as integer nanometres so derived counts stay exact;
reports convert to µm/mm².
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidConfigError

if TYPE_CHECKING:  # config imports this module
    from .config import TimingParams

__all__ = [
    "ArrayConfig",
    "CYCLE_CENSUS",
    "CYCLE_STEPS",
    "CycleTime",
    "GATE_INVENTORY",
    "GateInventory",
    "GeometrySummary",
    "READOUT_MODES",
    "RegionGates",
    "cycle_time",
    "derive_geometry",
    "readout_windows",
    "validate_config",
]


class ArrayConfig(NamedTuple):
    """All architectural free parameters of a spiderweb array.

    Defaults describe the million-qubit reference design: 13 µm qubit pitch,
    1024-cell biasing modules in a 16x16 grid, 16-cell readout modules with a
    4-sequential / 4-parallel multiplexing split, code distance 16 and a
    12-layer 80 nm interconnect stack.
    """

    qubit_pitch_nm: int = 13_000
    gate_pitch_nm: int = 50
    bias_module_edge: int = 32
    bias_grid_edge: int = 16
    readout_module_edge: int = 4
    readout_grid_edge: int = 128
    sequential_readouts: int = 4
    parallel_readouts: int = 4
    crossbars: int = 0
    code_distance: int = 16
    metal_layers: int = 12
    interconnect_pitch_nm: int = 80

    @property
    def qubit_pitch_m(self) -> float:
        return self.qubit_pitch_nm * 1e-9

    @property
    def plane_edge_cells(self) -> int:
        """Unit cells along one side of the quantum plane."""
        return self.bias_module_edge * self.bias_grid_edge

    @property
    def unit_cells(self) -> int:
        """Unit cells in the quantum plane, (n_b*m_b)^2."""
        edge = self.bias_module_edge * self.bias_grid_edge
        return edge * edge

    def validate(self) -> None:
        validate_config(self)  # through the module global, so a rebinding of it sees every check


def validate_config(cfg: ArrayConfig) -> None:
    """Raise :class:`InvalidConfigError` listing every violated invariant, the
    readout power-of-two rule of the wiring ``log2`` terms included; every model
    function assumes a config that passes.
    """
    v: list[str] = []
    for name, value in zip(cfg._fields, cfg):
        if name != "crossbars" and value <= 0:
            v.append(f"{name} must be strictly positive (got {value})")
    if cfg.crossbars < 0:
        v.append(f"crossbars must be non-negative (got {cfg.crossbars})")

    bias_edge = cfg.bias_module_edge * cfg.bias_grid_edge
    readout_edge = cfg.readout_module_edge * cfg.readout_grid_edge
    if bias_edge != readout_edge:
        v.append(
            "bias and readout tilings cover different plane edges: "
            f"bias_module_edge*bias_grid_edge = {bias_edge} != "
            f"readout_module_edge*readout_grid_edge = {readout_edge}"
        )
    if cfg.bias_module_edge == cfg.bias_grid_edge == 1:  # log(unit cells) = 0
        v.append("a plane of one unit cell has no Rent exponent: bias_module_edge*bias_grid_edge = 1")
    cells = cfg.readout_module_edge**2
    split = cfg.sequential_readouts * cfg.parallel_readouts
    if cells != split:
        v.append(
            "readout module not covered by the multiplexing split: "
            f"readout_module_edge^2 = {cells} != "
            f"sequential_readouts*parallel_readouts = {split}"
        )
    # parallel_readouts needs no check: it divides n_r^2 = 4^k, so it is 2^j
    n_r = cfg.readout_module_edge
    if not v and n_r & (n_r - 1):
        v.append(
            "readout_module_edge must be a power of two so readout address-line "
            f"counts are integral (got {n_r})"
        )
    if v:
        raise InvalidConfigError(tuple(v))


class GeometrySummary(NamedTuple):
    unit_cells: int
    qubit_count: int
    plane_edge_m: float
    plane_area_m2: float
    plane_perimeter_m: float
    gates_per_arm: int


def derive_geometry(cfg: ArrayConfig) -> GeometrySummary:
    """Counts, areas and perimeters implied by a valid configuration.

    A unit cell holds 4 qubits on a 2x2 vertex grid, so a plane of E cells
    per side spans an edge of 2*pitch*E, an area of (2*pitch*E)^2 and a
    perimeter of 8*pitch*E.
    """
    unit_cells = cfg.unit_cells
    plane_edge = 2.0 * cfg.qubit_pitch_m * cfg.plane_edge_cells
    return GeometrySummary(
        unit_cells=unit_cells,
        qubit_count=4 * unit_cells,
        plane_edge_m=plane_edge,
        plane_area_m2=plane_edge * plane_edge,
        plane_perimeter_m=4.0 * plane_edge,
        gates_per_arm=cfg.qubit_pitch_nm // cfg.gate_pitch_nm,
    )


class RegionGates(NamedTuple):
    """Gate electrode counts for one kind of operation region."""

    region_kind: str
    regions_per_unit_cell: int
    fine_gates: int
    coarse_gates: int
    pulsed_gates: int


class GateInventory(NamedTuple):
    """Per-unit-cell gate counts split by biasing class.

    Fine and coarse gates carry a locally held DC bias (1 µV and 1 mV
    resolution classes); pulsed gates are driven by globally shared AC
    signals and need no hold capacitor.
    """

    rows: tuple[RegionGates, ...]

    @property
    def fine_total(self) -> int:
        return sum([r.regions_per_unit_cell * r.fine_gates for r in self.rows])

    @property
    def coarse_total(self) -> int:
        return sum([r.regions_per_unit_cell * r.coarse_gates for r in self.rows])

    @property
    def pulsed_total(self) -> int:
        return sum([r.regions_per_unit_cell * r.pulsed_gates for r in self.rows])

    @property
    def dc_biased_total(self) -> int:
        return self.fine_total + self.coarse_total


# Gate inventory of the reference unit cell: 4 qubit-idling regions, 2 full operation regions
# (single-qubit control, exchange and readout) and 6 exchange-only regions.
GATE_INVENTORY = GateInventory((
    RegionGates("qubit_idling", 4, 0, 4, 4),
    RegionGates("qubit_operation", 2, 7, 2, 6),
    RegionGates("two_qubit_only", 6, 3, 2, 5),
))


# Window census of one error-correction cycle: the closed-form coefficients, and the keys, in order, of
# every census count.
CYCLE_CENSUS = {"shuttle_round_trips": 22, "one_qubit_gates": 14, "exchanges": 8, "readout_phases": 1}
CYCLE_STEPS = 16  # steps of the shipped program
_GATE_WINDOWS = tuple(CYCLE_CENSUS.values())[:3]  # the census's shuttle, one-qubit and exchange windows

READOUT_MODES = ("parallel", "sequential", "mixed")


def _duration(timing: TimingParams, shuttles: int, one_qubit: int, exchanges: int, readouts: int) -> float:
    """Census-weighted duration of window counts in CYCLE_CENSUS order: the simulator's clock and cycle_time."""
    return (shuttles * timing.shuttle_s + one_qubit * timing.single_qubit_s + exchanges * timing.exchange_s
            + readouts * timing.readout_s)


def readout_windows(cfg: ArrayConfig, readout_mode: str) -> int:
    """Readout windows per cycle: parallel takes one; sequential one per module-edge group; mixed one
    per sequential readout slot of the q*r split."""
    if readout_mode == "parallel":
        return 1
    if readout_mode == "sequential":
        return cfg.readout_module_edge
    if readout_mode == "mixed":
        return cfg.sequential_readouts
    raise ValueError(f"unknown readout mode {readout_mode!r}; expected one of {READOUT_MODES}")


class CycleTime(NamedTuple):
    total_s: float
    coherence_ratio: float


def cycle_time(timing: TimingParams, cfg: ArrayConfig, readout_mode: str) -> CycleTime:
    """Closed-form cycle duration for a readout multiplexing mode (see :func:`readout_windows`).
    Also reports how many cycles fit into the dephasing time."""
    total = _duration(timing, *_GATE_WINDOWS, readout_windows(cfg, readout_mode))
    ratio = timing.dephasing_s / total if total > 0 else float("inf")
    return CycleTime(total, ratio)
