"""Design-space exploration and verification for the spiderweb sparse
spin-qubit array: wire counts and Rent's exponent, sample-and-hold
electronics constraints, footprints, power budgets, cycle timing, and
numerical verification of the exchange-gate circuit constructions."""

from .config import ToolConfig, load_config
from .electronics import ElectronicsParams, FootprintReport, footprint, min_hold_capacitance
from .model import (
    ArrayConfig,
    GateInventory,
    GeometrySummary,
    default_gate_inventory,
    derive_geometry,
    validate_config,
)
from .power import InterconnectGrid, PowerReport, SignalParams, total_power
from .schedule import (
    StepTable,
    TimingParams,
    cycle_time,
    default_step_table,
    simulate_cycle,
)
from .wiring import LineCount, lines_at, logical_qubit_capacity, max_fab_crossbars, rent_exponent

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "ElectronicsParams",
    "FootprintReport",
    "GateInventory",
    "GeometrySummary",
    "InterconnectGrid",
    "LineCount",
    "PowerReport",
    "SignalParams",
    "StepTable",
    "TimingParams",
    "ToolConfig",
    "cycle_time",
    "default_gate_inventory",
    "default_step_table",
    "derive_geometry",
    "footprint",
    "lines_at",
    "load_config",
    "logical_qubit_capacity",
    "max_fab_crossbars",
    "min_hold_capacitance",
    "rent_exponent",
    "simulate_cycle",
    "total_power",
    "validate_config",
]
