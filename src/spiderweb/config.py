"""Config-file ingestion and overrides.

The config format is plain text: ``key = value`` lines grouped under
``[section]`` headers, ``#`` comments, and SI-suffixed numbers.  Every key is
optional; defaults reproduce the million-qubit reference design.  Overrides
(``--set key=value``) accept either a bare key or ``section.key``, and the
short aliases used throughout the design equations (d, x, N_b, t_sh, v_p, ...).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .electronics import ElectronicsParams
from .errors import ConfigParseError
from .model import ArrayConfig
from .power import InterconnectGrid, SignalParams
from .schedule import TimingParams
from .units import parse_int, parse_quantity

__all__ = [
    "ToolConfig", "load_config", "read_entries", "resolve_override", "apply_entries", "parse_config_text",
    "KNOWN_KEYS",
]


# A section left at its defaults is one frozen instance, shared by every config.
@dataclass(frozen=True)
class ToolConfig:
    array: ArrayConfig = ArrayConfig()
    electronics: ElectronicsParams = ElectronicsParams()
    timing: TimingParams = TimingParams()
    signals: SignalParams = SignalParams()
    interconnect: InterconnectGrid = InterconnectGrid()


# (section, canonical key) -> (dataclass field, parser)
def _length_nm(text: str) -> int:
    metres = parse_quantity(text)
    nm = round(metres * 1e9)
    if nm <= 0 or abs(metres * 1e9 - nm) > 1e-6:
        raise ValueError(f"length {text!r} must be a positive whole number of nanometres")
    return nm


def _string(text: str) -> str:
    return text.strip()


_KEYMAP: dict[tuple[str, str], tuple[str, object]] = {
    ("array", "qubit_pitch"): ("qubit_pitch_nm", _length_nm),
    ("array", "gate_pitch"): ("gate_pitch_nm", _length_nm),
    ("array", "bias_module_edge"): ("bias_module_edge", parse_int),
    ("array", "bias_grid_edge"): ("bias_grid_edge", parse_int),
    ("array", "readout_module_edge"): ("readout_module_edge", parse_int),
    ("array", "readout_grid_edge"): ("readout_grid_edge", parse_int),
    ("array", "sequential_readouts"): ("sequential_readouts", parse_int),
    ("array", "parallel_readouts"): ("parallel_readouts", parse_int),
    ("array", "crossbars"): ("crossbars", parse_int),
    ("array", "code_distance"): ("code_distance", parse_int),
    ("array", "metal_layers"): ("metal_layers", parse_int),
    ("array", "interconnect_pitch"): ("interconnect_pitch_nm", _length_nm),
    ("electronics", "coarse_resolution"): ("coarse_resolution_v", parse_quantity),
    ("electronics", "fine_resolution"): ("fine_resolution_v", parse_quantity),
    ("electronics", "temperature"): ("temperature_k", parse_quantity),
    ("electronics", "drift"): ("drift_v_per_s", parse_quantity),
    ("electronics", "cap_density"): ("cap_density_f_per_m2", parse_quantity),
    ("electronics", "demux_area"): ("demux_area_m2", parse_quantity),
    ("electronics", "demux_count_per_cell"): ("demux_per_cell", parse_int),
    ("electronics", "demux_energy_per_cycle"): ("demux_energy_j", parse_quantity),
    ("timing", "shuttle"): ("shuttle_s", parse_quantity),
    ("timing", "single_qubit"): ("single_qubit_s", parse_quantity),
    ("timing", "exchange"): ("exchange_s", parse_quantity),
    ("timing", "readout"): ("readout_s", parse_quantity),
    ("timing", "dephasing"): ("dephasing_s", parse_quantity),
    ("signals", "pulse_amplitude"): ("pulse_amplitude_v", parse_quantity),
    ("signals", "pulse_frequency"): ("pulse_frequency_hz", parse_quantity),
    ("signals", "line_amplitude"): ("line_amplitude_v", parse_quantity),
    ("signals", "line_frequency"): ("line_frequency_hz", parse_quantity),
    ("signals", "cap_per_length"): ("cap_per_length_f_per_m", parse_quantity),
    ("signals", "sheet_resistance"): ("sheet_resistance_ohm", parse_quantity),
    ("signals", "line_width"): ("line_width_m", parse_quantity),
    ("signals", "line_length"): ("line_length_m", parse_quantity),
    ("interconnect", "lines_per_layer"): ("lines_per_layer", parse_int),
    ("interconnect", "line_length"): ("line_length_m", parse_quantity),
    ("interconnect", "line_width"): ("line_width_m", parse_quantity),
    ("interconnect", "line_thickness"): ("line_thickness_m", parse_quantity),
    ("interconnect", "line_gap"): ("line_gap_m", parse_quantity),
    ("interconnect", "dielectric_thickness"): ("dielectric_thickness_m", parse_quantity),
    ("interconnect", "eps_r"): ("eps_r", parse_quantity),
    ("interconnect", "fringe_mode"): ("fringe_mode", _string),
}

# Short aliases from the design equations, resolved per section.
_ALIASES: dict[tuple[str, str], str] = {
    ("array", "d"): "qubit_pitch",
    ("array", "n_b"): "bias_module_edge",
    ("array", "m_b"): "bias_grid_edge",
    ("array", "n_r"): "readout_module_edge",
    ("array", "m_r"): "readout_grid_edge",
    ("array", "q"): "sequential_readouts",
    ("array", "r"): "parallel_readouts",
    ("array", "x"): "crossbars",
    ("array", "d_c"): "code_distance",
    ("array", "n_layers"): "metal_layers",
    ("array", "delta_i"): "interconnect_pitch",
    ("electronics", "dv_coarse"): "coarse_resolution",
    ("electronics", "dv_fine"): "fine_resolution",
    ("electronics", "t_op"): "temperature",
    ("timing", "t_sh"): "shuttle",
    ("timing", "t_1q"): "single_qubit",
    ("timing", "t_sw"): "exchange",
    ("timing", "t_r"): "readout",
    ("timing", "t2_star"): "dephasing",
    ("signals", "v_p"): "pulse_amplitude",
    ("signals", "f_p"): "pulse_frequency",
    ("signals", "v_t"): "line_amplitude",
    ("signals", "f_t"): "line_frequency",
    ("signals", "c_per_um"): "cap_per_length",
    ("signals", "sheet_res"): "sheet_resistance",
    ("interconnect", "n_l"): "lines_per_layer",
    ("interconnect", "l"): "line_length",
    ("interconnect", "w"): "line_width",
    ("interconnect", "h"): "line_thickness",
    ("interconnect", "d1"): "line_gap",
    ("interconnect", "d2"): "dielectric_thickness",
}

# section name -> its dataclass, in ToolConfig field order
SECTIONS = {f.name: type(f.default) for f in fields(ToolConfig)}
KNOWN_KEYS = tuple(sorted(f"{s}.{k}" for s, k in _KEYMAP))

# (section, canonical key) -> (raw value, file line or override text)
Entries = dict[tuple[str, str], tuple[str, int | str]]


def _resolve(section: str | None, key: str, line: int | None = None) -> tuple[str, str]:
    key = key.strip().lower()
    candidates = [section] if section else list(SECTIONS)
    hits: list[tuple[str, str]] = []
    for sec in candidates:
        canonical = _ALIASES.get((sec, key), key)
        if (sec, canonical) in _KEYMAP:
            hits.append((sec, canonical))
    if not hits:
        where = f"in section [{section}]" if section else "in any section"
        raise ConfigParseError(f"unknown key {key!r} {where}", line)
    if len(hits) > 1:
        options = ", ".join(f"{s}.{k}" for s, k in hits)
        raise ConfigParseError(f"ambiguous key {key!r}; qualify as one of: {options}", line)
    return hits[0]


def parse_config_text(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    """Parse config text into {(section, canonical_key): (raw_value, line_no)}."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in SECTIONS:
                raise ConfigParseError(f"unknown section [{name}]", line_no)
            section = name
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {line!r}", line_no)
        if section is None:
            raise ConfigParseError("key outside any [section]", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not value:
            raise ConfigParseError(f"missing value for key {key!r}", line_no)
        entries[_resolve(section, key, line_no)] = (value, line_no)
    return entries


def apply_entries(entries: Entries) -> ToolConfig:
    """Parse every value; an entry's origin is its file line or its override text."""
    updates: dict[str, dict[str, object]] = {}
    for (section, key), (raw, origin) in entries.items():
        attr, parser = _KEYMAP[(section, key)]
        try:
            updates.setdefault(section, {})[attr] = parser(raw)
        except ValueError as exc:
            message = f"bad value for {section}.{key}: {exc}"
            if isinstance(origin, str):
                raise ConfigParseError(f"override {origin!r}: {message}") from exc
            raise ConfigParseError(message, origin) from exc
    return ToolConfig(**{s: SECTIONS[s](**kw) for s, kw in updates.items()})


def read_entries(path: str | None = None, overrides: list[str] | None = None) -> Entries:
    """The first step of :func:`load_config`: read the file and resolve each
    override's key, leaving every value unparsed for :func:`apply_entries`."""
    entries: Entries = {}
    if path is not None and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigParseError(f"cannot read config file {path!r}: {exc.strerror}") from exc
        entries.update(parse_config_text(text))
    for override in overrides or []:
        resolved, value = resolve_override(override)
        entries[resolved] = (value, override)
    return entries


def resolve_override(override: str) -> tuple[tuple[str, str], str]:
    """Split a ``key=value`` override and resolve its key: ``((section, key), value)``."""
    if "=" not in override:
        raise ConfigParseError(f"override {override!r} is not of the form key=value")
    key, value = (part.strip() for part in override.split("=", 1))
    if "." not in key:
        return _resolve(None, key), value
    section, bare = key.split(".", 1)
    section = section.strip().lower()
    if section not in SECTIONS:
        raise ConfigParseError(f"unknown section {section!r} in override {override!r}")
    return _resolve(section, bare), value


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ToolConfig:
    """Build a ToolConfig from an optional file plus ``key=value`` overrides.

    An omitted or missing path yields the reference defaults; a file that
    exists but cannot be parsed is an error.  Overrides are applied after
    the file, last one wins.
    """
    return apply_entries(read_entries(path, overrides))
