"""Config sections, config-file ingestion and overrides.

The config format is plain text: ``key = value`` lines grouped under
``[section]`` headers, ``#`` comments, and SI-suffixed numbers.  Every key is
optional; defaults reproduce the million-qubit reference design.  Overrides
(``--set key=value``) accept either a bare key or ``section.key``, and the
short aliases used throughout the design equations (d, x, N_b, t_sh, v_p, ...).
"""

from __future__ import annotations

import os
from math import inf, isfinite

from .errors import ConfigParseError
from .model import ArrayConfig, record
from .units import UNITS, parse_int, parse_quantity

__all__ = [
    "ToolConfig", "load_config", "read_entries", "resolve_override", "apply_entries", "parse_config_text",
    "KNOWN_KEYS", "ElectronicsParams", "TimingParams", "SignalParams", "InterconnectGrid", "FRINGE_MODES",
]


class ElectronicsParams(metaclass=record):
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
        if self.drift_v_per_s / self.fine_resolution_v == 0:  # electronics.refresh_rate: 0 clocks no demux
            raise ValueError(f"drift_v_per_s / fine_resolution_v underflows to a zero refresh rate "
                             f"(got {self.drift_v_per_s} / {self.fine_resolution_v})")


class TimingParams(metaclass=record):
    """Operation durations [s]; the shuttle time covers a full round trip."""

    shuttle_s: float = 50e-9
    single_qubit_s: float = 25e-9
    exchange_s: float = 25e-9
    readout_s: float = 1e-6
    dephasing_s: float = 20e-6

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


class SignalParams(metaclass=record):
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
        return self._make((*self[:-1], 2.0 * cfg.qubit_pitch_m))  # line_length_m, the last field


FRINGE_MODES = ("printed_magnitude", "disabled")


class InterconnectGrid(metaclass=record):
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
        gap = self.line_gap_m
        if self.fringe_mode == "printed_magnitude" and gap / (gap + 2 * self.line_width_m) == 1:
            # alpha1 of parasitic_capacitance rounds to 1; its fringe term would divide by 0
            raise ValueError(f"line_width_m ({self.line_width_m}) is negligible against line_gap_m ({gap})")


# The order ToolConfig.validate checks the sections in: a config with errors in several names the first.
VALIDATION_ORDER = ("array", "electronics", "timing", "interconnect", "signals")


# A section left at its defaults is one frozen instance, shared by every config.
class ToolConfig(metaclass=record):
    array: ArrayConfig = ArrayConfig()
    electronics: ElectronicsParams = ElectronicsParams()
    timing: TimingParams = TimingParams()
    signals: SignalParams = SignalParams()
    interconnect: InterconnectGrid = InterconnectGrid()

    def validate(self, sections: tuple[str, ...] = VALIDATION_ORDER) -> None:
        """The one check of a configuration, before any model runs: each of ``sections`` in turn raises
        on its first broken rule, :class:`~spiderweb.errors.InvalidConfigError` with every violation
        for ``array`` and ``ValueError`` for the others."""
        for section in sections:
            getattr(self, section).validate()


def _length_nm(text: str) -> int:
    exact = parse_quantity(text, "m") * 1e9
    nm = round(exact) if isfinite(exact) else 0
    if nm <= 0 or abs(exact - nm) > 1e-6:
        raise ValueError(f"length {text!r} must be a positive whole number of nanometres")
    return nm


# short aliases from the design equations, by section and key; an alias resolves within its section only
_SHORT_ALIASES = {
    "array": {"qubit_pitch": "d", "bias_module_edge": "n_b", "bias_grid_edge": "m_b", "readout_module_edge": "n_r",
              "readout_grid_edge": "m_r", "sequential_readouts": "q", "parallel_readouts": "r", "crossbars": "x",
              "code_distance": "d_c", "metal_layers": "n_layers", "interconnect_pitch": "delta_i"},
    "electronics": {"coarse_resolution": "dv_coarse", "fine_resolution": "dv_fine", "temperature": "t_op"},
    "timing": {"shuttle": "t_sh", "single_qubit": "t_1q", "exchange": "t_sw", "readout": "t_r",
               "dephasing": "t2_star"},
    "signals": {"pulse_amplitude": "v_p", "pulse_frequency": "f_p", "line_amplitude": "v_t",
                "line_frequency": "f_t", "cap_per_length": "c_per_um", "sheet_resistance": "sheet_res"},
    "interconnect": {"lines_per_layer": "n_l", "line_length": "l", "line_width": "w", "line_thickness": "h",
                     "line_gap": "d1", "dielectric_thickness": "d2"},
}
# the keys not named by their field's name without its unit (the report's config block prints the field names)
_RENAMED = {"demux_per_cell": "demux_count_per_cell", "demux_energy_j": "demux_energy_per_cycle"}


def _parser(field: str, default: object) -> tuple[str, object]:
    """A section field's key and parser.  A ``_nm`` length is read in metres and an ``int`` or ``str`` default
    as such; any other field is a quantity that takes only suffixes of the unit its name ends in, ``_per_``
    read as ``/`` (``shuttle_s``: s, ``drift_v_per_s``: V/s), and a bare number where the name ends in none
    (``eps_r``).  The key is the field's name without its unit."""
    if field.endswith("_nm"):
        key, parse = field.removesuffix("_nm"), _length_nm
    elif isinstance(default, int):
        key, parse = field, parse_int
    elif isinstance(default, str):
        key, parse = field, str.strip
    else:
        head, per, tail = field.rpartition("_per_")
        stem, _, name = (head if per else field).rpartition("_")
        unit = next((unit for unit in UNITS if unit.lower() == (f"{name}/{tail}" if per else name)), False)
        key, parse = stem if unit else field, lambda text: parse_quantity(text, unit)
    return _RENAMED.get(field, key), parse


# (section, canonical key) -> (section field, parser, short alias or None), in section and field order
_KEYMAP: dict[tuple[str, str], tuple[str, object, str | None]] = {
    (section, key): (field, parse, _SHORT_ALIASES[section].get(key))
    for section, fields in ToolConfig._field_defaults.items()
    for field, default in fields._field_defaults.items()
    for key, parse in [_parser(field, default)]
}

_ALIASES = {(s, alias): k for (s, k), (_, _, alias) in _KEYMAP.items() if alias}

# section name -> its class, in ToolConfig field order
SECTIONS = {name: type(default) for name, default in ToolConfig._field_defaults.items()}
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


def apply_entries(entries: Entries, base: ToolConfig = ToolConfig()) -> ToolConfig:
    """``base`` with every value parsed in; an entry's origin is its file line or its override text."""
    updates: dict[str, dict[str, object]] = {}
    for (section, key), (raw, origin) in entries.items():
        attr, parser, _ = _KEYMAP[(section, key)]
        try:
            updates.setdefault(section, {})[attr] = parser(raw)
        except ValueError as exc:
            message = f"bad value for {section}.{key}: {exc}"
            if isinstance(origin, str):
                raise ConfigParseError(f"override {origin!r}: {message}") from exc
            raise ConfigParseError(message, origin) from exc
    return base._replace(**{s: getattr(base, s)._replace(**kw) for s, kw in updates.items()})


def read_entries(path: str | None = None, overrides: list[str] | None = None) -> Entries:
    """The first step of :func:`load_config`: read the file and resolve each
    override's key, leaving every value unparsed for :func:`apply_entries`."""
    entries: Entries = {}
    if path is not None and os.path.exists(path):
        try:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
            raise ConfigParseError(f"cannot read config file {path!r}: {getattr(exc, 'strerror', exc)}") from exc
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
