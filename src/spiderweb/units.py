"""Parsing and formatting of SI-suffixed quantities.

Config files and ``--set`` overrides accept values like ``13um``, ``1V`` or
``100kHz``.  A bare number is interpreted in the SI base unit of the key it is
assigned to (metres, volts, seconds, hertz, farads, ...).
"""

from __future__ import annotations

import math
import re

# Multiplier per recognised suffix.  Compound suffixes (drift rates, areal and
# linear capacitance densities, sheet resistance) are listed explicitly.
_SUFFIXES = {
    # time
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12,
    # length
    "m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
    # voltage
    "v": 1.0, "mv": 1e-3, "uv": 1e-6,
    # frequency
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    # capacitance
    "f": 1.0, "uf": 1e-6, "nf": 1e-9, "pf": 1e-12, "ff": 1e-15, "af": 1e-18,
    # energy
    "j": 1.0, "nj": 1e-9, "pj": 1e-12, "fj": 1e-15,
    # power
    "w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9, "pw": 1e-12,
    # temperature
    "k": 1.0, "mk": 1e-3,
    # drift rate
    "v/s": 1.0, "mv/s": 1e-3, "uv/s": 1e-6,
    # areal capacitance density (1 pF/um^2 == 1 F/m^2)
    "f/m2": 1.0, "pf/um2": 1.0, "ff/um2": 1e-3,
    # capacitance per length
    "f/m": 1.0, "pf/um": 1e-6, "ff/um": 1e-9, "af/um": 1e-12,
    # resistance (incl. per square)
    "ohm": 1.0, "mohm": 1e-3, "kohm": 1e3, "ohm/sq": 1.0,
    # area
    "m2": 1.0, "mm2": 1e-6, "um2": 1e-12,
}

_QUANTITY_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*)$")


def _normalize_suffix(suffix: str) -> str:
    return (
        suffix.replace("µ", "u")  # micro sign
        .replace("μ", "u")        # greek mu
        .replace("Ω", "ohm")      # capital omega
        .replace("²", "2")        # superscript two
        .lower()
        .replace(" ", "")
    )


def parse_quantity(text: str) -> float:
    """Parse ``text`` into an SI float, honouring a unit suffix if present."""
    m = _QUANTITY_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse quantity {text!r}")
    number, suffix = m.groups()
    value = float(number)
    if suffix:
        key = _normalize_suffix(suffix)
        if key not in _SUFFIXES:
            raise ValueError(f"unknown unit suffix {suffix!r} in {text!r}")
        value *= _SUFFIXES[key]
    if not math.isfinite(value):
        raise ValueError(f"quantity {text!r} is out of range")
    return value


def parse_int(text: str) -> int:
    value = parse_quantity(text)
    if abs(value) > 2**53:  # past this, floats no longer hold every integer
        raise ValueError(f"integer {text!r} is out of range")
    rounded = round(value)
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(rounded)


_ENG_PREFIXES = [
    (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
    (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"), (1e-15, "f"),
    (1e-18, "a"),
]


def si_format(value: float, unit: str, digits: int = 4) -> str:
    """Format a value with an engineering prefix, e.g. ``si_format(6.5536e9, 'Hz')``;
    the prefix is chosen after rounding, so 9.999999e-7 F prints as ``1 uF``."""
    if value == 0 or not math.isfinite(value):
        return f"0 {unit}" if value == 0 else f"{value} {unit}"
    i = next((i for i, (scale, _) in enumerate(_ENG_PREFIXES) if abs(value) >= scale), -1)
    mantissa = f"{value / _ENG_PREFIXES[i][0]:.{digits}g}"
    if i and abs(float(mantissa)) >= 1000:
        i -= 1
        mantissa = f"{value / _ENG_PREFIXES[i][0]:.{digits}g}"
    return f"{mantissa} {_ENG_PREFIXES[i][1]}{unit}"
