"""Parsing and formatting of SI-suffixed quantities.

Config files and ``--set`` overrides accept values like ``13um``, ``1V`` or
``100kHz``.  A bare number is interpreted in the SI base unit of the key it is
assigned to (metres, volts, seconds, hertz, farads, ...), and a suffix must
measure in that unit.  A prefixed unit in SI case reads as SI (``MW`` mega,
``mW`` milli), as ``si_format`` prints it.
"""

from __future__ import annotations

import math
import re

_ENG_PREFIXES = [
    (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
    (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"), (1e-15, "f"),
    (1e-18, "a"),
]
_SCALES = {prefix: scale for scale, prefix in _ENG_PREFIXES}

# Multiplier per recognised suffix, by the unit it measures in: a linear unit with the SI prefixes it takes,
# or a compound unit (areal and linear capacitance densities, areas) with its suffixes listed explicitly.
UNITS = {unit: {(prefix + unit).lower(): _SCALES[prefix] for prefix in ("", *prefixes)}
         if isinstance(prefixes, str) else prefixes for unit, prefixes in {
    "s": "munp", "m": "mun", "V": "mu", "Hz": "kMG", "F": "unpfa", "J": "npf", "W": "munp", "K": "m",
    "V/s": "mu",
    "F/m2": {"f/m2": 1.0, "pf/um2": 1.0, "ff/um2": 1e-3},  # 1 pF/um^2 == 1 F/m^2
    "F/m": {"f/m": 1.0, "pf/um": 1e-6, "ff/um": 1e-9, "af/um": 1e-12},
    "ohm": "mk",
    "m2": {"m2": 1.0, "mm2": 1e-6, "um2": 1e-12},
}.items()}
UNITS["ohm"]["ohm/sq"] = 1.0  # sheet resistance, per square
_SUFFIXES = {suffix: (scale, unit) for unit, scales in UNITS.items() for suffix, scale in scales.items()}

# Every prefixed linear unit in SI case, as ``si_format`` prints it: "MW" is
# mega and "mW" milli.  Other spellings read from ``_SUFFIXES`` in any case.
_SI_SPELLINGS = {prefix + unit: (scale, unit) for scale, prefix in _ENG_PREFIXES
                 for unit in ("m", "F", "Hz", "s", "W", "V", "ohm")}


class UnitError(ValueError):
    """A unit suffix that the quantity does not take: one of another unit, or any for a bare number."""


_SI_DIGITS = 4  # significant digits si_format prints

_QUANTITY_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*)$")


def _normalize_suffix(suffix: str) -> str:
    return (
        suffix.replace("µ", "u")  # micro sign
        .replace("μ", "u")        # greek mu
        .replace("Ω", "ohm")      # capital omega
        .replace("²", "2")        # superscript two
        .replace(" ", "")
    )


def parse_quantity(text: str, unit: str | bool = True) -> float:
    """Parse ``text`` into an SI float, honouring a unit suffix if present: any suffix by default, only one
    that measures in ``unit`` (a key of ``UNITS``) if given one, and none (a bare number, such as an angle
    in radians) with ``unit=False``."""
    m = _QUANTITY_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse quantity {text!r}")
    number, suffix = m.groups()
    if suffix and not unit:
        raise UnitError(f"unit suffix {suffix!r} in {text!r}: expected a bare number")
    value = float(number)
    if suffix:  # an M the any-case table reads as milli ("Mw", "MOHM") is ambiguous; "mhz" stays MHz
        key = _normalize_suffix(suffix)
        scale, suffix_unit = _SI_SPELLINGS.get(key, (None, None))
        if scale is None:
            lower, rest = key.lower(), key[1:].lower()
            if lower not in _SUFFIXES:
                raise ValueError(f"unknown unit suffix {suffix!r} in {text!r}")
            if key.startswith("M") and rest in _SUFFIXES and _SUFFIXES[lower][0] != 1e6 * _SUFFIXES[rest][0]:
                raise ValueError(f"ambiguous unit suffix {suffix!r} in {text!r}: "
                                 "write the unit in SI case, with M for mega or m for milli")
            scale, suffix_unit = _SUFFIXES[lower]
        if unit is not True and suffix_unit != unit:
            raise UnitError(f"unit suffix {suffix!r} in {text!r}: expected a unit of {unit}")
        value *= scale
    if not math.isfinite(value):
        raise ValueError(f"quantity {text!r} is out of range")
    return value + 0.0  # a signed zero ("-0", "-1e-400") reads as 0.0, every other value as it is


def parse_int(text: str) -> int:
    value = parse_quantity(text, False)
    if abs(value) > 2**53:  # past this, floats no longer hold every integer
        raise ValueError(f"integer {text!r} is out of range")
    rounded = round(value)
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(rounded)


def si_format(value: float, unit: str) -> str:
    """Format a value with an engineering prefix, e.g. ``si_format(6.5536e9, 'Hz')``;
    the prefix is chosen after rounding, so 9.999999e-7 F prints as ``1 uF``."""
    if value == 0 or not math.isfinite(value):
        return f"0 {unit}" if value == 0 else f"{value} {unit}"
    i = next((i for i, (scale, _) in enumerate(_ENG_PREFIXES) if abs(value) >= scale), -1)
    mantissa = f"{value / _ENG_PREFIXES[i][0]:.{_SI_DIGITS}g}"
    if i and abs(float(mantissa)) >= 1000:
        i -= 1
        mantissa = f"{value / _ENG_PREFIXES[i][0]:.{_SI_DIGITS}g}"
    return f"{mantissa} {_ENG_PREFIXES[i][1]}{unit}"
