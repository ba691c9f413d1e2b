import math
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderweb import config
from spiderweb.config import (
    ElectronicsParams,
    InterconnectGrid,
    SignalParams,
    TimingParams,
    ToolConfig,
    apply_entries,
    load_config,
    parse_config_text,
    read_entries,
)
from spiderweb.errors import ConfigParseError, InvalidConfigError
from spiderweb.model import ArrayConfig, validate_config
from spiderweb.units import UNITS, UnitError, parse_int, parse_quantity, si_format

SAMPLE = """\
# reference design with a few tweaks
[array]
d = 13um
x = 200          # logical-operation crossbars
bias_module_edge = 32

[timing]
t_sh = 60ns
readout = 2us

[signals]
v_p = 0.5V

[electronics]
drift = 2uV/s

[interconnect]
n_l = 100
"""


class TestQuantityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("13um", 13e-6),
        ("50nm", 50e-9),
        ("1V", 1.0),
        ("1mV", 1e-3),
        ("1uV", 1e-6),
        ("100kHz", 1e5),
        ("6.5536GHz", 6.5536e9),
        ("0.35pJ", 0.35e-12),
        ("700fF", 700e-15),
        ("0.1V/s", 0.1),
        ("2uV/s", 2e-6),
        ("1pF/um2", 1.0),
        ("0.2fF/um", 2e-10),
        ("0.1ohm", 0.1),
        ("45um2", 45e-12),
        ("20", 20.0),
        ("1e-6", 1e-6),
        ("1 K", 1.0),
        # an SI spelling reads with its case: M is mega, m is milli
        ("5 MW", 5e6), ("2 Mohm", 2e6), ("1.5 MΩ", 1.5e6), ("1 mHz", 1e-3), ("100 mW", 0.1),
        ("3 mohm", 3e-3), ("4 Gohm", 4e9), ("1 TF", 1e12), ("7 aF", 7e-18), ("2 Mm", 2e6),
        # other spellings keep their any-case reading
        ("2MHz", 2e6), ("2mhz", 2e6), ("2 MHZ", 2e6), ("2 Mhz", 2e6), ("1 mv/s", 1e-3), ("3 M", 3.0),
        ("1 Kohm", 1e3),
    ])
    def test_known_suffixes(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-12)

    def test_micro_sign_accepted(self):
        assert parse_quantity("13µm") == pytest.approx(13e-6)

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ValueError, match="unknown unit suffix"):
            parse_quantity("3parsec")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_quantity("fast")

    def test_parse_int(self):
        assert parse_int("32") == 32
        with pytest.raises(ValueError, match="integer"):
            parse_int("2.5")

    def test_si_format(self):
        assert si_format(6.5536e9, "Hz") == "6.554 GHz"
        assert si_format(13.8e-12, "F") == "13.8 pF"
        assert si_format(0.0, "W") == "0 W"

    @pytest.mark.parametrize("value,expected", [
        # values that round up to 1000 at one prefix print at the next
        (9.999999e-7, "1 uF"),
        (-9.999999e-7, "-1 uF"),
        (999.96, "1 kF"),
        (-999.96, "-1 kF"),
        (999.96e3, "1 MF"),
        (-999.96e3, "-1 MF"),
        (9.99999e-16, "1 fF"),
        (0.99999e-3, "1 mF"),
        # values just inside a prefix keep it
        (999.94, "999.9 F"),
        (-999.94e-9, "-999.9 nF"),
        (1e-6, "1 uF"),
        (-1e-6, "-1 uF"),
        (1.0, "1 F"),
        # the largest and smallest prefixes have no neighbour to roll into
        (999.96e12, "1000 TF"),
        (1e-20, "0.01 aF"),
    ])
    def test_si_format_prefix_boundaries(self, value, expected):
        assert si_format(value, "F") == expected

    @pytest.mark.parametrize("text", ["5 Mw", "1 MOHM", "2 MV/s", "1 MM", "1 MS", "1 MM2"])
    def test_uppercase_m_read_as_milli_is_ambiguous(self, text):
        with pytest.raises(ValueError, match=f"ambiguous unit suffix '{text.split()[1]}' in '{text}'"):
            parse_quantity(text)

    @pytest.mark.parametrize("text", ["-0", "-0.0ns", "-0e5um", "-1e-400", "-1e-320ns"])
    def test_signed_zero_reads_as_zero(self, text):
        assert math.copysign(1.0, parse_quantity(text)) == 1.0

    def test_text_past_the_float_range_is_out_of_range(self):
        # four digits of the largest float name a number past it
        text = si_format(sys.float_info.max, "W")
        assert text == "1.798e+296 TW"
        with pytest.raises(ValueError, match="out of range"):
            parse_quantity(text)


@settings(max_examples=500, deadline=None)
@given(x=st.floats(min_value=-1.797e308, max_value=1.797e308),
       unit=st.sampled_from(["m", "F", "Hz", "s", "W", "V", "ohm"]))
@example(x=5e6, unit="W")
@example(x=2e6, unit="ohm")
@example(x=1.5e6, unit="ohm")
@example(x=1e-3, unit="Hz")
def test_si_format_parses_back(x, unit):
    """Every ``si_format`` output reads back within its four digits, up to the
    largest floats, whose four-digit text leaves the float range (above)."""
    assert math.isclose(parse_quantity(si_format(x, unit)), x, rel_tol=5e-4)


class TestConfigText:
    def test_sample_parses(self):
        entries = parse_config_text(SAMPLE)
        assert entries[("array", "qubit_pitch")][0] == "13um"
        assert entries[("array", "crossbars")][0] == "200"
        assert entries[("timing", "shuttle")][0] == "60ns"
        assert entries[("electronics", "drift")][0] == "2uV/s"

    def test_unknown_section_has_line_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("[array]\nd = 13um\n[cooling]\n")
        assert err.value.line == 3

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("[array]\nwidth = 13um\n")
        assert err.value.line == 2
        assert "unknown key" in str(err.value)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigParseError, match="outside any"):
            parse_config_text("d = 13um\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigParseError, match="key = value"):
            parse_config_text("[array]\nd 13um\n")


# raw values that parse for some keys and not for others
_RAW_VALUES = ("5", "2.5", "0", "-1", "13um", "50ns", "1mV/s", "2k", "abc", "1e400", "", "disabled")


class TestLoadConfig:
    def test_defaults_without_file(self):
        config = load_config()
        assert config == ToolConfig()
        assert config.array.qubit_pitch_nm == 13_000
        assert config.array.bias_module_edge == 32
        assert config.timing.readout_s == 1e-6
        assert config.signals.line_length_m is None

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "design.cfg"
        path.write_text(SAMPLE)
        config = load_config(str(path))
        assert config.array.crossbars == 200
        assert config.timing.shuttle_s == pytest.approx(60e-9)
        assert config.timing.readout_s == pytest.approx(2e-6)
        assert config.signals.pulse_amplitude_v == pytest.approx(0.5)
        assert config.electronics.drift_v_per_s == pytest.approx(2e-6)
        assert config.interconnect.lines_per_layer == 100
        # untouched keys keep their defaults
        assert config.array.code_distance == 16

    def test_no_entries_gives_the_defaults(self):
        assert apply_entries({}) == ToolConfig()

    def test_swept_point_builds_only_its_section(self):
        default = apply_entries({})
        point = apply_entries(read_entries(None, ["x=5"]))
        assert point.array == default.array._replace(crossbars=5)
        for section in ("electronics", "timing", "signals", "interconnect"):
            assert getattr(point, section) is getattr(default, section)
            assert getattr(point, section) is getattr(ToolConfig(), section)

    def test_shared_sections_are_frozen(self):
        shared = apply_entries(read_entries(None, ["x=5"])).timing
        with pytest.raises(AttributeError):
            shared.readout_s = 2e-6
        assert ToolConfig().timing.readout_s == 1e-6

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(config._KEYMAP)), st.sampled_from(_RAW_VALUES),
                              st.one_of(st.integers(1, 99), st.none())), max_size=12),
           st.sampled_from([ToolConfig(), load_config(overrides=["x=8", "t_r=2us", "n_l=200"])]))
    @example([(("array", "crossbars"), "3", 1), (("timing", "readout"), "abc", 2), (("array", "crossbars"), "x", 3)],
             ToolConfig())
    def test_entries_apply_as_a_per_section_replace(self, drawn, base):
        # an origin of None stands for an override; a repeated key keeps its first place and its last value,
        # as read_entries builds it
        entries = {key: (raw, origin or f"{key[0]}.{key[1]}={raw}") for key, raw, origin in drawn}
        parsed: dict[str, dict[str, object]] = {}
        want: ToolConfig | str = ""
        for (section, key), (raw, origin) in entries.items():
            field, parse, _ = config._KEYMAP[(section, key)]
            try:
                parsed.setdefault(section, {})[field] = parse(raw)
            except ValueError as exc:
                where = f"override {origin!r}: " if isinstance(origin, str) else f"line {origin}: "
                want = f"{where}bad value for {section}.{key}: {exc}"
                break
        if want:
            with pytest.raises(ConfigParseError) as err:
                apply_entries(entries, base)
            assert str(err.value) == want
            return
        got = apply_entries(entries, base)
        assert got == base._replace(**{s: getattr(base, s)._replace(**fields) for s, fields in parsed.items()})
        for section in ToolConfig._fields:
            if section not in parsed:
                assert getattr(got, section) is getattr(base, section)

    def test_missing_file_falls_back_to_defaults(self):
        assert load_config("/nonexistent/design.cfg") == ToolConfig()

    def test_unreadable_path_is_an_error(self, tmp_path):
        with pytest.raises(ConfigParseError, match="cannot read"):
            load_config(str(tmp_path))  # a directory, not a file

    def test_overrides_after_file(self, tmp_path):
        path = tmp_path / "design.cfg"
        path.write_text(SAMPLE)
        config = load_config(str(path), overrides=["x=0", "timing.t_sh=50ns"])
        assert config.array.crossbars == 0
        assert config.timing.shuttle_s == pytest.approx(50e-9)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "design.cfg"
        path.write_text(SAMPLE, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(str(path)) == apply_entries(parse_config_text(SAMPLE))

    def test_alias_and_canonical_equivalent(self):
        by_alias = load_config(overrides=["d=20um"])
        by_name = load_config(overrides=["array.qubit_pitch=20um"])
        assert by_alias == by_name
        assert by_alias.array.qubit_pitch_nm == 20_000

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigParseError, match="unknown key"):
            load_config(overrides=["qubits=12"])

    def test_ambiguous_override_rejected(self):
        # line_width exists in both [signals] and [interconnect]
        with pytest.raises(ConfigParseError, match="ambiguous"):
            load_config(overrides=["line_width=1um"])
        config = load_config(overrides=["signals.line_width=2um"])
        assert config.signals.line_width_m == pytest.approx(2e-6)

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigParseError, match="key=value"):
            load_config(overrides=["x200"])

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigParseError, match="array.qubit_pitch"):
            load_config(overrides=["d=quick"])

    def test_bad_value_names_override_or_file_line(self, tmp_path):
        with pytest.raises(ConfigParseError) as err:
            load_config(overrides=["w=abc"])
        assert str(err.value).startswith("override 'w=abc': bad value for interconnect.line_width")
        assert err.value.line is None
        path = tmp_path / "design.cfg"
        path.write_text("[interconnect]\nw = abc\n")
        with pytest.raises(ConfigParseError) as err:
            load_config(str(path))
        assert str(err.value).startswith("line 2: bad value for interconnect.line_width")
        assert err.value.line == 2

    def test_fractional_nanometre_rejected(self):
        with pytest.raises(ConfigParseError, match="nanometre"):
            load_config(overrides=["gate_pitch=0.5nm"])


class TestKeymap:
    def test_every_section_field_is_set_by_one_key(self):
        setters = Counter((section, field) for (section, _), (field, _, _) in config._KEYMAP.items())
        fields = {(name, f) for name, cls in config.SECTIONS.items() for f in cls._fields}
        assert set(setters) == fields
        assert set(setters.values()) == {1}

    @pytest.mark.parametrize("section", config.SECTIONS)
    def test_aliases_collide_with_nothing_in_their_section(self, section):
        keys = [k for s, k in config._KEYMAP if s == section]
        aliases = [a for (s, _), (_, _, a) in config._KEYMAP.items() if s == section and a]
        assert len(set(keys + aliases)) == len(keys) + len(aliases)

    def test_every_alias_resolves_to_its_key(self):
        for (section, key), (_, _, alias) in config._KEYMAP.items():
            if alias:
                assert config.resolve_override(f"{section}.{alias}=1") == ((section, key), "1")

    # Each key is derived from its field's name, so renaming a field renames a user's key: these pin both.
    def test_the_known_keys_are_pinned(self):
        assert config.KNOWN_KEYS == (
            "array.bias_grid_edge", "array.bias_module_edge", "array.code_distance", "array.crossbars",
            "array.gate_pitch", "array.interconnect_pitch", "array.metal_layers", "array.parallel_readouts",
            "array.qubit_pitch", "array.readout_grid_edge", "array.readout_module_edge",
            "array.sequential_readouts", "electronics.cap_density", "electronics.coarse_resolution",
            "electronics.demux_area", "electronics.demux_count_per_cell", "electronics.demux_energy_per_cycle",
            "electronics.drift", "electronics.fine_resolution", "electronics.temperature",
            "interconnect.dielectric_thickness", "interconnect.eps_r", "interconnect.fringe_mode",
            "interconnect.line_gap", "interconnect.line_length", "interconnect.line_thickness",
            "interconnect.line_width", "interconnect.lines_per_layer", "signals.cap_per_length",
            "signals.line_amplitude", "signals.line_frequency", "signals.line_length", "signals.line_width",
            "signals.pulse_amplitude", "signals.pulse_frequency", "signals.sheet_resistance", "timing.dephasing",
            "timing.exchange", "timing.readout", "timing.shuttle", "timing.single_qubit",
        )

    def test_the_aliases_are_pinned(self):
        assert config._ALIASES == {
            ("array", "d"): "qubit_pitch", ("array", "n_b"): "bias_module_edge", ("array", "m_b"): "bias_grid_edge",
            ("array", "n_r"): "readout_module_edge", ("array", "m_r"): "readout_grid_edge",
            ("array", "q"): "sequential_readouts", ("array", "r"): "parallel_readouts", ("array", "x"): "crossbars",
            ("array", "d_c"): "code_distance", ("array", "n_layers"): "metal_layers",
            ("array", "delta_i"): "interconnect_pitch", ("electronics", "dv_coarse"): "coarse_resolution",
            ("electronics", "dv_fine"): "fine_resolution", ("electronics", "t_op"): "temperature",
            ("timing", "t_sh"): "shuttle", ("timing", "t_1q"): "single_qubit", ("timing", "t_sw"): "exchange",
            ("timing", "t_r"): "readout", ("timing", "t2_star"): "dephasing", ("signals", "v_p"): "pulse_amplitude",
            ("signals", "f_p"): "pulse_frequency", ("signals", "v_t"): "line_amplitude",
            ("signals", "f_t"): "line_frequency", ("signals", "c_per_um"): "cap_per_length",
            ("signals", "sheet_res"): "sheet_resistance", ("interconnect", "n_l"): "lines_per_layer",
            ("interconnect", "l"): "line_length", ("interconnect", "w"): "line_width",
            ("interconnect", "h"): "line_thickness", ("interconnect", "d1"): "line_gap",
            ("interconnect", "d2"): "dielectric_thickness",
        }


# Each float key's unit, as its field name writes it; the integer keys and eps_r take a bare number.
KEY_UNITS = {
    "array.qubit_pitch": "m", "array.gate_pitch": "m", "array.interconnect_pitch": "m",
    "electronics.coarse_resolution": "V", "electronics.fine_resolution": "V", "electronics.temperature": "K",
    "electronics.drift": "V/s", "electronics.cap_density": "F/m2", "electronics.demux_area": "m2",
    "electronics.demux_energy_per_cycle": "J", "timing.shuttle": "s", "timing.single_qubit": "s",
    "timing.exchange": "s", "timing.readout": "s", "timing.dephasing": "s", "signals.pulse_amplitude": "V",
    "signals.pulse_frequency": "Hz", "signals.line_amplitude": "V", "signals.line_frequency": "Hz",
    "signals.cap_per_length": "F/m", "signals.sheet_resistance": "ohm", "signals.line_width": "m",
    "signals.line_length": "m", "interconnect.line_length": "m", "interconnect.line_width": "m",
    "interconnect.line_thickness": "m", "interconnect.line_gap": "m", "interconnect.dielectric_thickness": "m",
}
BARE_KEYS = sorted(set(config.KNOWN_KEYS) - set(KEY_UNITS) - {"interconnect.fringe_mode"})


class TestKeyUnits:
    @pytest.mark.parametrize("key", sorted(KEY_UNITS))
    def test_a_key_takes_every_suffix_of_its_unit_and_no_other(self, key):
        unit = KEY_UNITS[key]
        for other, suffixes in UNITS.items():
            for suffix in suffixes:
                override = f"{key}=2{suffix}"
                if other == unit:
                    load_config(overrides=[override])
                    continue
                with pytest.raises(ConfigParseError) as err:
                    load_config(overrides=[override])
                assert str(err.value) == (f"override {override!r}: bad value for {key}: unit suffix {suffix!r} "
                                          f"in '2{suffix}': expected a unit of {unit}")

    @pytest.mark.parametrize("key", BARE_KEYS)
    @pytest.mark.parametrize("suffix", ["k", "M", "m", "V", "s"])
    def test_a_count_or_a_ratio_takes_no_suffix(self, key, suffix):
        with pytest.raises(ConfigParseError, match=f"bad value for {key}: unit suffix '{suffix}' in '4{suffix}': "
                                                   "expected a bare number"):
            load_config(overrides=[f"{key}=4{suffix}"])

    def test_bare_keys_are_the_counts_and_eps_r(self):
        assert BARE_KEYS == sorted(["interconnect.eps_r", *(
            f"{s}.{k}" for (s, k), (_, parse, _) in config._KEYMAP.items() if parse is parse_int)])

    def test_a_file_line_names_its_key_and_suffix(self):
        with pytest.raises(ConfigParseError, match=r"^line 2: bad value for timing\.shuttle: unit suffix 'nF' in "
                                                   r"'50nF': expected a unit of s$"):
            apply_entries(parse_config_text("[timing]\nt_sh = 50nF\n"))

    @pytest.mark.parametrize("text, unit", [("5 MW", "W"), ("2 Mohm", "ohm"), ("1 mHz", "Hz"), ("3 M", "m"),
                                            ("1 Kohm", "ohm"), ("4 mK", "K"), ("1 ks", "s")])
    def test_si_case_and_any_case_spellings_keep_their_unit(self, text, unit):
        assert parse_quantity(text, unit) == parse_quantity(text)
        with pytest.raises(UnitError):
            parse_quantity(text, "J")

    @pytest.mark.parametrize("text", ["1 MS", "5 Mw"])
    def test_the_ambiguous_m_rule_comes_before_the_unit(self, text):
        with pytest.raises(ValueError, match="ambiguous unit suffix"):
            parse_quantity(text, "J")


# (section, field, a value past the field's bound, the message that names it)
BOUNDS = [
    *((ArrayConfig, f, 0, f"{f} must be strictly positive (got 0)")
      for f in ArrayConfig._fields if f != "crossbars"),
    (ArrayConfig, "crossbars", -1, "crossbars must be non-negative (got -1)"),
    *((ElectronicsParams, f, 0, f"{f} must be strictly positive (got 0)")
      for f in ElectronicsParams._fields),
    *((InterconnectGrid, f, 0, f"{f} must be strictly positive (got 0)")
      for f in InterconnectGrid._fields if f != "fringe_mode"),
    (InterconnectGrid, "fringe_mode", "full",
     "fringe_mode must be one of ('printed_magnitude', 'disabled')"),
    *((SignalParams, f, -1.0, f"{f} must be non-negative (got -1.0)")
      for f in SignalParams._fields if f not in ("line_width_m", "line_length_m")),
    (SignalParams, "line_width_m", 0.0, "line_width_m must be strictly positive"),
    (SignalParams, "line_length_m", 0.0, "line_length_m must be strictly positive"),
    *((TimingParams, f, -1.0, f"{f} must be non-negative") for f in TimingParams._fields),
]


class TestSectionBounds:
    @pytest.mark.parametrize(
        "section, field, value, message", BOUNDS, ids=[f"{c.__name__}.{f}" for c, f, _, _ in BOUNDS],
    )
    def test_value_past_its_bound_names_the_field(self, section, field, value, message):
        section().validate()
        with pytest.raises((ValueError, InvalidConfigError), match=re.escape(message)):
            section()._replace(**{field: value}).validate()

    def test_every_field_bound_is_checked(self):
        checked = {(c, f) for c, f, _, _ in BOUNDS}
        sections = (ArrayConfig, ElectronicsParams, InterconnectGrid, SignalParams, TimingParams)
        assert checked == {(c, f) for c in sections for f in c._fields}

    def test_array_violations_in_field_order_crossbars_last(self):
        past = {f: v for c, f, v, _ in BOUNDS if c is ArrayConfig}
        with pytest.raises(InvalidConfigError) as err:
            validate_config(ArrayConfig(**past))
        violations = err.value.violations
        assert violations == tuple(m for c, _, _, m in BOUNDS if c is ArrayConfig)
        assert violations[-1].startswith("crossbars")

    @pytest.mark.parametrize("section", [ElectronicsParams, InterconnectGrid, SignalParams, TimingParams])
    def test_the_first_field_in_order_is_named(self, section):
        rows = [(f, v, m) for c, f, v, m in BOUNDS if c is section]
        with pytest.raises(ValueError) as err:
            section(**{f: v for f, v, _ in rows}).validate()
        assert str(err.value) == rows[0][2]

    def test_sections_are_checked_in_validation_order(self):
        assert sorted(config.VALIDATION_ORDER) == sorted(config.SECTIONS)
        broken = {c: c()._replace(**{f: v}) for c, f, v, _ in BOUNDS}
        sections = {name: broken[cls] for name, cls in config.SECTIONS.items()}
        for section in config.VALIDATION_ORDER:  # the first broken section in order is named
            with pytest.raises((ValueError, InvalidConfigError)) as err:
                ToolConfig(**sections).validate()
            with pytest.raises(type(err.value), match=re.escape(str(err.value))):
                sections[section].validate()
            sections[section] = type(sections[section])()
        ToolConfig(**sections).validate()

    def test_only_the_given_sections_are_checked(self):
        bad = ToolConfig(timing=TimingParams(readout_s=-1.0))
        bad.validate(("array", "electronics", "interconnect", "signals"))
        with pytest.raises(ValueError, match="readout_s"):
            bad.validate(("timing",))
