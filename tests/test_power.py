import itertools
import math

import pytest
import scipy.constants
from scipy.constants import epsilon_0

from spiderweb import electronics, power
from spiderweb.config import ElectronicsParams, InterconnectGrid, SignalParams, ToolConfig
from spiderweb.electronics import refresh_rate
from spiderweb.model import ArrayConfig
from spiderweb.power import (
    demux_power,
    dynamic_power,
    parasitic_capacitance,
    total_power,
    transmission_line_power,
)
from spiderweb.report import build_report

REFERENCE = ArrayConfig()
GRID = InterconnectGrid()
ELEC = ElectronicsParams()


def _total_power(cfg: ArrayConfig, signals: SignalParams, elec: ElectronicsParams, pinned: float | None = None):
    """The power report with the grid capacitance of ``GRID`` and the fine refresh rate of ``elec`` passed in."""
    refresh = refresh_rate(elec)
    return total_power(cfg, signals, elec, parasitic_capacitance(GRID), refresh, pinned)


@pytest.mark.parametrize("literal, reference", [
    (electronics.ELECTRON_CHARGE, "e"),
    (electronics.BOLTZMANN, "k"),
    (power.LIGHT_SPEED, "c"),
    (power.VACUUM_PERMITTIVITY, "epsilon_0"),
], ids=["e", "k", "c", "epsilon_0"])
def test_constant_literals_match_scipy(literal, reference):
    assert literal == getattr(scipy.constants, reference)


def crossing_capacitance_oracle(w, h, d2, eps_r):
    """Hand-evaluated crossing-capacitance polynomial, kept independent of
    the implementation under test."""
    alpha2 = h / (h + 0.2 * d2)
    return eps_r * epsilon_0 * w * (3.285 * w / d2 + 9.01 * alpha2 - 8.696 * alpha2**2)


class TestParasiticCapacitance:
    def test_crossing_term_matches_oracle(self):
        got = parasitic_capacitance(GRID).crossing_f
        assert got == pytest.approx(crossing_capacitance_oracle(80e-9, 50e-9, 500e-9, 3.9), rel=1e-12)
        # alpha2 = 1/3 for the default stack; about 7.1 aF per crossing
        assert got == pytest.approx(7.1e-18, rel=0.01)

    def test_total_within_expected_band(self):
        total = parasitic_capacitance(GRID).total_f
        assert 230e-15 <= total <= 1.4e-12

    def test_total_combines_both_terms(self):
        gc = parasitic_capacitance(GRID)
        assert gc.total_f == 2 * 150 * gc.neighbour_f + 150**2 * gc.crossing_f

    def test_crossing_increases_with_width(self):
        wider = GRID._replace(line_width_m=160e-9)
        assert parasitic_capacitance(wider).crossing_f > parasitic_capacitance(GRID).crossing_f

    def test_fringe_mode_switch(self):
        printed = parasitic_capacitance(GRID)
        plain = parasitic_capacitance(GRID._replace(fringe_mode="disabled"))
        assert printed.crossing_f == plain.crossing_f
        assert printed.neighbour_f > plain.neighbour_f
        # the fringe correction is tiny against the sidewall plate term
        assert printed.neighbour_f == pytest.approx(plain.neighbour_f, rel=1e-9)

    def test_bad_fringe_mode_rejected(self):
        bad = GRID._replace(fringe_mode="full")
        with pytest.raises(ValueError, match="fringe_mode"):
            bad.validate()
        with pytest.raises(ValueError, match="fringe_mode"):
            build_report(ToolConfig(interconnect=bad))

    @pytest.mark.parametrize("fringe", ["printed_magnitude", "disabled"])
    def test_monotone_in_line_count_width_thickness(self, fringe):
        base = GRID._replace(fringe_mode=fringe)
        for field, values in [
            ("lines_per_layer", (50, 100, 150, 200, 300)),
            ("line_width_m", (40e-9, 80e-9, 120e-9, 160e-9)),
            ("line_thickness_m", (25e-9, 50e-9, 75e-9, 100e-9)),
        ]:
            totals = [
                parasitic_capacitance(base._replace(**{field: v})).total_f
                for v in values
            ]
            assert totals == sorted(totals), field

    @pytest.mark.parametrize("fringe", ["printed_magnitude", "disabled"])
    def test_antitone_in_gap_and_dielectric(self, fringe):
        base = GRID._replace(fringe_mode=fringe)
        for field, values in [
            ("line_gap_m", (40e-9, 80e-9, 160e-9, 320e-9)),
            ("dielectric_thickness_m", (250e-9, 500e-9, 1000e-9, 2000e-9)),
        ]:
            totals = [
                parasitic_capacitance(base._replace(**{field: v})).total_f
                for v in values
            ]
            assert totals == sorted(totals, reverse=True), field

    def test_monotonicity_over_joint_grid(self):
        # pairwise dominance: growing lines/width/thickness while shrinking
        # gap/dielectric can only increase the total
        lines = (100, 200)
        widths = (60e-9, 100e-9)
        gaps = (160e-9, 80e-9)
        points = {}
        for n, w, g in itertools.product(lines, widths, gaps):
            grid = GRID._replace(lines_per_layer=n, line_width_m=w, line_gap_m=g)
            points[(n, w, g)] = parasitic_capacitance(grid).total_f
        for (n1, w1, g1), c1 in points.items():
            for (n2, w2, g2), c2 in points.items():
                if n1 <= n2 and w1 <= w2 and g1 >= g2:
                    assert c1 <= c2


class TestDynamicPower:
    def test_reference_cell(self):
        assert dynamic_power(700e-15, 1.0, 1e6) == pytest.approx(350e-9, rel=1e-12)

    def test_zero_amplitude(self):
        assert dynamic_power(700e-15, 0.0, 1e6) == 0.0

    def test_linear_in_frequency(self):
        assert dynamic_power(700e-15, 1.0, 2e6) == pytest.approx(700e-9, rel=1e-12)

    def test_quadratic_in_amplitude(self):
        base = dynamic_power(700e-15, 1.0, 1e6)
        for v in (0.5, 2.0, 3.0):
            assert dynamic_power(700e-15, v, 1e6) == pytest.approx(v**2 * base, rel=1e-12)


class TestDemuxPower:
    def test_worst_case_refresh(self):
        assert demux_power(ELEC, 100e3) == pytest.approx(140e-9, rel=1e-12)

    def test_slow_refresh(self):
        assert demux_power(ELEC, 2.0) == pytest.approx(2.8e-12, rel=1e-12)

    def test_no_demuxes(self):
        # zero demultiplexers dissipate nothing even at full refresh rate
        assert demux_power(ELEC._replace(demux_per_cell=0), 100e3) == 0.0


class TestTransmissionLine:
    def test_constant_at_24um(self):
        s = SignalParams(line_length_m=24e-6)
        r = transmission_line_power(s)
        # oracle: 2 * R * (pi * C)^2 with R = 2.4 ohm and C = 4.8 fF, in nW ns^2/V^2
        assert r.constant_w_s2_per_v2 == pytest.approx(2 * 2.4 * (math.pi * 4.8e-15) ** 2, rel=1e-12)
        assert r.constant_w_s2_per_v2 * 1e27 == pytest.approx(1.0915, rel=1e-3)
        assert r.constant_w_s2_per_v2 * 1e27 == pytest.approx(1.1, rel=0.02)

    def test_power_from_constant(self):
        s = SignalParams(line_length_m=24e-6)
        r = transmission_line_power(s)
        assert r.power_w == pytest.approx(r.constant_w_s2_per_v2 * (1.0 * 1e9) ** 2, rel=1e-12)

    def test_zero_frequency(self):
        s = SignalParams(line_length_m=24e-6, line_frequency_hz=0.0)
        assert transmission_line_power(s).power_w == 0.0

    def test_quadratic_in_frequency(self):
        base = transmission_line_power(SignalParams(line_length_m=24e-6)).power_w
        doubled = transmission_line_power(
            SignalParams(line_length_m=24e-6, line_frequency_hz=2e9)
        ).power_w
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    def test_quadratic_in_amplitude(self):
        base = transmission_line_power(SignalParams(line_length_m=24e-6)).power_w
        tripled = transmission_line_power(
            SignalParams(line_length_m=24e-6, line_amplitude_v=3.0)
        ).power_w
        assert tripled == pytest.approx(9 * base, rel=1e-12)

    @pytest.mark.parametrize("length_um", [24, 25, 26])
    def test_constant_near_lumped_value(self, length_um):
        r = transmission_line_power(SignalParams(line_length_m=length_um * 1e-6))
        assert 1.1 / 1.5 <= r.constant_w_s2_per_v2 * 1e27 <= 1.1 * 1.5

    def test_length_resolves_to_cell_span(self):
        s = SignalParams().resolved(REFERENCE)
        assert s.line_length_m == pytest.approx(26e-6)


class TestTotalPower:
    def test_reference_with_pinned_parasitic(self):
        report = _total_power(REFERENCE, SignalParams(), ELEC, 700e-15)
        assert report.parasitic_pinned
        assert report.array_pulsed_w == pytest.approx(91.75e-3, rel=1e-3)
        assert report.array_demux_w == pytest.approx(36.7e-3, rel=1e-3)
        assert 0.28e-3 <= report.array_line_w <= 0.37e-3
        assert 0.1 <= report.total_w <= 0.2  # order 100 mW

    def test_additivity_exact(self):
        report = _total_power(REFERENCE, SignalParams(), ELEC, 700e-15)
        assert report.total_w == report.unit_cells * (
            report.pulsed_w + report.demux_w + report.line_w
        )
        assert report.total_w == report.array_pulsed_w + report.array_demux_w + report.array_line_w

    def test_unpinned_uses_grid_model(self):
        report = _total_power(REFERENCE, SignalParams(), ELEC)
        assert not report.parasitic_pinned
        assert report.parasitic_capacitance_f == parasitic_capacitance(GRID).total_f

    def test_zero_frequencies_zero_total(self):
        q = SignalParams(pulse_frequency_hz=0.0, line_frequency_hz=0.0)
        still = ELEC._replace(drift_v_per_s=1e-30)  # effectively no refresh
        report = _total_power(REFERENCE, q, still)
        assert report.total_w == pytest.approx(0.0, abs=1e-20)

    def test_single_cell_total_is_component_sum(self):
        cfg = ArrayConfig(
            bias_module_edge=1, bias_grid_edge=1,
            readout_module_edge=1, readout_grid_edge=1,
            sequential_readouts=1, parallel_readouts=1,
        )
        report = _total_power(cfg, SignalParams(), ELEC)
        assert report.unit_cells == 1
        assert report.total_w == report.pulsed_w + report.demux_w + report.line_w
