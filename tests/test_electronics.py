import pytest
from scipy.constants import e as ELECTRON_CHARGE
from scipy.constants import k as BOLTZMANN

from spiderweb.config import ElectronicsParams, ToolConfig
from spiderweb.electronics import (
    demux_clock,
    footprint,
    min_hold_capacitance,
    refresh_rate,
)
from spiderweb.model import GATE_INVENTORY, ArrayConfig, GateInventory, RegionGates
from spiderweb.report import build_report

REFERENCE = ArrayConfig()
PARAMS = ElectronicsParams()


def _footprint(cfg: ArrayConfig, params: ElectronicsParams, inventory: GateInventory):
    """The footprint with both hold capacitances of ``params`` passed in."""
    fine, coarse = min_hold_capacitance("fine", params), min_hold_capacitance("coarse", params)
    return footprint(cfg, params, inventory, fine, coarse)


class TestHoldCapacitance:
    def test_coarse_is_charge_limited(self):
        c = min_hold_capacitance("coarse", PARAMS)
        assert c == ELECTRON_CHARGE / 1e-3
        assert c == pytest.approx(0.16e-15, rel=0.02)

    def test_fine_is_thermal_noise_limited(self):
        c = min_hold_capacitance("fine", PARAMS)
        assert c == BOLTZMANN * 1.0 / 1e-12
        assert c == pytest.approx(13.8e-12, rel=0.01)

    def test_fine_linear_in_temperature(self):
        hot = PARAMS._replace(temperature_k=4.0)
        assert min_hold_capacitance("fine", hot) == pytest.approx(
            4 * min_hold_capacitance("fine", PARAMS), rel=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown capacitor kind"):
            min_hold_capacitance("medium", PARAMS)


class TestRefreshRate:
    def test_fast_drift_end(self):
        assert refresh_rate(PARAMS) == pytest.approx(100e3)

    def test_slow_drift_end(self):
        slow = PARAMS._replace(drift_v_per_s=2e-6)
        assert refresh_rate(slow) == pytest.approx(2.0)

    def test_drift_equal_to_resolution(self):
        p = PARAMS._replace(drift_v_per_s=1e-6)
        assert refresh_rate(p) == pytest.approx(1.0)

    def test_nonpositive_resolution_rejected(self):
        # at the boundary: a config section is validated before any model function runs
        with pytest.raises(ValueError):
            PARAMS._replace(fine_resolution_v=0.0).validate()

    def test_zero_refresh_rate_rejected(self):
        # drift / resolution underflows: no refresh, and a demux clock of 0 Hz
        p = PARAMS._replace(drift_v_per_s=5e-324, fine_resolution_v=10.0, coarse_resolution_v=100.0)
        assert refresh_rate(p) == 0.0
        with pytest.raises(ValueError, match="underflows to a zero refresh rate"):
            p.validate()
        p._replace(drift_v_per_s=5e-323, fine_resolution_v=2.0).validate()  # 2.5e-323 is still positive


class TestDemuxClock:
    def test_reference_module(self):
        assert demux_clock(REFERENCE, 100e3) == 64 * 1024 * 100e3

    def test_single_cell_module(self):
        cfg = REFERENCE._replace(bias_module_edge=1)
        assert demux_clock(cfg, 1.0) == 64.0

    def test_slow_refresh(self):
        assert demux_clock(REFERENCE, 2.0) == pytest.approx(131072.0)

    def test_linear_in_both_factors(self):
        base = demux_clock(REFERENCE, 10.0)
        assert demux_clock(REFERENCE, 20.0) == pytest.approx(2 * base)
        doubled_edge = REFERENCE._replace(bias_module_edge=64)
        assert demux_clock(doubled_edge, 10.0) == pytest.approx(4 * base)


class TestFootprint:
    def test_reference_values(self):
        fp = _footprint(REFERENCE, PARAMS, GATE_INVENTORY)
        assert 440.0 <= fp.capacitor_area_m2 * 1e12 <= 460.0
        assert fp.demux_area_m2 * 1e12 == pytest.approx(180.0)
        assert 620.0 <= fp.total_area_m2 * 1e12 <= 640.0
        assert 12.4 <= fp.min_pitch_um <= 13.0
        assert fp.pitch_feasible  # 13 um pitch clears the minimum

    def test_total_capacitance_reuses_hold_model(self):
        fp = _footprint(REFERENCE, PARAMS, GATE_INVENTORY)
        expected = 32 * min_hold_capacitance("fine", PARAMS) + 32 * min_hold_capacitance("coarse", PARAMS)
        assert fp.hold_capacitance_f == expected
        assert fp.hold_capacitance_f == pytest.approx(450e-12, rel=0.03)

    def test_pulsed_gates_take_no_capacitor_area(self):
        no_pulsed = GateInventory((
            RegionGates("qubit_idling", 4, 0, 4, 0),
            RegionGates("qubit_operation", 2, 7, 2, 0),
            RegionGates("two_qubit_only", 6, 3, 2, 0),
        ))
        assert _footprint(REFERENCE, PARAMS, no_pulsed) == _footprint(REFERENCE, PARAMS, GATE_INVENTORY)

    def test_zero_fine_gates_leaves_tiny_capacitor_area(self):
        coarse_only = GateInventory((RegionGates("coarse", 1, 0, 32, 0),))
        fp = _footprint(REFERENCE, PARAMS, coarse_only)
        assert fp.capacitor_area_m2 * 1e12 < 0.01
        assert fp.total_area_m2 * 1e12 == pytest.approx(180.0, rel=1e-4)

    def test_doubled_density_halves_capacitor_area(self):
        dense = PARAMS._replace(cap_density_f_per_m2=2.0)
        base = _footprint(REFERENCE, PARAMS, GATE_INVENTORY)
        halved = _footprint(REFERENCE, dense, GATE_INVENTORY)
        assert halved.capacitor_area_m2 == pytest.approx(base.capacitor_area_m2 / 2, rel=1e-12)

    def test_infeasible_pitch_flagged_not_fatal(self):
        tight = REFERENCE._replace(qubit_pitch_nm=10_000)
        fp = _footprint(tight, PARAMS, GATE_INVENTORY)
        assert not fp.pitch_feasible
        assert fp.min_pitch_um > 10.0

    def test_min_pitch_monotone_in_density(self):
        pitches = [
            _footprint(REFERENCE, PARAMS._replace(cap_density_f_per_m2=rho), GATE_INVENTORY).min_pitch_m
            for rho in (0.5, 1.0, 2.0, 4.0)
        ]
        assert pitches == sorted(pitches, reverse=True)

    def test_min_pitch_monotone_in_fine_gates(self):
        pitches = []
        for fine in (8, 16, 32, 64):
            inv = GateInventory((RegionGates("all", 1, fine, 32, 0),))
            pitches.append(_footprint(REFERENCE, PARAMS, inv).min_pitch_m)
        assert pitches == sorted(pitches)

    def test_invalid_params_rejected(self):
        bad = PARAMS._replace(fine_resolution_v=2e-3)  # above coarse resolution
        with pytest.raises(ValueError, match="fine resolution"):
            bad.validate()
        with pytest.raises(ValueError, match="fine resolution"):
            build_report(ToolConfig(electronics=bad))
